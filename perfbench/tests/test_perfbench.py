"""Self-tests of the benchmark: determinism, tracer hygiene, self-time
arithmetic, and every workload's op passing its output check at a tiny size.

    python3 -m pytest -q perfbench/tests
"""

import inspect
import pathlib
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for name, value in (("SHARED_ATOMS", 8), ("SHARED_PULL_ATOMS", 12), ("DISTINCT_ATOMS", 4),
                        ("DEEP_STAGES", 4), ("DEEP_POSET", 4)):
        monkeypatch.setattr(workloads, name, value)


def traced_calls(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    tracer = layertrace.Tracer()
    tracer.install(workloads)
    try:
        times, _, failed = run.run_ops(workload, 0, 0.0, workload.calls_window, tracer)
    finally:
        tracer.uninstall()
    assert failed == 0
    metrics = tracer.metrics(workload.calls_window, len(times))
    return {k: v for k, v in metrics.items() if k.endswith(".calls")}


def bindings() -> dict:
    """Every attribute of the library's modules and their classes, and of
    the benchmark's workload module."""
    import l0limits.harness  # noqa: F401

    owners = [m for n, m in sys.modules.items() if n == "l0limits" or n.startswith("l0limits.")]
    owners.append(workloads)
    owners += [c for m in list(owners) for c in vars(m).values()
               if inspect.isclass(c) and c.__module__.startswith("l0limits")]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


@pytest.mark.parametrize("name", NAMES)
def test_seed_gives_identical_inputs_and_call_counts(name):
    assert workloads.WORKLOADS[name](7).digest() == workloads.WORKLOADS[name](7).digest()
    assert workloads.WORKLOADS[name](7).digest() != workloads.WORKLOADS[name](8).digest()
    first, second = traced_calls(name, 7), traced_calls(name, 7)
    assert first == second
    assert first[f"{'harness' if name == 'report' else 'norms'}.calls"] > 0


def test_traced_run_restores_every_binding():
    before = bindings()
    tracer = layertrace.Tracer()
    tracer.install(workloads)
    during = bindings()
    assert sum(during[k] is not v for k, v in before.items()) > 100
    tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_self_time_on_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds a1 [15, 25]) and b [50, 90].
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    parents = [-1, 0, 1, 0]
    assert layertrace.self_times(starts, ends, parents).tolist() == [30, 20, 10, 40]


def test_metrics_aggregate_by_layer_group_and_window():
    tracer = layertrace.Tracer()
    outer = tracer._key("modules", "operator_pointwise_norm")
    vertex = tracer._key("norms", "opnorm", "vertex")
    other = tracer._key("norms")
    # Two ops (ids 0 and 1); only op 0 lies in a calls window of one.
    for name, parent, op, start, end in ((outer, -1, 0, 0, 10_000_000), (vertex, 0, 0, 1_000_000, 4_000_000),
                                         (other, 1, 0, 2_000_000, 3_000_000), (vertex, -1, 1, 0, 2_000_000)):
        tracer.names.append(name)
        tracer.parents.append(parent)
        tracer.ops.append(op)
        tracer.starts.append(start)
        tracer.ends.append(end)
    m = tracer.metrics(calls_window=1, traced_ops=2)
    assert m["norms.opnorm.vertex.calls"] == 1 and m["norms.opnorm.calls"] == 1
    assert m["norms.calls"] == 2 and m["modules.calls"] == 1
    assert m["norms.opnorm.vertex.self_ms"] == pytest.approx((2 + 2) / 2)
    assert m["norms.self_ms"] == pytest.approx((2 + 1 + 2) / 2)
    assert m["modules.self_ms"] == pytest.approx(7 / 2)
    assert m["harness.calls"] == 0
    assert set(m) == set(layertrace.metric_names()[:-1])


@pytest.mark.parametrize("name", NAMES)
def test_each_op_passes_its_check(name):
    workload = workloads.WORKLOADS[name](3)
    pauses = []
    for i in range(3):
        x = workload.prepare(i)
        workload.check(x, workload.run(x))
        workload.check(x, workload.run(x, lambda: pauses.append(i)))
    assert pauses


class Pausing:
    """An op that does nothing but pause three times."""

    def prepare(self, i):
        return i

    def run(self, x, pause=lambda: None):
        for _ in range(3):
            pause()
        return x

    def check(self, x, out):
        pass


def test_reference_slices_are_taken_out_of_op_times():
    times, refs, failed = run.run_ops(Pausing(), 0, 0.0, 5, reference=True)
    assert failed == 0 and len(times) == len(refs) == 5
    one_slice = min(run.reference_block(run.SLICE_UNITS) for _ in range(5))
    assert max(times) < one_slice / 2
    assert all(r > one_slice for r in refs)


def test_checks_reject_wrong_outputs():
    report = workloads.Report(3)
    x = report.prepare(0)
    outs = report.run(x)
    result, rendered, dumped = outs[-1]
    outs[-1] = (result, rendered, dumped + " ")
    with pytest.raises(workloads.CheckFailed):
        report.check(x, outs)
    shared = workloads.WideShared(3)
    out = shared.run(None)
    values = out["chi_norm"].values.copy()
    values[0] *= 0.5
    out["chi_norm"] = type(out["chi_norm"])(out["chi_norm"].space, values)
    with pytest.raises(workloads.CheckFailed):
        shared.check(None, out)


def test_opnorm_paths_follow_dispatch():
    from l0limits.norms import OperatorNorm, WeightedP

    l1, l2 = WeightedP(1, [1.0, 2.0]), WeightedP(2, [1.0, 2.0])
    op = OperatorNorm(2, l2, 2, l2)
    mat = np.eye(2)
    assert layertrace.opnorm_path(mat, l1, l2) == "vertex"
    assert layertrace.opnorm_path(mat, l2, l1) == "facet"
    assert layertrace.opnorm_path(mat, l2, l2) == "spectral"
    assert layertrace.opnorm_path(np.eye(4, 2), l2, op) == "bracket"
    assert layertrace.opnorm_path(np.zeros((0, 2)), l2, WeightedP(1, [])) == "trivial"


def test_untraced_import_leaves_library_untouched():
    import l0limits.modules as modules

    assert not hasattr(modules.compose, "__wrapped__")
    assert not hasattr(workloads.compose, "__wrapped__")
