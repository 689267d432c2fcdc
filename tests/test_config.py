import importlib
import importlib.util
import inspect
import json
import pathlib
import pkgutil
import sys
import threading

import pytest

import l0limits
from l0limits import config
from l0limits.config import DEFAULT_TOLERANCE, set_tolerance, tolerance, tolerance_override
from l0limits.harness import parse_document

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_override_nests_and_restores():
    with tolerance_override(1e-3):
        with tolerance_override(1e-6):
            assert tolerance() == 1e-6
        assert tolerance() == 1e-3
    assert tolerance() == DEFAULT_TOLERANCE
    with pytest.raises(ValueError):
        with tolerance_override(0.0):
            pass
    assert tolerance() == DEFAULT_TOLERANCE


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")],
                         ids=["zero", "negative", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(bad):
    """An infinite tolerance would pass every law check, so it is refused
    like zero, negative and NaN ones, by the override and by the setter."""
    with pytest.raises(ValueError, match="finite and positive"):
        with tolerance_override(bad):
            pass
    with pytest.raises(ValueError, match="finite and positive"):
        set_tolerance(bad)
    assert tolerance() == DEFAULT_TOLERANCE


def test_override_in_one_thread_is_not_seen_by_another():
    """Two overlapping overrides: each thread sees its own value, and the
    default is back after both exit in the order that used to leave the
    first thread's value behind."""
    both_inside = threading.Barrier(2, timeout=10)
    first_entered = threading.Event()
    first_left = threading.Event()
    seen = {}
    errors = []

    def worker(name, value):
        try:
            if name == "second":
                assert first_entered.wait(10)
            with tolerance_override(value):
                first_entered.set()
                both_inside.wait()
                seen[name] = tolerance()
                both_inside.wait()
                if name == "second":
                    assert first_left.wait(10)
            if name == "first":
                first_left.set()
            seen[name + " after"] = tolerance()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            both_inside.abort()

    threads = [threading.Thread(target=worker, args=("first", 1e-3)),
               threading.Thread(target=worker, args=("second", 1e-6))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        assert not t.is_alive()
    assert not errors, errors
    assert seen == {"first": 1e-3, "second": 1e-6,
                    "first after": DEFAULT_TOLERANCE, "second after": DEFAULT_TOLERANCE}
    assert tolerance() == DEFAULT_TOLERANCE


def test_set_tolerance_stays_in_its_thread():
    def worker():
        set_tolerance(1e-2)

    t = threading.Thread(target=worker)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive()
    assert tolerance() == DEFAULT_TOLERANCE


def _library_modules():
    """``l0limits`` and its layer modules.  The harness is left out: its
    ``CheckSpec.tol`` is a document's per-check tolerance, which the check
    runs under through the context."""
    names = [m.name for m in pkgutil.walk_packages(l0limits.__path__, "l0limits.")]
    return [l0limits] + [
        importlib.import_module(n) for n in names if not n.startswith("l0limits.harness")
    ]


def test_no_public_callable_takes_a_tolerance_or_a_presentation():
    """The context tolerance is the only tolerance, and a system's limit is
    the one it keeps: no public function, class or method of the library
    takes a ``tol`` or a ``presentation``."""
    modules = _library_modules()
    assert len(modules) > 10
    found = []
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{attr}", meth) for attr, meth in vars(obj).items()
                            if inspect.isfunction(meth) and not attr.startswith("_")]
            for qual, fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                found += [f"{module.__name__}.{qual}({p})" for p in ("tol", "presentation")
                          if p in params]
    assert found == []


def _report_pool(seed: int):
    """The documents of one op of the ``report`` benchmark workload: the
    bundled fixtures and the generated documents of ``seed``."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_report_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        return module.Report(seed).pool
    finally:
        del sys.modules[spec.name]


def test_no_document_reads_the_tolerance_while_it_is_parsed(monkeypatch):
    """A document builds the same objects under every tolerance: with every
    binding of ``tolerance`` in the package made to raise, every fixture,
    the near-one scalar tail document and the ``report`` workload's pool
    still parse."""
    texts = {p.name: p.read_text() for p in sorted((ROOT / "fixtures").glob("*.json"))}
    near_one = ROOT / "tests" / "data" / "scalar-tail-near-one.json"
    texts[near_one.name] = near_one.read_text()
    texts.update(_report_pool(1))
    assert len(texts) > 60

    def unread():
        raise RuntimeError("tolerance read during parse")

    for info in pkgutil.walk_packages(l0limits.__path__, "l0limits."):
        importlib.import_module(info.name)
    original = config.tolerance
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "l0limits" and getattr(module, "tolerance", None) is original:
            monkeypatch.setattr(module, "tolerance", unread)
    for text in texts.values():
        parse_document(json.loads(text))
