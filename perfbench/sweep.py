#!/usr/bin/env python3
"""Growth sweep: time single library calls at growing sizes.

    python3 perfbench/sweep.py

Reproduces the ROADMAP baseline table as curves instead of points.  Each
row prints its time per size (median of repeats, one BLAS thread) and the
log-log slope between its two largest sizes: about 1 is linear growth,
about 2 quadratic.  The last line is the table as JSON.  This is a
separate command from ``run.py``: nothing here is gated.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from l0limits.direct import DirectSystem, validate_direct_system  # noqa: E402
from l0limits.indexsets import Chain, FinitePoset, IdentityTail  # noqa: E402
from l0limits.measure import AtomicMeasureSpace, identity_atom_map  # noqa: E402
from l0limits.modules import (  # noqa: E402
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    euclidean_module,
    identity_morphism,
    operator_pointwise_norm,
    pointwise_norm,
)
from l0limits.norms import FramedP, WeightedP, spectral_norm  # noqa: E402
from l0limits.pullback import pullback_module  # noqa: E402

INF = float("inf")
#: Repeat a measurement until this much time is spent (at least 3 times).
BUDGET_S = 0.3
FIBER_DIM = 4


def timed(fn, make=lambda: None) -> float:
    """Median seconds of ``fn(make())``; ``make`` runs outside the timer."""
    samples, spent = [], 0.0
    while len(samples) < 3 or (spent < BUDGET_S and len(samples) < 50):
        arg = make()
        start = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - start)
        spent += samples[-1]
    return statistics.median(samples)


def space(n: int) -> AtomicMeasureSpace:
    return AtomicMeasureSpace([f"a{k}" for k in range(n)], np.ones(n))


def module(n: int, p: float) -> FiberModule:
    fiber = Fiber(FIBER_DIM, WeightedP(p, np.linspace(0.5, 2.0, FIBER_DIM)))
    return FiberModule(space(n), tuple(fiber for _ in range(n)))


def opnorm_row(p: float):
    rng = np.random.default_rng(0)

    def at(n):
        m = module(n, p)
        phi = ModuleMorphism(m, m, rng.standard_normal((n, FIBER_DIM, FIBER_DIM)))
        return timed(lambda _: operator_pointwise_norm(phi))
    return at


def pointwise_row(n: int) -> float:
    m = module(n, 1.0)
    v = Element(m, np.random.default_rng(0).standard_normal((n, FIBER_DIM)))
    return timed(lambda _: pointwise_norm(v))


def pullback_row(n: int) -> float:
    m = euclidean_module(space(n), FIBER_DIM)
    atom_map = identity_atom_map(m.space)
    return timed(lambda _: pullback_module(atom_map, m))


def chain_validation_row(stages: int) -> float:
    m = euclidean_module(space(2), 3)
    ident = identity_morphism(m)

    def fresh():  # a new system each time: composites are cached per system
        return DirectSystem(Chain(stages, IdentityTail()), {k: m for k in range(stages)},
                            {(k, k + 1): ident for k in range(stages - 1)})
    return timed(validate_direct_system, fresh)


def poset_row(n: int) -> float:
    labels = [f"i{k}" for k in range(n)]
    pairs = list(zip(labels, labels[1:]))
    return timed(lambda _: FinitePoset(labels, pairs))


def spectral_row(fn):
    def at(d):
        mat = np.random.default_rng(d).standard_normal((d, d))
        return timed(lambda _: fn(mat))
    return at


def candidates_row(shape) -> float:
    rows, cols = shape
    mat = np.random.default_rng(rows).standard_normal((rows, cols))
    return timed(lambda f: f.ball_candidates(), lambda: FramedP(INF, mat))


ROWS = [
    ("operator_pointwise_norm p=1", "atoms", (1000, 4000, 10000), opnorm_row(1.0)),
    ("operator_pointwise_norm p=2", "atoms", (1000, 4000, 10000), opnorm_row(2.0)),
    ("operator_pointwise_norm p=inf", "atoms", (1000, 4000, 10000), opnorm_row(INF)),
    ("pointwise_norm", "atoms", (1000, 4000, 10000), pointwise_row),
    ("pullback_module (identity map)", "atoms", (100, 1000, 4000), pullback_row),
    ("validate_direct_system, identity chain 2x3", "stages", (10, 20, 40), chain_validation_row),
    ("FinitePoset build, a chain", "elements", (10, 30, 60), poset_row),
    ("spectral_norm", "d", (4, 64), spectral_row(spectral_norm)),
    ("np.linalg.norm(A, 2)", "d", (4, 64), spectral_row(lambda a: np.linalg.norm(a, 2))),
    ("FramedP(inf) ball candidates", "rows x cols", ((6, 4), (10, 6)), candidates_row),
]


def size_scalar(size) -> float:
    """Problem size on the slope's x axis; a frame counts its rows."""
    return float(size[0] if isinstance(size, tuple) else size)


def main() -> int:
    table = []
    for name, unit, sizes, at in ROWS:
        seconds = [at(size) for size in sizes]
        (x1, t1), (x2, t2) = [(size_scalar(s), t) for s, t in zip(sizes, seconds)][-2:]
        slope = math.log(t2 / t1) / math.log(x2 / x1)
        cells = "  ".join(f"{'x'.join(map(str, s)) if isinstance(s, tuple) else s}: {t * 1e3:.3f} ms"
                          for s, t in zip(sizes, seconds))
        print(f"{name:44s} [{unit}] {cells}  slope {slope:.2f}", flush=True)
        table.append({"name": name, "unit": unit, "sizes": [list(s) if isinstance(s, tuple) else s for s in sizes],
                      "ms": [t * 1e3 for t in seconds], "slope": slope})
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
