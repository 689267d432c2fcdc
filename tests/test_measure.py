import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0limits.errors import ShapeMismatchError, SpaceMismatchError
from l0limits.measure import (
    AtomMap,
    AtomicMeasureSpace,
    L0Function,
    ess_extremum,
    identity_atom_map,
    l0_distance,
    normalized_reference,
    pushforward_check,
)


def space(*weights):
    return AtomicMeasureSpace([f"a{k}" for k in range(len(weights))], weights)


def test_space_invariants():
    with pytest.raises(ValueError):
        AtomicMeasureSpace([], [])
    with pytest.raises(ValueError):
        AtomicMeasureSpace(["a", "a"], [1, 1])
    with pytest.raises(ValueError):
        AtomicMeasureSpace(["a", "b"], [1, 0])
    with pytest.raises(ShapeMismatchError):
        AtomicMeasureSpace(["a"], [1, 2])


def test_normalized_reference_single_atom():
    assert normalized_reference(space(2.0)).values.tolist() == [1.0]


def test_normalized_reference_values():
    assert normalized_reference(space(1, 1)).values.tolist() == [0.5, 0.5]
    assert normalized_reference(space(1, 3)).values.tolist() == [0.25, 0.75]


def test_normalized_reference_mutually_absolutely_continuous():
    ref = normalized_reference(space(0.3, 5, 2))
    assert np.all(ref.values > 0)
    assert abs(ref.values.sum() - 1.0) < 1e-12


def test_l0_distance_identity():
    sp = space(1, 1)
    f = L0Function(sp, [2.0, -1.0])
    assert l0_distance(f, f) == 0.0


def test_l0_distance_values():
    sp = space(1, 1)
    zero = L0Function(sp, [0, 0])
    assert l0_distance(zero, L0Function(sp, [3, 1])) == pytest.approx(1.0)
    assert l0_distance(zero, L0Function(sp, [0.5, 0])) == pytest.approx(0.25)


def test_l0_distance_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        l0_distance(L0Function(space(1), [0]), L0Function(space(1, 1), [0, 0]))


@settings(max_examples=100)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
                min_size=2, max_size=2))
def test_l0_distance_metric_axioms(rows):
    sp = space(1.2, 0.7)
    f, g, h = (L0Function(sp, [rows[0][k], rows[1][k]]) for k in range(3))
    dfg = l0_distance(f, g)
    assert dfg == pytest.approx(l0_distance(g, f))
    assert dfg <= l0_distance(f, h) + l0_distance(h, g) + 1e-12
    assert l0_distance(f, f) == 0.0
    if dfg == 0.0:
        assert np.allclose(f.values, g.values)


def test_ess_extremum_sup_pointwise_max():
    sp = space(1, 1)
    out = ess_extremum([L0Function(sp, [1, 2]), L0Function(sp, [3, 0])], "sup")
    assert out.values.tolist() == [3.0, 2.0]


def test_ess_extremum_singleton_inf():
    sp = space(1, 1)
    f = L0Function(sp, [4, -2])
    assert ess_extremum([f], "inf") == f


def test_ess_extremum_empty_family_rejected():
    with pytest.raises(ValueError):
        ess_extremum([], "sup")
    with pytest.raises(ValueError):
        ess_extremum([L0Function(space(1), [1])], "max")


def test_ess_extremum_upper_bound_property():
    sp = space(1, 2, 3)
    rng = np.random.default_rng(3)
    family = [L0Function(sp, rng.standard_normal(3)) for _ in range(6)]
    sup = ess_extremum(family, "sup")
    stacked = np.stack([f.values for f in family])
    assert np.all(stacked <= sup.values[None, :] + 1e-15)
    assert np.array_equal(sup.values, stacked.max(axis=0))


def test_pushforward_constant_map():
    x = AtomicMeasureSpace(["a", "b"], [1, 1])
    y = AtomicMeasureSpace(["c"], [5])
    f = AtomMap(x, y, {"a": "c", "b": "c"})
    pushed, ok = pushforward_check(f)
    assert pushed.tolist() == [2.0] and ok


def test_pushforward_identity():
    x = AtomicMeasureSpace(["a", "b"], [1.5, 2.5])
    pushed, ok = pushforward_check(identity_atom_map(x))
    assert pushed.tolist() == [1.5, 2.5] and ok


def test_pushforward_partial_cover():
    x = AtomicMeasureSpace(["a"], [1])
    y = AtomicMeasureSpace(["c", "d"], [1, 1])
    pushed, ok = pushforward_check(AtomMap(x, y, {"a": "c"}))
    assert pushed.tolist() == [1.0, 0.0] and ok


def test_atom_map_unknown_target_rejected():
    x = AtomicMeasureSpace(["a"], [1])
    y = AtomicMeasureSpace(["c"], [1])
    with pytest.raises(KeyError):
        AtomMap(x, y, {"a": "zzz"})
    with pytest.raises(ValueError):
        AtomMap(AtomicMeasureSpace(["a", "b"], [1, 1]), y, {"a": "c"})


def test_index_of_is_the_position_and_names_unknown_ids():
    atoms = [f"a{k}" for k in range(500)][::-1]
    space = AtomicMeasureSpace(atoms, np.ones(len(atoms)))
    assert [space.index_of(a) for a in atoms] == list(range(len(atoms)))
    for bad in ("zzz", 3, "A0"):
        with pytest.raises(KeyError) as raised:
            space.index_of(bad)
        assert raised.value.args[0] == f"unknown atom id {bad!r}"
    shuffled = list(np.random.default_rng(0).permutation(atoms))
    atom_map = AtomMap(space, space, dict(zip(atoms, shuffled)))
    positions = [atoms.index(b) for b in shuffled]
    assert [atom_map.target_index(k) for k in range(len(atoms))] == positions
    assert atom_map.targets == tuple(positions)
    # A map onto fewer atoms, its table given out of source order.
    small = AtomicMeasureSpace(["y1", "y0"], [1.0, 2.0])
    folded = AtomMap(space, small, {a: f"y{int(a[1:]) % 2}" for a in sorted(atoms)})
    assert folded.targets == tuple(1 - int(a[1:]) % 2 for a in atoms)
