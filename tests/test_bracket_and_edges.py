import numpy as np
import pytest

from l0limits.errors import BracketTooWideError, UnsupportedNormError
from l0limits.indexsets import Chain
from l0limits.norms import (
    OperatorNorm,
    WeightedP,
    operator_norm_witness,
)


def matrix_space_norm():
    # operator-norm fibers on both sides force the bracket fallback
    inner_src = WeightedP(2, (1.0, 1.0))
    inner_tgt = WeightedP(2, (1.0, 1.0, 1.0))
    return OperatorNorm(2, inner_src, 3, inner_tgt)


def test_bracket_certifies_zero_map():
    spec = matrix_space_norm()
    val, _ = operator_norm_witness(np.zeros((spec.dim, spec.dim)), spec, spec)
    assert val == 0.0


def test_bracket_reports_interval_when_too_wide():
    spec = matrix_space_norm()
    # Not the identity: c I between equal specs is normed exactly, |c|.
    mat = np.diag(np.arange(1.0, spec.dim + 1))
    with pytest.raises(BracketTooWideError) as err:
        operator_norm_witness(mat, spec, spec)
    assert err.value.lower <= err.value.upper
    assert err.value.lower > 0.0


def test_bracket_error_carries_plain_floats():
    """Both bounds are Python floats, so the message prints numbers rather
    than numpy scalar reprs such as ``np.float64(5.66...)``."""
    spec = matrix_space_norm()
    mat = np.random.default_rng(0).standard_normal((spec.dim, spec.dim))
    with pytest.raises(BracketTooWideError) as err:
        operator_norm_witness(mat, spec, spec)
    assert type(err.value.lower) is float and type(err.value.upper) is float
    assert "np." not in str(err.value)
    assert str(err.value).endswith(f"[{err.value.lower!r}, {err.value.upper!r}]")


def test_restriction_of_matrix_norm_unsupported():
    spec = matrix_space_norm()
    with pytest.raises(UnsupportedNormError):
        spec.restrict(np.eye(spec.dim))


def test_unknown_tail_rule_rejected():
    class Mystery:
        pass

    with pytest.raises(ValueError, match="unrecognized tail rule"):
        Chain(2, Mystery())
