import importlib
import inspect
import pkgutil
import threading

import pytest

import l0limits
from l0limits.config import DEFAULT_TOLERANCE, set_tolerance, tolerance, tolerance_override


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
