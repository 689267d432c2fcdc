"""Normed modules over finite atomic measure spaces, with limit functors.

The library realizes modules as per-atom finite-dimensional normed
fibers, computes pointwise and operator norms exactly, and constructs
direct and inverse limits, duals, Hom modules and pullbacks together
with machine-checkable universal properties.
"""

from .config import DEFAULT_TOLERANCE, set_tolerance, tolerance, tolerance_override
from .measure import (
    AtomMap,
    AtomicMeasureSpace,
    L0Function,
    constant_function,
    ess_extremum,
    identity_atom_map,
    indicator,
    l0_distance,
    normalized_reference,
    pushforward_check,
)
from .norms import (
    DualOf,
    FramedP,
    OperatorNorm,
    WeightedP,
    dual_spec,
    norm_eval,
    operator_spec,
    spectral_norm,
)
from .modules import (
    Element,
    Fiber,
    FiberModule,
    ModuleMorphism,
    apply,
    basis_elements,
    certify_isometric_iso,
    compose,
    euclidean_module,
    identity_morphism,
    is_morphism,
    kernel_image,
    module_distance,
    operator_pointwise_norm,
    operator_pointwise_norms,
    pointwise_norm,
    scalar_module,
    submodule_generated,
    zero_element,
    zero_module,
)
from .homdual import adjoint, dual_module, hom_module, pairing
from .indexsets import (
    Chain,
    FinitePoset,
    HarmonicTail,
    IdentityTail,
    ScalarTail,
    greatest_element,
)
from .direct import (
    ColimitClass,
    DirectSystem,
    SystemMorphism,
    Target,
    check_surjectivity_preservation,
    direct_limit,
    dl_functor,
    dl_seminorm,
    dl_universal_factorization,
    present_as_fg_limit,
    solve_square_component,
    validate_direct_system,
    validate_system_morphism,
)
from .inverse import (
    InverseSystem,
    Source,
    Thread,
    check_injectivity_preservation,
    dual_limit_iso,
    hom_inverse_system,
    il_functor,
    il_norm,
    il_universal_factorization,
    inverse_limit,
    thread_from_components,
    validate_inverse_system,
)
from .pullback import (
    certify_alternative_couple,
    dl_pullback_iso,
    il_pullback_compare,
    product_projection,
    product_space,
    pullback_module,
    pullback_morphism,
    sections_iso,
)

__version__ = "0.1.0"
