"""Exact graded weight multiplicities for simple Lie algebras.

The central object is the polynomial refinement of a weight multiplicity:
a monic-in-the-top-degree polynomial in q whose value at q=1 is the ordinary
multiplicity.  Three evaluation routes (alternating sum over the Weyl group,
rank-descent recursion, convolution against zero-weight coefficients) are
exposed side by side so they can cross-check one another.  They are not
disjoint: the recursion reads the alternating sum at dominant weights, and
the convolution reads its zero-weight factors through the alternating sum
at highest weight zero, with its table and memo.  The recursion is the
check that uses no Weyl-numerator seeds on non-dominant weights.  The
`identities` module verifies the closed-form statements mechanically.
"""

from .identities import (
    Report,
    classify_principal_pairs,
    is_minuscule,
    verify_adjoint,
    verify_coxeter_identity,
    verify_height_duality,
    verify_induction_lemma,
    verify_little_adjoint,
    verify_main_identity,
    verify_minuscule,
    verify_subregular_identity,
)
from .lusztig import (
    WeightMultiset,
    brylinski_form,
    character,
    cherednik_coefficient,
    broer_nonnegativity_test,
    dual_weight,
    freudenthal_multiplicity,
    generalized_exponents,
    klimyk_decompose,
    lusztig_q_analogue,
    q_analogue_by_induction,
    q_analogue_via_kernel,
    tensor_zero_q,
    weighted_sum,
    weyl_dimension,
    clear_caches,
)
from .poly import InexactDivisionError, QPoly
from .qkostant import (
    kernel_backend,
    q_partition,
    q_partition_cache_stats,
)
from .root_system import (
    BudgetError,
    RootSystem,
    Weight,
    build_dual_root_system,
    build_root_system,
    parse_type,
)
from .weyl import (
    WeylElement,
    dominant_representative,
    enumerate_weyl,
    orbit,
    stabilizer_poincare,
    weyl_elements,
)

__version__ = "5.9.0"

__all__ = [
    "BudgetError",
    "InexactDivisionError",
    "QPoly",
    "Report",
    "RootSystem",
    "Weight",
    "WeightMultiset",
    "WeylElement",
    "broer_nonnegativity_test",
    "brylinski_form",
    "build_dual_root_system",
    "build_root_system",
    "character",
    "cherednik_coefficient",
    "classify_principal_pairs",
    "clear_caches",
    "dominant_representative",
    "dual_weight",
    "enumerate_weyl",
    "freudenthal_multiplicity",
    "generalized_exponents",
    "is_minuscule",
    "kernel_backend",
    "klimyk_decompose",
    "lusztig_q_analogue",
    "orbit",
    "parse_type",
    "q_analogue_by_induction",
    "q_analogue_via_kernel",
    "q_partition",
    "q_partition_cache_stats",
    "stabilizer_poincare",
    "tensor_zero_q",
    "verify_adjoint",
    "verify_coxeter_identity",
    "verify_height_duality",
    "verify_induction_lemma",
    "verify_little_adjoint",
    "verify_main_identity",
    "verify_minuscule",
    "verify_subregular_identity",
    "weighted_sum",
    "weyl_dimension",
    "weyl_elements",
]
