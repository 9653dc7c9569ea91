"""Additive cyclic codes over the mixed alphabet Z2 x Z4 x ... x Z2^n.

The ambient space is a product of cyclic quotients Z/2^i[x]/(x^alpha_i - 1),
one block per level i, with the simultaneous cyclic shift acting on all
blocks at once.  The package builds such codes from structured generator
families, validates the divisibility conditions those families must
satisfy, derives minimal spanning sets and generator matrices, enumerates
and counts codewords, computes Gray images and Lee/Hamming metrics, solves
for duals, and cross-checks everything against an independent brute-force
module-closure oracle at desk scale.
"""

from .modring import (
    LinearSystem,
    ModulusMismatch,
    Poly,
    divides_witness,
    poly_divmod_unit_lead,
    poly_mul,
    solve_linear_mod2k,
)
from .codespace import (
    AlphabetProfile,
    BudgetExceeded,
    Codeword,
    PolyTuple,
    ProfileMismatch,
    all_codewords,
    cyclic_shift,
    from_polys,
    scalar_action,
    to_polys,
)
from .generators import (
    Cofactors,
    NotADivisor,
    MixingSolveError,
    StructuredGenerators,
    ValidationReport,
    derive_cofactors,
    mixing_certificates,
    validate_generators,
)
from .spanning import (
    Decomposition,
    SpanningSet,
    build_spanning_set,
    codeword_count_exponent,
    diff_against_reference,
    enumerate_codewords,
    generator_matrix,
    membership_test,
)
from .metrics import (
    gray_image,
    gray_map,
    hamming_weight,
    lee_weight,
    min_distance,
    mixed_distance,
    mixed_weight,
    weight_distribution,
)
from .duality import DualResult, brute_force_dual, dual_code, inner_product, shift_adjoint_check
from .closure import ClosureResult, module_closure

__all__ = [name for name in dir() if not name.startswith("_")]
