"""Additive-polynomial decomposition counting over finite fields.

The fast path computes the rational Jordan form and species of the q-power
Frobenius on a polynomial's root space straight from skew-polynomial
arithmetic, then derives exact counts of right components and complete
decompositions; a brute-force oracle validates everything at desk scale.
"""

from .additive import (
    AdditivePoly,
    central_to_upoly,
    compose,
    evaluate,
    gcrc,
    minimal_central_left_component,
    projective_part,
    right_divmod,
    strip_inseparable,
    subadditive_image,
    upoly_to_central,
)
from .errors import (
    AddpolyError,
    BudgetExceeded,
    DescentFailure,
    ExtensionTooLarge,
    InputError,
    InternalInconsistency,
    NotCentral,
    NotInSubfield,
)
from .ffield import FieldTower, tower_create
from .frobjordan import (
    RationalJordanForm,
    Species,
    lambdas_from_nullities,
    rational_jordan_form,
)
from .latcount import (
    count_chains,
    count_lines,
    count_right_components,
    generating_function,
    mhat,
    ore_criterion_count,
    q_bracket,
)
from .oracle import (
    RootSpace,
    invariant_subspaces,
    maximal_chains_brute,
    right_components_brute,
    root_space,
    species_from_matrix,
)
from .upoly import UPoly, factor, is_irreducible

__version__ = "0.1.0"
