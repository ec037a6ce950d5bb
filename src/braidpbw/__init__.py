"""Exact structure-constant engine for braided bialgebras.

Scalars live in cyclotomic fields with exact arithmetic; bialgebras are
dense structure-constant tensors; every theorem-shaped statement in the
package is checked by exhaustive evaluation or exact linear algebra.
"""

from .reporting import BraidpbwError, DegreeCapExceeded, InputError
from .scalars import Scalar, parse_scalar, root_of_unity
from .linalg import Subspace
from .braided_space import (
    Bicharacter,
    FiniteAbelianGroup,
    GenericBraiding,
    GradedBasis,
    braid_check,
    diagonal_braiding,
    is_categorical,
    is_symmetric,
    validate_bicharacter,
)
from .symmetric_algebra import normal_forms
from .findim_hopf import (
    StructureBialgebra,
    check_antipode,
    check_braided_algebra,
    check_braided_bialgebra,
    check_braided_coalgebra,
    check_commutator_coproduct_all,
    commutator_table,
    is_c_commutative,
    run_all_checks,
)
from .filtration import (
    AssociatedGraded,
    FiltrationError,
    FiltrationLadder,
    associated_graded,
    check_commutator_filtration,
    coradical_filtration_connected,
    hopf_filtration,
    subspace_from_indices,
    wedge,
)
from .coinvariants import (
    CoinvariantAlgebra,
    CoinvariantsError,
    ad_action,
    bosonization_check,
    check_braiding_collapse,
    coaction_map,
    compute_R,
    is_central,
    is_cocentral,
    projection_pi,
)
from .pbw import (
    INCONCLUSIVE,
    PBW_TYPE_FALSE,
    PBW_TYPE_TRUE,
    PBWReport,
    QSpace,
    canonical_map,
    compute_Q,
    pbw_basis,
    pbw_verdict,
)
from .pipeline import run_pipeline

__version__ = "0.1.0"
