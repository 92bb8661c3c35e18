"""Generalized matrix inverses with prescribed range and null space.

Construction of the Moore-Penrose inverse, outer inverses with prescribed
range/null space, (b, c)-inverses, Bott-Duffin inverses and inverses along an
element, together with numerical verification of their perturbation,
continuity and differentiation laws.
"""

from .calculus import (
    DerivativeReport,
    MatrixCurve,
    difference_identity_residual,
    finite_difference_check,
    outer_derivative,
)
from .diagnostics import (
    SequenceDiagnostics,
    converged_by_final_index,
    mp_continuity_report,
    mp_gap_terms,
    sequence_report,
    zero_limit_check,
)
from .errors import (
    CertificateError,
    ExistenceError,
    GenInvError,
    InputError,
    KernelError,
)
from .inverses import (
    InverseCertificate,
    bc_inverse,
    bott_duffin,
    inverse_along,
    left_regular,
    moore_penrose,
    outer_prescribed,
    reflexive_inverse,
    right_regular,
)
from .kernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    numerical_rank,
    spectral_norm,
    svd,
)
from .matio import parse_matrix, save_matrix, serialize_matrix
from .perturb import (
    PerturbationReport,
    openness_radius,
    perturbation_bound,
    perturbed_bc_inverse,
)
from .subspace import (
    DirectSumResult,
    GapResult,
    ObliqueProjector,
    Subspace,
    column_space,
    direct_sum_check,
    full_subspace,
    gap,
    gap_sampling_oracle,
    null_space,
    oblique_projector,
    orthogonal_complement,
    trivial_subspace,
)

__version__ = "0.1.0"
