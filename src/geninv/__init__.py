"""Generalized matrix inverses with prescribed range and null space.

Construction of the Moore-Penrose inverse, outer inverses with prescribed
range/null space, (b, c)-inverses, Bott-Duffin inverses and inverses along an
element, together with numerical verification of their perturbation,
continuity and differentiation laws.
"""

from .calculus import (
    DerivativeReport,
    MatrixCurve,
    finite_difference_check,
    outer_derivative,
)
from .diagnostics import (
    SequenceDiagnostics,
    converged_by_final_index,
    mp_continuity_report,
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
    moore_penrose,
    outer_prescribed,
)
from .kernel import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    numerical_rank,
    spectral_norm,
)
from .matio import parse_matrix
from .perturb import (
    PerturbationReport,
    openness_radius,
    perturbation_bound,
    perturbed_bc_inverse,
)
from .subspace import (
    GapResult,
    ObliqueProjector,
    Subspace,
    column_space,
    full_subspace,
    gap,
    gap_sampling_oracle,
    null_space,
    orthogonal_complement,
    trivial_subspace,
)

__version__ = "0.1.0"
