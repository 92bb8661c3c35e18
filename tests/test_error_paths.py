"""Every input refusal that no other test reaches: its exception type and its message."""

import io
import re

import numpy as np
import pytest

import geninv as gi
from geninv import families
from geninv.errors import InputError
from geninv.inverses import bc_inverse_stack

EYE2, EYE3 = np.eye(2), np.eye(3)
LINE2 = gi.Subspace(2, EYE2[:, :1])
LINE3 = gi.Subspace(3, EYE3[:, :1])
CURVE = gi.MatrixCurve(lambda t: t * EYE2, (-1.0, 1.0), "a")
CASES = {
    "curve outside its domain": (
        lambda: CURVE(1.0), "curve a evaluated outside (-1.0, 1.0)"),
    "unnamed curve outside its domain": (
        lambda: gi.MatrixCurve(lambda t: EYE2)(-2.0), "curve <unnamed> evaluated outside"),
    "derivative check kind": (
        lambda: gi.finite_difference_check([CURVE], 0.0, kind="drazin"),
        "unknown kind 'drazin'"),
    "derivative check curve count": (
        lambda: gi.finite_difference_check([CURVE], 0.0, kind="bc"),
        "kind 'bc' takes 3 curve(s), got 1"),
    "zero_limit_check empty": (
        lambda: gi.zero_limit_check([]), "empty certificate sequence"),
    "zero_limit_check on a refused index": (
        lambda: gi.zero_limit_check(bc_inverse_stack([(EYE2, EYE2, EYE2), (0 * EYE2, EYE2, EYE2)])),
        "entry 2 is not a certificate: ExistenceError('(B,C)-inverse does not exist: "
        "restriction not injective')"),
    "bc stack entry of two matrices": (
        lambda: bc_inverse_stack([(EYE2, EYE2, EYE2), (EYE2, EYE2)]),
        "problem 1 holds 2 matrices, not the 3 of (a, b, c)"),
    "sequence index of two matrices": (
        lambda: gi.sequence_report((EYE2, EYE2, EYE2), [(EYE2, EYE2)]),
        "problem 1 holds 2 matrices, not the 3 of (a, b, c)"),
    "perturbation bound of a NaN": (
        lambda: gi.perturbation_bound(1.0, 0.0, 0.0, np.nan, 1.0),
        "bound inputs must be nonnegative and finite"),
    "perturbation bound of an infinite norm": (
        lambda: gi.perturbation_bound(1.0, 0.0, 0.0, 0.0, np.inf),
        "bound inputs must be nonnegative and finite"),
    "tolerance as a string": (
        lambda: gi.ToleranceConfig(rank_rel_tol="0.1"),
        "tolerances must be numbers: '<=' not supported between instances of 'float' and 'str'"),
    "step sweep as a string": (
        lambda: gi.ToleranceConfig(fd_step_sweep="0.1"),
        "fd_step_sweep must be a sequence of steps"),
    "step sweep as a string of digits": (
        lambda: gi.ToleranceConfig(fd_step_sweep="54"),
        "fd_step_sweep must be a sequence of steps"),
    "step sweep with a step that is not a number": (
        lambda: gi.ToleranceConfig(fd_step_sweep=(1e-2, "x")),
        "tolerances must be numbers: could not convert string to float: 'x'"),
    "outer range outside the domain": (
        lambda: gi.outer_prescribed(np.ones((2, 3)), LINE2, LINE2),
        "prescribed range does not live in the domain of a"),
    "outer null space outside the codomain": (
        lambda: gi.outer_prescribed(np.ones((2, 3)), LINE3, LINE3),
        "prescribed null space does not live in the codomain of a"),
    "as_matrix 1-d": (
        lambda: gi.as_matrix(np.ones(3)), "expected a 2-d matrix, got ndim=1"),
    "parse empty text": (
        lambda: gi.parse_matrix(io.StringIO("")), "missing header line 'rows cols field'"),
    "parse non-integer header": (
        lambda: gi.parse_matrix("2 x real\n1 2\n3 4\n"),
        "malformed header '2 x real', rows/cols must be integers"),
    "serialize empty": (
        lambda: gi.serialize_matrix(np.zeros((0, 2))),
        "only nonempty 2-d matrices can be serialized"),
    "subspace rows": (
        lambda: gi.Subspace(3, EYE2), "basis rows do not match ambient dimension"),
    "subspace columns": (
        lambda: gi.Subspace(2, np.zeros((2, 3))),
        "basis has more columns than the ambient dimension"),
    "direct sum across ambient spaces": (
        lambda: gi.direct_sum_check(LINE2, LINE3), "ambient dimensions differ"),
    "oracle across ambient spaces": (
        lambda: gi.gap_sampling_oracle(LINE2, LINE3, 10, 0), "ambient dimensions differ"),
    "oracle without trials": (
        lambda: gi.gap_sampling_oracle(LINE2, LINE2, 0, 0), "trials must be >= 1"),
    "oracle with a fractional trial count": (
        lambda: gi.gap_sampling_oracle(LINE2, LINE2, 1.5, 0),
        "trials must be >= 1 and an integer, got 1.5"),
    "projector from a non-square matrix": (
        lambda: gi.ObliqueProjector.from_matrix(np.ones((2, 3))),
        "projector matrix must be square"),
    "rank-drop rank": (
        lambda: families.rankdrop_family(np.random.default_rng(0), 3, 3, 4),
        "rank-drop families need 1 <= r < n"),
    "outer instance rank": (
        lambda: families.random_outer_instance(np.random.default_rng(0), 3, 2, 3),
        "rank must satisfy 1 <= r <= min(m, n)"),
}


@pytest.mark.parametrize("case", CASES)
def test_refusal_type_and_message(case):
    call, message = CASES[case]
    with pytest.raises(InputError, match=re.escape(message)) as info:
        call()
    assert type(info.value) is InputError
