"""A certificate's verdict does not depend on the unit of ``a``.

Every inverse here is homogeneous: x(s a) = x(a) / s with b, c, d, p, q and
the prescribed subspaces held fixed. So an instance accepted at s = 1 must be
accepted at s = 10^k for every |k| <= 150, with the unit-scale inverse over
10^k as its inverse. A 50-digit mpmath pseudoinverse is the independent
reference for Moore-Penrose at extreme scales, and 50-digit b (c a b)^+ c the
one for the (b, c), along and Bott-Duffin inverses. Past the range of floats, an
inverse whose norm overflows is refused by its certificate.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import diagnostics, families
from geninv.errors import CertificateError

from conftest import projector

KINDS = ("mp", "outer", "bc", "along", "bott_duffin")


def _instance(kind, m, n, r, complex_, seed):
    """(construction of a, a, (b, c)) for one seeded instance; the (b, c) kinds are n x n, and
    their inverse has range R(b) and null space N(c) for the b and c given (None otherwise)."""
    rng = np.random.default_rng(seed)
    if kind == "mp":
        return gi.moore_penrose, families.random_rank_matrix(rng, m, n, r, complex_), None
    if kind == "outer":
        a, t, s = families.random_outer_instance(rng, m, n, r, complex_)
        return (lambda a: gi.outer_prescribed(a, t, s)), a, None
    a, b, c = families.random_solvable_triple(rng, n, r, complex_)
    t, s = gi.column_space(b), gi.null_space(c)
    if kind == "bc":
        return (lambda a: gi.bc_inverse(a, b, c)), a, (b, c)
    if kind == "along":
        # R(d) = T and N(d) = S, so the inverse along d is the (b, c)-inverse
        core = families.random_conditioned(rng, r, complex_)
        d = t.basis @ core @ gi.orthogonal_complement(s).basis.conj().T
        return (lambda a: gi.inverse_along(a, d)), a, (d, d)
    # p orthogonal onto T; q oblique onto a(T) along S, so ||q|| > 1
    p = projector(t, gi.orthogonal_complement(t))
    q = projector(gi.column_space(a @ t.basis), s)
    return (lambda a: gi.bott_duffin(a, p, q)), a, (p.matrix, q.matrix)


@st.composite
def scaled_problems(draw):
    """(kind, m, n, rank, complex, seed, k): shapes up to 8, scale exponent in [-150, 150]."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8)) if kind in ("mp", "outer") else n
    r = draw(st.integers(0 if kind == "mp" else 1, min(m, n)))
    return kind, m, n, r, draw(st.booleans()), draw(st.integers(0, 2**32 - 1)), draw(
        st.integers(-150, 150)
    )


@settings(max_examples=120, deadline=None)
@given(scaled_problems())
def test_acceptance_and_inverse_are_scale_free(problem):
    kind, m, n, r, complex_, seed, k = problem
    construct, a, _ = _instance(kind, m, n, r, complex_, seed)
    unit = construct(a)
    s = 10.0**k
    scaled = construct(s * a)  # a CertificateError here is the defect under test
    kappa = unit.operator_norm * unit.inverse_norm
    x = unit.inverse
    assert np.linalg.norm(scaled.inverse * s - x, 2) <= 1e-10 * kappa * np.linalg.norm(x, 2)
    assert abs(scaled.inverse_norm * s - unit.inverse_norm) <= 1e-10 * kappa * unit.inverse_norm
    assert abs(scaled.operator_norm / s - unit.operator_norm) <= 1e-12 * unit.operator_norm


def _mpmath_pinv(a):
    """Pseudoinverse of the float matrix ``a`` from a 50-digit SVD, cut at 1e-10 sigma_1."""
    with mpmath.workdps(50):
        svd = mpmath.svd_c if np.iscomplexobj(a) else mpmath.svd_r
        u, sigma, v = svd(mpmath.matrix(a.tolist()))
        keep = [i for i in range(len(sigma)) if sigma[i] > sigma[0] * mpmath.mpf("1e-10")]
        x = mpmath.zeros(a.shape[1], a.shape[0])
        for i in keep:
            x += v[i, :].H * u[:, i].H / sigma[i]
        entries = [[complex(x[i, j]) for j in range(x.cols)] for i in range(x.rows)]
    return np.array(entries) if np.iscomplexobj(a) else np.array(entries).real


def test_moore_penrose_matches_a_50_digit_reference_at_extreme_scales():
    rng = np.random.default_rng(20)
    for complex_ in (False, True):
        a = families.random_rank_matrix(rng, 6, 5, 3, complex_)
        for k in (-150, -8, 0, 8, 150):
            scaled = (10.0**k) * a
            cert = gi.moore_penrose(scaled)
            reference = _mpmath_pinv(scaled)
            kappa = cert.operator_norm * cert.inverse_norm
            error = np.linalg.norm(cert.inverse - reference, 2)
            assert error <= 1e-10 * kappa * np.linalg.norm(reference, 2), (complex_, k)
            assert cert.prescribed_range.dim == 3


def _mpmath_bc_inverse(a, b, c, r):
    """b (c a b)^+ c from a 50-digit SVD of c a b cut at its r largest singular values: the
    (b, c)-inverse of ``a`` once b and c have rank r (Drazin 2012), with R(b) and N(c) read
    at that rank. It shares no formula with the library's F (H A F)^-1 H."""
    complex_ = any(map(np.iscomplexobj, (a, b, c)))
    with mpmath.workdps(50):
        a, b, c = (mpmath.matrix(m.tolist()) for m in (a, b, c))
        u, sigma, v = (mpmath.svd_c if complex_ else mpmath.svd_r)(c * a * b)
        core = mpmath.zeros(b.cols, c.rows)
        for i in range(r):
            core += v[i, :].H * u[:, i].H / sigma[i]
        y = b * core * c
        entries = [[complex(y[i, j]) for j in range(y.cols)] for i in range(y.rows)]
    return np.array(entries) if complex_ else np.array(entries).real


@pytest.mark.parametrize("kind", ("bc", "along", "bott_duffin"))
def test_bc_kinds_match_a_50_digit_reference(kind):
    # relative forward error within C kappa eps of the reference, C = 100 fixed and
    # kappa = ||a|| ||x||: whichever orthonormal rows span S's orthogonal complement as H
    n, eps = 6, np.finfo(float).eps
    for complex_ in (False, True):
        for r in range(1, n):
            construct, a, (b, c) = _instance(kind, n, n, r, complex_, 100 * r + complex_)
            cert = construct(a)
            reference = _mpmath_bc_inverse(a, b, c, r)
            kappa = cert.operator_norm * cert.inverse_norm
            error = np.linalg.norm(cert.inverse - reference, 2) / np.linalg.norm(reference, 2)
            assert error <= 100 * kappa * eps, (complex_, r, error / (kappa * eps))


@pytest.mark.parametrize("k", (-308, -309, -320))
def test_an_overflowing_inverse_is_refused_by_its_certificate_not_as_input(k):
    # a is finite, but ||x|| = 1 / sigma_min(H a F) overflows: the certificate's
    # defect holds inf or NaN, which must refuse x rather than read as bad input
    a, t, s = families.random_outer_instance(np.random.default_rng(0), 6, 6, 3)
    b, c = t.projector(), np.eye(6) - s.projector()  # R(b) = T, N(c) = S
    tiny = a * 10.0**k
    refused = [
        lambda: gi.outer_prescribed(tiny, t, s),
        lambda: gi.bc_inverse(tiny, b, c),
        lambda: diagnostics.sequence_report((tiny, b, c), [(tiny, b, c)] * 3),
    ]
    mp = [lambda: gi.moore_penrose(tiny), lambda: diagnostics.mp_continuity_report(tiny, [tiny])]
    if k == -308:  # ||a^+|| ~ 1.6e308 is finite; its infinite budget alone refuses nothing
        cert = mp[0]()
        assert np.isfinite(cert.inverse).all() and cert.inverse_norm < np.inf
        assert not mp[1]().failed_indices
    else:
        refused += mp
    for construct in refused:
        with pytest.raises(CertificateError, match="is not finite"):
            construct()
