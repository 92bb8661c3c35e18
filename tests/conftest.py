"""Shared helpers: independent oracles, instance builders, subspace assertions and a matrix-file
writer."""

import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import geninv as gi
from geninv import diagnostics, families
from geninv.errors import ExistenceError


def python_frames(call) -> int:
    """Python frames that ``call()`` runs in the geninv package: its "call" events under
    ``sys.setprofile``. CPython 3.11 counts each comprehension and each generator resumption as a
    frame; a later CPython, which inlines comprehensions, only lowers the count."""
    package, count, previous = os.path.dirname(gi.__file__) + os.sep, 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(package):
            count += 1
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(previous)
    return count


def outer_fullrank_oracle(a, t_space, s_space):
    """Independent construction of the outer inverse with range T, null space S.

    Uses the full-rank representation ``T (C A T)^{-1} C`` with C the
    annihilator of S taken from an SVD of S, and an LU solve for the core.
    """
    a = np.asarray(a)
    tb = t_space.basis
    cs = np.eye(s_space.ambient_dim) if s_space.is_trivial else complement_rows(s_space)
    if np.iscomplexobj(a) or np.iscomplexobj(tb):
        cs = cs.astype(np.complex128)
    core = cs @ a @ tb
    return tb @ np.linalg.solve(core, cs)


def outer_projector_oracle(a, t_space, s_space):
    """Outer inverse with range T and null space S through an oblique projector.

    Builds the idempotent P onto a(T) along S from the inverse of the stacked
    bases [a(T) | S], then solves ``(a T) w = P`` by least squares and returns
    ``T w``. Plain numpy, and no full-rank core: it shares no formula with the
    library's construction or with outer_fullrank_oracle.
    """
    a = np.asarray(a)
    tb = t_space.basis
    r = t_space.dim
    image = np.linalg.svd(a @ tb, full_matrices=False)[0][:, :r]
    stacked = np.hstack([image, s_space.basis])
    projector = stacked[:, :r] @ np.linalg.inv(stacked)[:r, :]
    w = np.linalg.lstsq(a @ tb, projector, rcond=None)[0]
    return tb @ w


def oblique_projector_oracle(t_space, s_space):
    """Idempotent onto T along S from the inverse of the stacked bases [T | S].

    With B = [T | S] and the selector E keeping T's columns, P = B E B^{-1}: plain numpy,
    sharing no formula with the outer construction of I that the library uses.
    """
    stacked = np.hstack([t_space.basis, s_space.basis])
    n, r = stacked.shape[0], t_space.dim
    selector = np.zeros((n, n), dtype=stacked.dtype)
    selector[:r, :r] = np.eye(r)
    return stacked @ selector @ np.linalg.inv(stacked)


def projector(t_space, s_space, tol=gi.DEFAULT_TOL):
    """The idempotent onto T along S: the outer inverse of I with range T and null space S
    (Ben-Israel & Greville 2003, ch. 2), its ``x I x - x`` residual the idempotency test and its
    inverse_norm ||P||."""
    cert = gi.outer_prescribed(np.eye(t_space.ambient_dim), t_space, s_space, tol)
    return gi.ObliqueProjector(cert.inverse, t_space, s_space, cert.inverse_norm)


def serialize_matrix(a) -> str:
    """A matrix in the file format at full precision: numpy's writer at 17 significant digits, as
    the benchmark writes its files, a complex matrix as its ``re im`` pairs side by side."""
    a, out = np.asarray(a), io.StringIO()
    field = "complex" if np.iscomplexobj(a) else "real"
    body = np.stack([a.real, a.imag], axis=-1).reshape(len(a), -1) if field == "complex" else a
    np.savetxt(out, body, fmt="%.17g", header=f"{a.shape[0]} {a.shape[1]} {field}", comments="")
    return out.getvalue()


def save_matrix(a, path) -> None:
    Path(path).write_text(serialize_matrix(a))


def complement_rows(s_space):
    """Orthonormal rows spanning the orthogonal complement of S (via a full SVD)."""
    _, _, vh = np.linalg.svd(s_space.basis.conj().T, full_matrices=True)
    return vh[s_space.dim:, :]


def outer_instance_at_angles(rng, m, n, r, complex_=False, rank=None, min_angle=0.3):
    """A solvable outer-inverse problem (a, T, S) with controlled margins.

    a is m x n of the given rank (default min(m, n)) with nonzero singular
    values in [0.5, 1.5] before normalization; T is an r-dimensional subspace
    of its row space, so a restricted to T is injective; S is placed at
    principal angles of at least ``min_angle`` to a(T) and has the
    complementary dimension m - r.
    """
    rank = min(m, n) if rank is None else rank
    a = families.random_rank_matrix(rng, m, n, rank, complex_)
    row_space = gi.column_space(a.conj().T).basis
    t_basis, _ = np.linalg.qr(row_space @ families.random_matrix(rng, rank, r, complex_))
    image, _ = np.linalg.qr(a @ t_basis)
    filler = families.random_matrix(rng, m, m - r, complex_)
    full, _ = np.linalg.qr(np.hstack([image, filler]))
    image, perp = full[:, :r], full[:, r:]
    pairs = min(r, m - r)
    angles = rng.uniform(min_angle, np.pi / 2, pairs)
    s_basis = np.hstack(
        [image[:, :pairs] * np.cos(angles) + perp[:, :pairs] * np.sin(angles), perp[:, pairs:]]
    )
    return a, gi.Subspace(n, t_basis), gi.Subspace(m, s_basis)


def mp_range_projector(b, tol=gi.DEFAULT_TOL):
    """b b^+, the orthogonal projector onto R(b), from a certified Moore-Penrose inverse."""
    return b @ gi.moore_penrose(b, tol).inverse


def _mp_gap_terms_oracle(b, bn, tol):
    """The range terms (||(1 - b b^+) bn bn^+||, ||(1 - bn bn^+) b b^+||) and the cokernel terms
    (||b b^+ (1 - bn bn^+)||, ||bn bn^+ (1 - b b^+)||), b b^+ from ``mp_range_projector``."""
    eye = np.eye(b.shape[0])
    p, pn = mp_range_projector(b, tol), mp_range_projector(bn, tol)
    return (
        (gi.spectral_norm((eye - p) @ pn), gi.spectral_norm((eye - pn) @ p)),
        (gi.spectral_norm(p @ (eye - pn)), gi.spectral_norm(pn @ (eye - p))),
    )


def left_lift(m):
    """Matrix of x -> m x on square matrices under column-stacking vectorization."""
    return np.kron(np.eye(len(m)), m)


def right_lift(m):
    """Matrix of x -> x m on square matrices under column-stacking vectorization."""
    return np.kron(m.T, np.eye(len(m)))


def difference_identity_residual(a, b, x, y, pt, pv, ps, pu):
    """||(y - x) - rhs||, rhs = y (P_S - P_U)(I - a x) + (I - y b)(P_V - P_T) x - y (b - a) x, for
    outer inverses x of a (range T, null space S) and y of b (range V, null space U)."""
    (m, n), left, right = a.shape, ps.matrix - pu.matrix, pv.matrix - pt.matrix
    rhs = y @ left @ (np.eye(m) - a @ x) + (np.eye(n) - y @ b) @ right @ x - y @ (b - a) @ x
    return gi.spectral_norm((y - x) - rhs)


def verdicts_oracle(cols, tol, err_scale):
    """The verdict rules written out by hand, one conjunction per characterization."""

    def conv(key, scale=1.0):
        return diagnostics.converged_by_final_index(cols[key], tol, scale)

    def conv_pair(key):
        first = diagnostics.converged_by_final_index([p[0] for p in cols[key]], tol)
        second = diagnostics.converged_by_final_index([p[1] for p in cols[key]], tol)
        return first and second

    inverse = conv("inverse_error", err_scale)
    left = conv("left_product_error", err_scale)
    right = conv("right_product_error", err_scale)
    range_g = conv("range_gap")
    null_g = conv("nullspace_gap")
    br = conv_pair("mp_range_terms")
    ck = conv_pair("mp_null_terms")
    bk = conv_pair("mp_cokernel_terms")
    cr = conv_pair("mp_corange_terms")
    proj_range = conv("range_projector_error")
    proj_null = conv("null_projector_error")

    return {
        "gap_inverse": inverse,
        "gap_both_products": left and right,
        "gap_left_product_null_gap": left and null_g,
        "gap_right_product_range_gap": right and range_g,
        "gap_subspace_gaps": range_g and null_g,
        "gap_inverse_subspace_gaps": conv("inverse_range_gap") and conv("inverse_nullspace_gap"),
        "mp_inverse": inverse,
        "mp_left_product_null_proj": left and ck,
        "mp_right_product_range_proj": right and br,
        "mp_range_null_proj": br and ck,
        "mp_right_product_cokernel_proj": right and bk,
        "mp_left_product_corange_proj": left and cr,
        "mp_cokernel_corange_proj": bk and cr,
        "mp_projector_products": proj_range and proj_null,
        "oip_inverse": inverse,
        "oip_both_products": left and right,
        "oip_left_product_null_gap": left and null_g,
        "oip_right_product_range_gap": right and range_g,
        "oip_subspace_gaps": range_g and null_g,
    }


def _oracle_report(cols, failed, tol, err_scale, mp_only=False, mismatch=None):
    """SequenceDiagnostics from per-index columns, with the library's verdict rules."""
    verdicts = diagnostics._verdicts(cols, tol, err_scale)
    if mp_only:
        verdicts = {k: v for k, v in verdicts.items() if k.startswith("mp_")}
    return gi.SequenceDiagnostics(
        {name: tuple(cols[name]) for name in diagnostics.RECORD_NAMES},
        failed_indices=tuple(failed),
        verdicts=verdicts,
        alarm=diagnostics._alarm(verdicts),
        remark_gap_identity_mismatch=mismatch,
    )


def sequence_report_oracle(limit_problem, sequence, tol):
    """sequence_report measured index by index with per-matrix SVDs.

    Every gap is subspace.gap of freshly computed subspaces and every projector
    b b^+ / c^+ c is a product with a certified Moore-Penrose inverse; shares
    no batching and no projector construction with the library's report.
    """
    a, b, c = (gi.as_matrix(m) for m in limit_problem)
    x = gi.bc_inverse(a, b, c, tol).inverse
    t_space, s_space = gi.column_space(b, tol), gi.null_space(c, tol)
    x_range, x_null = gi.column_space(x, tol), gi.null_space(x, tol)
    bbp = b @ gi.moore_penrose(b, tol).inverse
    cpc = gi.moore_penrose(c, tol).inverse @ c
    cols = {name: [] for name in diagnostics.RECORD_NAMES}
    failed = []
    for idx, (an, bn, cn) in enumerate(sequence, start=1):
        an, bn, cn = (gi.as_matrix(m) for m in (an, bn, cn))
        try:
            xn = gi.bc_inverse(an, bn, cn, tol).inverse
        except ExistenceError:
            failed.append(idx)
            for name, col in cols.items():
                col.append((np.nan, np.nan) if name.endswith("_terms") else np.nan)
            continue
        br, bk = _mp_gap_terms_oracle(b, bn, tol)
        cr, ck = _mp_gap_terms_oracle(c.conj().T, cn.conj().T, tol)
        row = {
            "inverse_error": gi.spectral_norm(xn - x),
            "left_product_error": gi.spectral_norm(xn @ an - x @ a),
            "right_product_error": gi.spectral_norm(an @ xn - a @ x),
            "range_gap": gi.gap(gi.column_space(bn, tol), t_space).gap,
            "nullspace_gap": gi.gap(gi.null_space(cn, tol), s_space).gap,
            "inverse_range_gap": gi.gap(gi.column_space(xn, tol), x_range).gap,
            "inverse_nullspace_gap": gi.gap(gi.null_space(xn, tol), x_null).gap,
            "mp_range_terms": br,
            "mp_null_terms": ck,
            "mp_cokernel_terms": bk,
            "mp_corange_terms": cr,
            "range_projector_error": gi.spectral_norm(
                bn @ gi.moore_penrose(bn, tol).inverse - bbp
            ),
            "null_projector_error": gi.spectral_norm(
                gi.moore_penrose(cn, tol).inverse @ cn - cpc
            ),
        }
        for name, value in row.items():
            cols[name].append(value)
    err_scale = max(1.0, gi.spectral_norm(x) * max(1.0, gi.spectral_norm(a)))
    return _oracle_report(cols, failed, tol, err_scale)


def mp_continuity_oracle(a, sequence, tol):
    """mp_continuity_report measured index by index with per-matrix SVDs."""
    a = gi.as_matrix(a)
    adag = gi.moore_penrose(a, tol).inverse
    spaces = [
        (gi.column_space(m, tol), gi.null_space(m, tol)) for m in (adag, adag.conj().T)
    ]
    cols = {name: [] for name in diagnostics.RECORD_NAMES}
    mismatch = 0.0
    for an in sequence:
        an = gi.as_matrix(an)
        adn = gi.moore_penrose(an, tol).inverse
        left = gi.spectral_norm(adn @ an - adag @ a)
        right = gi.spectral_norm(an @ adn - a @ adag)
        br, bk = _mp_gap_terms_oracle(adag, adn, tol)
        cr, ck = _mp_gap_terms_oracle(adag.conj().T, adn.conj().T, tol)
        (range_, null), (corange, cokernel) = spaces
        g_range = gi.gap(gi.column_space(adn, tol), range_).gap
        g_null = gi.gap(gi.null_space(adn, tol), null).gap
        g_cokernel = gi.gap(gi.null_space(adn.conj().T, tol), cokernel).gap
        g_corange = gi.gap(gi.column_space(adn.conj().T, tol), corange).gap
        mismatch = max(
            mismatch,
            abs(g_range - max(br)),
            abs(g_null - max(ck)),
            abs(g_cokernel - max(bk)),
            abs(g_corange - max(cr)),
        )
        row = {
            "inverse_error": gi.spectral_norm(adn - adag),
            "left_product_error": left,
            "right_product_error": right,
            "range_gap": g_range,
            "nullspace_gap": g_null,
            "inverse_range_gap": g_range,
            "inverse_nullspace_gap": g_null,
            "mp_range_terms": br,
            "mp_null_terms": ck,
            "mp_cokernel_terms": bk,
            "mp_corange_terms": cr,
            "range_projector_error": left,
            "null_projector_error": right,
        }
        for name, value in row.items():
            cols[name].append(value)
    err_scale = max(1.0, gi.spectral_norm(adag) * max(1.0, gi.spectral_norm(a)))
    return _oracle_report(cols, [], tol, err_scale, mp_only=True, mismatch=mismatch)


def assert_same_subspace(s1, s2, tol=1e-9):
    assert s1.dim == s2.dim
    assert gi.gap(s1, s2).gap <= tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def rank_jump_instance():
    """(a, b, c, g, g2): with constant a, b + 0.05 t g and c + 0.05 t g2 are rank 4
    at t = 0 and invertible elsewhere, so x(0) is the rank-4 (b, c)-inverse and
    x(t) = a^-1 for t != 0, while every curve stays smooth."""
    rng = np.random.default_rng(0)
    a, b, c = families.random_solvable_triple(rng, 8, 4)
    return a, b, c, rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
