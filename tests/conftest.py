"""Shared helpers: independent oracles, instance builders and subspace assertions."""

import numpy as np
import pytest

import geninv as gi
from geninv import families


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


def assert_same_subspace(s1, s2, tol=1e-9):
    assert s1.dim == s2.dim
    assert gi.gap(s1, s2).gap <= tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
