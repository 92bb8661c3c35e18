"""Seeded operator instances with prescribed range and null space.

The null space S is placed at chosen principal angles to the image a(T)
(Bjorck & Golub 1973) instead of being rejection-sampled, so every size is
reachable and the existence margins are fixed by construction. Each instance
also carries its expected outcome: either a feasible problem, or the existence
clause that an infeasible variant must be rejected with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Smallest principal angle between a(T) and S in a feasible instance. With
# singular values of a in [0.5, 1.5] this keeps every feasible instance far
# from both existence thresholds.
MIN_ANGLE = 0.35

NOT_INJECTIVE = "restriction not injective"
NOT_COMPLEMENT = "R(A*T) (+) S != Y"


def gaussian(rng, m: int, n: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((m, n))
    if complex_:
        g = g + 1j * rng.standard_normal((m, n))
    return g


def orthonormal(rng, n: int, k: int, complex_: bool) -> np.ndarray:
    """n x k matrix with Haar-distributed orthonormal columns."""
    q, r = np.linalg.qr(gaussian(rng, n, k, complex_))
    return q * np.where(np.real(np.diag(r)) < 0, -1.0, 1.0)


def conditioned(rng, m: int, n: int, complex_: bool) -> np.ndarray:
    """m x n matrix of full rank with singular values in [0.5, 1.5]."""
    k = min(m, n)
    u = orthonormal(rng, m, k, complex_)
    v = orthonormal(rng, n, k, complex_)
    return (u * (0.5 + rng.random(k))) @ v.conj().T


@dataclass(frozen=True)
class Instance:
    """An outer-inverse problem: operator, prescribed subspaces, expected outcome.

    t spans the prescribed range T (domain), s the prescribed null space S
    (codomain) and s_perp its orthogonal complement; all three have
    orthonormal columns. clause is None for a feasible instance and otherwise
    names the existence clause the library must reject it with.
    """

    a: np.ndarray
    t: np.ndarray
    s: np.ndarray
    s_perp: np.ndarray
    clause: str | None = None

    @property
    def complex_(self) -> bool:
        return np.iscomplexobj(self.a)

    def scaled(self, factor: float) -> "Instance":
        return Instance(factor * self.a, self.t, self.s, self.s_perp, self.clause)

    def bc_pair(self, rng) -> tuple[np.ndarray, np.ndarray]:
        """(b, c) with R(b) = T and N(c) = S, for square operators."""
        n, r = self.t.shape
        b = self.t @ gaussian(rng, r, n, self.complex_)
        c = gaussian(rng, n, r, self.complex_) @ self.s_perp.conj().T
        return b, c

    def along_element(self, rng) -> np.ndarray:
        """d with R(d) = T and N(d) = S, so the inverse along d is this instance."""
        r = self.t.shape[1]
        return self.t @ conditioned(rng, r, r, self.complex_) @ self.s_perp.conj().T

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Orthogonal idempotents p, q with R(p) = T and N(q) = S."""
        p = self.t @ self.t.conj().T
        q = np.eye(self.a.shape[0]) - self.s @ self.s.conj().T
        return p, q


def outer_instance(
    rng, m: int, n: int, r: int, complex_: bool, defect: str | None = None
) -> Instance:
    """An m x n operator with an r-dimensional T and an (m - r)-dimensional S.

    defect=None gives a feasible instance; NOT_INJECTIVE makes T meet null(a);
    NOT_COMPLEMENT makes S meet a(T).
    """
    if not 1 <= r <= min(m, n):
        raise ValueError("need 1 <= r <= min(m, n)")
    k = min(m, n)
    if defect == NOT_INJECTIVE and k == n:
        k = n - 1  # make room for a null vector
    u = orthonormal(rng, m, k, complex_)
    v = orthonormal(rng, n, k, complex_)
    a = (u * (0.5 + rng.random(k))) @ v.conj().T

    # T inside the row space of a keeps a|T well conditioned for wide a too.
    t = v @ orthonormal(rng, k, r, complex_)
    if defect == NOT_INJECTIVE:
        z = gaussian(rng, n, 1, complex_)
        z -= v @ (v.conj().T @ z)
        t, _ = np.linalg.qr(np.hstack([z, t[:, : r - 1]]))

    image, _ = np.linalg.qr(a @ t)
    full, _ = np.linalg.qr(np.hstack([image, gaussian(rng, m, m - r, complex_)]))
    image, perp = full[:, :r], full[:, r:]
    pairs = min(r, m - r)
    angles = rng.uniform(MIN_ANGLE, np.pi / 2, pairs)
    if defect == NOT_COMPLEMENT:
        angles[0] = 0.0
    cos, sin = np.cos(angles), np.sin(angles)
    s = np.hstack([image[:, :pairs] * cos + perp[:, :pairs] * sin, perp[:, pairs:]])
    s_perp = np.hstack([perp[:, :pairs] * cos - image[:, :pairs] * sin, image[:, pairs:]])
    return Instance(a, t, s, s_perp, defect)
