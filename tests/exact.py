"""Exact rational linear algebra: an oracle that decides rank and existence with no rounding.

Matrices are numpy object arrays of ``fractions.Fraction`` (``exact`` converts integer or float
entries, each exactly), reduced by Gauss-Jordan elimination. Rational inputs have rational
inverses:

- the (b, c)-inverse is X = F (G A F)^-1 G, with F the independent columns of b and G the
  independent rows of c, and it exists exactly when G A F is invertible (Drazin 2012);
- the Moore-Penrose inverse is A^+ = G* (G G*)^-1 (F* F)^-1 F* for a full-rank factorization
  A = F G (Ben-Israel & Greville 2003, ch. 1).

Real matrices only, so * is the transpose.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def exact(a) -> np.ndarray:
    """``a`` as an object array of Fractions, each the exact value of its entry."""
    a = np.asarray(a)
    return np.array([Fraction(v) for v in a.ravel().tolist()], dtype=object).reshape(a.shape)


def rref(a) -> tuple[np.ndarray, list[int]]:
    """The reduced row echelon form of ``a`` and its pivot columns."""
    r, pivots = exact(a), []
    for j in range(r.shape[1]):
        p = len(pivots)
        rows = [i for i in range(p, r.shape[0]) if r[i, j] != 0]
        if not rows:
            continue
        r[[p, rows[0]]] = r[[rows[0], p]]
        r[p] = r[p] / r[p, j]
        for i in range(r.shape[0]):
            if i != p and r[i, j] != 0:
                r[i] = r[i] - r[i, j] * r[p]
        pivots.append(j)
    return r, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def independent_columns(a) -> np.ndarray:
    """The columns of ``a`` at its pivots: a basis of R(a) drawn from a's own columns."""
    return exact(a)[:, rref(a)[1]]


def independent_rows(a) -> np.ndarray:
    """The rows of ``a`` at the pivots of its transpose: a basis of a's row space."""
    return exact(a)[rref(np.asarray(a).T)[1], :]


def inverse(a) -> np.ndarray | None:
    """The inverse of a square ``a``, or None where ``a`` is singular."""
    n = len(a)
    r, pivots = rref(np.hstack([exact(a), exact(np.eye(n, dtype=int))]))
    return r[:, n:] if pivots[:n] == list(range(n)) else None


def bc_inverse(a, b, c) -> np.ndarray | None:
    """The (b, c)-inverse F (G A F)^-1 G, or None where G A F is not invertible."""
    f, g = independent_columns(b), independent_rows(c)
    core = g @ exact(a) @ f  # an empty inner dimension gives exact (integer) zeros
    core_inverse = inverse(core) if core.shape[0] == core.shape[1] else None
    return None if core_inverse is None else f @ core_inverse @ g


def moore_penrose(a) -> np.ndarray:
    """A^+ from the full-rank factorization A = F G: F the pivot columns of ``a``, G the
    nonzero rows of its reduced row echelon form."""
    r, pivots = rref(a)
    f, g = exact(a)[:, pivots], r[:len(pivots)]
    return g.T @ inverse(g @ g.T) @ inverse(f.T @ f) @ f.T
