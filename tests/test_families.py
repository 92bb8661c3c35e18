"""Instance generators: solvable by construction, with fixed margins at every size.

The generators build the prescribed null space S at principal angles of at
least 0.3 to a(T), with a's singular values in [1/3, 1], so every instance has
restricted condition at most 3 and direct-sum margin at least sqrt(1 - cos 0.3).
"""

import numpy as np
import pytest

import geninv as gi
from geninv import families
from geninv.errors import GenInvError

MARGIN_FLOOR = np.sqrt(1.0 - np.cos(0.3))
FIELDS = pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])


def rank(m):
    return gi.numerical_rank(np.linalg.svd(m, compute_uv=False))


@FIELDS
@pytest.mark.parametrize("seed", range(10))
def test_solvable_triple_at_n100_has_fixed_margins(seed, complex_):
    a, b, c = families.random_solvable_triple(np.random.default_rng(seed), 100, 50, complex_)
    cert = gi.bc_inverse(a, b, c)
    assert cert.restricted_condition <= 3.0
    assert cert.complement_margin >= MARGIN_FLOOR
    assert rank(b) == rank(c) == 50


@FIELDS
@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("m, n, r", [(80, 60, 30), (60, 80, 45)])
def test_outer_instance_has_fixed_margins(m, n, r, seed, complex_):
    a, t, s = families.random_outer_instance(np.random.default_rng(seed), m, n, r, complex_)
    assert (t.dim, s.dim) == (r, m - r)
    cert = gi.outer_prescribed(a, t, s)
    assert cert.restricted_condition <= 3.0
    assert cert.complement_margin >= MARGIN_FLOOR


@FIELDS
def test_same_seed_gives_same_arrays(complex_):
    def draw(seed):
        rng = np.random.default_rng(seed)
        a, b, c = families.random_solvable_triple(rng, 100, 50, complex_)
        a2, t, s = families.random_outer_instance(rng, 80, 60, 30, complex_)
        return a, b, c, a2, t.basis, s.basis

    for first, second in zip(draw(3), draw(3)):
        assert np.array_equal(first, second)


def test_rank_outside_range_is_rejected():
    rng = np.random.default_rng(0)
    for m, n, r in [(5, 4, 0), (5, 4, 5), (3, 5, 4), (4, 4, -1)]:
        with pytest.raises(GenInvError, match="rank must satisfy"):
            families.random_outer_instance(rng, m, n, r)
    for n, r in [(4, 0), (4, 5)]:
        with pytest.raises(GenInvError, match="rank must satisfy"):
            families.random_solvable_triple(rng, n, r)


def test_additive_family_refuses_a_zero_limit_inverse():
    # its amplitude is read off ||x||, which is 0 for b = c = 0: an InputError, not a division
    zero = np.zeros((3, 3))
    with pytest.raises(gi.InputError, match="limit inverse is zero; use zero_limit_check"):
        families.additive_family(np.eye(3), zero, zero, 5, np.random.default_rng(0))


@FIELDS
@pytest.mark.parametrize("seed", range(10))
def test_rotating_family_exists_at_every_index(seed, complex_):
    rng = np.random.default_rng(seed)
    a, b, c = families.random_solvable_triple(rng, 6, 3, complex_)
    for an, bn, cn in families.rotating_family(a, b, c, 60, rng):
        gi.bc_inverse(an, bn, cn)


def test_rotating_family_builds_one_inverse(monkeypatch):
    # the angle comes from the limit's certificate, not from trial constructions
    rng = np.random.default_rng(0)
    a, b, c = families.random_solvable_triple(rng, 6, 3)
    calls = []
    original = families.bc_inverse

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(families, "bc_inverse", counted)
    families.rotating_family(a, b, c, 60, rng)
    assert len(calls) == 1


def _per_index_cayley(k_mat, t):
    """The Cayley transform of one parameter, from its own solve: the reference for the stack."""
    eye = np.eye(k_mat.shape[0])
    return np.linalg.solve(eye - (t / 2.0) * k_mat, eye + (t / 2.0) * k_mat)


@FIELDS
@pytest.mark.parametrize("n", [6, 20])
def test_cayley_families_are_their_per_index_constructions(n, complex_):
    # one batched solve draws every index; each transform, and each product with b, c or a,
    # is bitwise the per-index solve and product
    rng = np.random.default_rng(31)
    a, b, c = families.random_solvable_triple(rng, n, n // 2, complex_)
    k = families.random_skew(rng, n, complex_)
    angles = 0.3 / np.arange(1, 11)
    for t, got in zip(angles, families.cayley(k, angles)):
        assert got.tobytes() == _per_index_cayley(k, t).tobytes()
    assert families.cayley(k, 0.3).tobytes() == _per_index_cayley(k, 0.3).tobytes()
    cert = gi.bc_inverse(a, b, c)
    angle = 0.4 / max(2.0, cert.operator_norm * cert.inverse_norm)
    draw = np.random.default_rng(32)
    k1, k2 = (families.random_skew(draw, n, complex_) for _ in range(2))
    family = families.rotating_family(a, b, c, 10, np.random.default_rng(32))
    for i, (a_i, b_i, c_i) in enumerate(family, start=1):
        want = (a, _per_index_cayley(k1, angle / i) @ b, c @ _per_index_cayley(k2, angle / i))
        assert all(x.tobytes() == y.tobytes() for x, y in zip((a_i, b_i, c_i), want))
    draw = np.random.default_rng(33)
    limit = families.random_rank_matrix(draw, n, n, n // 2, complex_)
    k1, k2 = (families.random_skew(draw, n, complex_) for _ in range(2))
    a0, seq = families.mp_convergent_sequence(np.random.default_rng(33), n, n // 2, 10, complex_)
    assert a0.tobytes() == limit.tobytes() and len(seq) == 10
    for i, a_i in enumerate(seq, start=1):
        want = _per_index_cayley(k1, 0.2 / i) @ limit @ _per_index_cayley(k2, 0.2 / i)
        assert a_i.tobytes() == want.tobytes()


@FIELDS
def test_rankdrop_families_are_their_per_index_constructions(complex_):
    # every index is drawn at once; each element is bitwise its per-index product
    (limit, _, _), seq = families.rankdrop_family(np.random.default_rng(34), 6, 3, 8, complex_)
    draw = np.random.default_rng(34)
    q = families.random_conditioned(draw, 6, complex_)
    d = np.zeros(6)
    d[:3] = 0.5 + draw.random(3)
    qinv = np.linalg.inv(q)
    assert limit.tobytes() == (q @ np.diag(d) @ qinv).tobytes()
    for i, (a_i, b_i, c_i) in enumerate(seq, start=1):
        want = q @ np.diag(np.r_[d[:3], [1.0 / i] * 3]) @ qinv
        assert a_i is b_i is c_i and a_i.tobytes() == want.tobytes()
    a, seq = families.mp_rankdrop_sequence(np.random.default_rng(35), 6, 3, 8, complex_)
    draw = np.random.default_rng(35)
    u, v = (families._haar(draw, 6, complex_) for _ in range(2))
    s = np.r_[0.5 + draw.random(3), [0.0] * 3]
    assert a.tobytes() == ((u * s) @ v.conj().T).tobytes()
    for i, a_i in enumerate(seq, start=1):
        assert a_i.tobytes() == ((u * np.r_[s[:3], [1.0 / i] * 3]) @ v.conj().T).tobytes()
