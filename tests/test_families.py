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
