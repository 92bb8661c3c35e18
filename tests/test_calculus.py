import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import cli, families
from geninv.calculus import CayleyQuadratic, MatrixCurve
from geninv.kernel import cayley
from geninv.errors import CertificateError, ExistenceError, InputError

from conftest import (
    difference_identity_residual,
    outer_fullrank_oracle,
    projector,
    rank_jump_instance,
    save_matrix,
)


def test_bc_derivative_scalar_reciprocal():
    # a(t) = t with b = c = 1: the inverse is 1/t, derivative -1 at t = 1
    d = gi.outer_derivative([[1.0]], [[1.0]], [[1.0]], [[0.0]], [[0.0]])
    assert d[0, 0] == pytest.approx(-1.0)


def test_bc_derivative_constant_curve_is_zero():
    z = np.zeros((3, 3))
    x = np.diag([1.0, 0.5, 0.0])
    assert np.allclose(gi.outer_derivative(x, np.diag([1.0, 2.0, 3.0]), z, z, z), z)


def test_bc_derivative_invertible_diagonal():
    # a(t) = diag(t, 1) with b = c = I at t0 = 2: derivative of diag(1/t, 1)
    a0 = np.diag([2.0, 1.0])
    x0 = np.diag([0.5, 1.0])
    aprime = np.diag([1.0, 0.0])
    z = np.zeros((2, 2))
    d = gi.outer_derivative(x0, a0, aprime, z, z)
    assert np.allclose(d, np.diag([-0.25, 0.0]))


def test_mp_derivative_examples():
    # a(t) = t I at t0 = 1
    n = 3
    d = gi.outer_derivative(np.eye(n), np.eye(n), np.eye(n), np.zeros((n, n)), np.zeros((n, n)))
    assert np.allclose(d, -np.eye(n))
    z = np.zeros((2, 2))
    assert np.allclose(gi.outer_derivative(np.diag([0.5, 0.0]), np.diag([2.0, 0.0]), z, z, z), z)
    # a(t) = diag(t, 0) at t0 = 2: derivative of diag(1/t, 0)
    d = gi.outer_derivative(
        np.diag([0.5, 0.0]), np.diag([2.0, 0.0]), np.diag([1.0, 0.0]), z, z
    )
    assert np.allclose(d, np.diag([-0.25, 0.0]))


def test_oip_derivative_zero_primes():
    x = np.diag([1.0, 0.0])
    z = np.zeros((2, 2))
    assert np.allclose(gi.outer_derivative(x, np.eye(2), z, z, z), z)


def test_oip_derivative_rotating_range():
    # the outer inverse of I on a rotating orthogonal pair is the projector itself,
    # so the formula must reproduce the projector derivative
    def proj(t):
        v = np.array([[np.cos(t)], [np.sin(t)]])
        return v @ v.T

    pprime = np.array([[0.0, 1.0], [1.0, 0.0]])  # d/dt proj at t = 0
    x0 = np.diag([1.0, 0.0])
    d = gi.outer_derivative(x0, np.eye(2), np.zeros((2, 2)), pprime, -pprime)
    assert np.allclose(d, pprime)
    fd = (proj(1e-6) - proj(-1e-6)) / 2e-6
    assert np.allclose(d, fd, atol=1e-9)


@pytest.mark.parametrize(
    "operand, index", [("x", 0), ("a", 1), ("a_prime", 2), ("range_prime", 3), ("null_prime", 4)]
)
def test_outer_derivative_names_a_misfit_operand(operand, index):
    # a 2x3 problem: x is 3x2, a and a' 2x3, range' 3x3, null' 2x2; one operand is 4x4
    operands = [np.ones((3, 2)), np.ones((2, 3)), np.ones((2, 3)), np.eye(3), np.eye(2)]
    operands[index] = np.ones((4, 4))
    with pytest.raises(InputError, match=rf"^{operand} has shape \(4, 4\)"):
        gi.outer_derivative(*operands)


def _subspaces_at(kind, curves, t, r):
    """T(t) and S(t) from plain numpy SVDs of the curves' values (no library construction)."""
    values = [curve(t) for curve in curves]
    if kind == "bc":
        b, c = values[1], values[2]
        t_basis, s_basis = np.linalg.svd(b)[0][:, :r], np.linalg.svd(c)[2][r:].conj().T
    elif kind == "mp":
        u, _, vh = np.linalg.svd(values[0])
        t_basis, s_basis = vh[:r].conj().T, u[:, r:]
    else:
        t_basis, s_basis = values[1], values[2]
    return values[0], gi.Subspace(len(t_basis), t_basis), gi.Subspace(len(s_basis), s_basis)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["bc", "mp", "oip"]),
    m=st.integers(2, 6),
    n=st.integers(2, 6),
    rank=st.integers(1, 6),
    complex_=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_outer_derivative_matches_the_oracle_curve(kind, m, n, rank, complex_, seed):
    # (b, c) curves are square; the rank is cut to fit the shape
    rng = np.random.default_rng(seed)
    m = n if kind == "bc" else m
    r = min(rank, m, n)
    curves = {
        "bc": lambda: families.bc_curves(rng, n, r, complex_),
        "mp": lambda: [families.mp_curve(rng, m, n, r, complex_)],
        "oip": lambda: families.oip_curves(rng, m, n, r, complex_),
    }[kind]()
    h = 1e-5

    def at(t):
        a, t_space, s_space = _subspaces_at(kind, curves, t, r)
        x = outer_fullrank_oracle(a, t_space, s_space)
        return a, x, t_space.projector(), s_space.projector()

    (a0, x0, _, _), plus, minus = at(0.0), at(h), at(-h)
    a_prime, x_prime, pt_prime, ps_prime = ((p - q) / (2 * h) for p, q in zip(plus, minus))
    d = gi.outer_derivative(x0, a0, a_prime, pt_prime, ps_prime)
    norm = gi.spectral_norm
    xn = norm(x0)
    scale = (
        xn * norm(a_prime) * xn
        + xn * norm(ps_prime) * norm(np.eye(m) - a0 @ x0)
        + norm(np.eye(n) - x0 @ a0) * norm(pt_prime) * xn
    )
    assert norm(d - x_prime) <= 1e-6 * scale


def test_fd_check_constant_curves_exact():
    a = np.diag([1.0, 2.0, 3.0])
    curve = MatrixCurve(lambda t: a, (-1.0, 1.0), "a")
    report = gi.finite_difference_check([curve], 0.0, kind="mp")
    assert report.observed_order == "exact"
    assert all(err <= 1e-10 for _, err in report.fd_errors)


def test_fd_check_scalar_reciprocal():
    dom = (0.5, 1.5)
    curves = [
        MatrixCurve(lambda t: np.array([[t]]), dom, "a"),
        MatrixCurve(lambda t: np.array([[1.0]]), dom, "b"),
        MatrixCurve(lambda t: np.array([[1.0]]), dom, "c"),
    ]
    report = gi.finite_difference_check(curves, 1.0, kind="bc")
    assert report.formula_derivative[0, 0] == pytest.approx(-1.0, abs=1e-9)
    assert report.observed_order == "exact" or report.observed_order > 1.8
    assert report.fd_errors[-1][1] <= 1e-9


def test_fd_check_rotating_projector_pair():
    def p_eval(t):
        v = np.array([[np.cos(t)], [np.sin(t)]])
        return v @ v.T

    def q_eval(t):
        v = np.array([[-np.sin(t)], [np.cos(t)]])
        return v @ v.T

    dom = (-1.0, 1.0)
    curves = [
        MatrixCurve(lambda t: np.eye(2), dom, "a"),
        MatrixCurve(p_eval, dom, "p"),
        MatrixCurve(q_eval, dom, "q"),
    ]
    report = gi.finite_difference_check(curves, 0.0, kind="oip")
    assert np.allclose(
        report.formula_derivative, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-9
    )
    assert report.observed_order == "exact" or report.observed_order > 1.8


def test_fd_check_orders(rng):
    curves = families.bc_curves(rng, 5, 3)
    report = gi.finite_difference_check(curves, 0.0, kind="bc")
    assert report.observed_order > 1.8
    report = gi.finite_difference_check([families.mp_curve(rng, 6, 4, 2)], 0.0, kind="mp")
    assert report.observed_order > 1.8
    report = gi.finite_difference_check(families.oip_curves(rng, 6, 5, 3), 0.0, kind="oip")
    assert report.observed_order > 1.8


def test_fd_check_reports_curve_leaving_solvable_set():
    dom = (-1.0, 1.0)
    curves = [
        MatrixCurve(lambda t: np.diag([t, 1.0]), dom, "a"),
        MatrixCurve(lambda t: np.eye(2), dom, "b"),
        MatrixCurve(lambda t: np.eye(2), dom, "c"),
    ]
    # the widest step reaches t = 0 where a(t) is singular
    with pytest.raises(ExistenceError, match="curve leaves invertible set"):
        gi.finite_difference_check(curves, 1e-2, kind="bc")


def test_fd_check_reports_a_jump_in_rank_at_t0():
    a, b, c, g, g2 = rank_jump_instance()
    curves = [
        MatrixCurve(lambda t: a, label="a"),
        MatrixCurve(lambda t: b + 0.05 * t * g, label="b"),
        MatrixCurve(lambda t: c + 0.05 * t * g2, label="c"),
    ]
    # central differences never look at t0, so without the dimension check this read "exact"
    with pytest.raises(ExistenceError, match=r"\(8, 0\) there against \(4, 4\)") as info:
        gi.finite_difference_check(curves, 0.0, kind="bc")
    assert info.value.clause == "curve leaves invertible set"


def test_fd_check_passes_a_refused_certificate_through():
    # a certificate over its residual budget is not the curve leaving the invertible set
    curves = families.bc_curves(np.random.default_rng(5), 12, 6, False)
    with pytest.raises(CertificateError) as info:
        gi.finite_difference_check(curves, 0.0, gi.ToleranceConfig(residual_tol=1e-17), "bc")
    assert type(info.value) is CertificateError
    assert info.value.clause == "residual exceeds tolerance"
    assert str(info.value).startswith("bc certificate rejected: residual xax_x=")


def test_fd_check_domain_validation():
    curve = MatrixCurve(lambda t: np.eye(2), (-1e-3, 1e-3), "a")
    with pytest.raises(InputError, match="domain"):
        gi.finite_difference_check([curve], 0.0, kind="mp")


def test_derivative_independent_of_inner_inverse_choice(rng):
    # any differentiable inner-inverse curves g, h give the derivative of the
    # projector inputs (h c)' = -(P_S)' and (b g)' = (P_T)'
    n = 5
    a_c, b_c, c_c = families.bc_curves(rng, n, 3)
    u1, u2, u3, u4 = (families.random_matrix(rng, n, n) for _ in range(4))
    h_ref = 1e-5

    def central(f):
        return (f(h_ref) - f(-h_ref)) / (2.0 * h_ref)

    def exotic(m, left, right):
        pinv = gi.moore_penrose(m).inverse
        eye = np.eye(n)
        return pinv + (eye - pinv @ m) @ left + right @ (eye - m @ pinv)

    cert = gi.bc_inverse(a_c(0.0), b_c(0.0), c_c(0.0))
    aprime = central(a_c)
    hc_prime = central(lambda t: exotic(c_c(t), u3, u4) @ c_c(t))
    bg_prime = central(lambda t: b_c(t) @ exotic(b_c(t), u1, u2))
    ps_prime = central(lambda t: gi.null_space(c_c(t)).projector())
    pt_prime = central(lambda t: gi.column_space(b_c(t)).projector())
    # the inner inverses are exotic: their products move off the projectors
    assert gi.spectral_norm(hc_prime + ps_prime) > 1e-3
    assert gi.spectral_norm(bg_prime - pt_prime) > 1e-3
    d_exotic = gi.outer_derivative(cert.inverse, cert.operator, aprime, bg_prime, -hc_prime)
    d_proj = gi.outer_derivative(cert.inverse, cert.operator, aprime, pt_prime, ps_prime)
    diff = gi.spectral_norm(d_exotic - d_proj)
    assert diff <= 1e-9 * max(1.0, gi.spectral_norm(d_proj))


def test_derivative_product_rule_for_projector_curves(rng):
    # feeding (c^+)' c + c^+ c' for (c^+ c)' reproduces the same derivative
    n = 4
    a_c, b_c, c_c = families.bc_curves(rng, n, 2, complex_=True)
    h_ref = 1e-5

    def central(f, _t0):
        return (f(h_ref) - f(-h_ref)) / (2.0 * h_ref)

    cdag = lambda t: gi.moore_penrose(c_c(t)).inverse
    bdag = lambda t: gi.moore_penrose(b_c(t)).inverse
    x0 = gi.bc_inverse(a_c(0.0), b_c(0.0), c_c(0.0)).inverse
    a0 = a_c(0.0)
    aprime = central(a_c, 0.0)
    hc_prime_direct = central(lambda t: cdag(t) @ c_c(t), 0.0)
    hc_prime_product = central(cdag, 0.0) @ c_c(0.0) + cdag(0.0) @ central(c_c, 0.0)
    bg_prime_direct = central(lambda t: b_c(t) @ bdag(t), 0.0)
    bg_prime_product = central(b_c, 0.0) @ bdag(0.0) + b_c(0.0) @ central(bdag, 0.0)
    d1 = gi.outer_derivative(x0, a0, aprime, bg_prime_direct, -hc_prime_direct)
    d2 = gi.outer_derivative(x0, a0, aprime, bg_prime_product, -hc_prime_product)
    assert gi.spectral_norm(d1 - d2) <= 1e-9 * max(1.0, gi.spectral_norm(d1))


def test_difference_identity_same_instance_vanishes(rng):
    a, t, s = families.random_outer_instance(rng, 5, 4, 2)
    x = gi.outer_prescribed(a, t, s).inverse
    pt = projector(t, gi.orthogonal_complement(t))
    ps = projector(s, gi.orthogonal_complement(s))
    assert difference_identity_residual(a, a, x, x, pt, pt, ps, ps) <= 1e-13


def test_difference_identity_random_pairs(rng):
    for _ in range(10):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        rank = int(rng.integers(1, min(m, n) + 1))
        complex_ = bool(rng.integers(2))
        a, t, s = families.random_outer_instance(rng, m, n, rank, complex_)
        b, v, u = families.random_outer_instance(rng, m, n, rank, complex_)
        ainv = gi.outer_prescribed(a, t, s).inverse
        binv = gi.outer_prescribed(b, v, u).inverse
        pt = projector(t, gi.orthogonal_complement(t))
        pv = projector(v, gi.orthogonal_complement(v))
        ps = projector(s, gi.orthogonal_complement(s))
        pu = projector(u, gi.orthogonal_complement(u))
        scale = 1.0 + sum(
            gi.spectral_norm(z) for z in (a, b, ainv, binv)
        )
        assert difference_identity_residual(a, b, ainv, binv, pt, pv, ps, pu) <= 1e-12 * scale


def test_difference_identity_reduces_to_resolvent(rng):
    # with full range and zero null space the identity is the classical
    # second-resolvent form b^-1 - a^-1 = -b^-1 (b - a) a^-1
    n = 4
    a = families.random_conditioned(rng, n) + 0.5 * np.eye(n)
    b = a + 0.1 * families.random_matrix(rng, n, n)
    full = gi.full_subspace(n)
    zero = gi.trivial_subspace(n)
    p_full = projector(full, zero)
    p_zero = projector(zero, full)
    residual = difference_identity_residual(
        a, b, np.linalg.inv(a), np.linalg.inv(b), p_full, p_full, p_zero, p_zero
    )
    assert residual <= 1e-12
    lhs = np.linalg.inv(b) - np.linalg.inv(a)
    rhs = -np.linalg.inv(b) @ (b - a) @ np.linalg.inv(a)
    assert gi.spectral_norm(lhs - rhs) <= 1e-12


def test_fd_check_refuses_an_overflowing_derivative():
    # x(0) = 1e200 I and a' = 1e150 I give x a' x = 1e550 I: the derivative overflows though
    # every certificate of the sweep is finite (warnings are errors here)
    curve = MatrixCurve(lambda t: (1e-200 + 1e150 * t) * np.eye(2), label="a")
    with pytest.raises(CertificateError, match="formula derivative is not finite") as info:
        gi.finite_difference_check([curve], 0.0, kind="mp")
    assert info.value.clause == "residual exceeds tolerance"


def _family_curves(kind: str, complex_: bool) -> list:
    rng = np.random.default_rng(21)
    return list({
        "bc": lambda: families.bc_curves(rng, 6, 3, complex_),
        "mp": lambda: [families.mp_curve(rng, 6, 5, 3, complex_)],
        "oip": lambda: families.oip_curves(rng, 6, 5, 3, complex_),
    }[kind]())


def _by_hand(form: CayleyQuadratic, t: float) -> np.ndarray:
    """cayley(left, t) @ (c0 + t c1 + t t c2) @ cayley(right, t) at one Python float t."""
    value = form.c0
    if form.c1 is not None:
        value = value + t * form.c1
    if form.c2 is not None:
        value = value + t * t * form.c2
    if form.left is not None:
        value = cayley(form.left, t) @ value
    if form.right is not None:
        value = value @ cayley(form.right, t)
    return value


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _sweep(t0: float) -> list:
    return [t0, *(t for h in gi.DEFAULT_TOL.fd_step_sweep for t in (t0 + h, t0 - h))]


def _assert_stacks_bit_for_bit(curve: MatrixCurve, points: list) -> None:
    stack = curve.at(points)
    assert stack.shape[0] == len(points)
    assert np.array_equal(_bits(stack), _bits(np.stack([curve(t) for t in points])))
    for t, value in zip(points, stack):
        assert np.array_equal(_bits(value), _bits(_by_hand(curve.evaluator, t)))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", ["bc", "mp", "oip"])
def test_family_curves_stack_their_values_bit_for_bit(kind, complex_):
    # at(points) is one batched solve per Cayley factor; each slice is curve(t) to the bit,
    # and curve(t) the curve's expression at a Python float t
    for curve in _family_curves(kind, complex_):
        assert isinstance(curve.evaluator, CayleyQuadratic)
        for t0 in (0.0, 0.1):
            _assert_stacks_bit_for_bit(curve, _sweep(t0))


@pytest.mark.parametrize("complex_", [False, True])
def test_derivcheck_affine_curves_stack_their_values_bit_for_bit(tmp_path, monkeypatch, complex_):
    rng = np.random.default_rng(22)
    base, step = (families.random_matrix(rng, 4, 3, complex_) for _ in range(2))
    paths = [str(tmp_path / f"{name}.mat") for name in ("a0", "a1")]
    for path, a in zip(paths, (base, step)):
        save_matrix(a, path)
    seen = []

    def check(curves, *args):
        seen.extend(curves)
        return gi.finite_difference_check(curves, *args)

    monkeypatch.setattr(cli, "finite_difference_check", check)
    assert cli.main(["derivcheck", "--kind", "mp", "--t0", "0.1", *paths,
                     "--out", str(tmp_path / "r.json")]) == 0
    (curve,) = seen
    parsed = [gi.parse_matrix(path) for path in paths]
    for t, value in zip(_sweep(0.1), curve.at(_sweep(0.1))):
        assert np.array_equal(_bits(value), _bits(parsed[0] + t * parsed[1]))
    _assert_stacks_bit_for_bit(curve, _sweep(0.1))


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("kind", ["bc", "mp", "oip"])
def test_fd_check_of_stacked_curves_equals_the_point_by_point_check(kind, complex_):
    # the same curves behind a plain evaluator are read one point at a time
    curves = _family_curves(kind, complex_)
    plain = [MatrixCurve(lambda t, c=c: c(t), c.domain, c.label) for c in curves]
    for t0 in (0.0, 0.1):
        got, want = (gi.finite_difference_check(cs, t0, kind=kind) for cs in (curves, plain))
        assert got.formula_derivative.tobytes() == want.formula_derivative.tobytes()
        assert [(h.hex(), e.hex()) for h, e in got.fd_errors] == [
            (h.hex(), e.hex()) for h, e in want.fd_errors]
        assert got.observed_order == want.observed_order


def test_matrix_curve_at_checks_each_point_and_the_stack():
    calls = []
    plain = MatrixCurve(lambda t: calls.append(t) or np.eye(2) * t, (-1.0, 1.0), "p")
    assert np.array_equal(plain.at([0.5, -0.25]), [0.5 * np.eye(2), -0.25 * np.eye(2)])
    assert calls == [0.5, -0.25]  # a plain evaluator is called once per point
    constant = MatrixCurve(CayleyQuadratic(np.eye(2)), (-1.0, 1.0), "k")
    assert np.array_equal(constant.at([0.1, 0.2, 0.3]), [np.eye(2)] * 3)
    for curve in (plain, constant):
        with pytest.raises(InputError, match=f"curve {curve.label} evaluated outside"):
            curve.at([0.0, 1.0])
    ragged = MatrixCurve(lambda t: np.eye(2 if t < 0 else 3))
    with pytest.raises(InputError, match="not a numeric matrix"):
        ragged.at([-0.5, 0.5])
    overflowing = MatrixCurve(CayleyQuadratic(np.full((2, 2), 1e308), np.full((2, 2), 1e308)))
    with np.errstate(over="ignore"), pytest.raises(InputError, match="non-finite"):
        overflowing.at([0.0, 0.9])
