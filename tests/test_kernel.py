import multiprocessing
import threading
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geninv as gi
from geninv import kernel
from geninv.errors import InputError


def svd_of_stack(stack, full: bool = False) -> list:
    """(u, sigma, v) of each slice of a 3-d stack, a = u diag(sigma) v*: thin from
    ``kernel.svd_stack``, full from ``kernel._lapack_svd`` (the call ``kernel.svds`` makes)."""
    if not full:
        return list(zip(*kernel.svd_stack(stack)[:3]))
    return [(u, sigma, vh.conj().T) for part in kernel._lapack_svd(stack, full_matrices=True)
            for u, sigma, vh in zip(*part)]


def svd(a, full: bool = False):
    """``svd_of_stack`` of a stack of one: (u, sigma, v) of the matrix alone."""
    return list(svd_of_stack(gi.as_matrix(a)[None], full)[0])


def test_svd_diagonal():
    _, sigma, _ = svd(np.diag([3.0, 1.0]))
    assert np.allclose(sigma, [3.0, 1.0])


def test_svd_zero():
    _, sigma, _ = svd(np.zeros((2, 2)))
    assert np.allclose(sigma, [0.0, 0.0])


def test_svd_swap():
    # eigenvalues of A*A are both 1 for the exchange matrix
    _, sigma, _ = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sigma, [1.0, 1.0])


def test_svd_orthonormal_factors(rng):
    a = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    u, sigma, v = svd(a)
    assert gi.spectral_norm(u.conj().T @ u - np.eye(4)) <= 1e-12
    assert gi.spectral_norm(v.conj().T @ v - np.eye(4)) <= 1e-12
    assert gi.spectral_norm(u @ np.diag(sigma) @ v.conj().T - a) <= 1e-12 * max(sigma)


def test_svd_reconstruction_bulk(rng):
    eps = np.finfo(float).eps
    for m, n in ((3, 3), (20, 11), (50, 50), (100, 40), (100, 100)):
        for complex_ in (False, True):
            a = rng.standard_normal((m, n))
            if complex_:
                a = a + 1j * rng.standard_normal((m, n))
            u, sigma, v = svd(a)
            err = gi.spectral_norm(a - u @ np.diag(sigma) @ v.conj().T)
            assert err <= 10 * eps * max(m, n) * sigma[0]


def test_numerical_rank_examples():
    tol = gi.ToleranceConfig(rank_rel_tol=1e-10)
    assert gi.numerical_rank([3.0, 1e-14], tol) == 1
    assert gi.numerical_rank([0.0, 0.0], tol) == 0
    assert gi.numerical_rank([1.0, 0.5, 1e-12], tol) == 2


@settings(max_examples=50, deadline=None)
@given(
    sigma=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12),
    t1=st.floats(min_value=1e-14, max_value=0.99),
    t2=st.floats(min_value=1e-14, max_value=0.99),
)
def test_numerical_rank_monotone_in_tolerance(sigma, t1, t2):
    sigma = sorted(sigma, reverse=True)
    lo, hi = sorted((t1, t2))
    rank_lo = gi.numerical_rank(sigma, gi.ToleranceConfig(rank_rel_tol=lo))
    rank_hi = gi.numerical_rank(sigma, gi.ToleranceConfig(rank_rel_tol=hi))
    assert rank_hi <= rank_lo


def test_spectral_norm_examples():
    assert gi.spectral_norm(np.eye(5)) == pytest.approx(1.0)
    assert gi.spectral_norm(np.diag([2.0, -5.0])) == pytest.approx(5.0)
    assert gi.spectral_norm(np.array([[1.0, 1.0]])) == pytest.approx(np.sqrt(2.0))
    assert gi.spectral_norm(np.zeros((3, 2))) == 0.0


def test_spectral_norm_submultiplicative(rng):
    for _ in range(25):
        a = rng.standard_normal((6, 4))
        b = rng.standard_normal((4, 5))
        assert gi.spectral_norm(a @ b) <= gi.spectral_norm(a) * gi.spectral_norm(b) + 1e-10


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError):
        gi.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InputError):
        gi.as_matrix(np.array([[np.inf, 1.0]]))


def test_tolerance_config_validation():
    with pytest.raises(InputError):
        gi.ToleranceConfig(rank_rel_tol=1.5)
    with pytest.raises(InputError):
        gi.ToleranceConfig(residual_tol=-0.1)
    with pytest.raises(InputError):
        gi.ToleranceConfig(fd_step_sweep=(1e-3, 1e-2))
    with pytest.raises(InputError):
        gi.ToleranceConfig(fd_step_sweep=())


@pytest.mark.parametrize("steps", [(np.nan,), (0.01, np.nan), (np.inf, 1e-3), (1e-2, 0.0)])
def test_tolerance_config_rejects_steps_outside_zero_to_inf(steps):
    with pytest.raises(InputError, match="fd_step_sweep"):
        gi.ToleranceConfig(fd_step_sweep=steps)


def test_residual_norm_does_not_overflow_on_huge_entries():
    # the squared entries overflow; the spectral norm of the all-1e160 3x3 is 3e160
    a = np.full((3, 3), 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.residual_norm(a, 1.0) == pytest.approx(3e160, rel=1e-12)
        assert kernel.residual_norm(a, 1e161) == pytest.approx(3e160, rel=1e-12)
        assert kernel.residual_norm(1j * a, 1.0) == pytest.approx(3e160, rel=1e-12)


def test_residual_norm_does_not_underflow_on_tiny_entries():
    # the squared entries underflow to zero: ||a|| would read 0 and pass any budget
    a = np.full((3, 3), 1e-170)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel.residual_norm(a, 1e-300) == pytest.approx(3e-170, rel=1e-12, abs=0.0)
        assert kernel.residual_norm(1j * a, 1.0) == pytest.approx(3e-170, rel=1e-12, abs=0.0)
        assert kernel.residual_norm(np.zeros((3, 3)), 0.0) == 0.0
        assert kernel.residual_norm(np.zeros((0, 3)), 0.0) == 0.0


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("magnitude", [5e-324, 1e-310, 1e-200, 1e200, 1e300])
def test_residual_norm_rescales_subnormal_tiny_and_huge_defects(rng, magnitude, complex_):
    # the rescaled Frobenius norm against a 50-digit one, with no floating-point warning: a
    # complex defect is rescaled by parts, never divided by a (subnormal) complex scale
    defects = [np.full((2, 2), magnitude), magnitude * rng.standard_normal((3, 4))]
    if complex_:
        defects = [d + 1j * d[::-1] for d in defects]
        defects.append(1j * np.full((2, 2), magnitude))
    with warnings.catch_warnings(), mpmath.workdps(50):
        warnings.simplefilter("error")
        for d in defects:
            parts = (d.real, d.imag) if complex_ else (d,)
            squares = (mpmath.mpf(float(v)) ** 2 for p in parts for v in p.ravel())
            want = float(mpmath.sqrt(mpmath.fsum(squares)))
            got = kernel.residual_norm(d)
            assert 0.0 < want < np.inf
            assert abs(got - want) <= 1e-15 * want + 5e-324, (got, want)


def test_residual_norm_within_budget_is_numpy_frobenius_norm(rng):
    for shape in ((1, 1), (7, 4), (30, 30)):
        a = rng.standard_normal(shape)
        for x in (a, a.T, np.asfortranarray(a), a + 1j * a[::-1], (a + 1j * a[::-1]).T):
            assert kernel.residual_norm(x, 1e300) == float(np.linalg.norm(x))


def test_batched_svd_and_norms_match_per_matrix_calls(rng):
    stacks = [rng.standard_normal((4, 5, 3)), rng.standard_normal((3, 4, 4)),
              rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)),
              np.zeros((2, 4, 0)), np.zeros((2, 4, 4)), np.zeros((0, 4, 4))]
    for stack in stacks:
        norms = kernel.stack_norms(stack)
        assert norms.shape == (len(stack),)
        assert norms.tolist() == [gi.spectral_norm(m) for m in stack]
        assert kernel.svd_stack(stack)[3] == []
        for full in (False, True):
            for m, factors in zip(stack, svd_of_stack(stack, full), strict=True):
                single = svd(m, full=full)
                assert all(np.array_equal(x, y) for x, y in zip(factors, single))


@pytest.mark.parametrize("complex_", [False, True])
def test_svd_stack_lists_and_zeroes_each_overflowed_slice(rng, complex_):
    # an inf or NaN entry in a product: its slice is listed and factored as a zero slice, and
    # every other slice bitwise as it is alone
    stack = rng.standard_normal((6, 4, 3))
    stack = stack + 1j * rng.standard_normal((6, 4, 3)) if complex_ else stack
    alone, zero = [svd(m) for m in stack], svd(np.zeros((4, 3), stack.dtype))
    stack[1, 2, 0], stack[4, 0, 2] = np.inf, np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, sigma, v, overflowed = kernel.svd_stack(stack)
    assert overflowed == [1, 4]
    assert not stack[[1, 4]].any() and np.isfinite(stack).all()
    for k, want in enumerate(alone):
        want = zero if k in overflowed else want
        assert [x[k].tobytes() for x in (u, sigma, v)] == [y.tobytes() for y in want], k


def test_svds_of_mixed_layouts_is_each_matrix_alone_in_one_call_per_shape_and_field(
        rng, monkeypatch):
    # LAPACK reads each slice from its own copy, so strides do not group the SVD: a C-ordered
    # matrix, a Fortran-ordered one, a strided column view, a row-reversed view and broadcast
    # views (zero strides; a row one first in its call) share a call
    matrices = []
    for complex_ in (False, True):
        wide = rng.standard_normal((5, 8)) + (1j * rng.standard_normal((5, 8)) if complex_ else 0)
        wide[:, 6] = wide[:, 0] + wide[:, 2]  # rank 3 in the strided view's columns 0, 2, 4, 6
        matrices += [np.broadcast_to(wide[0, :4], (5, 4)), wide[:, :4].copy(),
                     np.asfortranarray(wide[:, 1:5]), wide[:, ::2], wide[::-1, 4:],
                     np.broadcast_to(wide[:, 7:], (5, 4))]
    matrices = matrices[::2] + matrices[1::2]  # the fields alternate in triples
    calls = []
    original = np.linalg.svd

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return original(x, *args, **kwargs)
    for full in (False, True):
        monkeypatch.setattr(np.linalg, "svd", counted)
        calls.clear()
        got = kernel.svds(matrices, gi.DEFAULT_TOL, full)
        assert calls == [(6, 5, 4), (6, 5, 4)]
        monkeypatch.setattr(np.linalg, "svd", original)
        assert [r for *_, r in got] == [1, 4, 4, 1, 4, 4, 4, 3, 1, 4, 3, 1]
        for m, (u, sigma, v, r) in zip(matrices, got):
            single = svd(m, full=full)
            assert all(np.array_equal(x, y) for x, y in zip((u, sigma, v), single))
            assert r == kernel.numerical_rank(single[1])
            assert u.strides == single[0].strides and v.strides == single[2].strides


def test_as_matrix_turns_unconvertible_input_into_input_error():
    for bad in ([[1.0, 2.0], [3.0]], [[{}]], [[1 + 2j, "x"]]):
        with pytest.raises(InputError, match="not a numeric matrix"):
            gi.spectral_norm(bad)
        with pytest.raises(InputError, match="not a numeric matrix"):
            gi.as_matrix(bad)
    # numeric strings convert as numpy converts them
    assert gi.as_matrix([["1", "2.5"]]).tolist() == [[1.0, 2.5]]


def test_residual_norm_of_an_overflowed_defect_is_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf, np.nan):
            a = np.ones((3, 3))
            a[1, 2] = bad
            assert kernel.residual_norm(a, 1.0) == np.inf
            assert kernel.residual_norm(a.astype(complex), np.inf) == np.inf


def test_numerical_rank_of_a_stack_is_the_rank_of_each_row():
    rng = np.random.default_rng(3)
    rows = -np.sort(-rng.random((40, 6)) ** 8, axis=1)
    rows[::7] = 0.0
    rows[1::5, 3:] = 1e-13 * rows[1::5, :1]
    for rel in (1e-10, 1e-3, 0.5):
        tol = gi.ToleranceConfig(rank_rel_tol=rel)
        ranks = gi.numerical_rank(rows, tol)
        assert ranks.shape == (40,)
        assert ranks.tolist() == [gi.numerical_rank(row, tol) for row in rows]
    assert gi.numerical_rank(np.zeros((3, 0))).tolist() == [0, 0, 0]


def test_stack_norms_of_an_overflowed_slice_is_inf(rng):
    # as residual_norm: an inf or NaN entry gives inf, and the finite slices keep their norms
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    want = kernel.stack_norms(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.nan)):
            broken = stack.copy()
            broken[1, 2, 0] = bad
            broken[3, 0, 1] = bad
            norms = kernel.stack_norms(broken)
            assert norms[[1, 3]].tolist() == [np.inf, np.inf]
            assert norms[[0, 2]].tolist() == want[[0, 2]].tolist()
            assert kernel.stack_norms(broken.real).tolist()[1] == np.inf


def test_frobenius_norms_of_a_stack_are_each_slice_alone(rng):
    # the batched dots are bitwise the vdot and np.linalg.norm of each slice, real and complex,
    # at any scale where the squares neither overflow nor underflow, and for empty slices
    for k, n, m in ((1, 1, 1), (3, 6, 6), (51, 6, 6), (2, 20, 7), (4, 0, 3), (2, 5, 0)):
        for scale in (1e-100, 1.0, 1e100):
            real = rng.standard_normal((k, n, m)) * scale
            for stack in (real, real + 1j * rng.standard_normal((k, n, m)) * scale):
                stack = stack @ np.eye(m)  # a product, as the construction's are
                norms = kernel.frobenius_norms(stack)
                assert norms == [kernel._frobenius(d) for d in stack]
                assert norms == [float(np.linalg.norm(d)) for d in stack]


def test_stack_keeps_each_matrix_strides(rng):
    # a basis of leading columns (a view into a wider array) keeps its row stride in a stack,
    # so a gemv over a rank-1 basis rounds as it does for the basis alone
    for field in (float, complex):
        wide = [rng.standard_normal((6, 6)).astype(field) for _ in range(3)]
        for cols in (1, 3):
            bases = [w[:, :cols] for w in wide]
            for views in (bases, [b.T for b in bases]):  # row-major and column-major views
                stacked = kernel.stack(views)
                assert stacked.strides[1:] == views[0].strides
                assert all(np.array_equal(s, v) for s, v in zip(stacked, views))
            x = rng.standard_normal((6, 4))
            stacked = kernel.stack(bases)
            products = stacked.conj().swapaxes(-1, -2) @ x
            for got, basis in zip(products, bases):
                assert got.tobytes() == (basis.conj().T @ x).tobytes()
    assert kernel.stack([np.zeros((3, 0))] * 2).shape == (2, 3, 0)


def _threaded_svd_calls(monkeypatch):
    """List of (on this thread, operand shape) filled by every np.linalg.svd call."""
    calls, original, here = [], np.linalg.svd, threading.get_ident()

    def counted(x, *args, **kwargs):
        calls.append((threading.get_ident() == here, np.shape(x)))
        return original(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("shape, complex_", [((2, 128, 128), False), ((2, 128, 128), True),
                                             ((3, 100, 100), False), ((51, 20, 20), False),
                                             ((51, 20, 20), True), ((2, 64, 64), False)],
                         ids=["2x128x128", "2x128x128-complex", "3x100x100", "51x20x20",
                              "51x20x20-complex", "2x64x64"])
def test_a_large_stack_is_factored_in_halves_each_slice_bitwise_as_alone(
        rng, monkeypatch, shape, complex_):
    # the first half on the worker thread, the second on the caller's: each slice through the
    # same gufunc, so svds, svd_stack and _lapack_svd give its factors bit for bit as alone
    stack = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0)
    alone = {full: [np.linalg.svd(m, full_matrices=full) for m in stack] for full in (False, True)}
    half, n = shape[0] // 2, shape[1]
    calls = _threaded_svd_calls(monkeypatch)
    for full in (False, True):
        for factor in (lambda: svd_of_stack(stack, full),
                       lambda: [x[:3] for x in kernel.svds(list(stack), gi.DEFAULT_TOL, full)]):
            calls.clear()
            got = factor()
            assert sorted(calls) == [(False, (half, n, n)), (True, (shape[0] - half, n, n))]
            for (u, sigma, v), (u1, sigma1, vh1) in zip(got, alone[full], strict=True):
                assert sigma.tobytes() == sigma1.tobytes()
                assert u.tobytes() == u1.tobytes() and v.conj().T.tobytes() == vh1.tobytes()


def test_a_small_or_values_only_stack_makes_one_call_on_the_callers_thread(rng, monkeypatch):
    # below SPLIT_MIN_BYTES the hand-off costs more than a thread saves; a values-only half of at
    # most GIL_HELD_MAX_VALUES singular values holds the GIL, so its halves would run one by one
    calls = _threaded_svd_calls(monkeypatch)
    svd_of_stack(rng.standard_normal((2, 40, 40)), full=True)  # 25,600 bytes
    kernel.svds(list(rng.standard_normal((51, 6, 6))), gi.DEFAULT_TOL)  # 14,688
    kernel.svd_stack(rng.standard_normal((51, 4, 4)) + 1j * rng.standard_normal((51, 4, 4)))
    kernel.stack_norms(rng.standard_normal((252, 4, 4)))  # 32,256 bytes, halves of 504
    kernel.stack_norms(rng.standard_normal((150, 6, 6)))  # halves of 450 singular values
    kernel.stack_norms(*rng.standard_normal((2, 25, 20, 20)))  # halves of 500
    kernel.stack_norms(rng.standard_normal((2, 128, 128)))  # halves of 128
    kernel.svd_stack(rng.standard_normal((1, 200, 200)))  # one slice
    assert calls == [(True, (2, 40, 40)), (True, (51, 6, 6)), (True, (51, 4, 4)),
                     (True, (252, 4, 4)), (True, (150, 6, 6)), (True, (50, 20, 20)),
                     (True, (2, 128, 128)), (True, (1, 200, 200))]


def test_stack_norms_of_several_stacks_is_each_alone_and_splits_their_batch(rng, monkeypatch):
    # three 50x20x20 stacks, each held serial alone, are one values-only call of 150 slices, split
    # at slice 75: every norm is bitwise its stack's own, an overflowed slice on either side of
    # the split reads inf in its place, and a stack of another shape or field takes its own call
    stacks = [rng.standard_normal((50, 20, 20)) for _ in range(3)]
    stacks[1][24, 3, 5], stacks[1][25, 0, 0] = np.inf, np.nan  # slices 74 and 75 of the batch
    other = [rng.standard_normal((4, 20, 10)), rng.standard_normal((3, 20, 20)) * 1j]
    alone = [kernel.stack_norms(s) for s in [*stacks, *other]]
    assert np.isinf(alone[1][[24, 25]]).all() and np.isfinite(alone[1][[23, 26]]).all()
    sigma = np.linalg.svd(stacks[0][0], compute_uv=False)
    calls = _threaded_svd_calls(monkeypatch)
    got = kernel.stack_norms(stacks[0], other[0], stacks[1], other[1], stacks[2])
    assert sorted(calls) == [(False, (75, 20, 20)), (True, (3, 20, 20)), (True, (4, 20, 10)),
                             (True, (75, 20, 20))]
    want = np.concatenate([alone[0], alone[3], alone[1], alone[4], alone[2]])
    assert got.tobytes() == want.tobytes()
    calls.clear()
    assert kernel.stack_norms(*stacks).tobytes() == np.concatenate(alone[:3]).tobytes()
    assert kernel.singular_values(stacks[0][0]).tobytes() == sigma.tobytes()
    assert sorted(calls) == [(False, (75, 20, 20)), (True, (20, 20)), (True, (75, 20, 20))]


@pytest.mark.parametrize("on_worker", [True, False], ids=["worker-half", "caller-half"])
def test_a_linalg_error_in_either_half_is_a_kernel_error_and_the_next_call_succeeds(
        rng, monkeypatch, on_worker):
    # on a certify-sized and a drivers-sized stack
    original, failures = np.linalg.svd, []

    def fails_once(x, *args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == on_worker and failures:
            failures.pop()
            raise np.linalg.LinAlgError("SVD did not converge")
        return original(x, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", fails_once)
    for stack in (rng.standard_normal((2, 128, 128)), rng.standard_normal((51, 20, 20))):
        failures.append(1)
        n = stack.shape[-1]
        with pytest.raises(gi.KernelError, match=f"svd did not converge on a {n}x{n} matrix"):
            kernel.svd_stack(stack)
        assert not failures
        u, sigma, v, overflowed = kernel.svd_stack(stack)
        want = original(stack, full_matrices=False)
        assert [u.tobytes(), sigma.tobytes(), v.conj().swapaxes(-1, -2).tobytes()] == [
            x.tobytes() for x in want] and overflowed == []


def _full_factors(stack) -> list:
    return [x.tobytes() for factors in svd_of_stack(stack, full=True) for x in factors]


def _factor_in_child(stacks, conn):
    conn.send([_full_factors(stack) for stack in stacks])


def test_a_forked_child_builds_its_own_worker_and_returns_the_parents_bits(rng):
    # a pool inherited across a fork has no thread: waiting on it would hang the child; on a
    # certify-sized and a drivers-sized stack
    stacks = [rng.standard_normal((2, 128, 128)), rng.standard_normal((51, 20, 20))]
    want = [_full_factors(stack) for stack in stacks]
    context = multiprocessing.get_context("fork")  # the parent's pool exists
    receive, send = context.Pipe(duplex=False)
    with warnings.catch_warnings():  # a Python that warns on forking a threaded process
        warnings.simplefilter("ignore", DeprecationWarning)
        child = context.Process(target=_factor_in_child, args=(stacks, send))
        child.start()
    try:
        assert receive.poll(60), "the forked child did not factor the stacks within 60 s"
        assert receive.recv() == want
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
