import warnings

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.special import gammaln

from ptwreg import estfun
from ptwreg.errors import InvalidParameterError, SingularMatrixError
from ptwreg.estfun import godambe_covariance
from ptwreg.numcore import (
    _POISSON_MAX_RATE,
    RngStream,
    _lu_solver,
    _require_poisson_rates,
    gauss_laguerre,
    solve_linear,
)
from ptwreg.ptwdist import PtwParams, ptw_sample
from ptwreg.refdists import (
    ComPoissonParams,
    GammaCountParams,
    compoisson_sample,
    gammacount_sample,
)
from ptwreg.tweedie import TweedieParams, tweedie_sample


# ---------------------------------------------------------------- solve_linear


def test_solve_identity():
    x = solve_linear(np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(x, [1.0, 2.0, 3.0])


def test_solve_diagonal():
    x = solve_linear(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-14)


def test_solve_random_system_residual(rng):
    A = rng.normal(size=(10, 10)) + 10 * np.eye(10)
    b = rng.normal(size=10)
    x = solve_linear(A, b)
    assert np.max(np.abs(A @ x - b)) <= 1e-8 * (1 + np.max(np.abs(b)))


def test_solve_roundtrip_is_identity(rng):
    A = rng.normal(size=(6, 6)) + 6 * np.eye(6)
    x_true = rng.normal(size=6)
    x = solve_linear(A, A @ x_true)
    assert np.max(np.abs(x - x_true)) <= 1e-6 * max(1.0, np.max(np.abs(x_true)))


def test_solve_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError):
        solve_linear(A, np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "A",
    [np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [2.0, 4.0]])],
    ids=["zero-column", "rank-one"],
)
def test_exact_zero_pivot_raises_without_warning(A):
    # LAPACK getrf reports info > 0 for these; the pivot check must turn that
    # into SingularMatrixError in both solvers with no warning escaping
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError):
            solve_linear(A, np.array([1.0, 1.0]))
        with pytest.raises(SingularMatrixError):
            godambe_covariance(A, np.eye(2))


def test_solve_matches_getrf_getrs_bitwise():
    # one gesv call runs the same getrf and getrs as two separate calls
    gen = np.random.default_rng(31)
    for k in range(20_000):
        q = 2 + k % 2
        scale = 10.0 ** gen.uniform(-8.0, 14.0)
        A = scale * gen.normal(size=(q, q))
        b = 10.0 ** gen.uniform(-8.0, 14.0) * gen.normal(size=q)
        lu, piv, _ = dgetrf(A)
        assert np.abs(np.diag(lu)).min() >= 1e-12 * np.abs(A).max()
        assert solve_linear(A, b).tobytes() == dgetrs(lu, piv, b)[0].tobytes(), k


@pytest.mark.parametrize(
    "A, b, error, message",
    [
        (np.zeros((2, 2)), np.ones(2), SingularMatrixError, "zero matrix"),
        (np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2), SingularMatrixError,
         "pivot 0.000e+00 below 1e-12 * max|A| = 4.000e-12"),
        (np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]), np.ones(2), SingularMatrixError,
         "pivot 9.992e-14 below 1e-12 * max|A| = 1.000e-12"),
        (np.array([[1e14, 1.0], [1.0, 1e-8]]), np.ones(2), SingularMatrixError,
         "pivot 1.000e-08 below 1e-12 * max|A| = 1.000e+02"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(2), InvalidParameterError,
         "A and b must be finite"),
        (np.eye(2), np.array([1.0, np.inf]), InvalidParameterError, "A and b must be finite"),
        # finiteness is checked before A = 0 and before the pivots
        (np.zeros((2, 2)), np.array([np.inf, 1.0]), InvalidParameterError,
         "A and b must be finite"),
        (np.array([[1.0, 2.0], [2.0, np.nan]]), np.ones(2), InvalidParameterError,
         "A and b must be finite"),
        (np.ones((2, 3)), np.ones(2), InvalidParameterError, "A must be square, got shape (2, 3)"),
        (np.eye(2), np.ones(3), InvalidParameterError, "dimension mismatch between A and b"),
    ],
    ids=["zero", "rank-one", "near-singular", "scaled", "nan-A", "inf-b", "zero-A-inf-b",
         "rank-one-nan", "non-square", "mismatch"],
)
def test_solve_errors_and_messages(A, b, error, message):
    # the classes and messages of the two-call solver
    with pytest.raises(error) as info:
        solve_linear(A, b)
    assert str(info.value) == message


def test_poisson_rate_limit_is_numpys():
    # the largest rate numpy draws from passes; the next float and NaN are
    # refused, where numpy raises "lam value too large"
    gen = RngStream(0).generator()
    top = np.array([1.0, _POISSON_MAX_RATE])
    _require_poisson_rates(top)
    gen.poisson(top)
    _require_poisson_rates(np.zeros(0))
    for bad in (np.nextafter(_POISSON_MAX_RATE, np.inf), np.nan):
        with pytest.raises(ValueError, match="lam value too large"):
            gen.poisson([1.0, bad])
        with pytest.raises(InvalidParameterError, match="beyond numpy's sampler limit"):
            _require_poisson_rates(np.array([1.0, bad]))


def test_lu_solver_matches_getrs_bitwise():
    # row interchanges and two trsm calls are getrs's own arithmetic, for
    # matrix right-hand sides in either memory order (the sandwich passes both)
    gen = np.random.default_rng(37)
    for k in range(20_000):
        q = 3 + k % 3
        A = 10.0 ** gen.uniform(-8.0, 14.0) * gen.normal(size=(q, q))
        B = 10.0 ** gen.uniform(-8.0, 14.0) * gen.normal(size=(q, q))
        if k % 2:
            B = B.T
        lu, piv, _ = dgetrf(A)
        assert np.abs(np.diag(lu)).min() >= 1e-12 * np.abs(A).max()
        got = _lu_solver(A, "zero", "singular")(B)
        assert got.tobytes() == dgetrs(lu, piv, B)[0].tobytes(), k


def _getrs_solver(A, zero_msg, singular_msg):
    lu, piv, _ = dgetrf(A)
    return lambda b: dgetrs(lu, piv, b)[0]


def test_godambe_covariance_matches_getrs_copy(monkeypatch):
    gen = np.random.default_rng(41)
    pairs = []
    for k in range(200):
        q = 3 + k % 3
        S = 10.0 ** gen.uniform(-4.0, 4.0) * (gen.normal(size=(q, q)) + q * np.eye(q))
        M = 10.0 ** gen.uniform(-4.0, 4.0) * gen.normal(size=(q, q))
        pairs.append((S, M @ M.T))
    got = [godambe_covariance(S, V) for S, V in pairs]
    monkeypatch.setattr(estfun, "_lu_solver", _getrs_solver)
    for k, (S, V) in enumerate(pairs):
        assert got[k].tobytes() == godambe_covariance(S, V).tobytes(), k


# --------------------------------------------------------------- gauss_laguerre


def test_laguerre_one_point():
    rule = gauss_laguerre(1)
    assert np.allclose(rule.nodes, [1.0]) and np.allclose(rule.weights, [1.0])


def test_laguerre_low_moments():
    rule = gauss_laguerre(20)
    assert abs(np.sum(rule.weights) - 1.0) < 1e-12
    assert abs(np.sum(rule.weights * rule.nodes) - 1.0) < 1e-10  # Gamma(2)
    assert abs(np.sum(rule.weights * rule.nodes**2) - 2.0) < 1e-9  # Gamma(3)


@pytest.mark.parametrize("n", [5, 20, 64])
def test_laguerre_monomial_exactness(n):
    # an n-point rule integrates x^k e^{-x} exactly (= k!) up to k = 2n-1
    rule = gauss_laguerre(n)
    for k in range(2 * n):
        exact = np.exp(gammaln(k + 1.0))
        approx = np.sum(rule.weights * rule.nodes**k)
        assert abs(approx - exact) <= 1e-8 * exact, (n, k)


@pytest.mark.parametrize("n", [5, 20, 64])
def test_laguerre_matches_numpy(n):
    rule = gauss_laguerre(n)
    nodes, weights = laggauss(n)
    assert np.allclose(rule.nodes, nodes, rtol=1e-12, atol=1e-12)
    assert np.allclose(rule.weights, weights, rtol=1e-10, atol=1e-14)


def test_laguerre_nodes_increasing_weights_positive():
    rule = gauss_laguerre(128)
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.nodes > 0)
    assert np.all(rule.weights > 0)


def test_laguerre_largest_order_builds_quietly():
    # from 195 nodes on the last weights underflow to 0; 194 is the top order
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rule = gauss_laguerre(194)
    assert np.all(rule.weights > 0)
    with pytest.raises(InvalidParameterError, match=r"in 1\.\.194, got 195"):
        gauss_laguerre(195)


@pytest.mark.parametrize("n", [0, -3, 195, 513])
def test_laguerre_out_of_range(n):
    with pytest.raises(InvalidParameterError):
        gauss_laguerre(n)


# ------------------------------------------------------------------ RngStream


def test_stream_determinism():
    a = RngStream(7, (3,)).generator().random(100)
    b = RngStream(7, (3,)).generator().random(100)
    assert np.array_equal(a, b)


def test_substream_identity_and_distinctness():
    parent = RngStream(11)
    s0 = parent.substream(0)
    s1 = parent.substream(1)
    assert s0 == RngStream(11, (0,))
    assert np.array_equal(s0.generator().random(100), parent.substream(0).generator().random(100))
    assert not np.array_equal(s0.generator().random(100), s1.generator().random(100))


def test_substream_population_means():
    # 64 sibling substreams should all look like independent U(0,1) sources
    parent = RngStream(2024)
    means = [parent.substream(i).generator().random(10_000).mean() for i in range(64)]
    assert np.all(np.abs(np.asarray(means) - 0.5) < 0.02)


def test_substreams_nest():
    # tuple stream ids give an order-independent tree of streams
    a = RngStream(5, (2, 9)).generator().random(10)
    b = RngStream(5, (2,)).substream(9).generator().random(10)
    assert np.array_equal(a, b)


def test_stream_validation():
    with pytest.raises(InvalidParameterError):
        RngStream(-1)
    with pytest.raises(InvalidParameterError):
        RngStream(2**64)
    with pytest.raises(InvalidParameterError):
        RngStream(3, (-1,))
    # each of these was built, and only .generator() failed, with a TypeError
    for seed, stream_id in ((1.5, ()), ("3", ()), (True, ()), (0, (1.5,)), (0, (True,))):
        with pytest.raises(InvalidParameterError):
            RngStream(seed, stream_id)
    with pytest.raises(InvalidParameterError):
        RngStream(3).substream(1.5)  # was read as substream 1
    assert RngStream(np.uint64(3), (np.int64(2),)) == RngStream(3, (2,))


@pytest.mark.parametrize(
    "sampler, params",
    [
        (ptw_sample, PtwParams(5.0, 0.4, 1.5)),
        (tweedie_sample, TweedieParams(5.0, 0.4, 1.5)),
        (compoisson_sample, ComPoissonParams(8.0, 4.0)),
        (gammacount_sample, GammaCountParams(2.0, 4.0)),
    ],
    ids=["ptw", "tweedie", "compoisson", "gammacount"],
)
def test_samplers_take_only_integer_sizes(sampler, params):
    # n = 2.5 drew 2 values and n = True drew 1
    for n in (2.5, True, "2"):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            sampler(params, n, RngStream(0))
    with pytest.raises(InvalidParameterError, match="n must be non-negative"):
        sampler(params, -1, RngStream(0))
    assert sampler(params, np.int64(3), RngStream(0)).shape == (3,)
