"""The fit's refusal checks against the numpy expressions they replaced.

The chaser's loop and ``solve_linear`` test their inputs with few calls:
direct ``np.fmin``, ``np.minimum``, ``np.maximum`` and ``np.add``
reductions, or sums and extremes of Python floats.  The ``reference_*``
functions below are the same code with the expressions it had before
(``(C <= 0).any()``, ``np.isfinite(x).all()``, ``np.abs(x).max()``, a
term-by-term finiteness test, and a smallest pivot that is NaN when any
pivot is).
Each test feeds both the same edge arrays, where a NaN, an infinity, a zero
or a negative entry decides the verdict, and asserts the same result, or
the same error class and message.
"""

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgesv, dgetrf

from ptwreg.chaser import _MAX_HALVINGS, _halve, _pivots_clear, _solve_rows, _sup_norm
from ptwreg.errors import (
    BoundaryTrapError,
    InvalidParameterError,
    PtwError,
    SingularMatrixError,
    VarianceNonpositiveError,
)
from ptwreg.estfun import (
    PtwModel,
    _dispersion_weights,
    _lambda_weights,
    _mean_terms,
    _require_finite_beta,
    _require_finite_lambda,
    _variance,
)
from ptwreg.numcore import _SINGULAR, _factor, quiet, solve_linear


def reference_require_finite_beta(beta):
    if not np.isfinite(beta).all():
        raise InvalidParameterError("beta must be finite")


def reference_mean_terms(model, beta):
    mu = np.exp(model.linear_predictor(beta))
    log_mu = np.log(mu)
    if not np.isfinite(log_mu).all():
        if np.isfinite(mu).all():
            raise InvalidParameterError("linear predictor underflow: mu is 0")
        raise InvalidParameterError("linear predictor overflow: mu is not finite")
    resid = model.y - mu
    return mu, log_mu, resid, resid**2


def reference_dispersion_weights(mu, log_mu, phi, p):
    mu_p, C = _variance(mu, phi, p)
    if (C <= 0).any():
        raise VarianceNonpositiveError(
            f"min(mu + phi*mu^p) = {np.min(C):.6g} <= 0 at phi = {phi}, p = {p}"
        )
    return (C,) + _lambda_weights(mu_p, C, log_mu, phi)


def reference_halve(phi, p, delta, mu, phi_sign, p_floor):
    for _ in range(_MAX_HALVINGS + 1):
        phi_new = phi - delta[0]
        p_new = p - delta[1]
        if p_floor is not None and p_new < p_floor:
            p_new = p_floor
        feasible = phi_sign != "nonnegative" or phi_new >= 0
        if feasible:
            mu_p, c = _variance(mu, phi_new, p_new)
            feasible = bool((c > 0).all() and np.isfinite(c).all())
        if feasible:
            _require_finite_lambda(phi_new, p_new)
            return phi_new, p_new, mu_p, c
        delta /= 2.0
    raise BoundaryTrapError(
        f"lambda step from (phi={phi:.6g}, p={p:.6g}) could not be "
        f"made feasible in {_MAX_HALVINGS} halvings"
    )


def reference_factor(lapack, A, scale, zero_msg, singular_msg, *args):
    if scale == 0.0:
        raise SingularMatrixError(zero_msg)
    out = lapack(A, *args)
    pivots = [abs(d) for d in out[0].diagonal().tolist()]
    pivot = math.nan if any(map(math.isnan, pivots)) else min(pivots)
    if pivot < 1e-12 * scale:
        raise SingularMatrixError(singular_msg.format(pivot=pivot, bound=1e-12 * scale))
    return out


def reference_solve_linear(A, b):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameterError(f"A must be square, got shape {A.shape}")
    if not A.shape[0]:  # a 0 x 0 system, where max() below would raise ValueError
        raise InvalidParameterError("A must be at least 1 x 1, got shape (0, 0)")
    if b.shape[0] != A.shape[0]:
        raise InvalidParameterError("dimension mismatch between A and b")
    entries = A.ravel().tolist()
    if not all(map(math.isfinite, entries + b.ravel().tolist())):
        raise InvalidParameterError("A and b must be finite")
    return reference_factor(dgesv, A, max(map(abs, entries)), "zero matrix", _SINGULAR, b)[2]


@quiet
def _outcome(func, *args):
    """What ``func(*args)`` returns, as bytes, or the error it raised.  Copies
    the array arguments, as ``_halve`` halves its ``delta`` in place."""
    args = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    try:
        result = func(*args)
    except (PtwError, ValueError, IndexError) as exc:
        return type(exc), str(exc)
    if result is None:
        return None
    if isinstance(result, tuple):
        return [(type(v).__name__, np.asarray(v, dtype=float).tobytes()) for v in result]
    return np.asarray(result, dtype=float).tobytes()


def _same(func, reference, *args):
    got, want = _outcome(func, *args), _outcome(reference, *args)
    assert got == want
    return want


def _raised(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


INF, NAN = math.inf, math.nan

# (mu, phi, p) whose C = mu + phi mu^p holds each kind of entry that decides
# the C > 0 test, alone and next to the others.  A NaN mu stands for a NaN
# C beside a negative one, which no single phi makes from finite means.
_VARIANCE_EDGES = {
    "finite": ([0.5, 2.0, 7.0], 0.3, 1.5),
    "+inf (phi > 0, mu**p overflows)": ([1e200, 2.0], 0.5, 2.0),
    "-inf (phi < 0, mu**p overflows)": ([1e200, 3.0], -0.1, 2.0),
    "nan (phi = 0, mu**p overflows)": ([1e200, 3.0], 0.0, 2.0),
    "0": ([1.0, 0.5], -1.0, 1.5),
    "negative": ([2.0, 0.5], -1.0, 1.5),
    "0 and negative": ([1.0, 2.0, 0.5], -1.0, 1.5),
    "nan then negative": ([NAN, 2.0], -1.0, 1.5),
    "negative then nan": ([2.0, NAN], -1.0, 1.5),
    "nan and -inf": ([NAN, 1e200], -0.1, 2.0),
    "nan and +inf": ([NAN, 1e200], 0.1, 2.0),
    "all nan": ([NAN, NAN], 0.5, 1.5),
    "empty": ([], 0.5, 1.5),
}


@pytest.mark.parametrize("mu, phi, p", list(_VARIANCE_EDGES.values()),
                         ids=list(_VARIANCE_EDGES))
def test_dispersion_weights_refuse_as_before(mu, phi, p):
    mu = np.array(mu, dtype=float)
    with np.errstate(all="ignore"):
        C = _variance(mu, phi, p)[1]
        log_mu = np.log(mu)
    outcome = _same(_dispersion_weights, reference_dispersion_weights, mu, log_mu, phi, p)
    assert _raised(outcome) == bool((C <= 0).any())


# (phi, p, delta, mu, phi_sign, p_floor): the first trial point of each has
# a C of one edge kind; halving the step reaches a feasible point, or never.
_HALVING_EDGES = {
    "feasible at once": (0.3, 1.5, [0.1, 0.1], [0.5, 2.0, 7.0], "any", 1e-4),
    "+inf": (0.1, 1.5, [0.0, -0.5], [1e200, 2.0], "any", 1e-4),
    "-inf": (0.1, 1.5, [0.2, -0.5], [1e200, 2.0], "any", 1e-4),
    "nan": (0.1, 1.5, [0.1, -0.5], [1e200, 2.0], "any", 1e-4),
    "0": (0.0, 1.5, [1.0, 0.0], [1.0, 0.5], "any", None),
    "negative": (0.0, 1.5, [2.0, 0.0], [2.0, 0.5], "any", None),
    "sign refusal": (0.3, 1.5, [0.5, 0.0], [1.0, 2.0], "nonnegative", 1e-4),
    "power floor": (0.3, 0.5, [0.0, 0.7], [1.0, 2.0], "any", 1e-4),
    "never feasible (nan mean)": (0.3, 1.5, [0.1, 0.1], [1.0, NAN], "any", 1e-4),
    "never feasible (C = 0)": (-1.0, 1.0, [0.0, 0.0], [1.0, 2.0], "any", None),
    "empty": (0.3, 1.5, [0.1, 0.1], [], "any", 1e-4),
}


@pytest.mark.parametrize("phi, p, delta, mu, phi_sign, p_floor", list(_HALVING_EDGES.values()),
                         ids=list(_HALVING_EDGES))
def test_halving_accepts_and_refuses_as_before(phi, p, delta, mu, phi_sign, p_floor):
    args = (phi, p, np.array(delta), np.array(mu, dtype=float), phi_sign, p_floor)
    _same(_halve, reference_halve, *args)


def test_halving_edges_reach_every_verdict():
    outcomes = [_outcome(reference_halve, phi, p, np.array(delta), np.array(mu, dtype=float),
                         sign, floor)
                for phi, p, delta, mu, sign, floor in _HALVING_EDGES.values()]
    assert sum(map(_raised, outcomes)) == 2
    # the sign refusal and the edge kinds each cost at least one halving
    for name in ("+inf", "-inf", "nan", "0", "negative", "sign refusal"):
        phi, p, delta, mu, sign, floor = _HALVING_EDGES[name]
        got = quiet(_halve)(phi, p, np.array(delta), np.array(mu, dtype=float), sign, floor)
        assert got[0] != phi - delta[0] or got[1] != p - delta[1], name


# (X, beta): log mu with each kind of non-finite entry.
_MEAN_EDGES = {
    "finite": ([[1.0, 0.5], [1.0, -0.5], [1.0, 2.0]], [0.2, 0.4]),
    "large but finite": ([[1.0], [-1.0]], [700.0]),
    "-inf (mu underflows)": ([[1.0], [1.0]], [-800.0]),
    "+inf (mu overflows)": ([[1.0], [1.0]], [800.0]),
    "-inf and +inf": ([[1.0], [-1.0]], [800.0]),
    "+inf then -inf": ([[-1.0], [1.0]], [-800.0]),
    "one underflow": ([[1.0], [0.0]], [-800.0]),
    "nan (inf - inf in X beta)": ([[1e300, 1e300], [1.0, 1.0]], [1e10, -1e10]),
}


@pytest.mark.parametrize("X, beta", list(_MEAN_EDGES.values()), ids=list(_MEAN_EDGES))
def test_mean_terms_refuse_as_before(X, beta):
    X = np.array(X)
    model = PtwModel(X, np.ones(X.shape[0]))
    outcome = _same(_mean_terms, reference_mean_terms, model, np.array(beta))
    with np.errstate(all="ignore"):
        finite = np.isfinite(np.log(np.exp(X @ np.array(beta)))).all()
    assert _raised(outcome) != finite


@pytest.mark.parametrize("beta", [[0.5, -2.0], [NAN, 1.0], [1.0, INF], [-INF, 1.0],
                                  [[1.0, 2.0], [3.0, NAN]], [1e308, -1e308]])
def test_finite_beta_check_refuses_as_before(beta):
    _same(_require_finite_beta, reference_require_finite_beta, np.array(beta))


@pytest.mark.parametrize("values", [[1.0, -3.0, 2.0], [-0.0, 0.0], [NAN, 5.0], [5.0, NAN],
                                    [1.0, NAN, -INF], [-INF, 2.0], [3.0]])
def test_sup_norm_is_numpys_abs_max(values):
    want = float(np.abs(np.array(values)).max())
    got = _sup_norm(values)
    assert type(got) is float
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


_PIVOT_MATRIX = [[1.0, 1.7e308, 1.7e308], [0.0, 0.0, -1.0], [1.0, 0.0, -1.7e308]]

# (A, b) for solve_linear: non-finite inputs, sums of finite entries that
# overflow, zero and singular systems, a finite system whose LU factor
# overflows (its last pivot is NaN with scipy's OpenBLAS 0.3.31 on an
# AVX-512 CPU; the pivot test below fakes NaN pivots on any BLAS), and
# malformed shapes.
_SOLVE_EDGES = {
    "2 x 2": ([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0]),
    "1 x 1": ([[-2.5]], [5.0]),
    "nan in A": ([[1.0, NAN], [0.0, 1.0]], [1.0, 1.0]),
    "+inf in A": ([[INF, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "-inf in A": ([[1.0, 0.0], [0.0, -INF]], [1.0, 1.0]),
    "inf and -inf in A": ([[INF, -INF], [0.0, 1.0]], [1.0, 1.0]),
    "nan in b": ([[1.0, 0.0], [0.0, 1.0]], [NAN, 1.0]),
    "inf in b": ([[1.0, 0.0], [0.0, 1.0]], [1.0, INF]),
    "-inf in b": ([[1.0, 0.0], [0.0, 1.0]], [-INF, 1.0]),
    "finite entries whose sum overflows": ([[1e308, 1e308], [1e308, -1e308]], [1e308, 1e308]),
    "finite right-hand side whose sum overflows": ([[1.0, 0.0], [0.0, 1.0]], [1e308, 1e308]),
    "zero matrix": ([[0.0, -0.0], [-0.0, 0.0]], [1.0, 1.0]),
    "singular": ([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]),
    "tiny pivot": ([[1.0, 1.0], [1.0, 1.0 + 1e-14]], [1.0, 1.0]),
    "negative entry sets the scale": ([[-1e13, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "negative entry sets the scale, regular": ([[-1e11, 0.0], [0.0, 1.0]], [1.0, 1.0]),
    "finite A with overflowing factors": (_PIVOT_MATRIX, [1.0, 1.0, 1.0]),
    "matrix right-hand side": ([[2.0, 0.0], [1.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]]),
    "not square": ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 1.0]),
    "not a matrix": ([1.0, 2.0], [1.0, 1.0]),
    "dimension mismatch": ([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0]),
    "scalar right-hand side": ([[1.0]], 1.0),
    "empty": (np.zeros((0, 0)), np.zeros(0)),
}


@pytest.mark.parametrize("A, b", list(_SOLVE_EDGES.values()), ids=list(_SOLVE_EDGES))
def test_solve_linear_refuses_as_before(A, b):
    _same(solve_linear, reference_solve_linear, A, b)


def _fake_lapack(diagonal):
    """A getrf stand-in whose LU factor has the given diagonal."""
    return lambda A: (np.diag(diagonal), None)


@pytest.mark.parametrize("diagonal", [[NAN, 1e-20, 2.0], [1e-20, NAN, 2.0], [2.0, 1e-20, NAN],
                                      [NAN, NAN, NAN], [1e-20, 2.0, 3.0], [-1e-20, 2.0, 3.0],
                                      [2.0, INF, 3.0], [2.0, -INF, NAN], [3.0, -2.0, 1.0]],
                         ids=["nan-first", "nan-middle", "nan-last", "all-nan", "small",
                              "small-negative", "inf", "-inf-and-nan", "regular"])
def test_pivot_check_refuses_as_before(diagonal):
    # A NaN pivot passes, as numpy's min made the smallest pivot NaN; a
    # small one is refused with its magnitude in the message.
    lapack = _fake_lapack(diagonal)
    for scale in (1.0, 0.0, NAN):
        outcome = _same(_factor, reference_factor, lapack, np.eye(3), scale, "zero", _SINGULAR)
        if scale == 1.0:
            assert _raised(outcome) == (any(abs(d) < 1e-12 for d in diagonal)
                                        and not any(map(math.isnan, diagonal)))


def _near_cut(q, gen, rows):
    """``rows`` matrices P^T L U of order q whose LU keeps the row order P:
    |L_ij| < 1 below the unit diagonal, and U with entries up to 1 and a
    last pivot at 0.3 to 300 times 1e-12, so that the smallest pivot sits on
    either side of solve_linear's cut 1e-12 max|A|, most of them within 0.5
    to 100 times it."""
    L = np.tril(gen.uniform(-0.9, 0.9, (rows, q, q)), -1) + np.eye(q)
    U = np.triu(gen.uniform(0.5, 1.0, (rows, q, q)) * gen.choice([-1.0, 1.0], (rows, q, q)))
    U[:, -1, -1] = 1e-12 * 10.0 ** gen.uniform(-0.5, 2.5, rows)
    A = L @ U
    return np.stack([a[gen.permutation(q)] for a in A])


def _pivot_ratio(A):
    """The smallest pivot of getrf's LU of A over solve_linear's cut."""
    return np.abs(dgetrf(A)[0].diagonal()).min() / (1e-12 * np.abs(A).max())


def _solve_edges(q):
    """(A, b) stacks of order q: matrices near the pivot cut at scales 1e-300
    to 1e300, zero and singular matrices, and NaN or infinite entries in A
    or in b."""
    gen = np.random.default_rng(q)
    stacks = []
    for e in (-300, -250, -200, -100, -10, 0, 10, 100, 200, 250, 300):
        A = _near_cut(q, gen, 30) * 10.0**e
        stacks.append((A, gen.normal(size=(30, q)) * 10.0**e))
    special = np.stack([np.zeros((q, q)), -np.zeros((q, q)), np.ones((q, q)), np.eye(q)] * 2)
    special[4, 0, 0], special[5, -1, 0], special[6, 0, -1] = NAN, INF, -INF
    b = np.ones((len(special), q))
    b[3, 0], b[7, -1] = NAN, INF
    stacks.append((special, b))
    return np.concatenate([A for A, _ in stacks]), np.concatenate([b for _, b in stacks])


@pytest.mark.parametrize("q", [2, 3])
def test_batched_solves_are_solve_linears_or_refuse_where_it_does(q):
    # every row the caller marks ok either equals solve_linear bit for bit,
    # or is marked not ok exactly where solve_linear raises; the rest stay
    # not ok and unsolved
    A, b = _solve_edges(q)
    ok = np.ones(len(A), dtype=bool)
    ok[5::11] = False
    given = ok.copy()
    out = quiet(_solve_rows)(A, b, ok)
    for j in range(len(A)):
        if not given[j]:
            assert not ok[j] and not out[j].any()
            continue
        want = _outcome(solve_linear, A[j], b[j])
        assert ok[j] == (not _raised(want)), j
        if ok[j]:
            assert out[j].tobytes() == want, j
    # the screen solves rows within 100x the cut in batch and none below it
    clear = quiet(_pivots_clear)(A, b)
    finite = np.isfinite(A).all(axis=(1, 2)) & (np.abs(A).max(axis=(1, 2)) > 0)
    ratio = np.full(len(A), NAN)
    ratio[finite] = [_pivot_ratio(a) for a in A[finite]]
    assert (clear & (ratio < 100)).any()
    assert not (clear & ~(ratio > 1)).any()
    assert (~clear & (ratio > 1)).any() and (ratio < 1).any()


def test_screen_clears_nothing_above_order_five():
    A = np.stack([np.eye(6)] * 3)
    assert not _pivots_clear(A, np.ones((3, 6))).any()
    ok = np.ones(3, dtype=bool)
    assert np.array_equal(_solve_rows(A, np.ones((3, 6)), ok), np.ones((3, 6))) and ok.all()
