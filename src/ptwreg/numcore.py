"""Dense linear algebra, splittable random-number streams, and quadrature.

These are the shared numerical primitives: a pivoted linear solver with an
explicit singularity check, Gauss-Laguerre rules computed by Newton iteration
on the Laguerre recurrence (stable up to n = 512), a deterministic,
order-independent random-stream tree built on counter-based seeding, and
the floating-point error state the fitting code runs in.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgesv, dgetrf

from .errors import InvalidParameterError, SingularMatrixError

_MAX_QUAD_ORDER = 512
_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream addressed by (seed, stream_id).

    ``stream_id`` is a tuple of non-negative integers — the path from the
    root stream to this one.  Identical (seed, stream_id) pairs reproduce
    identical variate sequences, and distinct paths give statistically
    independent streams regardless of the order in which they are created,
    so parallel workers can draw from sibling streams deterministically.
    """

    seed: int
    stream_id: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0 <= int(self.seed) <= _UINT64_MAX):
            raise InvalidParameterError("seed must be a 64-bit unsigned integer")
        if any(int(i) < 0 for i in self.stream_id):
            raise InvalidParameterError("stream_id entries must be non-negative")

    def generator(self) -> Generator:
        """Instantiate the numpy Generator for this stream."""
        return Generator(PCG64(SeedSequence(self.seed, spawn_key=self.stream_id)))

    def substream(self, index: int) -> "RngStream":
        """Child stream ``index``; see :func:`rng_substream`."""
        return rng_substream(self, index)


def rng_substream(parent: RngStream, index: int) -> RngStream:
    """Derive the ``index``-th child stream of ``parent``.

    Children are independent of each other and of the parent, and depend
    only on (parent, index) — not on how many siblings were created first.
    """
    if int(index) < 0:
        raise InvalidParameterError("substream index must be non-negative")
    return RngStream(parent.seed, parent.stream_id + (int(index),))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule (currently Gauss-Laguerre only)."""

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "gauss-laguerre"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise InvalidParameterError("nodes and weights must be 1-d and equal length")
        if np.any(np.diff(nodes) <= 0) or np.any(nodes <= 0):
            raise InvalidParameterError("nodes must be positive and strictly increasing")
        if np.any(weights <= 0):
            raise InvalidParameterError("weights must be positive")


def _weighted_laguerre(x: float, n: int) -> tuple[float, float]:
    """Evaluate e^{-x/2} L_n(x) and e^{-x/2} L_{n-1}(x) by upward recurrence.

    The e^{-x/2} damping keeps every intermediate O(1) out to n = 512 where
    the bare polynomials overflow.
    """
    w = np.exp(-0.5 * x)
    fkm1 = w  # k = 0
    fk = w * (1.0 - x)  # k = 1
    if n == 0:
        return fkm1, 0.0
    for k in range(1, n):
        fkp1 = ((2 * k + 1 - x) * fk - k * fkm1) / (k + 1)
        fkm1, fk = fk, fkp1
    return fk, fkm1


def gauss_laguerre(n: int) -> QuadratureRule:
    """n-point Gauss-Laguerre rule for integrals against the weight e^{-x}.

    Nodes are the zeros of the Laguerre polynomial L_n, located by Newton
    iteration started from the classical asymptotic guesses; weights use
    x_k / ((n+1) L_{n+1}(x_k))^2.  The rule integrates polynomials of degree
    up to 2n-1 exactly, and the weights sum to 1.

    Parameters
    ----------
    n : int
        Number of nodes, 1 <= n <= 512.

    Returns
    -------
    QuadratureRule
    """
    if not (1 <= int(n) <= _MAX_QUAD_ORDER):
        raise InvalidParameterError(f"quadrature order must be in 1..{_MAX_QUAD_ORDER}, got {n}")
    n = int(n)
    nodes = np.empty(n)
    x = 0.0
    for i in range(n):
        if i == 0:
            x = 3.0 / (1.0 + 2.4 * n)
        elif i == 1:
            x += 15.0 / (1.0 + 2.5 * n)
        else:
            ai = float(i - 1)
            x += ((1.0 + 2.55 * ai) / (1.9 * ai)) * (x - nodes[i - 2])
        for _ in range(100):
            fn, fnm1 = _weighted_laguerre(x, n)
            # x L_n'(x) = n (L_n(x) - L_{n-1}(x)); same relation holds with
            # the e^{-x/2} weight after adding the -x/2 damping term.
            dfn = (n * (fn - fnm1) - 0.5 * x * fn) / x
            step = fn / dfn
            x -= step
            if abs(step) <= 1e-14 * max(1.0, abs(x)):
                break
        nodes[i] = x

    fnext = np.array([_weighted_laguerre(xk, n + 1)[0] for xk in nodes])
    weights = nodes * np.exp(-nodes) / ((n + 1) * fnext) ** 2
    return QuadratureRule(nodes=nodes, weights=weights)


_QUIET = contextvars.ContextVar("ptwreg_quiet", default=False)


def quiet(func):
    """Run ``func`` with numpy's overflow, invalid and divide-by-zero
    warnings off.

    Divergent trial iterates of a fit can overflow mu**p; the resulting
    non-finite values propagate to a failed step or a non-converged fit,
    which the callers handle, so the arithmetic itself should stay quiet.
    Only the outermost quiet call enters ``np.errstate``; calls nested in it
    run in its state, so a whole fit pays for one error-state switch.
    """

    @functools.wraps(func)
    def quiet_func(*args, **kwargs):
        if _QUIET.get():
            return func(*args, **kwargs)
        token = _QUIET.set(True)
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                return func(*args, **kwargs)
        finally:
            _QUIET.reset(token)

    return quiet_func


def _factor(lapack, A: np.ndarray, scale, zero_msg: str, singular_msg: str, *args):
    """Run the LAPACK getrf-based routine ``lapack(A, *args)`` (getrf, or gesv
    for factor-and-solve) and check its LU factor, the first output, against
    ``scale`` = max|A|.  Raises SingularMatrixError(zero_msg) for A = 0, and
    singular_msg formatted with ``pivot`` and ``bound`` when a pivot is below
    bound = 1e-12 * max|A|."""
    if scale == 0.0:
        raise SingularMatrixError(zero_msg)
    out = lapack(A, *args)
    pivot = np.abs(out[0].diagonal()).min()
    if pivot < 1e-12 * scale:
        raise SingularMatrixError(singular_msg.format(pivot=pivot, bound=1e-12 * scale))
    return out


def _lu_solver(A: np.ndarray, zero_msg: str, singular_msg: str):
    """Pivoted LU of A by LAPACK getrf (as scipy's lu_factor, minus its
    wrapper cost), checked by :func:`_factor`; returns B -> A^{-1} B for a
    matrix B.

    The solve is getrs's own arithmetic: getrf's row interchanges, then the
    unit lower and the upper triangular solve by BLAS trsm.  It equals
    ``dgetrs(lu, piv, B)`` bit for bit, but stays on the calling thread:
    OpenBLAS's getrs hands a matrix right-hand side to its other threads
    even at the sandwich's order of 3 to 5.  The interchanges are applied
    by indexing, as OpenBLAS threads its laswp as well.
    """
    lu, piv, _ = _factor(dgetrf, A, np.abs(A).max(), zero_msg, singular_msg)
    perm = np.arange(len(piv))
    for i, j in enumerate(piv):
        perm[i], perm[j] = perm[j], perm[i]
    return lambda B: dtrsm(1.0, lu, dtrsm(1.0, lu, B[perm], lower=1, diag=1))


_SINGULAR = "pivot {pivot:.3e} below 1e-12 * max|A| = {bound:.3e}"


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the dense square system A x = b by pivoted LU factorization.

    One LAPACK gesv call (getrf then getrs, the same arithmetic as
    :func:`_lu_solver`).

    Raises
    ------
    SingularMatrixError
        If any pivot magnitude falls below 1e-12 * max|A|.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidParameterError(f"A must be square, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise InvalidParameterError("dimension mismatch between A and b")
    scale = np.abs(A).max()  # not finite exactly when A is not
    if not (math.isfinite(scale) and np.isfinite(b).all()):
        raise InvalidParameterError("A and b must be finite")
    return _factor(dgesv, A, scale, "zero matrix", _SINGULAR, b)[2]
