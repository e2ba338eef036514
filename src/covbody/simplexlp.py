"""Dense simplex solver for stacks of small inequality-form linear programs.

Solves  max c.x  subject to  A x <= b  with x free, given a feasible start.
The start lets us shift to nonnegative slack space and skip phase one: with
z = x - x0 and z = z+ - z- the problem is a standard-form tableau whose slack
basis is feasible because b - A x0 >= 0. Bland's rule guarantees termination.

A call solves one LP or a stack of LPs of one shape, each a handful of
variables and tens of rows: their tableaus lie in one dense array, and every
LP pivots by its own Bland's rule in lockstep with the others until it is
optimal or unbounded, when it leaves the stack. An LP takes the same pivots,
and gives the same bits, in any stack. A dense tableau is the simplest
correct tool here and keeps the radial-function oracle independent of any
external LP stack; a stack goes in chunks of at most DEDUPE_BLOCK tableau
floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError
from .polytope import DEDUPE_BLOCK

_TOL = 1e-9

# Pivots after which an LP is given up on; Bland's rule cannot cycle, so
# reaching it means a numerically broken tableau.
MAX_ITER = 20000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" or "unbounded"
    x: np.ndarray | None
    value: float


@dataclass(frozen=True)
class LPStack:
    """The solutions of a stack of LPs, row i that of LP i. status[i] is
    "optimal", "unbounded", or "limit" when MAX_ITER pivots reached neither;
    off the optimal rows x is NaN and value +inf (unbounded) or NaN."""

    status: np.ndarray  # (N,)
    x: np.ndarray  # (N, n)
    value: np.ndarray  # (N,)


def solve_lp_max(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
) -> LPResult | LPStack:
    """Maximize c.x over {A x <= b} starting from feasible x0.

    A is one system (m, n), which gives an LPResult and raises NumericError
    at MAX_ITER pivots, or a stack of systems (N, m, n), which gives an
    LPStack. c (n,), b (m,) and x0 (n,) are shared by the stack, or given
    per LP as (N, n), (N, m) and (N, n)."""
    A = np.asarray(A, dtype=float)
    single = A.ndim == 2
    if single:
        A = A[None]
    if A.ndim != 3:
        raise InputError("inconsistent LP shapes")
    N, m, n = A.shape
    c, b, x0 = _per_lp(c, N, n), _per_lp(b, N, m), _per_lp(x0, N, n)
    # A x0 and c.x as sums along rows (`_dot`), so each LP's bits are its own
    slack0 = b - _dot(A, x0[:, None, :])
    if slack0.min() < -1e-7:
        lp = int((slack0.min(axis=1) < -1e-7).argmax())
        raise InputError(f"LP start point is infeasible (LP {lp} of {N})")

    status = np.full(N, "limit", dtype="<U9")
    # columns: z+ (n), z- (n), slacks (m); z of the optimal LPs in Z
    ncols = 2 * n + m
    Z = np.full((N, ncols), np.nan)
    step = max(1, DEDUPE_BLOCK // ((m + 1) * (ncols + 1)))
    for s in range(0, N, step):
        part = slice(s, s + step)
        T = np.zeros((min(step, N - s), m + 1, ncols + 1))
        T[:, :m, :n] = A[part]
        T[:, :m, n:2 * n] = -T[:, :m, :n]
        T[:, :m, 2 * n:-1] = np.eye(m)
        T[:, :m, -1] = np.maximum(slack0[part], 0.0)
        T[:, m, :n] = -c[part]
        T[:, m, n:2 * n] = c[part]
        basis = np.arange(2 * n, ncols)[None].repeat(len(T), axis=0)
        _lockstep(T, basis, np.arange(s, s + len(T)), Z, status)
    x = x0 + Z[:, :n] - Z[:, n:2 * n]
    value = _dot(c, x)
    value[status == "unbounded"] = np.inf
    if not single:
        return LPStack(status, x, value)
    if status[0] == "limit":
        raise NumericError(f"simplex iteration limit reached ({MAX_ITER} pivots)")
    if status[0] == "unbounded":
        return LPResult("unbounded", None, np.inf)
    return LPResult("optimal", x[0], float(value[0]))


def _per_lp(v, N: int, k: int) -> np.ndarray:
    """v (k,), shared by the N LPs, or (N, k), one row per LP, as (N, k)."""
    v = np.asarray(v, dtype=float)
    if v.shape == (k,):
        return v[None].repeat(N, axis=0)
    if v.shape != (N, k):
        raise InputError("inconsistent LP shapes")
    return v


def _dot(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j A[..., j] x[..., j]: numpy sums each row alone, in an order
    set by its length, so a row's bits do not depend on the stack (a
    matmul's do, through its BLAS blocking)."""
    return (A * x).sum(axis=-1)


def _lockstep(T: np.ndarray, basis: np.ndarray, lps: np.ndarray, Z: np.ndarray,
              status: np.ndarray) -> None:
    """Pivot every tableau of the stack T (k, m + 1, cols + 1) by its own
    Bland's rule, one pivot each per round, basis[i] holding the basic
    column of each row of tableau i, which is LP lps[i]. An LP leaves the
    stack when it stops: status "optimal" and its z+, z- and slacks in its
    row of Z, or status "unbounded". One still running after MAX_ITER
    rounds keeps status "limit"."""
    m = basis.shape[1]
    ncols = T.shape[2] - 1
    row = np.arange(len(T))
    for _ in range(MAX_ITER):
        # Bland: the smallest eligible column enters; with none, entering
        # is 0 and ineligible
        entering = (T[:, m, :ncols] < -_TOL).argmax(axis=1)
        factor = T[row, :, entering]
        col = factor[:, :m]
        ratios = np.divide(T[:, :m, -1], col, out=np.full(col.shape, np.inf),
                           where=col > _TOL)
        rmin = np.minimum.reduce(ratios, axis=1, keepdims=True)
        going = (factor[:, m] < -_TOL) & (rmin[:, 0] < np.inf)
        if not going.all():
            optimal = factor[:, m] >= -_TOL
            done = lps[optimal]
            Z[done] = 0.0
            Z[done[:, None], basis[optimal]] = T[optimal, :m, -1]
            status[done] = "optimal"
            status[lps[~optimal & ~going]] = "unbounded"
            if not going.any():
                return
            T, basis, lps, entering, factor, ratios, rmin = (
                a[going] for a in (T, basis, lps, entering, factor, ratios, rmin))
            row = np.arange(len(T))
        # Bland tie-break: among rows achieving the min ratio, leave the
        # basic variable with the smallest index
        ties = ratios <= rmin + _TOL * (1 + np.abs(rmin))
        leave = np.where(ties, basis, ncols).argmin(axis=1)
        pivot = T[row, leave]
        pivot /= factor[row, leave][:, None]
        T[row, leave] = pivot
        factor[row, leave] = 0.0
        T -= factor[:, :, None] * pivot[:, None, :]
        basis[row, leave] = entering
