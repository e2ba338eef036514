"""Dense simplex solver for small inequality-form linear programs.

Solves  max c.x  subject to  A x <= b  with x free, given a feasible start.
The start lets us shift to nonnegative slack space and skip phase one: with
z = x - x0 and z = z+ - z- the problem is a standard-form tableau whose slack
basis is feasible because b - A x0 >= 0. Bland's rule guarantees termination.

Problems here are tiny (a handful of variables, tens of rows), so a dense
tableau is the simplest correct tool and keeps the radial-function oracle
independent of any external LP stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError

_TOL = 1e-9

# Pivots after which solve_lp_max gives up; Bland's rule cannot cycle, so
# reaching it means a numerically broken tableau.
MAX_ITER = 20000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" or "unbounded"
    x: np.ndarray | None
    value: float


def solve_lp_max(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    x0: np.ndarray,
) -> LPResult:
    """Maximize c.x over {A x <= b} starting from feasible x0."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    m, n = A.shape
    if c.shape != (n,) or b.shape != (m,) or x0.shape != (n,):
        raise InputError("inconsistent LP shapes")
    slack0 = b - A @ x0
    if slack0.min() < -1e-7:
        raise InputError("LP start point is infeasible")
    slack0 = np.maximum(slack0, 0.0)

    # columns: z+ (n), z- (n), slacks (m)
    ncols = 2 * n + m
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A
    T[:m, n : 2 * n] = -A
    T[:m, 2 * n : 2 * n + m] = np.eye(m)
    T[:m, -1] = slack0
    T[m, :n] = -c
    T[m, n : 2 * n] = c
    basis = list(range(2 * n, 2 * n + m))

    for _ in range(MAX_ITER):
        eligible = np.flatnonzero(T[m, :ncols] < -_TOL)
        if not eligible.size:
            break
        entering = eligible[0]  # Bland: smallest eligible index
        col = T[:m, entering]
        pos = col > _TOL
        if not np.any(pos):
            return LPResult("unbounded", None, np.inf)
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:m, -1][pos] / col[pos]
        rmin = ratios.min()
        # Bland tie-break: among rows achieving the min ratio, leave the
        # basic variable with the smallest index
        rows = np.nonzero(ratios <= rmin + _TOL * (1 + abs(rmin)))[0]
        leave = min(rows, key=lambda r: basis[r])
        T[leave] /= T[leave, entering]
        factor = T[:, entering].copy()
        factor[leave] = 0.0
        T -= factor[:, None] * T[leave]
        basis[leave] = entering
    else:
        raise NumericError("simplex iteration limit reached")

    z = np.zeros(2 * n)
    for r, j in enumerate(basis):
        if j < 2 * n:
            z[j] = T[r, -1]
    x = x0 + z[:n] - z[n : 2 * n]
    return LPResult("optimal", x, float(c @ x))
