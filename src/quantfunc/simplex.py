"""Dense primal simplex with Bland's rule.

Solves ``min c'x  s.t.  A x = b, x >= 0`` from a supplied basic feasible
starting basis.  Bland's smallest-index rule is used for both the entering
and the leaving variable, which prevents cycling and makes the returned
vertex deterministic.  Sized for the small check-loss LPs in this library,
not for general-purpose use.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverFailure

PIVOT_TOL = 1e-9
COST_TOL = 1e-10


def solve_simplex(c: np.ndarray, a: np.ndarray, b: np.ndarray, basis: list[int],
                  max_iter: int | None = None) -> tuple[np.ndarray, float]:
    """Minimize ``c'x`` over ``{A x = b, x >= 0}`` starting from ``basis``.

    Parameters
    ----------
    c, a, b : arrays
        Cost vector (m_vars,), constraint matrix (m_cons, m_vars) and
        right-hand side (m_cons,) with ``b >= 0``.  The pivots are made on
        ``a`` and ``b`` in place, so float arrays passed here are overwritten
        and no second tableau is held.
    basis : list of int
        Column indices of an initial basic feasible solution; the
        corresponding submatrix of ``a`` must be the identity.

    Returns
    -------
    x, objective
        Optimal vertex and attained objective value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, nvars = a.shape
    if max_iter is None:
        max_iter = 50 * (m + nvars) + 1000

    basis = list(basis)
    # Reduced costs for the current basis (basis columns are the identity).
    red = c - c[basis] @ a

    for _ in range(max_iter):
        entering_candidates = np.nonzero(red < -COST_TOL)[0]
        if entering_candidates.size == 0:
            x = np.zeros(nvars)
            x[basis] = b
            return x, float(c @ x)
        j = int(entering_candidates[0])  # Bland: smallest index

        col = a[:, j]
        rows = np.nonzero(col > PIVOT_TOL)[0]
        if rows.size == 0:
            raise SolverFailure("LP is unbounded below")
        ratios = b[rows] / col[rows]
        rmin = ratios.min()
        # Bland: among minimizing rows, leave the basic variable of smallest index.
        tie_rows = rows[ratios <= rmin + PIVOT_TOL * (1.0 + abs(rmin))]
        r = int(min(tie_rows, key=lambda i: basis[i]))

        piv = a[r, j]
        a[r] /= piv
        b[r] /= piv
        factors = a[:, j].copy()
        factors[r] = 0.0
        hit = factors != 0.0
        b[hit] -= factors[hit] * b[r]
        for i in np.flatnonzero(hit):
            a[i] -= factors[i] * a[r]
        red = red - red[j] * a[r]
        basis[r] = j

    raise SolverFailure("simplex iteration limit reached")
