"""Brute-force reference solver for small QPs.

Independent of the production solver by construction: the constraint
rows are split into equalities (finite lo == hi) and inequalities, every
active-set assignment of the inequality rows (inactive, pinned at the
lower bound, pinned at the upper bound) is enumerated, the resulting
equality-constrained KKT system is solved by least squares, and the
best candidate that satisfies all constraints wins.  Exponential in the
row count, so only usable for a handful of inequality rows -- which is
the point: it shares no code path with the splitting solver it checks.
"""

import itertools

import numpy as np


def brute_force_qp(problem, tol=1e-7):
    """Globally minimize a small QP by active-set enumeration.

    Returns (objective, x).  Requires a bounded problem with at least
    one feasible active-set candidate; raises if none is found.
    """
    n = problem.n
    Q = problem.quad.toarray()
    q = np.asarray(problem.lin, float)
    A_all, row_lo, row_hi = problem.rows
    M = A_all.toarray()
    eq = np.isfinite(row_lo) & (row_lo == row_hi)
    A_eq, b_eq = M[eq], row_lo[eq]
    C, lo, hi = M[~eq], row_lo[~eq], row_hi[~eq]
    m = C.shape[0]
    best = None
    for assignment in itertools.product((0, 1, 2), repeat=m):
        rows = [C[i] for i in range(m) if assignment[i]]
        rhs = [lo[i] if assignment[i] == 1 else hi[i]
               for i in range(m) if assignment[i]]
        A = np.vstack([A_eq] + [np.asarray(rows)]) if rows else A_eq
        b = np.concatenate([b_eq, np.asarray(rhs)]) if rows else b_eq
        k = A.shape[0]
        kkt = np.block([[Q, A.T], [A, np.zeros((k, k))]])
        target = np.concatenate([-q, b])
        sol, *_ = np.linalg.lstsq(kkt, target, rcond=None)
        if np.linalg.norm(kkt @ sol - target) > tol * (1 + abs(target).max()):
            continue
        x = sol[:n]
        if A_eq.shape[0] and np.max(np.abs(A_eq @ x - b_eq)) > tol:
            continue
        if m:
            v = C @ x
            if np.max(lo - v) > tol or np.max(v - hi) > tol:
                continue
        obj = 0.5 * x @ Q @ x + q @ x + problem.const
        if best is None or obj < best[0]:
            best = (float(obj), x.copy())
    if best is None:
        raise ValueError("no feasible active-set candidate found")
    return best


def random_bounded_qp(rng, n_max=10, m_max=6, eq_max=2):
    """A random strictly convex QP that is feasible by construction."""
    from vppsim.qp import QpProblem

    n = int(rng.integers(1, n_max + 1))
    F = rng.normal(size=(n, n))
    Q = F @ F.T + np.diag(rng.uniform(0.1, 1.0, n))
    q = rng.normal(size=n)
    x0 = rng.normal(size=n)
    m_eq = int(rng.integers(0, min(eq_max, max(n - 1, 0)) + 1))
    A, b = np.zeros((0, n)), np.zeros(0)
    if m_eq:
        A = rng.normal(size=(m_eq, n))
        b = A @ x0
    m = int(rng.integers(1, m_max + 1))
    C = rng.normal(size=(m, n))
    mid = C @ x0
    lo = mid - rng.uniform(0.05, 2.0, m)
    hi = mid + rng.uniform(0.05, 2.0, m)
    return QpProblem(n=n, quad=Q, lin=q,
                     rows=(np.vstack([A, C]), np.concatenate([b, lo]),
                           np.concatenate([b, hi])))
