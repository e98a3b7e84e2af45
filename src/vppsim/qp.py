"""Convex QP solver based on operator splitting, on sparse data.

Every problem is stated in one form,

    minimize    0.5 x' Q x + q' x + const
    subject to  lo <= A x <= hi,

where entries of lo/hi may be -inf/+inf and a row with finite lo == hi
is an equality (the form of Stellato et al., OSQP, Math. Prog. Comp.
2020, section 2).  Q and A are held as scipy.sparse CSR matrices, as
OSQP holds them: the household rows touch a few variables each, so
every product in the iteration, the residual checks and the
certificates is a sparse one.  `QpSolver` binds Q, A and A' once to
the C kernel that scipy's `A @ x` reaches (`csr_matvec`, see
`_matvec`) and calls it directly: on a household problem (a few
thousand nonzeros) `A @ x` takes about twice the kernel's time, all of
it dispatch, and the same kernel on the same operands gives the same
bits.  The data must be finite; only lo/hi may hold infinities.

The problem is solved with an ADMM splitting (alternating projections
with over-relaxation) that needs a single Cholesky factorization of
K = Q + sigma I + A' diag(rho) A; that matrix is formed sparse and
factored dense, and `QpSolver` turns the factor into K's inverse once
(LAPACK `potri`), so that repeated solves with a new linear term (the
situation in the trading loop) are cheap.  Each
iteration applies the inverse by one BLAS symmetric matrix-vector
product (`dsymv`), which reads the stored triangle once where two
triangular solves read the factor twice.  K's condition number on the
generated household and oracle problems is about 2.6e4, where an
explicit inverse applies as accurately as a backward-stable solve in
practice (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
section 14).  The iteration runs in place: each solve allocates its work
vectors once and writes every step into them (`out=` ufuncs, the CSR
kernel into a zeroed buffer, `dsymv` over its output), in the operation
order of the plain expressions, so the iterates are the same bits as an
allocating loop's; at a household's size the allocations and dispatch
cost about as much as the arithmetic.  Step sizes are rebalanced every
ADAPT_EVERY iterations from the primal/dual residual imbalance, which
may refactor, so every iteration reads the step and the inverse anew.
The iteration stops when both residuals meet a tolerance, TOL unless
the caller passes another (the trading loop's round solves pass
agent.LOOP_TOL).
Infeasibility and unboundedness are declared through the standard
divergence certificates of the splitting iteration.  A final polish
step solves the KKT system of the detected active set to push
residuals to machine precision, as OSQP's polish does (section 4).  The
system is assembled from the sparse blocks; the variables that an
active row pins alone are eliminated exactly with their rows, and only
the rest is factored dense.  The active set is corrected over a few
re-solves: each drops the rows whose multiplier comes back with the
wrong sign and adds, on the violated side, the rows outside the set that
the candidate violates (on the centralized oracles a first guess from
the iterate misses a few rows that bind at the optimum).

Everything is deterministic at a fixed BLAS thread count: identical
inputs and settings produce identical iterates, iteration counts, and
output bytes.  The sparse products do not depend on that count; the
dense Cholesky factorization (`cho_factor`) and the `dsymv` that
applies the inverse may round differently under a different number of
BLAS threads, so results, and the ledger's chain tips built from them,
repeat bit for bit only when that count is pinned
(OPENBLAS_NUM_THREADS=1, say).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpotri
from scipy.sparse._sparsetools import csr_matvec

from .model import DimensionError


class QpError(ValueError):
    """Malformed problem data."""


OPTIMAL = "optimal"
MAX_ITER = "max-iter"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# fixed solver constants; they favor accuracy over speed
TOL = 1e-8              # default stopping and polish-acceptance tolerance
STEP = 0.1              # initial splitting step
SIGMA = 1e-6            # proximal regularization
RELAX = 1.6             # over-relaxation
ADAPT_EVERY = 100       # step rebalancing cadence
EQ_STEP_SCALE = 1e3     # step multiplier on equality rows
INF_TOL = 1e-7          # relative certificate tolerance
RESCUE_EVERY = 2000     # stalled-iterate finish attempts
ITER_LIMIT = 200000     # iteration budget per solve
CHECK_EVERY = 25        # residual check cadence


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class QpProblem:
    """Convex QP data: minimize 0.5 x' quad x + lin' x + const subject to
    lo <= A x <= hi.

    quad must be symmetric positive semidefinite.  `rows` is (A, lo, hi),
    or None for an unconstrained problem; entries of lo/hi may be
    -inf/+inf, and a row with finite lo == hi is an equality.  `const` is
    an additive objective constant so built problems can report model
    costs exactly.  quad and A may be given dense or sparse; both are
    held as CSR with sorted indices and no stored zeros, so either input
    solves identically.  Every value must be finite except the bounds,
    which must not be NaN; QpError names the first field that is not.
    """

    n: int
    quad: sp.csr_array
    lin: np.ndarray
    rows: tuple | None = None
    const: float = 0.0

    def __post_init__(self):
        self.quad = _csr(self.quad)
        self.lin = np.asarray(self.lin, dtype=float).ravel()
        if self.quad.shape != (self.n, self.n):
            raise DimensionError(
                f"quad shape {self.quad.shape} != ({self.n}, {self.n})")
        if self.lin.size != self.n:
            raise DimensionError(f"lin length {self.lin.size} != {self.n}")
        A, lo, hi = self.rows or (sp.csr_array((0, self.n)), (), ())
        if not sp.issparse(A):
            A = np.asarray(A, dtype=float).reshape(-1, self.n)
        A = _csr(A)
        if A.shape[1] != self.n:
            raise DimensionError(f"constraint width {A.shape[1]} != {self.n}")
        lo = np.asarray(lo, dtype=float).ravel()
        hi = np.asarray(hi, dtype=float).ravel()
        if not (A.shape[0] == lo.size == hi.size):
            raise DimensionError("constraint rows and bound lengths disagree")
        # a NaN runs the iteration to its budget or to a wrong status, and
        # an infinite coefficient has no solution to report; infinite
        # bounds are open rows
        for name, values in (("quad", self.quad.data), ("A", A.data),
                             ("lin", self.lin), ("const", self.const)):
            _require_finite(name, values)
        for name, bound in (("lo", lo), ("hi", hi)):
            if np.isnan(bound).any():
                raise QpError(f"{name} holds NaN")
        if np.any(lo > hi):
            raise QpError("constraint lower bound exceeds upper bound")
        self.rows = (A, lo, hi)


@dataclass
class QpSettings:
    """Per-solver knobs."""

    polish: bool = True


@dataclass
class QpSolution:
    x: np.ndarray
    y: np.ndarray        # one multiplier per constraint row
    status: str
    iterations: int
    residuals: dict      # {'primal': float, 'dual': float}
    objective: float = 0.0
    polished: bool = False


def _csr(a) -> sp.csr_array:
    """A float CSR copy in canonical form: summed duplicates, sorted
    indices, no stored zeros."""
    a = sp.csr_array(a, dtype=float, copy=True)
    a.sum_duplicates()
    a.eliminate_zeros()
    return a


def _require_finite(name, values):
    if not np.isfinite(values).all():
        raise QpError(f"{name} holds a non-finite value")


def _matvec(A: sp.csr_array):
    """The product `x -> A @ x` for a float vector x, bit for bit.

    It calls the C kernel that `A @ x` reaches, scipy's `csr_matvec`, on
    a zeroed output, with A's shape and arrays read once here: at the
    sizes of a household problem `A @ x` takes about twice as long as
    the kernel alone.  Given `out`, the product zero-fills that buffer
    and writes into it instead of allocating one.
    """
    rows, cols = A.shape
    indptr, indices, data = A.indptr, A.indices, A.data

    def product(x, out=None):
        if out is None:
            out = np.zeros(rows)
        else:
            out.fill(0.0)
        csr_matvec(rows, cols, indptr, indices, data, x, out)
        return out

    return product


def _norm(v) -> float:
    return float(np.abs(v).max(initial=0.0))


def _objective(problem, x, q, cn) -> float:
    return float(0.5 * x @ (problem.quad @ x) + q @ x + cn)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class QpSolver:
    """Caches the inverse of one problem's splitting matrix.

    Re-solving after changing only `lin`/`const` (and optionally warm
    starting from the previous solution) reuses the inverse, which
    is what the per-iteration trading subproblems need.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings | None = None):
        self.problem = problem
        self.settings = settings or QpSettings()
        self.M, self.l, self.u = problem.rows
        self.MT = self.M.T.tocsr()
        self.m = self.M.shape[0]
        self._P = _matvec(problem.quad)
        self._A = _matvec(self.M)
        self._AT = _matvec(self.MT)
        self.eq_mask = np.isfinite(self.l) & (self.l == self.u)
        self.rho = np.full(self.m, STEP)
        self.rho[self.eq_mask] *= EQ_STEP_SCALE
        self._last = None       # (x, y, z) of previous solve
        self._factor()

    def _factor(self):
        K = self.problem.quad + SIGMA * sp.eye_array(self.problem.n)
        K = K + self.MT @ (sp.diags_array(self.rho) @ self.M)
        chol, _ = scipy.linalg.cho_factor(
            K.toarray(order="F"), lower=True, overwrite_a=True,
            check_finite=False)
        # the inverse's lower triangle, written over the factor
        self.kinv, info = dpotri(chol, lower=1, overwrite_c=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"splitting matrix inverse: LAPACK potri info {info}")

    # -- residuals ---------------------------------------------------------

    def _residuals(self, x, y, z, q, tol):
        Ax = self._A(x)
        Px = self._P(x)
        Aty = self._AT(y)
        r_prim = _norm(Ax - z)
        r_dual = _norm(Px + q + Aty)
        eps_prim = tol + tol * max(_norm(Ax), _norm(z))
        eps_dual = tol + tol * max(_norm(Px), _norm(Aty), _norm(q))
        return r_prim, r_dual, eps_prim, eps_dual

    def _primal_certificate(self, dy) -> bool:
        nd = _norm(dy)
        if nd <= 1e-14:
            return False
        eps = INF_TOL * nd
        if _norm(self._AT(dy)) > eps:
            return False
        up, down = dy > eps, dy < -eps
        if not (np.all(np.isfinite(self.u[up]))
                and np.all(np.isfinite(self.l[down]))):
            return False
        sup = self.u[up] @ dy[up] + self.l[down] @ dy[down]
        return bool(sup <= -eps)

    def _dual_certificate(self, dx, q) -> bool:
        nd = _norm(dx)
        if nd <= 1e-14:
            return False
        eps = INF_TOL * nd
        if _norm(self._P(dx)) > eps:
            return False
        if float(q @ dx) > -eps:
            return False
        Adx = self._A(dx)
        hi_ok = np.all(Adx[np.isfinite(self.u)] <= eps)
        lo_ok = np.all(Adx[np.isfinite(self.l)] >= -eps)
        return bool(hi_ok and lo_ok)

    # -- main loop ---------------------------------------------------------

    def solve(self, lin=None, const=None, warm: bool = False,
              tol: float = TOL) -> QpSolution:
        """Run the splitting iteration.

        Parameters
        ----------
        lin, const : optional
            Override the problem's linear term and constant (the quadratic
            and the constraints stay fixed, keeping the factorization valid).
            Both must be finite.
        warm : bool
            Start from the final iterates of the previous solve.
        tol : float
            Absolute and relative tolerance of the primal/dual stopping
            test.  The divergence certificates keep INF_TOL and polish
            acceptance keeps TOL whatever this is.
        """
        polish = self.settings.polish
        n, m = self.problem.n, self.m
        q = self.problem.lin if lin is None else np.asarray(lin, float).ravel()
        cn = self.problem.const if const is None else float(const)
        if q.size != n:
            raise DimensionError(f"lin override length {q.size} != {n}")
        _require_finite("lin override", q)
        _require_finite("const override", cn)

        if warm and self._last is not None:
            x, y, z = (v.copy() for v in self._last)
        else:
            x = np.zeros(n)
            y = np.zeros(m)
            z = np.minimum(np.maximum(self._A(x), self.l), self.u)
        # the iteration's work vectors: each step below writes into one of
        # them, in the order of operations of the plain expression in its
        # comment, so the iterates are the same bits; x, y and z swap with
        # the buffers that held their previous values
        x_prev, rhs, tn = np.empty(n), np.empty(n), np.empty(n)
        y_prev, z_new, zr, tm = (np.empty(m) for _ in range(4))
        xt = np.zeros(n)
        l, u, keep = self.l, self.u, 1.0 - RELAX

        status = MAX_ITER
        it = 0
        pinf_hits = dinf_hits = 0
        r_prim = r_dual = np.inf
        rescue_ref = np.inf
        for it in range(1, ITER_LIMIT + 1):
            # a residual check may have rebalanced the step and refactored
            rho, kinv = self.rho, self.kinv
            x, x_prev = x_prev, x
            y, y_prev = y_prev, y
            # rhs = SIGMA * x_prev - q + A' (rho * z - y_prev)
            np.multiply(SIGMA, x_prev, out=rhs)
            np.subtract(rhs, q, out=rhs)
            np.multiply(rho, z, out=tm)
            np.subtract(tm, y_prev, out=tm)
            np.add(rhs, self._AT(tm, tn), out=rhs)
            xt = dsymv(1.0, kinv, rhs, beta=0.0, y=xt, overwrite_y=1,
                       lower=1)
            # x = RELAX * xt + (1 - RELAX) * x_prev
            np.multiply(RELAX, xt, out=x)
            np.multiply(keep, x_prev, out=tn)
            np.add(x, tn, out=x)
            # zr = RELAX * A xt + (1 - RELAX) * z
            np.multiply(RELAX, self._A(xt, zr), out=zr)
            np.multiply(keep, z, out=tm)
            np.add(zr, tm, out=zr)
            # z_new = min(max(zr + y_prev / rho, l), u)
            np.divide(y_prev, rho, out=tm)
            np.add(zr, tm, out=z_new)
            np.maximum(z_new, l, out=z_new)
            np.minimum(z_new, u, out=z_new)
            # y = y_prev + rho * (zr - z_new)
            np.subtract(zr, z_new, out=tm)
            np.multiply(rho, tm, out=tm)
            np.add(y_prev, tm, out=y)
            z, z_new = z_new, z

            if it % CHECK_EVERY == 0 or it == ITER_LIMIT:
                r_prim, r_dual, eps_p, eps_d = self._residuals(x, y, z, q,
                                                               tol)
                if r_prim <= eps_p and r_dual <= eps_d:
                    status = OPTIMAL
                    break
                # divergence certificates, confirmed at two consecutive checks
                if self._primal_certificate(y - y_prev):
                    pinf_hits += 1
                    if pinf_hits >= 2:
                        status = INFEASIBLE
                        break
                else:
                    pinf_hits = 0
                if self._dual_certificate(x - x_prev, q):
                    dinf_hits += 1
                    if dinf_hits >= 2:
                        status = UNBOUNDED
                        break
                else:
                    dinf_hits = 0
                if it % ADAPT_EVERY == 0 and m:
                    self._rebalance(x, y, z, q, r_prim, r_dual)
                # degenerate active sets can leave the iteration chattering
                # with flat residuals; when that happens, try to finish
                # directly from the current active-set guess
                if polish and it % RESCUE_EVERY == 0:
                    gm = np.sqrt((r_prim + 1e-16) * (r_dual + 1e-16))
                    if gm > rescue_ref / 3.0:
                        cand = self._rescue(x, y, z, q, cn, it)
                        if cand is not None:
                            self._last = (x.copy(), y.copy(), z.copy())
                            return cand
                    rescue_ref = min(rescue_ref, gm)

        self._last = (x.copy(), y.copy(), z.copy())
        sol = QpSolution(
            x=x, y=y.copy(), status=status, iterations=it,
            residuals={"primal": r_prim if np.isfinite(r_prim) else 0.0,
                       "dual": r_dual},
            objective=_objective(self.problem, x, q, cn))
        if status == OPTIMAL and polish:
            self._polish(sol, q, cn, z=z)
        elif status == MAX_ITER and polish:
            # the stalled iterate often carries a usable active-set guess;
            # accept the polished point only at full-KKT tolerance, which
            # certifies optimality regardless of how the iterates behaved
            self._polish(sol, q, cn, z=z, require=TOL)
        return sol

    def _rescue(self, x, y, z, q, cn, iterations):
        """Certified early finish from a stalled iterate, or None."""
        sol = QpSolution(
            x=x.copy(), y=y.copy(), status=MAX_ITER, iterations=iterations,
            residuals={}, objective=_objective(self.problem, x, q, cn))
        self._polish(sol, q, cn, z=z, require=TOL)
        if sol.polished and sol.status == OPTIMAL:
            return sol
        return None

    def _rebalance(self, x, y, z, q, r_prim, r_dual):
        """Scale the step from the residual imbalance, refactoring if large.

        The per-call factor is clamped to one decade.  A stalled iterate
        can report an astronomical imbalance (one residual at machine
        precision, the other stuck); applying the raw square-root ratio
        then overshoots into the mirrored stall and the next call undoes
        it, a stable two-cycle.  Walking at most 10x per call keeps the
        residuals tracking the step size, so the walk settles inside the
        workable range instead of hopping over it.
        """
        Ax = self._A(x)
        scale_p = max(_norm(Ax), _norm(z)) + 1e-12
        Px = self._P(x)
        scale_d = max(_norm(Px), _norm(self._AT(y)), _norm(q)) + 1e-12
        ratio = np.sqrt((r_prim / scale_p) / (r_dual / scale_d + 1e-16))
        ratio = float(np.clip(ratio, 0.1, 10.0))
        if ratio > 5.0 or ratio < 0.2:
            self.rho = np.clip(self.rho * ratio, 1e-8, 1e8)
            self._factor()

    # -- polish ------------------------------------------------------------

    def _solve_active(self, rows, at_lo, q, cn, iterations):
        """Regularized KKT solve for a fixed active set, with refinement.

        The regularized system is factored with its pinned pairs
        eliminated (`_kkt_solver`); the refinement and the scoring use the
        full unregularized system.
        """
        G = self.M[rows]
        rhs_g = np.where(at_lo, self.l[rows], self.u[rows])
        n = self.problem.n
        K0 = sp.block_array([[self.problem.quad, G.T], [G, None]],
                            format="csr")
        rhs = np.concatenate([-q, rhs_g])
        try:
            kkt_solve = _kkt_solver(K0, self.problem.quad, G, 1e-9)
        except (ValueError, np.linalg.LinAlgError):
            return None, None

        def as_candidate(v):
            x_new = v[:n]
            y_new = np.zeros(self.m)
            y_new[rows] = v[n:]
            return QpSolution(
                x=x_new, y=y_new, status=OPTIMAL, iterations=iterations,
                residuals={}, objective=_objective(self.problem, x_new, q, cn))

        v = kkt_solve(rhs)
        if not np.all(np.isfinite(v)):
            return None, None
        best = as_candidate(v)
        best_res = _kkt_max(self.problem, best, q)
        # refinement against the unregularized system; redundant active rows
        # make it singular, so keep whichever round scores best
        for _ in range(3):
            v = v + kkt_solve(rhs - K0 @ v)
            if not np.all(np.isfinite(v)):
                break
            cand = as_candidate(v)
            res = _kkt_max(self.problem, cand, q)
            if res < best_res:
                best, best_res = cand, res
        return best, best_res

    def _active_guess(self, y, z):
        """Active rows and their sides, from multiplier signs first.

        Rows with a decisive multiplier sign are pinned on that side.
        Rows whose multiplier is still near zero but whose split variable
        sits on a bound (the signature of a weakly active or chattering
        row) are pinned where they sit; a wrong pin comes back with a
        wrong-signed multiplier and gets dropped by the caller.
        """
        thresh = 1e-10 * max(1.0, _norm(y))
        free = ~self.eq_mask
        neg = y < -thresh
        pos = y > thresh
        lo_contact = np.isfinite(self.l) & (z <= self.l)
        hi_contact = np.isfinite(self.u) & (z >= self.u)
        act_lo = free & (neg | (~pos & lo_contact))
        act_hi = free & (pos | (~neg & hi_contact))
        rows = np.where(self.eq_mask | act_lo | act_hi)[0]
        at_lo = (self.eq_mask | act_lo)[rows]
        return rows, at_lo

    def _polish(self, sol: QpSolution, q, cn, z,
                require: float | None = None):
        """Sharpen the solution by solving the detected active set exactly.

        Rows whose multiplier comes back with the wrong sign are dropped,
        non-equality rows the candidate violates by more than a TOL-scaled
        margin are added on the violated side, and the KKT system is
        re-solved, up to six solves in all; the polished point is accepted
        only if it does not degrade the residuals.
        With `require` set, acceptance instead demands a KKT residual at
        or below that threshold and upgrades the status, which lets an
        iteration that ran out of budget still return a certified answer.
        """
        if self.m == 0:
            return
        rows, at_lo = self._active_guess(sol.y, z)
        best = None
        best_res = np.inf
        for _ in range(6):
            cand, res = self._solve_active(rows, at_lo, q, cn, sol.iterations)
            if cand is None:
                break
            if res < best_res:
                best, best_res = cand, res
            y_c = cand.y
            sign_tol = 1e-9 * max(1.0, _norm(y_c))
            wrong = np.zeros(rows.size, dtype=bool)
            free = ~self.eq_mask[rows]
            wrong |= free & at_lo & (y_c[rows] > sign_tol)
            wrong |= free & ~at_lo & (y_c[rows] < -sign_tol)
            # the rows outside the set that the candidate violates
            Ax = self._A(cand.x)
            margin = TOL * max(1.0, _norm(Ax))
            under = Ax < self.l - margin
            outside = np.ones(self.m, dtype=bool)
            outside[rows] = False
            added = np.flatnonzero(outside & (under | (Ax > self.u + margin)))
            if not (np.any(wrong) or added.size):
                break
            rows = np.concatenate([rows[~wrong], added])
            at_lo = np.concatenate([at_lo[~wrong], under[added]])
            order = np.argsort(rows)
            rows, at_lo = rows[order], at_lo[order]
        limit = _kkt_max(self.problem, sol, q) if require is None else require
        if best is not None and np.isfinite(best_res) and best_res <= limit:
            sol.x = best.x
            sol.y = best.y
            sol.objective = best.objective
            r = kkt_residuals(self.problem, best, q)
            sol.residuals = {"primal": r["primal"], "dual": r["dual"]}
            sol.polished = True
            if require is not None:
                sol.status = OPTIMAL


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------

def kkt_residuals(problem: QpProblem, sol: QpSolution,
                  lin=None) -> dict:
    """Stationarity, feasibility, complementarity and sign residuals
    (inf-norm).  sign is the largest |y| pushing on a missing bound: y > 0
    with hi = +inf, or y < 0 with lo = -inf.  Equality rows (finite
    lo == hi) carry no complementarity or sign term.

    Returns
    -------
    dict with keys 'primal', 'dual', 'comp', 'sign'.
    """
    q = problem.lin if lin is None else np.asarray(lin, float).ravel()
    A, lo, hi = problem.rows
    x, y = sol.x, sol.y
    Ax = A @ x
    below = np.where(np.isfinite(lo), np.maximum(lo - Ax, 0.0), 0.0)
    above = np.where(np.isfinite(hi), np.maximum(Ax - hi, 0.0), 0.0)
    grad = problem.quad @ x + q + A.T @ y
    ineq = ~(np.isfinite(lo) & (lo == hi))
    up = ineq & (y > 0) & np.isfinite(hi)
    down = ineq & (y < 0) & np.isfinite(lo)
    comp = max(_norm(y[up] * (hi[up] - Ax[up])),
               _norm(y[down] * (Ax[down] - lo[down])))
    sign = max(_norm(y[ineq & (y > 0) & ~np.isfinite(hi)]),
               _norm(y[ineq & (y < 0) & ~np.isfinite(lo)]))
    return {"primal": max(_norm(below), _norm(above)), "dual": _norm(grad),
            "comp": comp, "sign": sign}


def _kkt_max(problem, sol, q) -> float:
    vals = kkt_residuals(problem, sol, lin=q).values()
    return max(vals) if all(np.isfinite(v) for v in vals) else np.inf


def _kkt_solver(K0, Q, G, delta):
    """Factor [[Q + delta I, G'], [G, -delta I]]; returns its solve.

    K0 is the unregularized [[Q, G'], [G, 0]] in CSR form, as
    `_solve_active` assembles it for its refinement.

    The pinned pairs are eliminated exactly.  A pair is a variable j whose
    Q row holds at most its diagonal and the first row r of G that touches
    j alone, with coefficient a.  Its 2x2 block
    B = [[Q_jj + delta, a], [a, -delta]] meets the rest only through
    column j of the other rows.  The Schur complement of the pairs is the
    kept matrix with those columns C folded into its -delta I block as
    -C diag(w) C', w = delta / ((Q_jj + delta) delta + a^2) > 0, so it
    stays quasidefinite (Vanderbei, SIAM J. Optim. 1995).  Only it is
    factored dense; each solve back-substitutes the pairs through B's
    inverse.
    """
    k, n = G.shape
    K = K0 + sp.diags_array(np.repeat([delta, -delta], [n, k]))
    qd = Q.diagonal()
    diag_only = np.diff(Q.indptr) == (qd != 0)
    single = np.flatnonzero(np.diff(G.indptr) == 1)
    var = G.indices[G.indptr[single]]
    single, var = single[diag_only[var]], var[diag_only[var]]
    px, first = np.unique(var, return_index=True)
    py = n + single[first]
    a = G.data[G.indptr[py - n]]
    d = qd[px] + delta
    den = d * delta + a * a
    keep = np.ones(n + k, dtype=bool)
    keep[px] = keep[py] = False
    keep = np.flatnonzero(keep)
    Kk = K[keep]
    to_pairs = Kk[:, px]            # nonzero only in the kept rows of G
    from_pairs = K[px][:, keep]
    S = Kk[:, keep] - to_pairs @ sp.diags_array(delta / den) @ from_pairs
    lu = scipy.linalg.lu_factor(S.toarray(order="F"), overwrite_a=True,
                                check_finite=False)

    def solve(r):
        f, g = r[px], r[py]
        v = np.empty(n + k)
        v[keep] = scipy.linalg.lu_solve(
            lu, r[keep] - to_pairs @ ((delta * f + a * g) / den),
            check_finite=False)
        f = f - from_pairs @ v[keep]
        v[px] = (delta * f + a * g) / den
        v[py] = (a * f - d * g) / den
        return v

    return solve
