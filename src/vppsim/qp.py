"""Dense convex QP solver based on operator splitting.

Problems are stated as

    minimize    0.5 x' Q x + q' x + const
    subject to  A x = b,   lo <= C x <= hi

and solved with an ADMM splitting (alternating projections with
over-relaxation).  Equality rows and two-sided inequality rows are handled
uniformly by stacking them into one system l <= M x <= u with l = u on the
equality rows.  The splitting needs a single Cholesky factorization of
Q + sigma I + M' diag(rho) M, which `QpSolver` caches so that repeated
solves with a new linear term (the situation in the trading loop) are
cheap.  Step sizes are rebalanced every `adapt_every` iterations from the
primal/dual residual imbalance.  Infeasibility and unboundedness are
declared through the standard divergence certificates of the splitting
iteration.  A final polish step solves the KKT system of the detected
active set to push residuals to machine precision.

Everything is deterministic at a fixed BLAS thread count: identical
inputs and settings produce identical iterates, iteration counts, and
output bytes.  The dense Cholesky solve may round differently under a
different number of BLAS threads, so results, and the ledger's chain
tips built from them, repeat bit for bit only when that count is
pinned (OPENBLAS_NUM_THREADS=1, say).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .model import DimensionError


class QpError(ValueError):
    """Malformed problem data."""


OPTIMAL = "optimal"
MAX_ITER = "max-iter"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------

@dataclass
class QpProblem:
    """Convex QP data.

    quad must be symmetric positive semidefinite.  `eq` is (A, b) or None,
    `ineq` is (C, lo, hi) or None with entries of lo/hi allowed to be
    -inf/+inf.  `names` optionally maps variable index -> (symbol, slot)
    for decoding and diagnostics.  `const` is an additive objective
    constant so built problems can report model costs exactly.
    """

    n: int
    quad: np.ndarray
    lin: np.ndarray
    eq: tuple | None = None
    ineq: tuple | None = None
    names: dict | None = None
    const: float = 0.0

    def __post_init__(self):
        self.quad = np.asarray(self.quad, dtype=float)
        self.lin = np.asarray(self.lin, dtype=float).ravel()
        if self.quad.shape != (self.n, self.n):
            raise DimensionError(
                f"quad shape {self.quad.shape} != ({self.n}, {self.n})")
        if self.lin.size != self.n:
            raise DimensionError(f"lin length {self.lin.size} != {self.n}")
        if self.eq is not None:
            A = np.asarray(self.eq[0], dtype=float).reshape(-1, self.n)
            b = np.asarray(self.eq[1], dtype=float).ravel()
            if A.shape[0] != b.size:
                raise DimensionError(
                    f"eq rows {A.shape[0]} != rhs length {b.size}")
            self.eq = (A, b)
        if self.ineq is not None:
            C = np.asarray(self.ineq[0], dtype=float).reshape(-1, self.n)
            lo = np.asarray(self.ineq[1], dtype=float).ravel()
            hi = np.asarray(self.ineq[2], dtype=float).ravel()
            if not (C.shape[0] == lo.size == hi.size):
                raise DimensionError("ineq rows and bound lengths disagree")
            if np.any(lo > hi):
                raise QpError("ineq lower bound exceeds upper bound")
            self.ineq = (C, lo, hi)

    @property
    def m_eq(self) -> int:
        return 0 if self.eq is None else self.eq[0].shape[0]

    @property
    def m_ineq(self) -> int:
        return 0 if self.ineq is None else self.ineq[0].shape[0]

    def objective(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ self.quad @ x + self.lin @ x + self.const)

    def stacked(self):
        """All constraint rows as one system l <= M x <= u."""
        blocks, lo, hi = [], [], []
        if self.eq is not None:
            blocks.append(self.eq[0])
            lo.append(self.eq[1])
            hi.append(self.eq[1])
        if self.ineq is not None:
            blocks.append(self.ineq[0])
            lo.append(self.ineq[1])
            hi.append(self.ineq[2])
        if not blocks:
            return (np.zeros((0, self.n)), np.zeros(0), np.zeros(0))
        return (np.vstack(blocks), np.concatenate(lo), np.concatenate(hi))

    def validate(self, tol: float = 1e-8):
        """Raise QpError unless quad is symmetric PSD (within tol)."""
        asym = float(np.max(np.abs(self.quad - self.quad.T), initial=0.0))
        scale = float(np.max(np.abs(self.quad), initial=0.0)) + 1.0
        if asym > tol * scale:
            raise QpError(f"quad asymmetric by {asym:.3e}")
        if self.n:
            w = np.linalg.eigvalsh(0.5 * (self.quad + self.quad.T))
            if w[0] < -tol * scale:
                raise QpError(f"quad has negative eigenvalue {w[0]:.3e}")


@dataclass
class QpSettings:
    """Solver knobs; defaults favor accuracy over speed."""

    tol: float = 1e-8
    max_iter: int = 200000
    step: float = 0.1          # initial splitting step
    sigma: float = 1e-6        # proximal regularization
    relax: float = 1.6         # over-relaxation
    check_every: int = 25      # residual check cadence
    adapt_every: int = 100     # step rebalancing cadence
    eq_step_scale: float = 1e3
    inf_tol: float = 1e-7      # relative certificate tolerance
    polish: bool = True
    rescue_every: int = 2000   # stalled-iterate finish attempts (0 = off)


@dataclass
class QpSolution:
    x: np.ndarray
    duals: dict          # {'eq': ndarray, 'ineq': ndarray}
    status: str
    iterations: int
    residuals: dict      # {'primal': float, 'dual': float}
    objective: float = 0.0
    polished: bool = False
    certificate: np.ndarray | None = None


def _norm(v) -> float:
    return float(np.max(np.abs(v), initial=0.0))


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class QpSolver:
    """Caches the splitting factorization of one problem.

    Re-solving after changing only `lin`/`const` (and optionally warm
    starting from the previous solution) reuses the factorization, which
    is what the per-iteration trading subproblems need.
    """

    def __init__(self, problem: QpProblem, settings: QpSettings | None = None):
        self.problem = problem
        self.settings = settings or QpSettings()
        self.M, self.l, self.u = problem.stacked()
        self.m = self.M.shape[0]
        eq_mask = np.zeros(self.m, dtype=bool)
        eq_mask[:problem.m_eq] = True
        # treat finite lo == hi inequality rows as equalities for stepping
        with np.errstate(invalid="ignore"):
            eq_mask |= (self.l == self.u) & np.isfinite(self.l)
        self.eq_mask = eq_mask
        self.rho = np.full(self.m, self.settings.step)
        self.rho[eq_mask] *= self.settings.eq_step_scale
        self._last = None       # (x, y, z) of previous solve
        self._factor()

    def _factor(self):
        P, sigma = self.problem.quad, self.settings.sigma
        K = P + sigma * np.eye(self.problem.n)
        if self.m:
            K = K + (self.M.T * self.rho) @ self.M
        self.chol = scipy.linalg.cho_factor(K, lower=True, check_finite=False)

    # -- residuals ---------------------------------------------------------

    def _residuals(self, x, y, z, q):
        P = self.problem.quad
        Ax = self.M @ x if self.m else np.zeros(0)
        Px = P @ x
        Aty = self.M.T @ y if self.m else np.zeros(self.problem.n)
        r_prim = _norm(Ax - z) if self.m else 0.0
        r_dual = _norm(Px + q + Aty)
        tol = self.settings.tol
        eps_prim = tol + tol * max(_norm(Ax), _norm(z))
        eps_dual = tol + tol * max(_norm(Px), _norm(Aty), _norm(q))
        return r_prim, r_dual, eps_prim, eps_dual

    def _primal_certificate(self, dy) -> bool:
        nd = _norm(dy)
        if nd <= 1e-14:
            return False
        eps = self.settings.inf_tol * nd
        if _norm(self.M.T @ dy) > eps:
            return False
        sup = 0.0
        for i in range(self.m):
            p, m_ = max(dy[i], 0.0), min(dy[i], 0.0)
            if p > eps and not np.isfinite(self.u[i]):
                return False
            if m_ < -eps and not np.isfinite(self.l[i]):
                return False
            sup += (self.u[i] * p if p > eps else 0.0)
            sup += (self.l[i] * m_ if m_ < -eps else 0.0)
        return sup <= -eps

    def _dual_certificate(self, dx, q) -> bool:
        nd = _norm(dx)
        if nd <= 1e-14:
            return False
        eps = self.settings.inf_tol * nd
        if _norm(self.problem.quad @ dx) > eps:
            return False
        if float(q @ dx) > -eps:
            return False
        if self.m:
            Adx = self.M @ dx
            hi_ok = np.all(Adx[np.isfinite(self.u)] <= eps)
            lo_ok = np.all(Adx[np.isfinite(self.l)] >= -eps)
            if not (hi_ok and lo_ok):
                return False
        return True

    # -- main loop ---------------------------------------------------------

    def solve(self, lin=None, const=None, warm: bool = False) -> QpSolution:
        """Run the splitting iteration.

        Parameters
        ----------
        lin, const : optional
            Override the problem's linear term and constant (the quadratic
            and the constraints stay fixed, keeping the factorization valid).
        warm : bool
            Start from the final iterates of the previous solve.
        """
        st = self.settings
        n, m = self.problem.n, self.m
        q = self.problem.lin if lin is None else np.asarray(lin, float).ravel()
        cn = self.problem.const if const is None else float(const)
        if q.size != n:
            raise DimensionError(f"lin override length {q.size} != {n}")

        if warm and self._last is not None:
            x, y, z = (v.copy() for v in self._last)
        else:
            x = np.zeros(n)
            y = np.zeros(m)
            z = np.clip(self.M @ x, self.l, self.u) if m else np.zeros(0)

        status = MAX_ITER
        it = 0
        cert = None
        pinf_hits = dinf_hits = 0
        r_prim = r_dual = np.inf
        rescue_ref = np.inf
        for it in range(1, st.max_iter + 1):
            x_prev = x
            y_prev = y
            rhs = st.sigma * x - q
            if m:
                rhs = rhs + self.M.T @ (self.rho * z - y)
            xt = scipy.linalg.cho_solve(self.chol, rhs, check_finite=False)
            x = st.relax * xt + (1.0 - st.relax) * x
            if m:
                zt = self.M @ xt
                zr = st.relax * zt + (1.0 - st.relax) * z
                z_new = np.clip(zr + y / self.rho, self.l, self.u)
                y = y + self.rho * (zr - z_new)
                z = z_new

            if it % st.check_every == 0 or it == st.max_iter:
                r_prim, r_dual, eps_p, eps_d = self._residuals(x, y, z, q)
                if r_prim <= eps_p and r_dual <= eps_d:
                    status = OPTIMAL
                    break
                # divergence certificates, confirmed at two consecutive checks
                if m and self._primal_certificate(y - y_prev):
                    pinf_hits += 1
                    if pinf_hits >= 2:
                        status = INFEASIBLE
                        cert = (y - y_prev).copy()
                        break
                else:
                    pinf_hits = 0
                if self._dual_certificate(x - x_prev, q):
                    dinf_hits += 1
                    if dinf_hits >= 2:
                        status = UNBOUNDED
                        cert = (x - x_prev).copy()
                        break
                else:
                    dinf_hits = 0
                if it % st.adapt_every == 0 and m:
                    self._rebalance(x, y, z, q, r_prim, r_dual)
                # degenerate active sets can leave the iteration chattering
                # with flat residuals; when that happens, try to finish
                # directly from the current active-set guess
                if st.polish and st.rescue_every and it % st.rescue_every == 0:
                    gm = np.sqrt((r_prim + 1e-16) * (r_dual + 1e-16))
                    if gm > rescue_ref / 3.0:
                        cand = self._rescue(x, y, z, q, cn, it)
                        if cand is not None:
                            self._last = (x.copy(), y.copy(), z.copy())
                            return cand
                    rescue_ref = min(rescue_ref, gm)

        self._last = (x.copy(), y.copy(), z.copy())
        meq = self.problem.m_eq
        sol = QpSolution(
            x=x, duals={"eq": y[:meq].copy(), "ineq": y[meq:].copy()},
            status=status, iterations=it,
            residuals={"primal": r_prim if np.isfinite(r_prim) else 0.0,
                       "dual": r_dual},
            objective=float(0.5 * x @ self.problem.quad @ x + q @ x + cn),
            certificate=cert)
        if status == OPTIMAL and st.polish:
            self._polish(sol, q, cn, z=z)
        elif status == MAX_ITER and st.polish:
            # the stalled iterate often carries a usable active-set guess;
            # accept the polished point only at full-KKT tolerance, which
            # certifies optimality regardless of how the iterates behaved
            self._polish(sol, q, cn, z=z, require=st.tol)
        return sol

    def _rescue(self, x, y, z, q, cn, iterations):
        """Certified early finish from a stalled iterate, or None."""
        meq = self.problem.m_eq
        sol = QpSolution(
            x=x.copy(), duals={"eq": y[:meq].copy(), "ineq": y[meq:].copy()},
            status=MAX_ITER, iterations=iterations, residuals={},
            objective=float(0.5 * x @ self.problem.quad @ x + q @ x + cn))
        self._polish(sol, q, cn, z=z, require=self.settings.tol)
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
        Ax = self.M @ x
        sp = max(_norm(Ax), _norm(z)) + 1e-12
        Px = self.problem.quad @ x
        sd = max(_norm(Px), _norm(self.M.T @ y), _norm(q)) + 1e-12
        ratio = np.sqrt((r_prim / sp) / (r_dual / sd + 1e-16))
        ratio = float(np.clip(ratio, 0.1, 10.0))
        if ratio > 5.0 or ratio < 0.2:
            self.rho = np.clip(self.rho * ratio, 1e-8, 1e8)
            self._factor()

    # -- polish ------------------------------------------------------------

    def _solve_active(self, rows, at_lo, q, cn, iterations):
        """Regularized KKT solve for a fixed active set, with refinement."""
        G = self.M[rows]
        rhs_g = np.where(at_lo, self.l[rows], self.u[rows])
        n, k = self.problem.n, rows.size
        delta = 1e-9
        K = np.zeros((n + k, n + k))
        K[:n, :n] = self.problem.quad + delta * np.eye(n)
        if k:
            K[:n, n:] = G.T
            K[n:, :n] = G
            K[n:, n:] = -delta * np.eye(k)
        rhs = np.concatenate([-q, rhs_g])
        try:
            lu = scipy.linalg.lu_factor(K, check_finite=False)
        except (ValueError, np.linalg.LinAlgError):
            return None, None
        K0 = K.copy()
        K0[:n, :n] -= delta * np.eye(n)
        if k:
            K0[n:, n:] += delta * np.eye(k)

        def as_candidate(v):
            x_new = v[:n]
            y_new = np.zeros(self.m)
            y_new[rows] = v[n:]
            return QpSolution(
                x=x_new,
                duals={"eq": y_new[:self.problem.m_eq],
                       "ineq": y_new[self.problem.m_eq:]},
                status=OPTIMAL, iterations=iterations, residuals={},
                objective=float(0.5 * x_new @ self.problem.quad @ x_new
                                + q @ x_new + cn))

        v = scipy.linalg.lu_solve(lu, rhs, check_finite=False)
        if not np.all(np.isfinite(v)):
            return None, None
        best = as_candidate(v)
        best_res = _kkt_max(self.problem, best, q)
        # refinement against the unregularized system; redundant active rows
        # make it singular, so keep whichever round scores best
        for _ in range(3):
            v = v + scipy.linalg.lu_solve(lu, rhs - K0 @ v, check_finite=False)
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

    def _polish(self, sol: QpSolution, q, cn, z=None,
                require: float | None = None):
        """Sharpen the solution by solving the detected active set exactly.

        Rows whose multiplier comes back with the wrong sign are dropped
        and the KKT system re-solved, a few times if needed; the polished
        point is accepted only if it does not degrade the residuals.
        With `require` set, acceptance instead demands a KKT residual at
        or below that threshold and upgrades the status, which lets an
        iteration that ran out of budget still return a certified answer.
        """
        if self.m == 0:
            return
        y = np.concatenate([sol.duals["eq"], sol.duals["ineq"]])
        if z is None:
            z = np.clip(self.M @ sol.x, self.l, self.u)
        rows, at_lo = self._active_guess(y, z)
        best = None
        best_res = np.inf
        for _ in range(6):
            cand, res = self._solve_active(rows, at_lo, q, cn, sol.iterations)
            if cand is None:
                break
            if res < best_res:
                best, best_res = cand, res
            y_c = np.concatenate([cand.duals["eq"], cand.duals["ineq"]])
            sign_tol = 1e-9 * max(1.0, _norm(y_c))
            wrong = np.zeros(rows.size, dtype=bool)
            free = ~self.eq_mask[rows]
            wrong |= free & at_lo & (y_c[rows] > sign_tol)
            wrong |= free & ~at_lo & (y_c[rows] < -sign_tol)
            if not np.any(wrong):
                break
            keep = ~wrong
            rows, at_lo = rows[keep], at_lo[keep]
        limit = _kkt_max(self.problem, sol, q) if require is None else require
        if best is not None and np.isfinite(best_res) and best_res <= limit:
            sol.x = best.x
            sol.duals = best.duals
            sol.objective = best.objective
            sol.residuals = {"primal": best_res, "dual": best_res}
            sol.polished = True
            if require is not None:
                sol.status = OPTIMAL


def solve_qp(problem: QpProblem,
             settings: QpSettings | None = None) -> QpSolution:
    """One-shot solve; see QpSolver for the reusable form."""
    return QpSolver(problem, settings).solve()


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------

def kkt_residuals(problem: QpProblem, sol: QpSolution,
                  lin=None) -> dict:
    """Stationarity, feasibility, and complementarity residuals (inf-norm).

    Returns
    -------
    dict with keys 'primal', 'dual', 'comp'.
    """
    q = problem.lin if lin is None else np.asarray(lin, float).ravel()
    x = sol.x
    primal = 0.0
    comp = 0.0
    grad = problem.quad @ x + q
    if problem.eq is not None:
        A, b = problem.eq
        primal = max(primal, _norm(A @ x - b))
        grad = grad + A.T @ sol.duals["eq"]
    if problem.ineq is not None:
        C, lo, hi = problem.ineq
        Cx = C @ x
        below = np.where(np.isfinite(lo), np.maximum(lo - Cx, 0.0), 0.0)
        above = np.where(np.isfinite(hi), np.maximum(Cx - hi, 0.0), 0.0)
        primal = max(primal, _norm(below), _norm(above))
        mu = sol.duals["ineq"]
        grad = grad + C.T @ mu
        for i in range(C.shape[0]):
            if mu[i] > 0 and np.isfinite(hi[i]):
                comp = max(comp, abs(mu[i] * (hi[i] - Cx[i])))
            elif mu[i] < 0 and np.isfinite(lo[i]):
                comp = max(comp, abs(mu[i] * (Cx[i] - lo[i])))
    return {"primal": primal, "dual": _norm(grad), "comp": comp}


def _kkt_max(problem, sol, q) -> float:
    r = kkt_residuals(problem, sol, lin=q)
    vals = [r["primal"], r["dual"], r["comp"]]
    if any(not np.isfinite(v) for v in vals):
        return np.inf
    return max(vals)
