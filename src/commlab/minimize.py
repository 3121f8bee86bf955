"""Penalty-based search for minimal Hilbert-Schmidt commutator factors.

Minimizes ||A||_F subject to AB - BA = target (a traceless diagonal at the
use sites here) by multi-restart gradient descent on the penalty objective

    f(A, B) = ||A||_F^2 + ||B||_F^2 + mu ||AB - BA - target||_F^2

with an increasing penalty schedule.  All restarts run as one descent over
stacked (R, d, d) arrays; each restart keeps its own penalty weight, step
and line-search state, and every per-restart quantity is a reduction over
the last two axes, so restart r's result depends only on (seed, r).  Each
restart carries its residual and squared norms from the trial it accepted,
and the stacked arrays hold only unfinished restarts; the tests hold this
descent bit for bit to one that recomputes everything every step.  After
the descent each pair is rescaled so ||A||_F = ||B||_F, which leaves the
commutator unchanged; the reported objective is then ||A||_F.  The
universal certificate ||A||_F >= sqrt(||target||_tr / 2) bounds every
feasible value from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numkit, staircase
from .numkit import DomainError, NumericError, VerificationError
from .report import SolveReport

FEASIBILITY_TOL = 1e-6
CONVERGENCE_GTOL = 1e-8
CONVERGENCE_FEAS = 1e-8
MU_START = 10.0
MU_MAX = 1e9
OBJECTIVE_TIE = 1e-12
ARMIJO_MEMORY = 10
STAGNATION_ITERS = 50
MAX_HALVINGS = 60

#: Exits of a descent stage; a restart's ``stop_reason`` is its last one.
STOP_REASONS = ("gtol", "stagnation", "linesearch", "budget")
_GTOL, _STAGNATION, _LINESEARCH, _BUDGET = range(len(STOP_REASONS))

_INV_SQRT3 = 1.0 / math.sqrt(3.0)
_SQRT2 = math.sqrt(2.0)

# The known optimal factors for the target diag(-1, 1/3, 1/3, 1/3); the
# commutator identity holds exactly and both Hilbert-Schmidt norms equal
# sqrt(4/3).
OPTIMAL_TARGET = np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3]).astype(np.complex128)
OPTIMAL_A = _INV_SQRT3 * np.array(
    [
        [0, 0, 0, -1],
        [_SQRT2, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
    ],
    dtype=np.complex128,
)
OPTIMAL_B = _INV_SQRT3 * np.array(
    [
        [0, _SQRT2, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 0],
    ],
    dtype=np.complex128,
)


def lower_bound_certificate(target) -> float:
    """Universal bound sqrt(||target||_tr / 2) on ||A||_F = ||B||_F.

    Follows from 2 ||A||_F ||B||_F >= ||AB||_tr + ||BA||_tr >= ||AB - BA||_tr.
    """
    return math.sqrt(numkit.trace_norm(target) / 2.0)


def _inner(x, y) -> np.ndarray:
    """Re <x, y> over the last two axes of C-contiguous complex arrays."""
    return np.add.reduce(x.view(np.float64) * y.view(np.float64), axis=(-2, -1))


def _residual(a, b, target):
    """R = AB - BA - target and ||A||_F^2, ||B||_F^2, ||R||_F^2, stacked or not."""
    r = a @ b - b @ a - target
    return r, _inner(a, a), _inner(b, b), _inner(r, r)


def _gradient(a, b, r, mu):
    """Penalty gradients (gA, gB) at a point with residual R and weights mu."""
    bh = b.conj().swapaxes(-1, -2)
    ah = a.conj().swapaxes(-1, -2)
    weight = 2.0 * mu[..., None, None]
    ga = 2.0 * a + weight * (r @ bh - bh @ r)
    gb = 2.0 * b + weight * (ah @ r - r @ ah)
    return ga, gb


def penalty_gradient(a, b, target, mu
                     ) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Value and gradients of the penalty objective.

    With R = AB - BA - target:

        value = ||A||_F^2 + ||B||_F^2 + mu ||R||_F^2
        gA    = 2A + 2 mu (R B* - B* R)
        gB    = 2B + 2 mu (A* R - R A*)

    Gradients follow the convention g_ij = d/dRe + i d/dIm, so they match
    central finite differences entrywise.  A and B are one (d, d) pair, or
    a stack of R pairs (R, d, d) with a scalar mu or one mu per slice; the
    value is then an array of R values.  The target is one (d, d) matrix.
    """
    a = np.ascontiguousarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    target = numkit.as_square(target)
    if a.ndim not in (2, 3) or a.shape != b.shape or a.shape[-2:] != target.shape:
        raise numkit.ShapeError(
            "A and B must share one (d, d) or (R, d, d) shape matching the target"
        )
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("A and B must be finite")
    mu = np.asarray(mu, dtype=np.float64)
    r, aa, bb, rr = _residual(a, b, target)
    value = aa + bb + mu * rr
    ga, gb = _gradient(a, b, r, mu)
    return ga, gb, float(value) if a.ndim == 2 else value


@dataclass
class MinimizeConfig:
    """Search configuration; the target must be square with trace ~ 0."""

    target: np.ndarray
    restarts: int = 50
    max_iters: int = 20000
    seed: int = 0
    dimension: int = field(init=False)

    def __post_init__(self):
        self.target = numkit.require_traceless(self.target)
        self.dimension = self.target.shape[0]
        if self.restarts < 1 or self.max_iters < 1:
            raise DomainError("restarts and max_iters must be positive")


@dataclass(frozen=True)
class RestartTrace:
    """One restart's outcome.

    ``stop_reason`` is the exit of its last descent stage (one of
    ``STOP_REASONS``).  ``converged`` means the balanced pair is feasible at
    ``FEASIBILITY_TOL`` and that stage ended on the gradient test or on
    stagnation, not on the iteration budget or a failed line search.
    """

    restart: int
    iterations: int
    feasibility: float
    objective: float
    stop_reason: str
    converged: bool


@dataclass
class MinimizeResult:
    """Best pair over all restarts plus the per-restart search trace.

    ``certified`` is True when the best pair reaches feasibility 1e-6; an
    infeasible search still reports its (normalized) best pair, flagged.
    """

    best_a: np.ndarray
    best_b: np.ndarray
    objective: float
    feasibility: float
    lower_bound: float
    certified: bool
    restarts: list[RestartTrace]


def _initial_pair(target, seed: int, restart: int, lb: float):
    """Restart ``restart``'s random start, scaled to the certificate ``lb``."""
    dim = target.shape[0]
    rng = np.random.default_rng([seed, restart])
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if lb > 0.0:
        return a * (lb / np.linalg.norm(a)), b * (lb / np.linalg.norm(b))
    return np.zeros_like(a), np.zeros_like(b)


def _descend(a, b, target, max_iters: int):
    """Penalty descent of a stack of restarts; returns (a, b, iters, reasons).

    Each restart runs stages of gradient descent at fixed mu, starting at
    ``MU_START`` and moving to 10 mu on its own when a stage ends, until a
    stage ends feasible at ``CONVERGENCE_FEAS`` on the gradient test, mu
    reaches ``MU_MAX`` or ``max_iters`` steps are spent.  A stage ends on
    the gradient test, after ``STAGNATION_ITERS`` steps without a new best
    value, when ``MAX_HALVINGS`` halvings find no Armijo decrease, or when
    the budget runs out.  The trial step is the Barzilai-Borwein quotient of
    the last accepted move and the Armijo reference is the largest of the
    last ``ARMIJO_MEMORY`` values (Grippo-Lampariello-Lucidi non-monotone
    search), which copes with the stiff curvature the penalty term develops
    as mu grows.

    Restarts carry R and its squared norms from the trial they accepted, and
    the state arrays hold only unfinished restarts, each copied out once when
    it stops.  The first Armijo trial covers every row (those whose stage
    ends are masked); each halving gathers the rows still rejected.
    """
    count = a.shape[0]
    out_a, out_b = np.empty_like(a), np.empty_like(b)
    out_iters, out_reasons = np.empty((2, count), dtype=np.int64)
    index = np.arange(count)
    r, aa, bb, rr = _residual(a, b, target)
    mu = np.full(count, MU_START)
    step = np.full(count, 1e-2)
    iters = np.zeros(count, dtype=np.int64)
    # Stage state.  has_prev is the last step's acceptance, so it is False
    # on a stage's first step (a stage ends on a step its restart did not
    # move, or stops it); prev_* are rebound, never written in place.  Each
    # step writes one row of fhist, so column i holds restart i's last
    # ARMIJO_MEMORY values in its stage, -inf where the stage has fewer.
    has_prev = np.zeros(count, dtype=bool)
    prev_a = prev_b = prev_ga = prev_gb = np.zeros_like(a)
    fhist, slot = np.full((ARMIJO_MEMORY, count), -np.inf), 0
    fbest = np.full(count, np.inf)
    since = np.zeros(count, dtype=np.int64)

    while index.size:
        f = aa + bb + mu * rr
        ga, gb = _gradient(a, b, r, mu)
        gsq = _inner(ga, ga) + _inner(gb, gb)
        flat = np.sqrt(gsq) <= CONVERGENCE_GTOL
        improved = f < fbest
        fbest = np.where(improved, f, fbest)
        since = np.where(improved, 0, since + 1)
        stalled = ~flat & (since >= STAGNATION_ITERS)
        moving = ~(flat | stalled)
        iters += moving

        da, db = a - prev_a, b - prev_b
        ss = _inner(da, da) + _inner(db, db)
        sy = _inner(da, ga - prev_ga) + _inner(db, gb - prev_gb)
        quotient = has_prev & moving & (sy > 0.0) & np.isfinite(sy)
        clipped = np.minimum(np.maximum(ss / np.where(quotient, sy, 1.0), 1e-14), 1e6)
        step = np.where(quotient, clipped, step)
        fhist[slot] = f
        slot = (slot + 1) % ARMIJO_MEMORY
        fref = fhist.max(axis=0)

        tt = step[:, None, None]
        xa, xb = a - tt * ga, b - tt * gb
        xr, xaa, xbb, xrr = _residual(xa, xb, target)
        accepted = moving & (xaa + xbb + mu * xrr <= fref - 1e-4 * step * gsq)
        t = step
        trial = np.flatnonzero(moving > accepted)
        if trial.size:
            t = step.copy()
            rows = [x[trial] for x in (a, b, ga, gb, mu, fref, gsq, step)]
            for _ in range(MAX_HALVINGS - 1):
                ra, rb, rga, rgb, rmu, rref, rgsq, rt = rows
                rt *= 0.5
                tt = rt[:, None, None]
                ya, yb = ra - tt * rga, rb - tt * rgb
                yr, yaa, ybb, yrr = _residual(ya, yb, target)
                ok = yaa + ybb + rmu * yrr <= rref - 1e-4 * rt * rgsq
                if ok.any():
                    hit = trial[ok]
                    accepted[hit], t[hit] = True, rt[ok]
                    xa[hit], xb[hit], xr[hit] = ya[ok], yb[ok], yr[ok]
                    xaa[hit], xbb[hit], xrr[hit] = yaa[ok], ybb[ok], yrr[ok]
                    if ok.all():
                        break
                    trial, rows = trial[~ok], [x[~ok] for x in rows]

        ended = ~accepted | (iters >= max_iters)
        ending = ended.any()
        if ending:
            # A restart that did not move keeps its point.
            for new, old in ((xa, a), (xb, b), (xr, r)):
                np.copyto(new, old, where=~accepted[:, None, None])
            for new, old in ((xaa, aa), (xbb, bb), (xrr, rr)):
                np.copyto(new, old, where=~accepted)
        prev_a, prev_b, prev_ga, prev_gb = a, b, ga, gb
        a, b, r, aa, bb, rr, step, has_prev = xa, xb, xr, xaa, xbb, xrr, t, accepted
        if not ending:
            continue

        solved = flat & (np.sqrt(rr) <= CONVERGENCE_FEAS)
        stop = ended & (solved | (mu >= MU_MAX) | (iters >= max_iters))
        nxt = ended & ~stop
        mu[nxt] *= 10.0
        step[nxt] = np.minimum(step[nxt], 0.1 / mu[nxt])
        fhist[:, nxt] = -np.inf
        fbest[nxt] = np.inf  # so the next step improves and zeroes ``since``
        if stop.any():
            done = index[stop]
            why = np.where(flat, _GTOL, np.where(stalled, _STAGNATION,
                                                 np.where(accepted, _BUDGET, _LINESEARCH)))
            out_a[done], out_b[done] = a[stop], b[stop]
            out_iters[done], out_reasons[done] = iters[stop], why[stop]
            keep = ~stop
            fhist = fhist[:, keep]
            (index, a, b, r, aa, bb, rr, mu, step, iters, has_prev,
             prev_a, prev_b, prev_ga, prev_gb, fbest, since) = (
                x[keep] for x in (index, a, b, r, aa, bb, rr, mu, step, iters, has_prev,
                                  prev_a, prev_b, prev_ga, prev_gb, fbest, since))
    return out_a, out_b, out_iters, out_reasons


def _balanced_trace(restart, a, b, target, iterations, reason):
    """Balance one pair and record its trace.

    Scalar balancing (A, B) -> (cA, B/c) keeps AB - BA and equalizes the
    two Hilbert-Schmidt norms.
    """
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na > 0.0 and nb > 0.0:
        c = math.sqrt(nb / na)
        a = c * a
        b = b / c
    feas = float(np.linalg.norm(a @ b - b @ a - target))
    stop_reason = STOP_REASONS[reason]
    trace = RestartTrace(
        restart=restart,
        iterations=int(iterations),
        feasibility=feas,
        objective=float(np.linalg.norm(a)),
        stop_reason=stop_reason,
        converged=feas <= FEASIBILITY_TOL and stop_reason in ("gtol", "stagnation"),
    )
    return trace, a, b


def minimize_commutator(config: MinimizeConfig) -> MinimizeResult:
    """Multi-restart penalty descent; returns the best feasible pair.

    Restarts are seeded per index and descend together as one stack; the
    merge keeps the smallest feasible objective, ties within 1e-12 going to
    the lowest restart index.  When no restart reaches feasibility 1e-6 the
    result is returned with ``certified=False`` instead of raising.
    """
    target = config.target
    lb = lower_bound_certificate(target)
    starts = [_initial_pair(target, config.seed, r, lb) for r in range(config.restarts)]
    a, b, iters, reasons = _descend(
        np.stack([s[0] for s in starts]), np.stack([s[1] for s in starts]),
        target, config.max_iters,
    )
    outcomes = [
        _balanced_trace(r, a[r], b[r], target, iters[r], reasons[r])
        for r in range(config.restarts)
    ]

    traces = [t for t, _, _ in outcomes]
    best = None
    for trace, a, b in outcomes:
        feasible = trace.feasibility <= FEASIBILITY_TOL
        if best is None:
            best = (feasible, trace, a, b)
            continue
        b_feasible, b_trace, _, _ = best
        if feasible != b_feasible:
            if feasible:
                best = (feasible, trace, a, b)
        elif trace.objective < b_trace.objective - OBJECTIVE_TIE:
            best = (feasible, trace, a, b)
    feasible, trace, a, b = best
    return MinimizeResult(
        best_a=a,
        best_b=b,
        objective=trace.objective,
        feasibility=trace.feasibility,
        lower_bound=lb,
        certified=bool(feasible),
        restarts=traces,
    )


def certify(config: MinimizeConfig) -> SolveReport:
    """The ``minimize`` certificate: rows for the best pair's feasibility, its
    objective, the lower bound and whether a certified objective respects it;
    the pair as ``best_a``/``best_b``, the restart traces as table
    ``restarts``, and a NumericError ``failure`` when no restart is feasible.
    """
    result = minimize_commutator(config)
    rep = SolveReport(command="minimize")
    rep.check("feasibility", result.feasibility, FEASIBILITY_TOL)
    rep.info("objective", result.objective)
    rep.info("lower_bound", result.lower_bound)
    rep.check("objective_above_bound",
              max(0.0, result.lower_bound - result.objective), 1e-6,
              passed=(not result.certified)
              or result.objective >= result.lower_bound - 1e-6)
    rep.matrices.update(best_a=result.best_a, best_b=result.best_b)
    rep.tables["restarts"] = (
        ("restart", "iters", "feasibility", "objective", "stop_reason", "converged"),
        [(t.restart, t.iterations, t.feasibility, t.objective, t.stop_reason,
          int(t.converged)) for t in result.restarts])
    if not result.certified:
        rep.failure = NumericError(
            f"no restart reached feasibility {FEASIBILITY_TOL:g}; "
            f"best non-certified objective {result.objective:.6g}"
        )
    return rep


def verify_optimal_pair() -> SolveReport:
    """Certify the hard-coded optimal pair for diag(-1, 1/3, 1/3, 1/3).

    Asserts the commutator identity and both norms sqrt(4/3) at 1e-15, and
    that the e_1-fixing staircase basis change annihilates the expected
    corner entries of A.  Failures raise VerificationError: they can only
    mean the constants were transcribed wrong.
    """
    rep = SolveReport(command="verify-optimal-pair")
    comm = numkit.commutator(OPTIMAL_A, OPTIMAL_B)
    rep.check("commutator_max_error", float(np.abs(comm - OPTIMAL_TARGET).max()), 1e-15)
    root43 = math.sqrt(4.0 / 3.0)
    rep.check("a_norm_error", abs(numkit.hs_norm(OPTIMAL_A) - root43), 1e-15)
    rep.check("b_norm_error", abs(numkit.hs_norm(OPTIMAL_B) - root43), 1e-15)

    form = staircase.staircase_form([OPTIMAL_A], selfadjoint_hint=False)
    t = form.transformed[0]
    # Zero pattern of the banded form: row 1 stops at column 3 and column 1
    # stops at row 2.
    pattern_mass = float(max(abs(t[0, 3]), abs(t[2, 0]), abs(t[3, 0])))
    rep.check("staircase_zero_pattern", pattern_mass, 1e-12)
    rep.check(
        "diagonal_preserved",
        0.0 if staircase.diagonal_invariance_check(OPTIMAL_TARGET, form.unitary, 1e-10)
        else 1.0,
        0.5,
    )
    if not rep.passed:
        raise VerificationError("optimal-pair constants failed verification")
    return rep
