"""References for the stacked restart descent in ``commlab.minimize``.

``run_restart`` takes one restart at a time, in plain Python loops over 2-d
numpy calls: the penalty-descent stages, Barzilai-Borwein steps and
non-monotone Armijo backtracking that ``minimize._descend`` runs over a
stack of restarts.  The stacked descent reduces norms in another order, so
the two agree to a tolerance, not bit for bit.

``stacked_descend`` is the stacked descent in its plain form, which
``minimize._descend`` must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from commlab import minimize
from commlab.minimize import (
    ARMIJO_MEMORY,
    CONVERGENCE_FEAS,
    CONVERGENCE_GTOL,
    MAX_HALVINGS,
    MU_MAX,
    MU_START,
    STAGNATION_ITERS,
    STOP_REASONS,
)

_GTOL, _STAGNATION, _LINESEARCH, _BUDGET = range(len(STOP_REASONS))


def _value(a, b, target, mu):
    r = a @ b - b @ a - target
    return (
        float(np.linalg.norm(a)) ** 2
        + float(np.linalg.norm(b)) ** 2
        + mu * float(np.linalg.norm(r)) ** 2
    )


def _descend(a, b, target, mu, budget, gtol, step):
    """One stage at fixed mu; returns (a, b, used, gnorm, step, exit)."""
    used = 0
    gnorm = math.inf
    prev: tuple | None = None
    fhist: list[float] = []
    fbest = math.inf
    since_improved = 0
    while used < budget:
        ga, gb, f = minimize.penalty_gradient(a, b, target, mu)
        gsq = float(np.linalg.norm(ga)) ** 2 + float(np.linalg.norm(gb)) ** 2
        gnorm = math.sqrt(gsq)
        if gnorm <= gtol:
            return a, b, used, gnorm, step, "gtol"
        if f < fbest:
            fbest = f
            since_improved = 0
        else:
            since_improved += 1
            if since_improved >= minimize.STAGNATION_ITERS:
                return a, b, used, gnorm, step, "stagnation"
        used += 1
        if prev is not None:
            pa, pb, pga, pgb = prev
            dga, dgb = ga - pga, gb - pgb
            da, db = a - pa, b - pb
            ss = float(np.vdot(da, da).real + np.vdot(db, db).real)
            sy = float(np.vdot(da, dga).real + np.vdot(db, dgb).real)
            if sy > 0.0 and math.isfinite(sy):
                step = min(max(ss / sy, 1e-14), 1e6)
        fhist.append(f)
        if len(fhist) > minimize.ARMIJO_MEMORY:
            fhist.pop(0)
        fref = max(fhist)
        t = step
        accepted = False
        for _ in range(minimize.MAX_HALVINGS):
            fa = _value(a - t * ga, b - t * gb, target, mu)
            if fa <= fref - 1e-4 * t * gsq:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return a, b, used, gnorm, step, "linesearch"
        prev = (a, b, ga, gb)
        a = a - t * ga
        b = b - t * gb
        step = t
    return a, b, used, gnorm, step, "budget"


def run_restart(target, seed: int, restart: int, max_iters: int):
    """Restart ``restart`` on its own: (trace, balanced a, balanced b)."""
    lb = minimize.lower_bound_certificate(target)
    a, b = minimize._initial_pair(target, seed, restart, lb)
    mu = minimize.MU_START
    iters = 0
    step = 1e-2
    reason = "budget"
    while iters < max_iters:
        a, b, used, gnorm, step, reason = _descend(
            a, b, target, mu, max_iters - iters, minimize.CONVERGENCE_GTOL, step
        )
        iters += used
        feas = float(np.linalg.norm(a @ b - b @ a - target))
        if feas <= minimize.CONVERGENCE_FEAS and gnorm <= minimize.CONVERGENCE_GTOL:
            break
        if mu >= minimize.MU_MAX:
            break
        mu *= 10.0
        step = min(step, 0.1 / mu)

    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if na > 0.0 and nb > 0.0:
        c = math.sqrt(nb / na)
        a = c * a
        b = b / c
    feas = float(np.linalg.norm(a @ b - b @ a - target))
    trace = minimize.RestartTrace(
        restart=restart,
        iterations=iters,
        feasibility=feas,
        objective=float(np.linalg.norm(a)),
        stop_reason=reason,
        converged=(feas <= minimize.FEASIBILITY_TOL
                   and reason in ("gtol", "stagnation")),
    )
    return trace, a, b


def _inner(x, y) -> np.ndarray:
    """Re <x, y> over the last two axes, summed in the order ``minimize`` sums it."""
    return np.add.reduce(x.view(np.float64) * y.view(np.float64), axis=(-2, -1))


def _stacked_value(a, b, target, mu) -> np.ndarray:
    """Penalty values of a stack of pairs, as ``minimize.penalty_gradient`` computes them."""
    r = a @ b - b @ a - target
    return _inner(a, a) + _inner(b, b) + mu * _inner(r, r)


def stacked_descend(a, b, target, max_iters: int):
    """Penalty descent of a stack of restarts; returns (a, b, iters, reasons).

    The stacked descent with nothing carried between steps: each step
    gathers the active restarts, recomputes their residuals and norms
    through ``minimize.penalty_gradient``, and each backtracking round and
    the stage-end feasibility test evaluate fresh products.  Finished restarts
    drop out of the active index set, and each backtracking round evaluates
    only the restarts still searching.  ``minimize._descend`` must agree
    with it bit for bit.
    """
    a, b = a.copy(), b.copy()
    count = a.shape[0]
    mu = np.full(count, MU_START)
    step = np.full(count, 1e-2)
    iters = np.zeros(count, dtype=np.int64)
    reasons = np.zeros(count, dtype=np.int64)
    done = np.zeros(count, dtype=bool)
    # Stage state, reset when a restart moves to the next mu: the previous
    # accepted point and gradient (for the BB quotient), the Armijo memory
    # and the stagnation counter.
    has_prev = np.zeros(count, dtype=bool)
    prev_a, prev_b = np.zeros_like(a), np.zeros_like(b)
    prev_ga, prev_gb = np.zeros_like(a), np.zeros_like(b)
    fhist = np.full((count, ARMIJO_MEMORY), -np.inf)
    nhist = np.zeros(count, dtype=np.int64)
    fbest = np.full(count, np.inf)
    since = np.zeros(count, dtype=np.int64)

    active = np.arange(count)
    while active.size:
        ga, gb, f = minimize.penalty_gradient(a[active], b[active], target, mu[active])
        gsq = _inner(ga, ga) + _inner(gb, gb)
        flat = np.sqrt(gsq) <= CONVERGENCE_GTOL
        improved = f < fbest[active]
        fbest[active] = np.where(improved, f, fbest[active])
        since[active] = np.where(improved, 0, since[active] + 1)
        stalled = ~flat & (since[active] >= STAGNATION_ITERS)
        ended = [(active[flat], _GTOL), (active[stalled], _STAGNATION)]
        moving = ~(flat | stalled)
        run = active[moving]
        ra, rb = a[run], b[run]
        ga, gb, f, gsq = ga[moving], gb[moving], f[moving], gsq[moving]
        iters[run] += 1

        bb = np.flatnonzero(has_prev[run])
        if bb.size:
            rows = run[bb]
            da, db = ra[bb] - prev_a[rows], rb[bb] - prev_b[rows]
            ss = _inner(da, da) + _inner(db, db)
            sy = _inner(da, ga[bb] - prev_ga[rows]) + _inner(db, gb[bb] - prev_gb[rows])
            ok = (sy > 0.0) & np.isfinite(sy)
            step[rows[ok]] = np.clip(ss[ok] / sy[ok], 1e-14, 1e6)
        fhist[run, nhist[run] % ARMIJO_MEMORY] = f
        nhist[run] += 1
        fref = fhist[run].max(axis=1)

        t = step[run]
        muv = mu[run]
        accepted = np.zeros(run.size, dtype=bool)
        trial = np.arange(run.size)
        for _ in range(MAX_HALVINGS):
            tt = t[trial, None, None]
            fa = _stacked_value(ra[trial] - tt * ga[trial], rb[trial] - tt * gb[trial],
                                target, muv[trial])
            ok = fa <= fref[trial] - 1e-4 * t[trial] * gsq[trial]
            accepted[trial[ok]] = True
            trial = trial[~ok]
            if not trial.size:
                break
            t[trial] *= 0.5
        ended.append((run[~accepted], _LINESEARCH))

        moved = run[accepted]
        ra, rb, ga, gb = ra[accepted], rb[accepted], ga[accepted], gb[accepted]
        prev_a[moved], prev_b[moved] = ra, rb
        prev_ga[moved], prev_gb[moved] = ga, gb
        has_prev[moved] = True
        t = t[accepted]
        a[moved] = ra - t[:, None, None] * ga
        b[moved] = rb - t[:, None, None] * gb
        step[moved] = t
        ended.append((moved[iters[moved] >= max_iters], _BUDGET))

        rows = np.concatenate([r for r, _ in ended])
        if rows.size:
            why = np.concatenate([np.full(r.size, code) for r, code in ended])
            reasons[rows] = why
            ea, eb = a[rows], b[rows]
            res = ea @ eb - eb @ ea - target
            solved = (why == _GTOL) & (np.sqrt(_inner(res, res)) <= CONVERGENCE_FEAS)
            stop = solved | (mu[rows] >= MU_MAX) | (iters[rows] >= max_iters)
            done[rows[stop]] = True
            nxt = rows[~stop]
            mu[nxt] *= 10.0
            step[nxt] = np.minimum(step[nxt], 0.1 / mu[nxt])
            has_prev[nxt] = False
            fhist[nxt] = -np.inf
            nhist[nxt] = 0
            fbest[nxt] = np.inf
            since[nxt] = 0
        active = np.flatnonzero(~done)
    return a, b, iters, reasons
