"""Scalar reference for the stacked restart descent in ``commlab.minimize``.

One restart at a time, in plain Python loops over 2-d numpy calls: the
penalty-descent stages, Barzilai-Borwein steps and non-monotone Armijo
backtracking that ``minimize._descend`` runs over a stack of restarts.  The
stacked descent reduces norms in another order, so the two agree to a
tolerance, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from commlab import minimize


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
