"""Numerical infimum search over masked factorizations.

Evidence generator for closure membership: small best distance with
exploding factor norms is the signature of a target in the closure of the
factorization set but not in the set itself.

The search is multi-start alternating least squares with an entrywise
geometric extrapolation accelerator.  Plain descent crawls along the
divergent valleys these problems live on (each entry follows a power law in
the valley parameter, so straight extrapolation keeps falling off); in
log-magnitude space the valley is straight, and squaring the per-entry step
ratios while the objective improves tracks it at geometric speed.

A restart that ends with bounded factors short of its budget is finished by a
Levenberg-damped Gauss-Newton polish.  Near an attained optimum the polish
converges fast; in a divergent valley it only creeps, so it ends on the rule
that ends the descent: _STALL_ROUNDS consecutive rounds that fail to cut the
distance by _STALL_RTOL.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .patterns import SparseFactors, SupportPattern, _integer, chain_product

_NORM_GUARD = 1e13  # beyond this, least squares conditioning is gone
_STALL_ROUNDS = 12
_STALL_RTOL = 1e-2

# The polish solves an (N_L*N_0 + M) x M float64 system over the M mask
# entries.  At once it holds the M x M identity, its damped copy, the
# (N_L*N_0) x M Jacobian, the stacked system and lstsq's copy of it: at most
# 3*N_L*N_0*M + 4*M^2 floats, more than any other step of a search.  A search
# whose polish would pass this many bytes (the budget of
# experiments.RESIDENT_BYTES_CAP) is refused before anything is allocated.
SYSTEM_BYTES_CAP = 2**30


@dataclass(frozen=True)
class SearchStats:
    """What one search did.  An alternating-least-squares pass is counted as
    a sweep, or, when it refines an extrapolated point, as an accepted or
    rejected extrapolation; polish evaluations count the trial steps of every
    polish, and stall stops the polishes ended by the stall rule."""

    restarts: int
    sweeps: int
    extrapolations_accepted: int
    extrapolations_rejected: int
    polish_calls: int
    polish_evaluations: int
    polish_stall_stops: int


@dataclass(frozen=True)
class InfimumResult:
    distance: float
    factors: SparseFactors
    max_factor_norm: float
    stats: SearchStats


def infimum_oracle(
    target,
    pattern: SupportPattern,
    budget: int,
    seed: int = 0,
    restarts: int = 8,
) -> InfimumResult:
    """Best Frobenius distance from target to the pattern's product set.

    budget counts individual factor updates (one masked least-squares solve
    each) across all restarts.  Each restart gets budget // restarts of them,
    rounded up to one sweep (depth updates), so budget=1 on a depth-2 pattern
    still runs restarts x 2 updates.  A restart also ends early on the stall
    rule (_STALL_ROUNDS rounds that fail to cut the distance by _STALL_RTOL),
    so the budget is an upper bound: on a divergent valley a few thousand
    updates are usually all a restart spends.  budget, restarts and seed
    must be integers (numpy integers included; a bool or a float is
    refused with a ValueError naming the argument).  Returns the best
    factors found and the largest single-factor Frobenius norm seen along
    the accepted iterates, which is the quantity that diverges when the
    infimum is unattained.
    Patterns whose polish would hold more than SYSTEM_BYTES_CAP bytes are refused.
    """
    A = np.asarray(target, dtype=float)
    if A.shape != (pattern.output_dim, pattern.input_dim):
        raise ValueError(
            f"target shape {A.shape} does not match pattern "
            f"({pattern.output_dim}, {pattern.input_dim})"
        )
    with np.errstate(over="ignore"):  # inf or nan entries, or squares past the float range
        if not np.isfinite(np.sum(A * A)):
            raise ValueError("target must be finite, and so must its squared Frobenius norm")
    budget = _integer(budget, "budget")
    restarts = _integer(restarts, "restarts")
    seed = _integer(seed, "seed")
    if budget < 1:
        raise ValueError("budget must be a positive iteration count")
    if restarts < 1:
        raise ValueError("need at least one restart")
    entries = sum(pattern.mask_sizes())
    polish_bytes = 8 * (3 * A.size + 4 * entries) * entries
    if polish_bytes > SYSTEM_BYTES_CAP:
        raise ValueError(f"a search over {entries} mask entries would hold "
                         f"{polish_bytes} bytes in its polish, cap is {SYSTEM_BYTES_CAP}")

    masks = pattern.mask_arrays
    plan = _plan(masks, A.shape)
    per_restart = max(budget // restarts, pattern.depth)

    best_dist = np.inf
    best_factors = None
    max_norm = 0.0
    counts = Counter()

    for r in range(restarts):
        counts["restarts"] += 1
        rng = np.random.default_rng([seed, r])
        xs = [rng.uniform(-1.0, 1.0, size=m.shape) * m for m in masks]
        dist, xs, seen, used = _descend(A, xs, plan, per_restart, counts)
        max_norm = max(max_norm, seen)
        if used < per_restart and 1e-13 < dist and _max_norm(xs) < 1e6:
            # alternating updates have a sublinear tail near attained optima;
            # a Gauss-Newton polish finishes the job there
            dist, xs = _polish(A, xs, plan, per_restart - used, counts)
            max_norm = max(max_norm, _max_norm(xs))
        if dist < best_dist:
            best_dist = dist
            best_factors = [x.copy() for x in xs]
        if best_dist < 1e-13:
            break

    return InfimumResult(
        distance=float(best_dist),
        factors=SparseFactors(pattern=pattern, factors=tuple(best_factors)),
        max_factor_norm=float(max_norm),
        stats=SearchStats(**{f.name: counts[f.name] for f in fields(SearchStats)}),
    )


class _Entry(NamedTuple):
    """What the search needs of one factor, built once per search: its mask
    entries (as rows and cols, and as flat indices into the raveled factor),
    the identities that close the products on either side of it, and the
    sides of its design block that no factor changes (the left side of the
    last factor, the right side of the first), else None."""

    rows: np.ndarray
    cols: np.ndarray
    flat: np.ndarray
    eye_out: np.ndarray
    eye_in: np.ndarray
    left: np.ndarray | None
    right: np.ndarray | None


def _plan(masks, shape):
    eye_out, eye_in = np.eye(shape[0]), np.eye(shape[1])
    plan = []
    for i, mask in enumerate(masks):
        rows, cols = np.nonzero(mask)
        flat = np.flatnonzero(mask)
        entry = _Entry(rows, cols, flat, eye_out, eye_in, None, None)
        plan.append(entry._replace(
            left=_left(entry, []) if i == len(masks) - 1 else None,
            right=_right(entry, []) if i == 0 else None,
        ))
    return plan


def _norm(x) -> float:
    """np.linalg.norm(x) for ord=None, bit for bit, without its dispatch."""
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _distance(A, xs) -> float:
    return _norm(A - chain_product(xs))


def _max_norm(xs) -> float:
    return max(_norm(x) for x in xs)


def _left(entry, after):
    # the product of the factors after factor i (the identity when none),
    # at the factor's mask rows
    return chain_product([*after, entry.eye_out])[:, entry.rows][:, None, :]


def _right(entry, before):
    # the product of the factors before factor i (the identity when none),
    # at the factor's mask columns
    return chain_product([entry.eye_in, *before])[entry.cols, :].T[None, :, :]


def _design(xs, i, entry, shape):
    """Coefficients of the masked entries X_i[rows, cols] in the product, as
    an (entries of the product, len(rows)) block: the product is linear in X_i.
    The coefficient of X_i[r, c] in entry (p, q) is left[p, r] * right[c, q]."""
    left = _left(entry, xs[i + 1 :]) if entry.left is None else entry.left
    right = _right(entry, xs[:i]) if entry.right is None else entry.right
    return (left * right).reshape(shape[0] * shape[1], len(entry.rows))


def _sweep(A, xs, plan):
    """One pass of masked least-squares updates, first factor to last.  The
    first update reads the other factors and only the shape of xs[0]."""
    xs = list(xs)
    b = A.reshape(-1)
    for i, entry in enumerate(plan):
        if len(entry.rows) == 0:
            continue
        sol, *_ = np.linalg.lstsq(_design(xs, i, entry, A.shape), b, rcond=None)
        x = np.zeros(xs[i].size)
        x[entry.flat] = sol
        xs[i] = x.reshape(xs[i].shape)
    return xs


def _log_ratio(x, xp):
    """log of |x / xp| clipped to [0.1, 10], 0 where |xp| <= 1e-300 or the
    ratio is NaN."""
    r = np.ones(x.shape)
    # an overflowing ratio is clipped to 10 below, and a NaN one set to 1
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(x, xp, out=r, where=np.abs(xp) > 1e-300)
    np.abs(r, out=r)
    r[np.isnan(r)] = 1.0
    np.maximum(r, 0.1, out=r)
    np.minimum(r, 10.0, out=r)
    return np.log(r, out=r)


def _clipped_exp(step):
    """exp(np.clip(step, -700, 700)), bit for bit, in step's own buffer."""
    np.maximum(step, -700.0, out=step)
    np.minimum(step, 700.0, out=step)
    return np.exp(step, out=step)


def _descend(A, xs, plan, budget, counts):
    depth = len(xs)
    used = 0
    dist = _distance(A, xs)
    seen = _max_norm(xs)
    stall = 0
    last_best = dist
    while used + depth <= budget:
        prev = xs
        xs = _sweep(A, xs, plan)
        used += depth
        counts["sweeps"] += 1
        dist = _distance(A, xs)
        seen = max(seen, _max_norm(xs))

        # the sweep solves the first factor from the others and reads only
        # its shape, so the extrapolation moves factors 1..L-1 and passes
        # the first through
        log_ratios = [_log_ratio(x, xp) for x, xp in zip(xs[1:], prev[1:])]
        power = 1.0
        while used + depth <= budget:
            # a step that overflows is rejected by the finiteness test below
            with np.errstate(over="ignore"):
                cand = [xs[0], *(x * _clipped_exp(lr * power) for x, lr in zip(xs[1:], log_ratios))]
            cand = _sweep(A, cand, plan)
            used += depth
            cand_dist = _distance(A, cand)
            if np.isfinite(cand_dist) and cand_dist < dist and (cand_norm := _max_norm(cand)) < _NORM_GUARD:
                counts["extrapolations_accepted"] += 1
                xs, dist = cand, cand_dist
                seen = max(seen, cand_norm)
                power *= 2.0
            else:
                counts["extrapolations_rejected"] += 1
                break
        if dist < 1e-14:
            break
        last_best, stall = _stall(dist, last_best, stall)
        if stall >= _STALL_ROUNDS:
            break
    return dist, xs, seen, used


def _polish(A, xs, plan, budget, counts):
    """Levenberg-damped Gauss-Newton over the masked entries, warm-started.

    A step is kept only when it lowers the distance (the damping then falls
    threefold, else it doubles), so the point returned is the best one
    evaluated.  Runs at most max(budget // depth, 2) steps, and stops early
    below 1e-14 or on the descent's stall rule."""
    if not any(len(entry.rows) for entry in plan):
        return _distance(A, xs), xs
    counts["polish_calls"] += 1
    resid = (A - chain_product(xs)).ravel()
    dist = _norm(resid)
    n = sum(len(entry.rows) for entry in plan)
    eye = np.eye(n)
    zeros = np.zeros(n)
    last_best, stall, damping = dist, 0, 1e-3
    for _ in range(max(budget // len(xs), 2)):
        jac = np.hstack([_design(xs, i, entry, A.shape) for i, entry in enumerate(plan)])
        step, *_ = np.linalg.lstsq(
            np.vstack([jac, np.sqrt(damping) * eye]),
            np.concatenate([resid, zeros]),
            rcond=None,
        )
        cand = [x.copy() for x in xs]
        start = 0
        for x, entry in zip(cand, plan):
            x[entry.rows, entry.cols] += step[start : start + len(entry.rows)]
            start += len(entry.rows)
        counts["polish_evaluations"] += 1
        cand_resid = (A - chain_product(cand)).ravel()
        cand_dist = _norm(cand_resid)
        if cand_dist < dist:
            xs, resid, dist, damping = cand, cand_resid, cand_dist, damping / 3.0
        else:
            damping *= 2.0
        if dist < 1e-14:
            break
        last_best, stall = _stall(dist, last_best, stall)
        if stall >= _STALL_ROUNDS:
            counts["polish_stall_stops"] += 1
            break
    return dist, xs


def _stall(dist, last_best, stall):
    """The stall rule of the descent and the polish: a round that fails to cut
    last_best by _STALL_RTOL adds one to stall, any other resets it.  Returns
    the new (last_best, stall); the caller stops once stall reaches
    _STALL_ROUNDS."""
    if dist > last_best * (1.0 - _STALL_RTOL):
        return last_best, stall + 1
    return dist, 0
