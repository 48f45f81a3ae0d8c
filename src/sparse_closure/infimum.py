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
Gauss-Newton polish.  Near an attained optimum the polish converges fast; in a
divergent valley it only creeps, so it stops once _STALL_ROUNDS consecutive
residual evaluations fail to cut the distance by _STALL_RTOL (the rule that
ends the descent) and keeps the best point it evaluated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .patterns import SparseFactors, SupportPattern, chain_product

_NORM_GUARD = 1e13  # beyond this, least squares conditioning is gone
_STALL_ROUNDS = 12
_STALL_RTOL = 1e-2


@dataclass(frozen=True)
class SearchStats:
    """What one search did.  An alternating-least-squares pass is counted as
    a sweep, or, when it refines an extrapolated point, as an accepted or
    rejected extrapolation; polish evaluations count the residual evaluations
    of every polish, and stall stops the polishes ended by the stall rule."""

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


class _Stalled(Exception):
    """Raised from inside the polish's residual once the distance stalls."""


def infimum_oracle(
    target,
    pattern: SupportPattern,
    budget: int,
    seed: int = 0,
    restarts: int = 8,
) -> InfimumResult:
    """Best Frobenius distance from target to the pattern's product set.

    budget counts individual factor updates (one masked least-squares solve
    each) across all restarts.  Returns the best factors found and the
    largest single-factor Frobenius norm seen along the accepted iterates,
    which is the quantity that diverges when the infimum is unattained.
    """
    A = np.asarray(target, dtype=float)
    if A.shape != (pattern.output_dim, pattern.input_dim):
        raise ValueError(
            f"target shape {A.shape} does not match pattern "
            f"({pattern.output_dim}, {pattern.input_dim})"
        )
    if not np.all(np.isfinite(A)):
        raise ValueError("target must be finite")
    if budget < 1:
        raise ValueError("budget must be a positive iteration count")
    if restarts < 1:
        raise ValueError("need at least one restart")

    masks = [pattern.mask_array(i) for i in range(pattern.depth)]
    mask_entries = [np.nonzero(m) for m in masks]
    per_restart = max(budget // restarts, pattern.depth)

    best_dist = np.inf
    best_factors = None
    max_norm = 0.0
    counts = Counter()

    for r in range(restarts):
        counts["restarts"] += 1
        rng = np.random.default_rng([seed, r])
        xs = [rng.uniform(-1.0, 1.0, size=m.shape) * m for m in masks]
        dist, xs, seen, used = _descend(A, xs, masks, mask_entries, per_restart, counts)
        max_norm = max(max_norm, seen)
        if used < per_restart and 1e-13 < dist and _max_norm(xs) < 1e6:
            # alternating updates have a sublinear tail near attained optima;
            # a Gauss-Newton polish finishes the job there
            dist, xs = _polish(A, xs, mask_entries, per_restart - used, counts)
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


def _distance(A, xs) -> float:
    return float(np.linalg.norm(A - chain_product(xs)))


def _max_norm(xs) -> float:
    return max(float(np.linalg.norm(x)) for x in xs)


def _design(xs, i, rows, cols, shape):
    """Coefficients of the masked entries X_i[rows, cols] in the product, as
    an (entries of the product, len(rows)) block: the product is linear in X_i."""
    # products around factor i (identity when empty)
    left = chain_product([*xs[i + 1 :], np.eye(shape[0])])
    right = chain_product([np.eye(shape[1]), *xs[:i]])
    # coefficient of X_i[r, c] in entry (p, q) is left[p, r] * right[c, q]
    return (left[:, rows][:, None, :] * right[cols, :].T[None, :, :]).reshape(
        shape[0] * shape[1], len(rows)
    )


def _sweep(A, xs, mask_entries):
    """One pass of masked least-squares updates, first factor to last."""
    xs = list(xs)
    for i, (rows, cols) in enumerate(mask_entries):
        if len(rows) == 0:
            continue
        sol, *_ = np.linalg.lstsq(_design(xs, i, rows, cols, A.shape), A.reshape(-1), rcond=None)
        xs[i] = np.zeros_like(xs[i])
        xs[i][rows, cols] = sol
    return xs


def _descend(A, xs, masks, mask_entries, budget, counts):
    depth = len(xs)
    used = 0
    dist = _distance(A, xs)
    seen = _max_norm(xs)
    stall = 0
    last_best = dist
    while used + depth <= budget:
        prev = xs
        xs = _sweep(A, xs, mask_entries)
        used += depth
        counts["sweeps"] += 1
        dist = _distance(A, xs)
        seen = max(seen, _max_norm(xs))

        log_ratios = []
        for x, xp in zip(xs, prev):
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.abs(x / np.where(xp == 0.0, 1.0, xp))
            r = np.where(np.abs(xp) > 1e-300, r, 1.0)
            r = np.nan_to_num(r, nan=1.0, posinf=10.0, neginf=1.0)
            log_ratios.append(np.log(np.clip(r, 0.1, 10.0)))
        power = 1.0
        while used + depth <= budget:
            # a step that overflows is rejected by the finiteness test below
            with np.errstate(over="ignore"):
                cand = [
                    (x * np.exp(np.clip(lr * power, -700.0, 700.0))) * m
                    for x, lr, m in zip(xs, log_ratios, masks)
                ]
            cand = _sweep(A, cand, mask_entries)
            used += depth
            cand_dist = _distance(A, cand)
            if np.isfinite(cand_dist) and cand_dist < dist and _max_norm(cand) < _NORM_GUARD:
                counts["extrapolations_accepted"] += 1
                xs, dist = cand, cand_dist
                seen = max(seen, _max_norm(xs))
                power *= 2.0
            else:
                counts["extrapolations_rejected"] += 1
                break
        if dist < 1e-14:
            break
        if dist > last_best * (1.0 - _STALL_RTOL):
            stall += 1
            if stall >= _STALL_ROUNDS:
                break
        else:
            stall = 0
            last_best = dist
    return dist, xs, seen, used


def _polish(A, xs, mask_entries, budget, counts):
    """Trust-region least squares over the masked entries, warm-started.

    Stops early, with the best point evaluated, when the distance stalls."""
    from scipy.optimize import least_squares

    depth = len(xs)
    sizes = [len(rows) for rows, _ in mask_entries]
    offsets = np.cumsum([0] + sizes)

    def unpack(vec):
        out = []
        for i, x in enumerate(xs):
            xi = np.zeros_like(x)
            rows, cols = mask_entries[i]
            xi[rows, cols] = vec[offsets[i] : offsets[i + 1]]
            out.append(xi)
        return out

    best_dist, best_vec = np.inf, None
    stall, last_best = 0, np.inf

    def residual(vec):
        nonlocal best_dist, best_vec, stall, last_best
        res = (chain_product(unpack(vec)) - A).ravel()
        counts["polish_evaluations"] += 1
        dist = float(np.linalg.norm(res))
        if dist < best_dist:
            best_dist, best_vec = dist, vec.copy()
        if dist < last_best * (1.0 - _STALL_RTOL):
            stall, last_best = 0, dist
        else:
            stall += 1
            if stall >= _STALL_ROUNDS:
                raise _Stalled
        return res

    def jacobian(vec):
        fs = unpack(vec)
        return np.hstack(
            [_design(fs, i, rows, cols, A.shape) for i, (rows, cols) in enumerate(mask_entries)]
        )

    if offsets[-1] == 0:
        return _distance(A, xs), xs
    counts["polish_calls"] += 1
    x0 = np.concatenate([x[rows, cols] for x, (rows, cols) in zip(xs, mask_entries)])
    try:
        fit = least_squares(
            residual,
            x0,
            jac=jacobian,
            method="trf",
            max_nfev=max(budget // depth, 2),
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
    except _Stalled:
        counts["polish_stall_stops"] += 1
        return best_dist, unpack(best_vec)
    return float(np.linalg.norm(fit.fun)), unpack(fit.x)
