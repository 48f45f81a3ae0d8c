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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import SparseFactors, SupportPattern, chain_product

_NORM_GUARD = 1e13  # beyond this, least squares conditioning is gone
_STALL_ROUNDS = 12
_STALL_RTOL = 1e-2


@dataclass(frozen=True)
class InfimumResult:
    distance: float
    factors: SparseFactors
    max_factor_norm: float


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

    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        xs = [rng.uniform(-1.0, 1.0, size=m.shape) * m for m in masks]
        dist, xs, seen, used = _descend(A, xs, masks, mask_entries, per_restart)
        max_norm = max(max_norm, seen)
        if used < per_restart and 1e-13 < dist and _max_norm(xs) < 1e6:
            # alternating updates have a sublinear tail near attained optima;
            # a Gauss-Newton polish finishes the job there
            dist, xs = _polish(A, xs, mask_entries, per_restart - used)
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


def _descend(A, xs, masks, mask_entries, budget):
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
            cand = [
                (x * np.exp(np.clip(lr * power, -700.0, 700.0))) * m
                for x, lr, m in zip(xs, log_ratios, masks)
            ]
            cand = _sweep(A, cand, mask_entries)
            used += depth
            cand_dist = _distance(A, cand)
            if np.isfinite(cand_dist) and cand_dist < dist and _max_norm(cand) < _NORM_GUARD:
                xs, dist = cand, cand_dist
                seen = max(seen, _max_norm(xs))
                power *= 2.0
            else:
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


def _polish(A, xs, mask_entries, budget):
    """Trust-region least squares over the masked entries, warm-started."""
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

    def residual(vec):
        return (chain_product(unpack(vec)) - A).ravel()

    def jacobian(vec):
        fs = unpack(vec)
        return np.hstack(
            [_design(fs, i, rows, cols, A.shape) for i, (rows, cols) in enumerate(mask_entries)]
        )

    if offsets[-1] == 0:
        return _distance(A, xs), xs
    x0 = np.concatenate([x[rows, cols] for x, (rows, cols) in zip(xs, mask_entries)])
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
    best = unpack(fit.x)
    return float(np.linalg.norm(residual(fit.x))), best
