"""Seeded job lists for the three workloads, and the output check of each job.

A workload is an endless sequence of rounds; round r of seed s is built from
`numpy.random.default_rng([s, r])` alone, so the same seed gives the same
inputs.  Every round has the same composition, which keeps the mix of job
kinds fixed however many rounds a run completes.

Checks test only what theory fixes, independently of the layer being timed:
a failed check raises `CheckFailed`.  A projection refused at the row cap
(exit 5) is a documented outcome, checked like any other and reported as
`"refused"`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from sparse_closure import cli

WORKLOADS = ("certify", "train", "exact")

# Search seeds of the lu(d) gap jobs.  The gap targets are fixed by theory
# (the anti-diagonal witness is the only one), and search time is heavy-tailed
# in the search seed (lu(2), seeds 0-3: 3.3 / 0.9 / 0.09 / 2.5 s), so every
# round runs the same panel: each run pays the whole tail instead of a
# seed-dependent sample of it.
GAP_PANEL = (0, 1, 2, 3)
ENUM_HIDDEN = range(8, 14)  # 255 .. 8191 Theorem-5 subsets
FIT_BUDGET = 2_000
TRAIN_EPOCHS = 2
# Seeded projection systems: (variables, rows, nonzeros per row) ranges.
# Fourier-Motzkin cost is heavy-tailed in the input: over 60 random systems
# of 5-6 variables and 10-20 rows it had a coefficient of variation of 1.0
# and a maximum of 8x the median, which made the throughput of a 35 s run
# depend on the seed by up to 18 %.  In 5 variables and 10-14 rows the
# coefficient is 0.6, so the seeded systems stay there, several a round, and
# the blow-up is measured on the fixed system below.
PROJECT_SHAPES = (((5, 6), (10, 15), 2),) * 4 + (((5, 6), (8, 9), 3),)
# A fixed 20-row system in 6 variables on which Fourier-Motzkin blows up:
# keeping x1, x2 it goes 20 -> 40 -> 118 -> 1366 rows, and the next step is
# refused at the default row cap (349278 rows).  Like GAP_PANEL it is the same
# in every round, so each run pays the same blow-up.
BLOWUP_SYSTEM = (
    [[-2, 0, 0, 0, 0, -1], [-2, 2, 0, 2, 0, 0], [2, 0, 0, 0, 0, -2], [-1, -2, -2, 0, -1, 1],
     [0, 0, 0, 2, 0, -1], [0, 2, 0, 0, 1, -1], [0, -1, 0, 0, 0, 0], [0, -2, 0, 0, 1, -2],
     [0, 0, 2, 2, 2, 0], [1, -1, 2, -1, 0, 2], [0, 1, -1, 0, 0, 2], [2, -2, 0, -2, 0, 0],
     [0, -2, -2, 1, 0, 0], [0, 0, 0, 0, 0, 2], [2, 0, 2, 0, 0, 0], [0, -1, 1, 1, 0, 2],
     [2, 0, 0, -2, 0, 1], [2, -1, -1, 0, -2, 1], [0, -1, -2, -2, 0, 0], [-2, -1, -2, 0, 0, 0]],
    [7, 6, 2, 1, 5, 6, 2, 2, 3, 3, 2, 4, 7, 2, 8, 2, 3, 9, 2, 6],
    [0, 1],
)
SIGNATURE_DISTANCE, SIGNATURE_NORM = 1e-4, 1e2
FIT_DISTANCE = 1e-8


class CheckFailed(AssertionError):
    """An output contradicts what theory fixes for its job."""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]  # "ok" or "refused"; raises CheckFailed
    probe: Optional[Callable[[], object]] = None  # extra traced call
    probe_kind: Optional[str] = None
    size: int = 1  # seed-epochs for train jobs


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- inputs


def lu_masks(d):
    upper = np.triu(np.ones((d, d), bool))
    return [upper, upper.T.copy()]


def to_pattern_json(masks):
    dims = [masks[0].shape[1]] + [m.shape[0] for m in masks]
    return {"dims": dims,
            "masks": [[[int(r) + 1, int(c) + 1] for r, c in zip(*np.nonzero(m))] for m in masks]}


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload))
    return str(path)


def random_masks(rng, dims, density):
    return [rng.random((dims[i + 1], dims[i])) < density for i in range(len(dims) - 1)]


def pattern_of(masks):
    from sparse_closure.patterns import validate_pattern

    return validate_pattern(to_pattern_json(masks))


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- certify


def anti_diagonal(d):
    return [["1" if c == d - 1 - r else "0" for c in range(d)] for r in range(d)]


def check_verify(d):
    def check(result):
        code, out, _ = result
        expect(code == 1, f"lu({d}): exit {code}, want 1")
        payload = json.loads(out)
        expect(payload["status"] == "not_closed", f"lu({d}): status {payload['status']}")
        expect(payload["witness"] == anti_diagonal(d), f"lu({d}): wrong witness")
        ver = payload["witness_verification"]
        expect(math.isfinite(ver["distance"]) and math.isfinite(ver["max_factor_norm"]),
               f"lu({d}): non-finite verification")
        expect(len(payload["sufficient_condition"]["subsets"]) == 2**d - 1, f"lu({d}): subset count")
        return "ok"

    return check


def check_enum(n1, closed):
    """`closed`: dense or scalar-output, which theory proves closed (exit 0);
    any other pattern may be closed or undecided (exit 0 or 2)."""

    def check(result):
        code, out, _ = result
        expect(code == 0 if closed else code in (0, 2), f"enum N1={n1}: exit {code}")
        payload = json.loads(out)
        expect(len(payload["sufficient_condition"]["subsets"]) == 2**n1 - 1, f"enum N1={n1}: subset count")
        return "ok"

    return check


def count_smt_variables(text):
    declared = re.findall(r"\(declare-const (\S+) Real\)", text)
    bound = [v for binder in re.findall(r"\((?:forall|exists) \(((?:\(\S+ Real\) ?)+)\)", text)
             for v in re.findall(r"\((\S+) Real\)", binder)]
    return len(declared) + len(bound)


def check_smt(masks, smt_path):
    dims = [masks[0].shape[1]] + [m.shape[0] for m in masks]
    expected = dims[-1] * dims[0] + 1 + 2 * sum(int(m.sum()) for m in masks)

    def check(result):
        code, out, _ = result
        expect(code in (0, 2), f"smt: exit {code}")
        if code == 2:
            found = count_smt_variables(Path(smt_path).read_text())
            expect(found == expected, f"smt: {found} variables, want {expected}")
        return "ok"

    return check


def check_fit(target, masks):
    def check(result):
        factors = result.factors.factors
        for x, m in zip(factors, masks):
            expect(not np.any(x[~m]), "fit: factor off its mask")
        prod = factors[-1]
        for x in reversed(factors[:-1]):
            prod = prod @ x
        scale = 1.0 + np.linalg.norm(target) + math.prod(float(np.linalg.norm(x)) for x in factors)
        expect(math.isfinite(result.distance), "fit: non-finite distance")
        expect(abs(result.distance - np.linalg.norm(target - prod)) <= 1e-9 * scale,
               "fit: reported distance disagrees with the returned factors")
        return "ok"

    return check


def sweep(target, pattern, seed):
    """One alternating-least-squares sweep: a single restart with budget = depth."""
    from sparse_closure import infimum

    return infimum.infimum_oracle(target, pattern, budget=pattern.depth, seed=seed, restarts=1)


def certify_round(seed, r, work, tiny=False):
    from sparse_closure import infimum

    rng = np.random.default_rng([seed, r])
    jobs = []
    budget = ["--budget", "400"] if tiny else []
    for d in (2,) if tiny else (2, 3, 4):
        path = write_json(work / f"lu{d}.json", to_pattern_json(lu_masks(d)))
        pattern = pattern_of(lu_masks(d))
        target = np.fliplr(np.eye(d))
        for s in GAP_PANEL[:1] if tiny else GAP_PANEL:
            jobs.append(Job(
                "verify",
                lambda p=path, s=s: call_cli(["check", "--pattern", p, "--verify-witness", "--seed", str(s), *budget]),
                check_verify(d),
                probe=lambda t=target, p=pattern, s=s: sweep(t, p, s),
                probe_kind="sweep",
            ))
    for n1 in (3,) if tiny else ENUM_HIDDEN:
        dims = (int(rng.integers(3, 6)), n1, int(rng.integers(1, 5)))
        dense = rng.random() < 1 / 3
        masks = random_masks(rng, dims, 1.0 if dense else rng.uniform(0.4, 0.8))
        path = write_json(work / f"enum{n1}.json", to_pattern_json(masks))
        jobs.append(Job("enum", lambda p=path: call_cli(["check", "--pattern", p]),
                        check_enum(n1, closed=dense or dims[2] == 1)))
    for k in range(1 if tiny else 2):
        masks = random_masks(rng, [int(n) for n in rng.integers(2, 5, size=4)], 0.6)
        path = write_json(work / f"smt{k}.json", to_pattern_json(masks))
        smt_path = str(work / f"smt{k}.smt2")
        jobs.append(Job("smt", lambda p=path, o=smt_path: call_cli(["check", "--pattern", p, "--emit-smt", o]),
                        check_smt(masks, smt_path)))
    for k in range(2 if tiny else 8):
        if k % 2 == 0:
            masks = lu_masks(3)
        else:
            masks = random_masks(rng, [int(n) for n in rng.integers(2, 5, size=3)], 0.7)
        pattern = pattern_of(masks)
        factors = [rng.uniform(-1.0, 1.0, m.shape) * m for m in masks]
        target = factors[1] @ factors[0]
        s = int(rng.integers(2**31))
        jobs.append(Job(
            "fit",
            lambda t=target, p=pattern, s=s: infimum.infimum_oracle(t, p, budget=400 if tiny else FIT_BUDGET, seed=s),
            check_fit(target, masks),
            probe=lambda t=target, p=pattern, s=s: sweep(t, p, s),
            probe_kind="sweep",
        ))
    return jobs


# ---------------------------------------------------------------- train


def check_train(spec):
    epochs = spec.config.epochs

    def check(result):
        res, paths = result
        expect(len(res.traces) == spec.runs, "train: missing seeds")
        for i, t in enumerate(res.traces):
            values = t.rel_empirical + t.rel_jacobian + t.w1_norms + t.w2_norms
            expect(len(t) == epochs and not t.diverged, f"train run {i}: incomplete or diverged")
            expect(all(math.isfinite(v) for v in values), f"train run {i}: non-finite trace")
            expect(t.rel_jacobian[-1] < t.rel_jacobian[0], f"train run {i}: rel-Jacobian did not fall")
            if spec.regularized:
                growth = max(t.w1_norms[-1] / res.initial_w1[i], t.w2_norms[-1] / res.initial_w2[i])
                expect(growth < 2.0, f"train run {i}: regularized norm grew {growth:.2f}x")
        expect(len(paths) == spec.runs + 1 and all(p.is_file() for p in paths), "train: missing CSVs")
        with open(paths[-1]) as fh:
            expect(sum(1 for _ in fh) == epochs + 1, "train: aggregate CSV length")
        return "ok"

    return check


def train_round(seed, r, work, tiny=False):
    from sparse_closure import experiments

    rng = np.random.default_rng([seed, r])
    sizes = dict(dimension=12, num_samples=1000, runs=2) if tiny else {}
    jobs = []
    for regularized in (False, True):
        spec = experiments.desk_spec(regularized, work / f"train{int(regularized)}",
                                     epochs=TRAIN_EPOCHS, seed=int(rng.integers(2**31)), **sizes)

        def run(spec=spec):
            result = experiments.run_experiment(spec)
            return result, experiments.write_experiment(spec, result)

        def serial(spec=spec):
            return [experiments.run_single_seed(spec, i) for i in range(spec.runs)]

        jobs.append(Job("train", run, check_train(spec), probe=serial, probe_kind="serial",
                        size=spec.runs * spec.config.epochs))
    return jobs


# ---------------------------------------------------------------- exact


def check_dataset(d, p, out, rng):
    n0 = d
    a = [[Fraction(v) for v in row] for row in anti_diagonal(d)]

    def check(result):
        code, _, _ = result
        expect(code == 0, f"gen-dataset lu({d}): exit {code}")
        header = json.loads(Path(out + ".json").read_text())
        expect(header["p"] == p and header["num_points"] == (p + 1) ** n0, "gen-dataset: point count")
        with open(out + ".csv", newline="") as fh:
            rows = list(csv.reader(fh))
        expect(len(rows) == (p + 1) ** n0 + 1, "gen-dataset: CSV length")
        for i in rng.integers(1, len(rows), size=20):
            values = [Fraction(v) for v in rows[i]]
            x, y = values[:n0], values[n0:]
            expect(all(0 <= v <= 1 and (v * p).denominator == 1 for v in x), "gen-dataset: off-grid point")
            expect(y == [sum(ai * xi for ai, xi in zip(row, x)) for row in a], "gen-dataset: label is not A x")
        return "ok"

    return check


def random_system(rng, n_range, m_range, nonzeros):
    """Integer system C z <= y with `nonzeros` coefficients in +-1..3 per row,
    and two variables to keep."""
    n, m = int(rng.integers(*n_range)), int(rng.integers(*m_range))
    coeffs = np.zeros((m, n), dtype=int)
    for row in coeffs:
        picked = rng.choice(n, size=nonzeros, replace=False)
        row[picked] = rng.integers(1, 4, size=nonzeros) * rng.choice((-1, 1), size=nonzeros)
    rhs = rng.integers(0, 10, size=m)
    keep = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
    return coeffs.tolist(), rhs.tolist(), keep


def lift_margin(coeffs, rhs, keep, t):
    """Largest s such that some z with z[keep] = t has C z + s <= y (capped at 1).
    Positive: t lifts into the polyhedron's interior; negative: no lift."""
    from scipy.optimize import linprog  # on first use: a top-level import would add to peak_rss_mb

    n = len(coeffs[0])
    free = [j for j in range(n) if j not in keep]
    a_ub = [[row[j] for j in free] + [1.0] for row in coeffs]
    b_ub = [b - sum(row[k] * float(v) for k, v in zip(keep, t)) for row, b in zip(coeffs, rhs)]
    res = linprog([0.0] * len(free) + [-1.0], A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * len(free) + [(None, 1.0)], method="highs")
    expect(res.status == 0, f"project check: LP status {res.status}")
    return -res.fun


def check_project(coeffs, rhs, keep, out, rng):
    def check(result):
        code, _, err = result
        if code == 5:
            match = re.search(r"would produce (\d+) rows \(cap (\d+)\)", err)
            expect(match and int(match.group(1)) > int(match.group(2)), "project: unjustified refusal")
            return "refused"
        expect(code == 0, f"project: exit {code}")
        q = json.loads(Path(out).read_text())
        rows = [[Fraction(c) for c in row] for row in q["C"]]
        bounds = [Fraction(b) for b in q["y"]]
        expect(q["num_vars"] == 2, "project: wrong dimension")
        points = [[Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 5))) for _ in keep]
                  for _ in range(8)]
        for t in points:
            inside = all(sum(c * v for c, v in zip(row, t)) <= b for row, b in zip(rows, bounds))
            margin = lift_margin(coeffs, rhs, keep, t)
            expect(not (inside and margin < -1e-7), f"project: {t} kept but does not lift")
            expect(not (not inside and margin > 1e-7), f"project: {t} lifts but was dropped")
        return "ok"

    return check


def exact_round(seed, r, work, tiny=False):
    rng = np.random.default_rng([seed, r])
    jobs = []
    lu2 = write_json(work / "lu2.json", to_pattern_json(lu_masks(2)))
    lu3 = write_json(work / "lu3.json", to_pattern_json(lu_masks(3)))
    grids = [  # (d, pattern file, p, whether p is passed as --p)
        (2, lu2, 3 * 2 * 4**2, False),  # the theoretical resolution 3 N0 4^N1: 9409 points
        (2, lu2, int(rng.integers(20, 61)), True),
        (3, lu3, int(rng.integers(6, 11)), True),
    ]
    if tiny:
        grids = [(2, lu2, 3, True), (3, lu3, 2, True)]
    for k, (d, path, p, override) in enumerate(grids):
        out = str(work / f"data{k}")
        argv = ["gen-dataset", "--pattern", path, *(["--p", str(p)] * override), "--out", out]
        jobs.append(Job("gen_dataset", lambda argv=argv: call_cli(argv),
                        check_dataset(d, p, out, np.random.default_rng([seed, r, k]))))
    systems = [random_system(rng, *shape) for shape in PROJECT_SHAPES]
    if tiny:
        systems = [random_system(rng, (3, 4), (6, 7), 2)]
    else:
        systems.append(BLOWUP_SYSTEM)
    for k, (coeffs, rhs, keep) in enumerate(systems):
        path = write_json(work / f"poly{k}.json", {"num_vars": len(coeffs[0]), "C": coeffs, "y": rhs})
        out = str(work / f"proj{k}.json")
        argv = ["project", "--input", path, "--keep", ",".join(str(j + 1) for j in keep), "--out", out]
        jobs.append(Job("project", lambda argv=argv: call_cli(argv),
                        check_project(coeffs, rhs, keep, out, np.random.default_rng([seed, r, 100 + k]))))
    return jobs


ROUNDS = {"certify": certify_round, "train": train_round, "exact": exact_round}
