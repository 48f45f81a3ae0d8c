"""Smoke tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q bench/test_smoke.py

Each workload runs one tiny round, untraced and traced; the same seed must
generate identical inputs, and the checks must reject wrong outputs.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sparse_closure import cli, experiments, infimum, patterns  # noqa: E402

# per-layer metrics that must read nonzero after a tiny traced round
EXERCISED = {
    "certify": ["infimum.gap_s", "infimum.fit_s", "infimum.sweep_ms", "closure.thm5_s",
                "closure.thm5_subsets", "patterns.subset_us", "smt.emit_s", "smt.bytes", "cli.self_s"],
    "train": ["relu.step_us", "relu.metrics_ms", "relu.train_epoch_s", "experiments.workers"],
    "exact": ["datasets.build_s", "datasets.points", "polyhedra.eliminate_s", "polyhedra.rows_in",
              "cli.self_s"],
}


def describe(jobs, work):
    """Everything a round hands the program: closure arguments and input files."""
    args = [json.dumps(job.run.__defaults__, default=lambda o: np.asarray(o).tolist()
                       if isinstance(o, np.ndarray) else repr(o)).replace(str(work), "<work>")
            for job in jobs]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.suffix == ".json"}
    return [job.kind for job in jobs], args, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    build = workloads.ROUNDS[workload]
    seen = []
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        work = tmp_path / name
        work.mkdir()
        seen.append(describe(build(seed, 3, work), work))
    assert seen[0] == seen[1]
    assert seen[0] != seen[2]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_round_passes_checks_and_traces(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    originals = [(mod, name, getattr(mod, name)) for mod, name in
                 ((cli, "main"), (infimum, "infimum_oracle"), (experiments, "run_experiment"),
                  (patterns, "restrict_to_hidden"))]
    tracer = tracing.Tracer()
    tiny = functools.partial(workloads.ROUNDS[workload], tiny=True)
    records, rerun, rounds, traced, jobs = run.measure(tiny, 1, 0.0, tracer)
    assert rounds == 1 and records and len(rerun) == len(records)
    assert all(x["outcome"] in ("ok", "refused") for x in records + rerun), records + rerun
    assert all(0 < x["wall"] and 0 < x["ref"] for x in records)
    assert all(getattr(mod, name) is fn for mod, name, fn in originals)
    metrics = layers.per_layer(tracer, jobs, traced, rounds)
    assert all(metrics[name] > 0 for name in EXERCISED[workload]), metrics
    assert all(s[2] >= s[1] for s in tracer.spans)
    tracer.write(tmp_path / "spans.jsonl")
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "job_id", "attrs"}


def test_checks_reject_wrong_outputs(tmp_path):
    verify = workloads.check_verify(2)
    payload = {"status": "not_closed", "witness": [["1", "0"], ["0", "1"]],
               "witness_verification": {"distance": 0.0, "max_factor_norm": 1.0},
               "sufficient_condition": {"subsets": [{}, {}, {}]}}
    with pytest.raises(workloads.CheckFailed):
        verify((1, json.dumps(payload), ""))
    coeffs, rhs, keep = [[1, 0, 0, 0, 0], [-1, 0, 0, 0, 0]], [1, 1], [0, 1]
    out = tmp_path / "q.json"
    # x1 <= 1 and -x1 <= 1 projected onto (x1, x2) is |x1| <= 1; claim x1 <= 0 instead
    out.write_text(json.dumps({"num_vars": 2, "C": [["1", "0"]], "y": ["0"]}))
    check = workloads.check_project(coeffs, rhs, keep, str(out), np.random.default_rng(0))
    with pytest.raises(workloads.CheckFailed):
        for _ in range(20):
            check((0, "", ""))
    refused = workloads.check_project(coeffs, rhs, keep, str(out), np.random.default_rng(0))
    assert refused((5, "", "error: elimination would produce 900 rows (cap 10); raise it")) == "refused"
    with pytest.raises(workloads.CheckFailed):
        refused((5, "", "error: elimination would produce 9 rows (cap 10)"))


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
