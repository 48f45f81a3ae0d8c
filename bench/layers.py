"""Per-layer metrics from the spans of a traced run.

A layer that does no work on a workload reports 0 for every metric; that is
the prediction for the layers a workload does not exercise.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import self_times
from workloads import FIT_DISTANCE, SIGNATURE_DISTANCE, SIGNATURE_NORM


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, jobs, traced, rounds):
    """jobs[job_id] = (kind, parent job_id or None); traced = [(untraced wall,
    traced wall)] per job; rounds = rounds completed."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def dur(i):
        return (spans[i][2] - spans[i][1]) * 1e-9

    def attr(i, key):
        return (spans[i][5] or {}).get(key)

    def of_kind(name, kind):
        return [i for i in by_name[name] if jobs[spans[i][4]][0] == kind]

    m = {}
    gap = of_kind("infimum.infimum_oracle", "verify")
    fit = of_kind("infimum.infimum_oracle", "fit")
    m["infimum.gap_s"] = _median([dur(i) for i in gap])
    m["infimum.fit_s"] = _median([dur(i) for i in fit])
    m["infimum.sweep_ms"] = 1e3 * _median([dur(i) for i in of_kind("infimum.infimum_oracle", "sweep")])
    m["infimum.signature_rate"] = _ratio(sum(
        attr(i, "distance") < SIGNATURE_DISTANCE and attr(i, "norm") > SIGNATURE_NORM for i in gap), len(gap))
    m["infimum.fit_bounded_rate"] = _ratio(sum(
        attr(i, "distance") < FIT_DISTANCE and attr(i, "norm") <= SIGNATURE_NORM for i in fit), len(fit))

    thm5 = of_kind("closure.check_theorem5_conditions", "enum")
    subsets = sum(attr(i, "subsets") for i in thm5)
    distinct = defaultdict(set)  # thm5 span -> keys of its compressed subsets
    for i in of_kind("patterns.compress_hidden", "enum"):
        distinct[spans[i][3]].add(attr(i, "key"))
    m["closure.thm5_s"] = _median([dur(i) for i in thm5])
    m["closure.verdict_us"] = 1e6 * _median([dur(i) for i in by_name["closure.closedness_verdict"]])
    m["closure.thm5_subsets"] = _ratio(subsets, len(thm5))
    m["closure.thm5_distinct_ratio"] = _ratio(sum(len(distinct[i]) for i in thm5), subsets)
    m["patterns.subset_us"] = 1e6 * _ratio(
        sum(dur(i) for n in ("patterns.restrict_to_hidden", "patterns.compress_hidden") for i in of_kind(n, "enum")),
        subsets)

    emit = by_name["smt.emit_qe_sentence"]
    m["smt.emit_s"] = _median([dur(i) for i in emit])
    m["smt.bytes"] = _mean([attr(i, "bytes") for i in emit])

    steps = by_name["relu.sgd_step"]
    m["relu.step_us"] = 1e6 * _ratio(sum(dur(i) for n in ("relu.loss_and_grad", "relu.sgd_step")
                                         for i in by_name[n]), len(steps))
    m["relu.metrics_ms"] = 1e3 * _median([dur(i) for i in by_name["relu.metrics"]])
    m["relu.train_epoch_s"] = _median([dur(i) / attr(i, "epochs") for i in by_name["relu.train"]])

    serial = defaultdict(float)  # traced train job id -> summed serial run_single_seed wall
    for i in of_kind("experiments.run_single_seed", "serial"):
        serial[jobs[spans[i][4]][1]] += dur(i)
    m["experiments.self_s"] = _median([dur(i) - serial[spans[i][4]]
                                       for i in by_name["experiments.run_experiment"]
                                       if spans[i][4] in serial])
    ran = bool(by_name["experiments.run_experiment"])
    m["experiments.workers"] = max(tracer.workers, default=1 if ran else 0)

    builds = by_name["datasets.build_bad_dataset"]
    m["datasets.build_s"] = _median([dur(i) for i in builds])
    m["datasets.point_us"] = 1e6 * _median([dur(i) / attr(i, "points") for i in builds])
    m["datasets.write_s"] = _median([dur(i) for i in by_name["datasets.write_dataset"]])
    m["datasets.points"] = _mean([attr(i, "points") for i in builds])

    elim = by_name["polyhedra.eliminate_variable"]
    done = [i for i in elim if attr(i, "rows_out") is not None]
    m["polyhedra.eliminate_s"] = _median([dur(i) for i in done])
    m["polyhedra.rows_in"] = _mean([attr(i, "rows_in") for i in elim])
    m["polyhedra.pairs"] = _mean([attr(i, "pairs") for i in elim])
    m["polyhedra.rows_out"] = _mean([attr(i, "rows_out") for i in done])
    m["polyhedra.kept_ratio"] = _ratio(sum(attr(i, "rows_out") for i in done),
                                       sum(attr(i, "zero") + attr(i, "pairs") for i in done))
    m["polyhedra.cap_hits"] = _ratio(sum(attr(i, "error") == "RowCapExceeded" for i in elim), rounds)

    m["cli.self_s"] = _median([selfs[i] * 1e-9 for i in by_name["cli.main"]])
    m["trace.overhead"] = _ratio(sum(t for _, t in traced), sum(u for u, _ in traced)) - 1.0
    return m
