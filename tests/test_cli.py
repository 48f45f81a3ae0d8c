import argparse
import cProfile
import hashlib
import json
import pstats
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import compress_reference
from check_report import reference_report
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparse_closure import cli, closure, infimum
from sparse_closure.cli import EXIT_VERDICT, build_parser, main
from sparse_closure.closure import (
    DEFAULT_MAX_HIDDEN,
    RULE_DISJOINT_BLOCKS,
    RULE_LU_GAP,
    RULE_SINGLE_LAYER,
    Closedness,
    ClosednessVerdict,
    SubsetVerdict,
    SufficiencyReport,
    TooManyMultisets,
    check_theorem5_conditions,
    closedness_verdict,
    closure_gap_witness_lu,
)
from sparse_closure.datasets import DEFAULT_POINT_CAP
from sparse_closure.experiments import (
    ExperimentResult,
    desk_spec,
    run_experiment,
    run_single_seed,
    write_experiment,
)
from sparse_closure.patterns import (
    SupportPattern,
    dense_pattern,
    full_mask,
    load_pattern,
    lu_pattern,
    pattern_to_json,
)
from sparse_closure.smt import SENTENCE_CAP, count_variables


def write_pattern(path, pattern):
    path.write_text(json.dumps(pattern_to_json(pattern)))
    return str(path)


@pytest.fixture
def lu2_file(tmp_path):
    return write_pattern(tmp_path / "lu2.json", lu_pattern(2))


class TestCheck:
    def test_lu_is_not_closed_exit_1(self, lu2_file, capsys):
        code = main(["check", "--pattern", lu2_file])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "not_closed"
        assert payload["witness"] == [["0", "1"], ["1", "0"]]

    def test_scalar_output_closed_exit_0(self, tmp_path, capsys):
        f = write_pattern(tmp_path / "s.json", dense_pattern((4, 3, 1)))
        assert main(["check", "--pattern", f]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "closed"

    def test_depth3_unknown_exit_2_with_sentence(self, tmp_path, capsys):
        f = write_pattern(tmp_path / "deep.json", dense_pattern((2, 2, 2, 2)))
        smt = tmp_path / "deep.smt2"
        assert main(["check", "--pattern", f, "--emit-smt", str(smt)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "unknown"
        assert payload["sentence_path"] == str(smt)
        assert smt.exists()

    @pytest.mark.parametrize("pattern, code", [(dense_pattern((4, 3, 1)), 0), (lu_pattern(2), 1)])
    def test_decided_pattern_emits_no_sentence(self, tmp_path, capsys, pattern, code):
        f = write_pattern(tmp_path / "p.json", pattern)
        smt = tmp_path / "p.smt2"
        assert main(["check", "--pattern", f, "--emit-smt", str(smt)]) == code
        assert json.loads(capsys.readouterr().out)["sentence_path"] is None
        assert not smt.exists()

    def test_parse_failure_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--pattern", str(bad)]) == 3

    def test_missing_file_exit_3(self, tmp_path):
        assert main(["check", "--pattern", str(tmp_path / "nope.json")]) == 3

    def test_verdict_written_to_out(self, lu2_file, tmp_path, capsys):
        out = tmp_path / "verdict.json"
        main(["check", "--pattern", lu2_file, "--out", str(out)])
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["rule"] == "lu-antidiagonal-gap"
        assert payload["sufficient_condition"]["holds"] is False

    def test_schema_keys(self, lu2_file, capsys):
        main(["check", "--pattern", lu2_file])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "status",
            "rule",
            "witness",
            "sentence_path",
            "sufficient_condition",
        }

    def test_verify_witness_reports_gap_signature(self, lu2_file, capsys):
        code = main([
            "check", "--pattern", lu2_file, "--verify-witness",
            "--budget", "40000", "--seed", "0",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        check = payload["witness_verification"]
        assert check["distance"] < 1e-4
        assert check["max_factor_norm"] > 1e2

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_verify_witness_writes_nothing_to_stderr(self, lu2_file, seed):
        # the search's overflowing extrapolation steps must stay silent
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_closure.cli", "check", "--pattern", lu2_file,
             "--verify-witness", "--seed", str(seed)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""

    def test_verify_witness_refused_before_the_search_allocates(self, tmp_path, monkeypatch, capsys):
        # lu(150)'s polish system would take 8 GB; its 2 GB sweep design
        # must not be built either
        from sparse_closure import infimum

        def no_design(*args):
            pytest.fail("the search started")

        monkeypatch.setattr(infimum, "_design", no_design)
        f = write_pattern(tmp_path / "lu150.json", lu_pattern(150))
        assert main(["check", "--pattern", f, "--verify-witness", "--budget", "10"]) == 4
        assert f"cap is {infimum.SYSTEM_BYTES_CAP}" in capsys.readouterr().err


RULES = [None, RULE_SINGLE_LAYER, RULE_DISJOINT_BLOCKS, RULE_LU_GAP]
# JSON escapes, non-ASCII text and the key at which the writer splices the subsets
AWKWARD_PATH = 'q"uo\\te \u00fc\u2211 "subsets": [].smt2'
any_float = st.floats(allow_nan=True, allow_infinity=True)
witnesses = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.lists(st.fractions(max_denominator=9), min_size=width, max_size=width).map(tuple),
    min_size=1, max_size=3).map(tuple))


@st.composite
def check_reports(draw):
    """One `check` run: its options and what the stubbed verdict, witness
    search and enumeration return."""
    n1 = draw(st.integers(1, 5))
    status_rule = st.tuples(st.sampled_from(Closedness), st.one_of(st.sampled_from(RULES), st.text(max_size=3)))
    subsets = [SubsetVerdict(hidden, *draw(status_rule))
               for size in range(1, n1 + 1) for hidden in combinations(range(n1), size)]
    # enumerated; decided with N1 above the cap, its subsets not listed; or
    # null because the multisets are above the cap or the pattern is deeper
    sufficient = draw(st.sampled_from(["enumerated", "above", "capped", "deep"]))
    return SimpleNamespace(
        n1=n1,
        verdict=ClosednessVerdict(draw(st.sampled_from(Closedness)), draw(st.sampled_from(RULES)),
                                  draw(st.none() | witnesses)),
        report=SufficiencyReport(draw(st.booleans()), () if sufficient == "above" else tuple(subsets),
                                 draw(st.booleans()), draw(st.integers(1, 2**16 - 1))),
        sufficient=sufficient,
        emit=draw(st.none() | st.just(AWKWARD_PATH) | st.text(max_size=8)),
        search=draw(st.none() | st.tuples(any_float, any_float, st.integers(1, 10**6), st.integers(0, 99))),
    )


class TestCheckReportWriter:
    """`check` writes its subsets list from templates; stdout and --out must be
    the bytes json.dumps(indent=1) gives for the whole report, plus a newline
    in the file."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=check_reports())
    def test_bytes_equal_the_reference(self, tmp_path, capsys, monkeypatch, case):
        dims = [2, case.n1, 2] + [2] * (case.sufficient == "deep")
        f = write_pattern(tmp_path / "p.json", dense_pattern(dims))
        out = tmp_path / "verdict.json"
        argv = ["check", "--pattern", f, "--out", str(out)]
        if case.sufficient in ("above", "capped"):
            argv += ["--max-hidden-enum", str(case.n1 - 1)]
        if case.emit is not None:
            argv.append(f"--emit-smt={case.emit}")
        verification = None
        if case.search is not None:
            distance, norm, budget, seed = case.search
            argv += ["--verify-witness", "--budget", str(budget), "--seed", str(seed)]
            if case.verdict.witness is not None:
                verification = {"distance": distance, "max_factor_norm": norm, "budget": budget, "seed": seed}
        def theorem5(pattern, max_hidden):
            if case.sufficient == "capped":
                raise TooManyMultisets("refusing to decide the signature multisets")
            return case.report

        with monkeypatch.context() as m:
            m.setattr(cli, "closedness_verdict", lambda pattern: case.verdict)
            m.setattr(cli, "check_theorem5_conditions", theorem5)
            m.setattr(cli, "emit_qe_sentence", lambda pattern, path: None)
            m.setattr(infimum, "infimum_oracle",
                      lambda *args, **kwargs: SimpleNamespace(distance=distance, max_factor_norm=norm))
            code = main(argv)
        unknown = case.verdict.status is Closedness.UNKNOWN
        expected = reference_report(
            case.verdict,
            sentence_path=case.emit if unknown else None,
            verification=verification,
            report=case.report if case.sufficient in ("enumerated", "above") else None,
        ) + "\n"
        assert code == EXIT_VERDICT[case.verdict.status]
        assert capsys.readouterr().out == expected
        assert out.read_bytes() == expected.encode()

    def test_8191_subsets_hash_as_the_reference(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        dims = (5, 13, 3)
        # dense enough that some subsets are dense and decided
        masks = tuple(frozenset((r, c) for r in range(dims[i + 1]) for c in range(dims[i]) if rng.random() < 0.8)
                      for i in range(2))
        pattern = SupportPattern(dims, masks)
        out = tmp_path / "verdict.json"
        code = main(["check", "--pattern", write_pattern(tmp_path / "p.json", pattern), "--out", str(out)])
        report = check_theorem5_conditions(pattern)
        assert len(report.subset_verdicts) == 8191
        assert len({(sv.status, sv.rule) for sv in report.subset_verdicts}) > 1
        verdict = closedness_verdict(pattern)
        expected = (reference_report(verdict, report=report) + "\n").encode()
        assert code == EXIT_VERDICT[verdict.status]
        sha = hashlib.sha256
        assert sha(capsys.readouterr().out.encode()).hexdigest() == sha(expected).hexdigest()
        assert sha(out.read_bytes()).hexdigest() == sha(expected).hexdigest()

    def test_encoder_calls_do_not_grow_with_the_subsets(self, tmp_path, capsys):
        # hidden unit 1 lacks one output connection: the subsets holding it
        # are unknown, the others dense, at every N1
        counts = []
        for n1 in (8, 12):
            pattern = SupportPattern((3, n1, 2), (full_mask(n1, 3), full_mask(2, n1) - {(0, 0)}))
            profile = cProfile.Profile()
            profile.runcall(main, ["check", "--pattern", write_pattern(tmp_path / "p.json", pattern)])
            calls = Counter()
            for (path, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
                if Path(path).parent.name == "json" and name in ("dumps", "_iterencode_dict", "_iterencode_list"):
                    calls[name] += ncalls
            counts.append(calls)
            subsets = json.loads(capsys.readouterr().out)["sufficient_condition"]["subsets"]
            assert len(subsets) == 2**n1 - 1
            pairs = {(sv["status"], sv["rule"]) for sv in subsets}
        assert len(pairs) == 2
        assert counts[0] == counts[1]
        assert 1 <= counts[1]["dumps"] <= len(pairs) + 1

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_shaped_panel_prints_what_the_reference_compression_gives(self, tmp_path, capsys, seed):
        # N1 = 8..13 as the benchmark's enum jobs, two dense patterns a seed;
        # the reference compresses every subset by a whole-mask scan into a
        # validated pattern whose signatures are built from scratch
        rng = np.random.default_rng([29, seed])
        for n1 in range(8, 14):
            dims = (int(rng.integers(3, 6)), n1, int(rng.integers(1, 5)))
            density = 1.0 if (n1 + seed) % 3 == 0 else rng.uniform(0.4, 0.8)
            masks = tuple(frozenset((r, c) for r in range(dims[i + 1]) for c in range(dims[i])
                                    if rng.random() < density) for i in range(2))
            path = write_pattern(tmp_path / f"enum{n1}.json", SupportPattern(dims, masks))
            code = main(["check", "--pattern", path])
            out = capsys.readouterr().out
            with pytest.MonkeyPatch.context() as m:
                m.setattr(closure, "compress_hidden", compress_reference.compress_hidden)
                verdict = closedness_verdict(load_pattern(path))
                report = check_theorem5_conditions(load_pattern(path))
            assert code == EXIT_VERDICT[verdict.status]
            assert out == reference_report(verdict, report=report) + "\n"

    @pytest.mark.parametrize("d", (2, 3, 4))
    def test_verify_witness_prints_what_the_reference_search_gives(self, tmp_path, capsys, d):
        # the payload is built from the mask-based compression, the
        # anti-diagonal witness and the search as it ran before its plan
        from test_infimum import GAP_SEEDS, reference_oracle

        path = write_pattern(tmp_path / f"lu{d}.json", lu_pattern(d))
        verdict = ClosednessVerdict(Closedness.NOT_CLOSED, RULE_LU_GAP, closure_gap_witness_lu(d))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(closure, "compress_hidden", compress_reference.compress_hidden)
            report = check_theorem5_conditions(lu_pattern(d))
        for seed in GAP_SEEDS:
            code = main(["check", "--pattern", path, "--verify-witness", "--seed", str(seed)])
            distance, _, norm, _ = reference_oracle(
                np.array(verdict.witness, dtype=float), lu_pattern(d), 100_000, seed)
            verification = {"distance": distance, "max_factor_norm": norm, "budget": 100_000, "seed": seed}
            assert code == EXIT_VERDICT[Closedness.NOT_CLOSED]
            assert capsys.readouterr().out == reference_report(verdict, verification=verification,
                                                              report=report) + "\n"


class TestGenDataset:
    def test_lu2_grid(self, lu2_file, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["gen-dataset", "--pattern", lu2_file, "--p", "4", "--out", str(out)]) == 0
        rows = (tmp_path / "data.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 25
        header = json.loads((tmp_path / "data.json").read_text())
        assert header["p"] == 4 and header["num_points"] == 25

    def test_explicit_zero_target(self, lu2_file, tmp_path, capsys):
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps([["0", "0"], ["0", "0"]]))
        out = tmp_path / "zero"
        assert main([
            "gen-dataset", "--pattern", lu2_file, "--p", "2",
            "--a", str(a_file), "--out", str(out),
        ]) == 0
        rows = (tmp_path / "zero.csv").read_text().strip().splitlines()[1:]
        assert all(row.split(",")[2:] == ["0", "0"] for row in rows)

    def test_no_witness_for_non_lu_pattern(self, tmp_path, capsys):
        f = write_pattern(tmp_path / "d.json", dense_pattern((2, 2, 2)))
        code = main(["gen-dataset", "--pattern", f, "--p", "2", "--out", str(tmp_path / "x")])
        assert code == 4
        assert "explicit target" in capsys.readouterr().err


    @pytest.mark.parametrize("hidden", [5000, 10**9])
    def test_wide_pattern_refused_without_printing_the_count(self, tmp_path, capsys, hidden):
        # 3*N0*4^H is never built: at H = 1e9 it would take 250 MB
        f = tmp_path / "wide.json"
        f.write_text(json.dumps({"dims": [2, hidden, 2], "masks": [[], []]}))
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps([["0", "1"], ["1", "0"]]))
        code = main(["gen-dataset", "--pattern", str(f), "--a", str(a_file), "--out", str(tmp_path / "d")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"3*N0*4^{hidden} would hold more than 10000000 points" in err
        assert "digits" not in err

    def test_huge_resolution_refused_without_printing_the_count(self, tmp_path, capsys):
        # (p+1)^3 has 4,500 digits, past what str() of an int allows
        f = tmp_path / "three.json"
        f.write_text(json.dumps({"dims": [3, 1, 1], "masks": [[], []]}))
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps([["1", "0", "1"]]))
        code = main(["gen-dataset", "--pattern", str(f), "--a", str(a_file), "--p", "1" + "0" * 1500,
                     "--out", str(tmp_path / "d")])
        assert code == 4
        err = capsys.readouterr().err
        assert "grid would hold more than 10000000 points" in err
        assert "digits" not in err


    @pytest.mark.parametrize("entry", ["0", "x"])
    def test_wide_target_refused_before_its_entries_are_converted(self, tmp_path, monkeypatch, capsys, entry):
        # a grid over the cap is refused on the file's shape alone, so a
        # malformed entry in it is never read (exit 4, not 3)
        from sparse_closure import rational

        def no_conversion(x):
            pytest.fail("an entry of --a was converted")

        monkeypatch.setattr(rational, "as_fraction", no_conversion)
        f = tmp_path / "wide.json"
        f.write_text(json.dumps({"dims": [10_000, 1, 1], "masks": [[], []]}))
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps([[entry] * 10_000]))
        code = main(["gen-dataset", "--pattern", str(f), "--a", str(a_file), "--p", "1",
                     "--out", str(tmp_path / "d")])
        assert code == 4
        assert "grid would hold more than 10000000 points" in capsys.readouterr().err


class TestEmitSmt:
    def test_stats_match_formula(self, lu2_file, tmp_path, capsys):
        out = tmp_path / "lu2.smt2"
        assert main(["emit-smt", "--pattern", lu2_file, "--out", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_variables"] == 17
        assert stats["num_polynomials"] == 2
        assert stats["max_degree"] == 4
        assert count_variables(out.read_text()) == 17

    # 10^10 target variables; and 36 * 6^6 monomials per product from a 2 KB
    # file.  The wide pattern's two rank-one blocks overlap, so that `check`
    # finds it unknown (with empty masks it is the closed zero set)
    @pytest.mark.parametrize("pattern", [
        {"dims": [10**5, 2, 10**5],
         "masks": [[[1, 1], [1, 2], [2, 2], [2, 3]], [[1, 1], [2, 1], [2, 2], [3, 2]]]},
        pattern_to_json(dense_pattern((6,) * 8)),
    ], ids=["wide", "deep"])
    @pytest.mark.parametrize("command", [["emit-smt", "--out"], ["check", "--emit-smt"]])
    def test_sentence_over_the_cap_refused_before_writing(self, tmp_path, capsys, pattern, command):
        f = tmp_path / "p.json"
        f.write_text(json.dumps(pattern))
        out = tmp_path / "p.smt2"
        assert main([command[0], "--pattern", str(f), command[1], str(out)]) == 4
        assert f"more than {SENTENCE_CAP}" in capsys.readouterr().err
        assert not out.exists()


SQUARE = {"num_vars": 2, "C": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]], "y": ["1", "0", "1", "0"]}


class TestProject:
    def test_unit_square_to_interval(self, tmp_path, capsys):
        src = tmp_path / "square.json"
        src.write_text(json.dumps({
            "num_vars": 2,
            "C": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
            "y": ["1", "0", "1", "0"],
        }))
        out = tmp_path / "interval.json"
        assert main(["project", "--input", str(src), "--keep", "1", "--out", str(out)]) == 0
        assert "rows before: 4" in capsys.readouterr().out
        data = json.loads(out.read_text())
        assert data["num_vars"] == 1
        assert sorted(zip(data["C"], data["y"])) == [(["-1"], "0"), (["1"], "1")]

    def test_infeasible_input_stays_infeasible(self, tmp_path, capsys):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({
            "num_vars": 2,
            "C": [["1", "0"], ["-1", "0"]],
            "y": ["0", "-1"],
        }))
        out = tmp_path / "out.json"
        assert main(["project", "--input", str(src), "--keep", "2", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert any(all(c == "0" for c in row) and b.startswith("-")
                   for row, b in zip(data["C"], data["y"]))

    def test_empty_system_of_any_width(self, tmp_path):
        # no rows is the whole space: nothing is eliminated one variable at a time
        src = tmp_path / "wide.json"
        src.write_text(json.dumps({"num_vars": 10**9, "C": [], "y": []}))
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_closure.cli", "project", "--input", str(src), "--keep", "1",
             "--out", str(out)],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text()) == {"num_vars": 1, "C": [], "y": []}

    def test_bad_keep_indices(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"num_vars": 2, "C": [["1", "0"]], "y": ["1"]}))
        assert main(["project", "--input", str(src), "--keep", "7", "--out", str(tmp_path / "o")]) == 4

    def test_keeping_every_variable_writes_the_canonical_form(self, tmp_path, capsys):
        # scaled, unsorted and with x1 + x2 <= 9 implied by x1 <= 2 and x2 <= 2
        src = tmp_path / "p.json"
        src.write_text(json.dumps({
            "num_vars": 2,
            "C": [["1/2", "0"], ["0", "2"], ["-1", "0"], ["1", "1"]],
            "y": ["1", "4", "0", "9"],
        }))
        out = tmp_path / "o.json"
        assert main(["project", "--input", str(src), "--keep", "2,1", "--out", str(out)]) == 0
        assert capsys.readouterr().out == "rows before: 4, rows after: 3\n"
        assert json.loads(out.read_text()) == {
            "num_vars": 2, "C": [["-1", "0"], ["0", "1"], ["1", "0"]], "y": ["0", "2", "2"],
        }

    def test_refused_projection_leaves_an_existing_out_alone(self, tmp_path, capsys):
        src = tmp_path / "square.json"
        src.write_text(json.dumps(SQUARE))
        out = tmp_path / "o.json"
        out.write_text("old")
        assert main(["project", "--input", str(src), "--keep", "1", "--row-cap", "1", "--out", str(out)]) == 5
        assert out.read_text() == "old"


class TestTrainLu:
    def test_seed_reproducibility_and_single_seed_equivalence(self, tmp_path, capsys):
        # the CLI trains both seeds as one stack; each seed trained alone
        # must give the same bytes, and so must a second run
        common = [
            "train-lu", "--d", "3", "--samples", "120", "--epochs", "3",
            "--batch-size", "40", "--seed", "5", "--runs", "2",
        ]
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            assert main(common + ["--out", str(out_dir)]) == 0
            outs.append({p.name: p.read_bytes() for p in out_dir.glob("*.csv")})
        capsys.readouterr()
        spec = desk_spec(False, tmp_path / "alone", dimension=3, num_samples=120, epochs=3,
                         batch_size=40, seed=5, runs=2)
        alone = ExperimentResult(*map(tuple, zip(*(run_single_seed(spec, r) for r in range(spec.runs)))))
        write_experiment(spec, alone)
        assert len(outs[0]) == 3
        assert outs[0] == outs[1] == {p.name: p.read_bytes() for p in spec.out_dir.glob("*.csv")}
        stacked = run_experiment(spec)
        assert (stacked.initial_w1, stacked.initial_w2) == (alone.initial_w1, alone.initial_w2)

    def test_regularized_flag_sets_decay(self, tmp_path, capsys):
        out_dir = tmp_path / "reg"
        assert main([
            "train-lu", "--d", "3", "--samples", "60", "--epochs", "2",
            "--batch-size", "30", "--runs", "1", "--regularized",
            "--out", str(out_dir),
        ]) == 0
        capsys.readouterr()
        names = {p.name for p in out_dir.glob("*.csv")}
        assert any(n.startswith("trace_regularized") for n in names)

    @pytest.mark.parametrize("flags, label", [
        (["--weight-decay", "0.001"], "regularized"),
        (["--regularized", "--weight-decay", "0"], "unregularized"),
    ])
    def test_trace_label_follows_the_decay(self, tmp_path, capsys, flags, label):
        # regularized means a positive weight decay, however it was asked for
        out_dir = tmp_path / "t"
        assert main([
            "train-lu", "--d", "2", "--samples", "40", "--epochs", "1",
            "--batch-size", "20", "--runs", "1", "--out", str(out_dir), *flags,
        ]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out_dir.glob("*.csv")) == [
            f"trace_{label}_aggregate.csv", f"trace_{label}_seed0_run0.csv",
        ]

    def test_trace_csv_columns(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        main([
            "train-lu", "--d", "2", "--samples", "40", "--epochs", "2",
            "--batch-size", "20", "--runs", "1", "--out", str(out_dir),
        ])
        capsys.readouterr()
        seed_csv = next(p for p in out_dir.glob("trace_*_run0.csv"))
        header = seed_csv.read_text().splitlines()[0]
        assert header == "epoch,rel_empirical,rel_jacobian,frob_W1,frob_W2"
        agg = next(p for p in out_dir.glob("*_aggregate.csv"))
        assert agg.read_text().splitlines()[0].startswith("epoch,rel_empirical_mean")

    def test_diverging_runs_write_nothing_to_stderr(self, tmp_path):
        # the overflow of a diverging run is the guard's to report
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_closure.cli", "train-lu", "--d", "6", "--samples", "300",
             "--epochs", "8", "--batch-size", "10", "--runs", "3", "--lr", "30", "--out", str(tmp_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "divergence guard fired in 3/3 runs" in proc.stdout
        assert proc.stderr == ""

    def test_unwritable_out_fails_before_training(self, tmp_path, monkeypatch, capsys):
        from sparse_closure import experiments

        def no_training(*args, **kwargs):
            pytest.fail("training started before --out was created")

        monkeypatch.setattr(experiments, "run_experiment", no_training)
        (tmp_path / "file").write_text("")
        code = main([
            "train-lu", "--d", "2", "--samples", "20", "--batch-size", "10",
            "--out", str(tmp_path / "file" / "t"),
        ])
        assert code == 4
        assert "error:" in capsys.readouterr().err


# Each command's most expensive step, which an unwritable output must not reach.
EXPENSIVE = {
    "check": ("sparse_closure.cli", "closedness_verdict", ["--pattern", "{tmp}/lu2.json"]),
    "gen-dataset": ("sparse_closure.cli", "build_bad_dataset", ["--pattern", "{tmp}/lu2.json", "--p", "4"]),
    "project": ("sparse_closure.polyhedra", "eliminate_variable",
                ["--input", "{tmp}/square.json", "--keep", "1"]),
}


@pytest.mark.parametrize("out", ["file/o", "missing/o"], ids=["parent-is-a-file", "parent-missing"])
@pytest.mark.parametrize("command", sorted(EXPENSIVE))
def test_unwritable_out_refused_before_the_work(tmp_path, monkeypatch, capsys, command, out):
    module, name, flags = EXPENSIVE[command]

    def no_work(*args, **kwargs):
        pytest.fail(f"{name} ran before --out was checked")

    monkeypatch.setattr(f"{module}.{name}", no_work)
    (tmp_path / "file").write_text("")
    write_pattern(tmp_path / "lu2.json", lu_pattern(2))
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    argv = [command, *(f.format(tmp=tmp_path) for f in flags), "--out", str(tmp_path / out)]
    assert main(argv) == 4
    assert str(tmp_path / out) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "lu2.json", "square.json"]
    assert (tmp_path / "file").read_text() == ""


# Failures that must leave through the documented exit codes.  "{tmp}" is the
# test's scratch directory, which holds the input files written below; "file"
# in it is a regular file, so paths under it cannot be created.
FAILURES = [
    ("check-dims-not-a-list", ["check", "--pattern", "{tmp}/dims5.json"], 3),
    ("check-masks-not-a-list", ["check", "--pattern", "{tmp}/masks5.json"], 3),
    ("check-dims-bool", ["check", "--pattern", "{tmp}/dims_bool.json"], 3),
    ("check-mask-index-bool", ["check", "--pattern", "{tmp}/index_bool.json"], 3),
    ("check-mask-not-a-list", ["check", "--pattern", "{tmp}/mask_string.json"], 3),
    ("check-unwritable-out", ["check", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/file/v.json"], 4),
    # a parse failure wins over an unwritable output
    ("check-bad-pattern-unwritable-out", ["check", "--pattern", "{tmp}/masks5.json", "--out", "{tmp}/file/v.json"], 3),
    ("check-bad-budget", ["check", "--pattern", "{tmp}/lu2.json", "--verify-witness", "--budget", "0"], 4),
    # refused before the verdict, also where a closed pattern runs no search
    ("check-bad-budget-dense", ["check", "--pattern", "{tmp}/dense.json", "--verify-witness", "--budget", "0"], 4),
    ("check-negative-seed", ["check", "--pattern", "{tmp}/lu2.json", "--verify-witness", "--seed", "-1"], 4),
    ("check-negative-seed-dense", ["check", "--pattern", "{tmp}/dense.json", "--verify-witness", "--seed", "-1"], 4),
    ("check-non-integer-option", ["check", "--pattern", "{tmp}/lu2.json", "--budget", "abc"], 4),
    # zero means no enumeration; below zero is refused, not read as zero
    ("check-negative-max-hidden-enum", ["check", "--pattern", "{tmp}/lu2.json", "--max-hidden-enum", "-3"], 4),
    ("gen-dataset-bad-pattern", ["gen-dataset", "--pattern", "{tmp}/dims5.json", "--out", "{tmp}/d"], 3),
    ("gen-dataset-bad-a-json", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/bad.json",
                                "--out", "{tmp}/d"], 3),
    ("gen-dataset-a-zero-denominator", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/a_zero.json",
                                        "--out", "{tmp}/d"], 3),
    ("gen-dataset-a-infinity", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/a_inf.json",
                                "--out", "{tmp}/d"], 3),
    ("gen-dataset-a-exponent", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/a_exp.json",
                                "--out", "{tmp}/d"], 3),
    ("gen-dataset-bad-a-unwritable-out", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/bad.json",
                                          "--out", "{tmp}/file/d"], 3),
    ("gen-dataset-unwritable-out", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/file/d"], 4),
    ("gen-dataset-point-cap", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "4",
                               "--point-cap", "10", "--out", "{tmp}/d"], 4),
    ("gen-dataset-zero-point-cap", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--point-cap", "0",
                                    "--out", "{tmp}/d"], 4),
    ("gen-dataset-negative-point-cap", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--point-cap", "-5",
                                        "--out", "{tmp}/d"], 4),
    # like --point-cap, --p is refused before the pattern is read: a missing
    # pattern or one with no known target is not what gets reported
    ("gen-dataset-zero-p", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "0", "--out", "{tmp}/d"], 4),
    ("gen-dataset-zero-p-missing-pattern", ["gen-dataset", "--pattern", "{tmp}/nope.json", "--p", "0",
                                            "--out", "{tmp}/d"], 4),
    ("gen-dataset-negative-p-no-witness", ["gen-dataset", "--pattern", "{tmp}/dense.json", "--p", "-2",
                                           "--out", "{tmp}/d"], 4),
    ("emit-smt-bad-pattern", ["emit-smt", "--pattern", "{tmp}/masks5.json", "--out", "{tmp}/s.smt2"], 3),
    ("emit-smt-unwritable-out", ["emit-smt", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/file/s.smt2"], 4),
    ("project-missing", ["project", "--input", "{tmp}/nope.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-not-json", ["project", "--input", "{tmp}/bad.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-malformed", ["project", "--input", "{tmp}/dims5.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-zero-denominator", ["project", "--input", "{tmp}/square_zero.json", "--keep", "1",
                                  "--out", "{tmp}/o.json"], 3),
    ("project-infinity", ["project", "--input", "{tmp}/square_inf.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-fractional-num-vars", ["project", "--input", "{tmp}/square_half_vars.json", "--keep", "1",
                                     "--out", "{tmp}/o.json"], 3),
    ("project-exponent", ["project", "--input", "{tmp}/square_exp.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-bad-keep-token", ["project", "--input", "{tmp}/square.json", "--keep", "1,x",
                                "--out", "{tmp}/o.json"], 4),
    ("project-keep-not-an-integer", ["project", "--input", "{tmp}/square.json", "--keep", "x",
                                     "--out", "{tmp}/o.json"], 4),
    # like --row-cap, --keep is refused before the input is read
    ("project-bad-keep-missing-input", ["project", "--input", "{tmp}/nope.json", "--keep", "x",
                                        "--out", "{tmp}/o.json"], 4),
    ("project-non-positive-row-cap", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                                      "--row-cap", "0", "--out", "{tmp}/o.json"], 4),
    ("project-row-cap", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                         "--row-cap", "1", "--out", "{tmp}/o.json"], 5),
    ("project-missing-unwritable-out", ["project", "--input", "{tmp}/nope.json", "--keep", "1",
                                        "--out", "{tmp}/file/o.json"], 3),
    ("project-unwritable-out", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                                "--out", "{tmp}/file/o.json"], 4),
    ("train-lu-short-of-one-batch", ["train-lu", "--d", "2", "--samples", "10", "--batch-size", "20",
                                     "--out", "{tmp}/t"], 4),
    ("train-lu-decay-nan", ["train-lu", "--d", "2", "--samples", "40", "--batch-size", "20", "--epochs", "2",
                            "--runs", "1", "--weight-decay", "nan", "--out", "{tmp}/t"], 4),
    ("train-lu-lr-nan", ["train-lu", "--d", "2", "--samples", "40", "--batch-size", "20", "--epochs", "2",
                         "--runs", "1", "--lr", "nan", "--out", "{tmp}/t"], 4),
    ("train-lu-lr-negative", ["train-lu", "--d", "2", "--samples", "40", "--batch-size", "20", "--epochs", "2",
                              "--runs", "1", "--lr", "-0.1", "--out", "{tmp}/t"], 4),
    ("train-lu-negative-seed", ["train-lu", "--d", "2", "--samples", "40", "--batch-size", "20", "--epochs", "2",
                                "--runs", "1", "--seed", "-1", "--out", "{tmp}/t"], 4),
    ("train-lu-unwritable-out", ["train-lu", "--d", "2", "--samples", "20", "--batch-size", "10",
                                 "--epochs", "1", "--runs", "1",
                                 "--out", "{tmp}/file/t"], 4),
    # refused by the resident-memory cap before anything is allocated
    ("train-lu-huge-d", ["train-lu", "--d", "100000", "--out", "{tmp}/t"], 4),
    ("train-lu-huge-samples", ["train-lu", "--d", "2", "--samples", "10000000000", "--out", "{tmp}/t"], 4),
    ("train-lu-huge-runs", ["train-lu", "--runs", "1000000", "--out", "{tmp}/t"], 4),
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in FAILURES], ids=[case[0] for case in FAILURES])
def test_failure_exit_codes(tmp_path, argv, code):
    (tmp_path / "dims5.json").write_text(json.dumps({"dims": 5, "masks": []}))
    (tmp_path / "masks5.json").write_text(json.dumps({"dims": [2, 2], "masks": 5}))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "file").write_text("")
    write_pattern(tmp_path / "lu2.json", lu_pattern(2))
    write_pattern(tmp_path / "dense.json", dense_pattern((4, 3, 1)))
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    # a zero denominator and a JSON Infinity, each in an otherwise valid input
    (tmp_path / "square_zero.json").write_text(json.dumps({**SQUARE, "y": ["1/0", "0", "1", "0"]}))
    (tmp_path / "square_inf.json").write_text(json.dumps({**SQUARE, "y": [float("inf"), "0", "1", "0"]}))
    (tmp_path / "a_zero.json").write_text(json.dumps([["1/0", "0"], ["0", "1"]]))
    (tmp_path / "a_inf.json").write_text(json.dumps([[float("inf"), 0], [0, 1]]))
    # bools are no integers, 2.5 variables are none, and an exponent is no
    # documented rational form (Fraction would expand it to a million digits)
    (tmp_path / "dims_bool.json").write_text(json.dumps({"dims": [2, True, 2], "masks": [[[1, 1]], [[1, 1]]]}))
    (tmp_path / "index_bool.json").write_text(json.dumps({"dims": [2, 2, 2], "masks": [[[True, 1]], [[1, 1]]]}))
    (tmp_path / "mask_string.json").write_text(json.dumps({"dims": [2, 2], "masks": [""]}))
    (tmp_path / "square_half_vars.json").write_text(json.dumps({**SQUARE, "num_vars": 2.5}))
    (tmp_path / "square_exp.json").write_text(json.dumps({**SQUARE, "y": ["1e999999", "0", "1", "0"]}))
    (tmp_path / "a_exp.json").write_text(json.dumps([["1e999999", "0"], ["0", "1"]]))
    proc = subprocess.run(
        [sys.executable, "-m", "sparse_closure.cli", *(a.format(tmp=tmp_path) for a in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr
    if argv[0] == "check":
        # 0, 1 and 2 are verdicts; a failure must never read as one
        assert proc.returncode not in (0, 1, 2)
    if argv[0] == "train-lu":
        # every refusal comes before --out is created
        assert not (tmp_path / "t").exists()
        assert not list(tmp_path.rglob("trace_*.csv"))


@pytest.mark.parametrize("option, value", [
    ("--budget", "0"), ("--budget", "-5"), ("--seed", "-1"), ("--max-hidden-enum", "-3"),
])
@pytest.mark.parametrize("pattern", [dense_pattern((4, 3, 1)), lu_pattern(2)], ids=["dense", "lu2"])
def test_check_search_options_are_named_when_refused(tmp_path, capsys, pattern, option, value):
    f = write_pattern(tmp_path / "p.json", pattern)
    assert main(["check", "--pattern", f, "--verify-witness", option, value]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be")


@pytest.mark.parametrize("argv, option", [
    (["gen-dataset", "--pattern", "{tmp}/p.json", "--point-cap", "0", "--out", "{tmp}/d"], "--point-cap"),
    (["gen-dataset", "--pattern", "{tmp}/p.json", "--point-cap", "-5", "--out", "{tmp}/d"], "--point-cap"),
    (["gen-dataset", "--pattern", "{tmp}/nope.json", "--p", "0", "--out", "{tmp}/d"], "--p"),
    (["gen-dataset", "--pattern", "{tmp}/nope.json", "--p", "-3", "--out", "{tmp}/d"], "--p"),
    (["project", "--input", "{tmp}/nope.json", "--keep", "x", "--out", "{tmp}/o.json"], "--keep"),
    (["project", "--input", "{tmp}/nope.json", "--keep", "1,2.5", "--out", "{tmp}/o.json"], "--keep"),
], ids=["point-cap-0", "point-cap-negative", "p-0", "p-negative", "keep-x", "keep-fraction"])
def test_gen_dataset_and_project_options_are_named_when_refused(tmp_path, capsys, argv, option):
    write_pattern(tmp_path / "p.json", lu_pattern(2))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p.json"]


def subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


BOUNDS = [(command, dest, low) for command, sub in subcommands().items()
          for dest, low in sub.get_default("bounds").items()]


@pytest.mark.parametrize("command, dest, low", BOUNDS, ids=[f"{c}-{d}" for c, d, _ in BOUNDS])
def test_every_declared_bound_refuses_the_value_below_it_before_any_input(tmp_path, monkeypatch, capsys,
                                                                          command, dest, low):
    def no_input(*args, **kwargs):
        pytest.fail(f"an input was read before --{dest} was checked")

    monkeypatch.setattr("sparse_closure.cli.parsing", no_input)
    actions = subcommands()[command]._actions
    required = [arg for a in actions if a.required for arg in (a.option_strings[0], str(tmp_path / a.dest))]
    option = next(a.option_strings[0] for a in actions if a.dest == dest)
    assert main([command, *required, option, str(low - 1)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} must be")
    assert list(tmp_path.iterdir()) == []


def test_declared_bounds_name_options_of_their_subcommand():
    # main reads each key with getattr, and words a bound of 0 or 1 only
    for command, sub in subcommands().items():
        bounds = sub.get_default("bounds")
        assert set(bounds) <= {a.dest for a in sub._actions}, command
        assert set(bounds.values()) <= {0, 1}, command


def test_zero_max_hidden_enum_skips_the_enumeration(lu2_file, capsys):
    assert main(["check", "--pattern", lu2_file, "--max-hidden-enum", "0"]) == 1
    assert json.loads(capsys.readouterr().out)["sufficient_condition"] is None


@pytest.mark.parametrize("dims", [(2, 1, 2), (5, 400, 4)])
def test_zero_max_hidden_enum_allows_no_multiset(tmp_path, capsys, monkeypatch, dims):
    monkeypatch.setattr(closure, "closedness_verdict", lambda child: pytest.fail("a subset verdict"))
    f = write_pattern(tmp_path / "dense.json", dense_pattern(dims))
    assert main(["check", "--pattern", f, "--max-hidden-enum", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["sufficient_condition"] is None


def test_a_dense_pattern_past_the_old_cap_is_decided_without_listing(tmp_path, capsys):
    # one signature, so 400 multisets where 2^400 - 1 subsets would be listed
    f = write_pattern(tmp_path / "dense.json", dense_pattern((5, 400, 4)))
    assert main(["check", "--pattern", f]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["sufficient_condition"] == {
        "condition1_full_output_mask": True, "subsets": None, "verdicts": 400, "holds": True}
    assert out.endswith('"sufficient_condition": {\n  "condition1_full_output_mask": true,\n  '
                        '"subsets": null,\n  "verdicts": 400,\n  "holds": true\n }\n}\n')


def test_too_many_multisets_print_a_null_condition(tmp_path, capsys):
    # 12 neurons with distinct signatures carry 2^12 - 1 multisets
    pattern = SupportPattern((12, 12, 1), (frozenset((k, k) for k in range(12)),
                                            frozenset((0, k) for k in range(12))))
    f = write_pattern(tmp_path / "distinct.json", pattern)
    assert main(["check", "--pattern", f, "--max-hidden-enum", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["sufficient_condition"] is None
    assert main(["check", "--pattern", f]) == 0
    assert len(json.loads(capsys.readouterr().out)["sufficient_condition"]["subsets"]) == 2**12 - 1


@pytest.mark.parametrize("calls", [
    [["check", "--pattern", "{tmp}/lu2.json"],
     ["project", "--input", "{tmp}/square.json", "--keep", "1", "--out", "{tmp}/o.json"]],
    [["check", "--pattern", "{tmp}/lu2.json", "--budget", "abc"],
     ["check", "--pattern", "{tmp}/lu2.json", "--max-hidden-enum", "1"]],
    [["project", "--input", "{tmp}/square.json"],
     ["check", "--pattern", "{tmp}/lu2.json", "--verify-witness", "--budget", "1"]],
], ids=["check-then-project", "rejection-then-check", "rejection-then-search"])
def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys, calls):
    # main reuses one parser; no call may see state left by the one before
    write_pattern(tmp_path / "lu2.json", lu_pattern(2))
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    for argv in ([a.format(tmp=tmp_path) for a in call] for call in calls):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "sparse_closure.cli", *argv],
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


@pytest.mark.parametrize("argv, code, numpy", [
    (None, None, False),
    (["check", "--pattern", "{tmp}/lu2.json"], 1, False),
    (["check", "--pattern", "{tmp}/deep.json", "--emit-smt", "{tmp}/deep.smt2"], 2, False),
    (["emit-smt", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/lu2.smt2"], 0, False),
    (["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "4", "--out", "{tmp}/d"], 0, False),
    (["project", "--input", "{tmp}/square.json", "--keep", "1", "--out", "{tmp}/o.json"], 0, False),
    (["check", "--pattern", "{tmp}/lu2.json", "--verify-witness"], 1, True),
], ids=["import", "check", "check-emit-smt", "emit-smt", "gen-dataset", "project", "verify-witness"])
def test_only_the_witness_search_loads_numpy(tmp_path, argv, code, numpy):
    # the exact-rational commands load no numpy, and nothing loads scipy, a
    # test-only dependency; each case runs in a fresh interpreter
    write_pattern(tmp_path / "lu2.json", lu_pattern(2))
    write_pattern(tmp_path / "deep.json", dense_pattern((2, 2, 2, 2)))
    (tmp_path / "square.json").write_text(json.dumps(SQUARE))
    script = "import sys\nfrom sparse_closure.cli import main\n"
    if argv is not None:
        script += f"assert main({[a.format(tmp=tmp_path) for a in argv]!r}) == {code}\n"
    script += "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}), file=sys.stderr)\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("['numpy']\n" if numpy else "[]\n")


def test_parser_defaults_are_the_library_defaults():
    parser = build_parser()
    assert parser.parse_args(["check", "--pattern", "p"]).max_hidden_enum == DEFAULT_MAX_HIDDEN
    assert parser.parse_args(["gen-dataset", "--pattern", "p", "--out", "o"]).point_cap == DEFAULT_POINT_CAP


class TestConsoleScript:
    def test_installed_entry_point(self, lu2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_closure.cli", "check", "--pattern", lu2_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["status"] == "not_closed"
