import json
import subprocess
import sys

import numpy as np
import pytest

from sparse_closure.cli import main
from sparse_closure.patterns import dense_pattern, lu_pattern, pattern_to_json
from sparse_closure.smt import count_variables


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


class TestEmitSmt:
    def test_stats_match_formula(self, lu2_file, tmp_path, capsys):
        out = tmp_path / "lu2.smt2"
        assert main(["emit-smt", "--pattern", lu2_file, "--out", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["num_variables"] == 17
        assert stats["num_polynomials"] == 2
        assert stats["max_degree"] == 4
        assert count_variables(out.read_text()) == 17


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

    def test_bad_keep_indices(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"num_vars": 2, "C": [["1", "0"]], "y": ["1"]}))
        assert main(["project", "--input", str(src), "--keep", "7", "--out", str(tmp_path / "o")]) == 4


class TestTrainLu:
    def test_seed_reproducibility_and_workers_equivalence(self, tmp_path, capsys):
        common = [
            "train-lu", "--d", "3", "--samples", "120", "--epochs", "3",
            "--batch-size", "40", "--seed", "5", "--runs", "2",
        ]
        outs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out_dir = tmp_path / tag
            assert main(common + ["--out", str(out_dir), "--workers", workers]) == 0
            outs.append(sorted(p.read_bytes() for p in out_dir.glob("*.csv")))
        capsys.readouterr()
        assert outs[0] == outs[1] == outs[2]

    def test_regularized_flag_sets_decay(self, tmp_path, capsys):
        out_dir = tmp_path / "reg"
        assert main([
            "train-lu", "--d", "3", "--samples", "60", "--epochs", "2",
            "--batch-size", "30", "--runs", "1", "--regularized",
            "--out", str(out_dir), "--workers", "1",
        ]) == 0
        capsys.readouterr()
        names = {p.name for p in out_dir.glob("*.csv")}
        assert any(n.startswith("trace_regularized") for n in names)

    def test_trace_csv_columns(self, tmp_path, capsys):
        out_dir = tmp_path / "t"
        main([
            "train-lu", "--d", "2", "--samples", "40", "--epochs", "2",
            "--batch-size", "20", "--runs", "1", "--out", str(out_dir), "--workers", "1",
        ])
        capsys.readouterr()
        seed_csv = next(p for p in out_dir.glob("trace_*_run0.csv"))
        header = seed_csv.read_text().splitlines()[0]
        assert header == "epoch,rel_empirical,rel_jacobian,frob_W1,frob_W2"
        agg = next(p for p in out_dir.glob("*_aggregate.csv"))
        assert agg.read_text().splitlines()[0].startswith("epoch,rel_empirical_mean")

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


# Failures that must leave through the documented exit codes.  "{tmp}" is the
# test's scratch directory, which holds the input files written below; "file"
# in it is a regular file, so paths under it cannot be created.
FAILURES = [
    ("check-dims-not-a-list", ["check", "--pattern", "{tmp}/dims5.json"], 3),
    ("check-masks-not-a-list", ["check", "--pattern", "{tmp}/masks5.json"], 3),
    ("check-unwritable-out", ["check", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/file/v.json"], 4),
    ("check-bad-budget", ["check", "--pattern", "{tmp}/lu2.json", "--verify-witness", "--budget", "0"], 4),
    ("check-non-integer-option", ["check", "--pattern", "{tmp}/lu2.json", "--budget", "abc"], 4),
    ("gen-dataset-bad-pattern", ["gen-dataset", "--pattern", "{tmp}/dims5.json", "--out", "{tmp}/d"], 3),
    ("gen-dataset-bad-a-json", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--a", "{tmp}/bad.json",
                                "--out", "{tmp}/d"], 3),
    ("gen-dataset-point-cap", ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "4",
                               "--point-cap", "10", "--out", "{tmp}/d"], 4),
    ("emit-smt-bad-pattern", ["emit-smt", "--pattern", "{tmp}/masks5.json", "--out", "{tmp}/s.smt2"], 3),
    ("emit-smt-unwritable-out", ["emit-smt", "--pattern", "{tmp}/lu2.json", "--out", "{tmp}/file/s.smt2"], 4),
    ("project-missing", ["project", "--input", "{tmp}/nope.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-not-json", ["project", "--input", "{tmp}/bad.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-malformed", ["project", "--input", "{tmp}/dims5.json", "--keep", "1", "--out", "{tmp}/o.json"], 3),
    ("project-bad-keep-token", ["project", "--input", "{tmp}/square.json", "--keep", "1,x",
                                "--out", "{tmp}/o.json"], 4),
    ("project-non-positive-row-cap", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                                      "--row-cap", "0", "--out", "{tmp}/o.json"], 4),
    ("project-row-cap", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                         "--row-cap", "1", "--out", "{tmp}/o.json"], 5),
    ("project-unwritable-out", ["project", "--input", "{tmp}/square.json", "--keep", "1",
                                "--out", "{tmp}/file/o.json"], 4),
    ("train-lu-short-of-one-batch", ["train-lu", "--d", "2", "--samples", "10", "--batch-size", "20",
                                     "--out", "{tmp}/t"], 4),
    ("train-lu-unwritable-out", ["train-lu", "--d", "2", "--samples", "20", "--batch-size", "10",
                                 "--epochs", "1", "--runs", "1", "--workers", "1",
                                 "--out", "{tmp}/file/t"], 4),
]


@pytest.mark.parametrize("argv, code", [case[1:] for case in FAILURES], ids=[case[0] for case in FAILURES])
def test_failure_exit_codes(tmp_path, argv, code):
    (tmp_path / "dims5.json").write_text(json.dumps({"dims": 5, "masks": []}))
    (tmp_path / "masks5.json").write_text(json.dumps({"dims": [2, 2], "masks": 5}))
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "file").write_text("")
    write_pattern(tmp_path / "lu2.json", lu_pattern(2))
    (tmp_path / "square.json").write_text(json.dumps({
        "num_vars": 2,
        "C": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
        "y": ["1", "0", "1", "0"],
    }))
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


class TestConsoleScript:
    def test_installed_entry_point(self, lu2_file):
        proc = subprocess.run(
            [sys.executable, "-m", "sparse_closure.cli", "check", "--pattern", lu2_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["status"] == "not_closed"
