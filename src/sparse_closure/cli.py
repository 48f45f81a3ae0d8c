"""Command line entry points.

Subcommands: check, train-lu, gen-dataset, emit-smt, project.
Exit codes: 0 success (for `check`: closed), 1 not closed and 2 unknown
(`check` only), 3 an input file that cannot be read or parsed, 4 a bad
argument, an exceeded grid cap or an unwritable output, 5 the
Fourier-Motzkin row cap.  `main` maps every failure to one of them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .closure import (
    check_theorem5_conditions,
    closedness_verdict,
    closure_gap_witness_lu,
    witness_to_json,
)
from .datasets import build_bad_dataset, write_dataset
from .inputs import InputError, load_input, load_matrix
from .patterns import is_lu_pattern, load_pattern
from .polyhedra import DEFAULT_ROW_CAP, RowCapExceeded, eliminate_variable
from .polyhedra import load as load_polyhedron
from .polyhedra import save as save_polyhedron
from .smt import emit_qe_sentence

EXIT_CLOSED = 0
EXIT_NOT_CLOSED = 1
EXIT_UNKNOWN = 2
EXIT_PARSE_ERROR = 3
EXIT_USAGE = 4
EXIT_ROW_CAP = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, which `check` reserves for unknown
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparse-closure",
        description="closedness checks, pathological datasets and divergence "
        "experiments for fixed-support factorizations",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide or bound closedness of a pattern")
    check.add_argument("--pattern", required=True, help="pattern JSON file")
    check.add_argument("--emit-smt", metavar="PATH", help="write the solver sentence here when undecided")
    check.add_argument("--max-hidden-enum", type=int, default=16,
                       help="cap on N_1 for the 2^N_1 sufficient-condition enumeration")
    check.add_argument("--verify-witness", action="store_true",
                       help="back a not-closed verdict with the numerical infimum search")
    check.add_argument("--budget", type=int, default=100_000,
                       help="iteration budget for --verify-witness")
    check.add_argument("--seed", type=int, default=0, help="seed for --verify-witness")
    check.add_argument("--out", help="write the verdict JSON here as well as stdout")

    train = sub.add_parser("train-lu", help="train toward the anti-diagonal target on the LU pattern")
    train.add_argument("--d", type=int, default=None, help="matrix dimension")
    train.add_argument("--samples", type=int, default=None, help="training set size")
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--lr", type=float, default=0.1)
    train.add_argument("--momentum", type=float, default=0.9)
    train.add_argument("--weight-decay", type=float, default=None,
                       help="explicit decay; default 0, or 5e-4 with --regularized")
    train.add_argument("--regularized", action="store_true", help="use the standard weight decay 5e-4")
    train.add_argument("--batch-size", type=int, default=None)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--runs", type=int, default=10, help="number of independent seeds")
    train.add_argument("--out", required=True, help="output directory for trace CSVs")
    train.add_argument("--paper-scale", action="store_true",
                       help="d=100, 1e5 samples, batch 3000 (minutes instead of seconds)")
    train.add_argument("--workers", type=int, default=None, help="parallel seed processes")

    gen = sub.add_parser("gen-dataset", help="grid dataset labeled by an unattainable linear target")
    gen.add_argument("--pattern", required=True, help="pattern JSON file")
    gen.add_argument("--p", type=int, default=None, help="grid resolution override")
    gen.add_argument("--a", metavar="FILE", default=None,
                     help="JSON matrix of rational strings to use as the target")
    gen.add_argument("--point-cap", type=int, default=10_000_000)
    gen.add_argument("--out", required=True, help="output prefix (.csv and .json are appended)")

    emit = sub.add_parser("emit-smt", help="write the closedness sentence for a pattern")
    emit.add_argument("--pattern", required=True)
    emit.add_argument("--out", required=True)

    project = sub.add_parser("project", help="Fourier-Motzkin projection of a polyhedron file")
    project.add_argument("--input", required=True, help="polyhedron JSON file")
    project.add_argument("--keep", required=True,
                         help="comma-separated 1-based variable indices to keep")
    project.add_argument("--out", required=True)
    project.add_argument("--row-cap", type=int, default=DEFAULT_ROW_CAP,
                         help="most rows one elimination may produce")
    return parser


def cmd_check(args) -> int:
    pattern = load_input(load_pattern, args.pattern)
    verdict = closedness_verdict(pattern, smt_path=args.emit_smt)
    payload = {
        "status": verdict.status.value,
        "rule": verdict.rule,
        "witness": witness_to_json(verdict.witness) if verdict.witness else None,
        "sentence_path": verdict.sentence_path,
    }
    if args.verify_witness and verdict.witness is not None:
        import numpy as np

        from .infimum import infimum_oracle

        result = infimum_oracle(
            np.array(verdict.witness, dtype=float),
            pattern,
            budget=args.budget,
            seed=args.seed,
        )
        payload["witness_verification"] = {
            "distance": result.distance,
            "max_factor_norm": result.max_factor_norm,
            "budget": args.budget,
            "seed": args.seed,
        }
    if pattern.depth == 2 and pattern.dims[1] <= args.max_hidden_enum:
        payload["sufficient_condition"] = check_theorem5_conditions(
            pattern, max_hidden=args.max_hidden_enum
        ).to_json()
    else:
        payload["sufficient_condition"] = None
    text = json.dumps(payload, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return verdict.exit_code()


def cmd_train_lu(args) -> int:
    from .experiments import desk_spec, full_scale_spec, run_experiment, write_experiment

    overrides = {
        "epochs": args.epochs,
        "learning_rate": args.lr,
        "momentum": args.momentum,
        "seed": args.seed,
        "runs": args.runs,
    }
    if args.d is not None:
        overrides["dimension"] = args.d
    if args.samples is not None:
        overrides["num_samples"] = args.samples
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    builder = full_scale_spec if args.paper_scale else desk_spec
    spec = builder(args.regularized, args.out, **overrides)
    if args.weight_decay is not None:
        from dataclasses import replace

        spec = replace(spec, config=replace(spec.config, weight_decay=args.weight_decay))
    # an unwritable --out fails here, before minutes of training
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(spec, workers=args.workers)
    paths = write_experiment(spec, result)
    diverged = sum(t.diverged for t in result.traces)
    print(f"wrote {len(paths)} files under {spec.out_dir}")
    if diverged:
        print(f"note: divergence guard fired in {diverged}/{len(result.traces)} runs")
    return 0


def cmd_gen_dataset(args) -> int:
    pattern = load_input(load_pattern, args.pattern)
    if args.a is not None:
        target = load_input(load_matrix, args.a)
    elif is_lu_pattern(pattern) and pattern.dims[0] >= 2:
        target = closure_gap_witness_lu(pattern.dims[0])
    else:
        raise ValueError(
            "no gap witness is known for this pattern; pass --a with an explicit target matrix"
        )
    dataset, p = build_bad_dataset(
        target, pattern, p_override=args.p, point_cap=args.point_cap
    )
    csv_path = args.out + ".csv"
    header_path = args.out + ".json"
    write_dataset(dataset, csv_path, header_path, target, pattern, p)
    print(f"wrote {len(dataset)} points to {csv_path} (header {header_path})")
    return 0


def cmd_emit_smt(args) -> int:
    pattern = load_input(load_pattern, args.pattern)
    stats = emit_qe_sentence(pattern, args.out)
    print(
        json.dumps(
            {
                "path": args.out,
                "num_polynomials": stats.num_polynomials,
                "max_degree": stats.max_degree,
                "num_variables": stats.num_variables,
            }
        )
    )
    return 0


def cmd_project(args) -> int:
    if args.row_cap < 1:
        raise ValueError(f"--row-cap must be positive, got {args.row_cap}")
    poly = load_input(load_polyhedron, args.input)
    keep = sorted({int(tok) - 1 for tok in args.keep.split(",") if tok.strip()})
    if not keep or any(not (0 <= k < poly.num_vars) for k in keep):
        raise ValueError(f"--keep must name 1-based variables within 1..{poly.num_vars}")
    eliminate = [i for i in range(poly.num_vars) if i not in keep]
    before = poly.num_rows
    # eliminate from the highest index so remaining indices stay valid
    for idx in sorted(eliminate, reverse=True):
        poly = eliminate_variable(poly, idx, row_cap=args.row_cap)
    save_polyhedron(poly, args.out)
    print(f"rows before: {before}, rows after: {poly.num_rows}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "check": cmd_check,
        "train-lu": cmd_train_lu,
        "gen-dataset": cmd_gen_dataset,
        "emit-smt": cmd_emit_smt,
        "project": cmd_project,
    }[args.command]
    try:
        return handler(args)
    except InputError as exc:
        failure, code = exc, EXIT_PARSE_ERROR
    except RowCapExceeded as exc:
        failure, code = exc, EXIT_ROW_CAP
    except (ValueError, OSError) as exc:
        # a bad argument value or grid cap (TooManyPoints), or an unwritable output
        failure, code = exc, EXIT_USAGE
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
