"""Command line entry points.

Subcommands: check, train-lu, gen-dataset, emit-smt, project.
Exit codes: 0 success (for `check`: closed), 1 not closed and 2 unknown
(`check` only), 3 an input file that cannot be read or parsed, 4 a bad
argument, an exceeded grid or sentence cap or an unwritable output, 5 the
Fourier-Motzkin row cap.  `main` maps every failure to one of them.

Each input file is read inside `parsing`, which turns any failure to read or
parse it into an InputError: `main` maps input faults to exit 3 without
catching faults of the computation that follows.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
from contextlib import contextmanager, suppress
from pathlib import Path

from . import __version__
from .closure import DEFAULT_MAX_HIDDEN, Closedness, TooManyMultisets, check_theorem5_conditions
from .closure import closedness_verdict
from .datasets import DEFAULT_POINT_CAP, build_bad_dataset, dataset_resolution, write_dataset
from .patterns import load_pattern
from .polyhedra import DEFAULT_ROW_CAP, RowCapExceeded, project
from .polyhedra import load as load_polyhedron
from .polyhedra import save as save_polyhedron
from .rational import format_matrix, matrix, row_lengths
from .smt import emit_qe_sentence

EXIT_VERDICT = {Closedness.CLOSED: 0, Closedness.NOT_CLOSED: 1, Closedness.UNKNOWN: 2}
EXIT_PARSE_ERROR = 3
EXIT_USAGE = 4
EXIT_ROW_CAP = 5


class InputError(Exception):
    """An input file could not be read or parsed."""


@contextmanager
def parsing(path):
    """Turn any read or parse failure inside the block into an InputError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


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
    check.add_argument("--max-hidden-enum", type=int, default=DEFAULT_MAX_HIDDEN,
                       help="the sufficient condition decides at most 2^N - 1 hidden signature "
                       "multisets and lists the subsets only when N_1 <= N (0 skips it)")
    check.add_argument("--verify-witness", action="store_true",
                       help="back a not-closed verdict with the numerical infimum search")
    check.add_argument("--budget", type=int, default=100_000,
                       help="most factor updates --verify-witness spends; each restart "
                       "also stops on the stall rule, so this is an upper bound")
    check.add_argument("--seed", type=int, default=0, help="seed for --verify-witness")
    check.add_argument("--out", help="write the verdict JSON here as well as stdout")
    check.set_defaults(handler=cmd_check, bounds={"budget": 1, "seed": 0, "max_hidden_enum": 0})

    train = sub.add_parser("train-lu", help="train toward the anti-diagonal target on the LU pattern")
    train.add_argument("--d", type=int, help="matrix dimension")
    train.add_argument("--samples", type=int, help="training set size")
    train.add_argument("--epochs", type=int)
    train.add_argument("--lr", type=float)
    train.add_argument("--momentum", type=float)
    train.add_argument("--weight-decay", type=float,
                       help="explicit decay; default 0, or 5e-4 with --regularized")
    train.add_argument("--regularized", action="store_true", help="use the standard weight decay 5e-4")
    train.add_argument("--batch-size", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--runs", type=int, help="number of independent seeds")
    train.add_argument("--out", required=True, help="output directory for trace CSVs")
    train.add_argument("--paper-scale", action="store_true",
                       help="d=100, 1e5 samples, batch 3000 (minutes instead of seconds)")
    train.set_defaults(handler=cmd_train_lu, bounds={})

    gen = sub.add_parser("gen-dataset", help="grid dataset labeled by an unattainable linear target")
    gen.add_argument("--pattern", required=True, help="pattern JSON file")
    gen.add_argument("--p", type=int, default=None, help="grid resolution override")
    gen.add_argument("--a", metavar="FILE", default=None,
                     help="JSON matrix of rational strings to use as the target")
    gen.add_argument("--point-cap", type=int, default=DEFAULT_POINT_CAP)
    gen.add_argument("--out", required=True, help="output prefix (.csv and .json are appended)")
    gen.set_defaults(handler=cmd_gen_dataset, bounds={"point_cap": 1, "p": 1})

    emit = sub.add_parser("emit-smt", help="write the closedness sentence for a pattern")
    emit.add_argument("--pattern", required=True)
    emit.add_argument("--out", required=True)
    emit.set_defaults(handler=cmd_emit_smt, bounds={})

    project = sub.add_parser("project", help="Fourier-Motzkin projection of a polyhedron file")
    project.add_argument("--input", required=True, help="polyhedron JSON file")
    project.add_argument("--keep", required=True,
                         help="comma-separated 1-based variable indices to keep "
                         "(sorted and deduplicated: 2,1 keeps what 1,2 keeps)")
    project.add_argument("--out", required=True)
    project.add_argument("--row-cap", type=int, default=DEFAULT_ROW_CAP,
                         help="most rows one elimination may produce")
    project.set_defaults(handler=cmd_project, bounds={"row_cap": 1})
    return parser


def _check_writable(*paths) -> None:
    """Raise the OSError that opening each path for writing would raise,
    without creating or truncating anything."""
    for path in map(Path, paths):
        if path.is_dir():
            code = errno.EISDIR
        elif not path.exists() and not path.parent.is_dir():
            code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))


def cmd_check(args) -> int:
    with parsing(args.pattern):
        pattern = load_pattern(args.pattern)
    if args.out:
        _check_writable(args.out)
    verdict = closedness_verdict(pattern)
    sentence_path = None
    if verdict.status is Closedness.UNKNOWN and args.emit_smt is not None:
        emit_qe_sentence(pattern, args.emit_smt)
        sentence_path = args.emit_smt
    payload = {
        "status": verdict.status.value,
        "rule": verdict.rule,
        "witness": format_matrix(verdict.witness) if verdict.witness else None,
        "sentence_path": sentence_path,
    }
    if args.verify_witness and verdict.witness is not None:
        from .infimum import infimum_oracle

        result = infimum_oracle(verdict.witness, pattern, budget=args.budget, seed=args.seed)
        payload["witness_verification"] = {
            "distance": result.distance,
            "max_factor_norm": result.max_factor_norm,
            "budget": args.budget,
            "seed": args.seed,
        }
    report = None
    if pattern.depth == 2:
        with suppress(TooManyMultisets):
            report = check_theorem5_conditions(pattern, max_hidden=args.max_hidden_enum)
    payload["sufficient_condition"] = None if report is None else {
        "condition1_full_output_mask": report.condition1_full_output_mask,
        # above the cap the subsets are not listed, and the multisets decided are counted
        **({"subsets": []} if report.subset_verdicts else {"subsets": None, "verdicts": report.verdicts}),
        "holds": report.holds,
    }
    text = json.dumps(payload, indent=1)
    if report is not None and report.subset_verdicts:
        # json.dumps with indent runs its pure-Python encoder chunk by chunk, so the
        # 2^N_1 - 1 subsets are laid out here as it would, from one tail per (status, rule)
        labels = [str(i + 1) for i in range(pattern.dims[1])]

        @functools.cache
        def tail(status, rule):
            fields = json.dumps({"status": status.value, "rule": rule}, indent=4)  # their depth
            return "\n    ]," + fields[1:-2] + "\n   }"
        subsets = ",\n   ".join(
            '{\n    "hidden": [\n     ' + ",\n     ".join([labels[i] for i in sv.hidden])
            + tail(sv.status, sv.rule) for sv in report.subset_verdicts)
        head, _, rest = text.rpartition('"subsets": []')
        text = f'{head}"subsets": [\n   {subsets}\n  ]{rest}'
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_VERDICT[verdict.status]


def cmd_train_lu(args) -> int:
    from .experiments import PAPER_SCALE, desk_spec, run_experiment, write_experiment

    # options left out keep the experiment's defaults
    given = {"dimension": args.d, "num_samples": args.samples, "batch_size": args.batch_size,
             "epochs": args.epochs, "learning_rate": args.lr, "momentum": args.momentum,
             "weight_decay": args.weight_decay, "seed": args.seed, "runs": args.runs}
    overrides = dict(PAPER_SCALE) if args.paper_scale else {}
    overrides.update((k, v) for k, v in given.items() if v is not None)
    spec = desk_spec(args.regularized, args.out, **overrides)
    # an unwritable --out fails here, before minutes of training
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(spec)
    paths = write_experiment(spec, result)
    diverged = sum(t.diverged for t in result.traces)
    print(f"wrote {len(paths)} files under {spec.out_dir}")
    if diverged:
        print(f"note: divergence guard fired in {diverged}/{len(result.traces)} runs")
    return 0


def cmd_gen_dataset(args) -> int:
    with parsing(args.pattern):
        pattern = load_pattern(args.pattern)
    if args.a is not None:
        with parsing(args.a), open(args.a) as fh:
            rows = json.load(fh)
            lengths = row_lengths(rows)
            if len(set(lengths)) > 1:
                raise ValueError("ragged rows in rational matrix")
        # refuse on the file's shape and the grid caps before converting its
        # entries, the slow part for a wide target
        dataset_resolution(lengths, pattern, args.p, args.point_cap)
        with parsing(args.a):
            target = matrix(rows)
    else:
        target = closedness_verdict(pattern).witness
    if target is None:
        raise ValueError(
            "no gap witness is known for this pattern; pass --a with an explicit target matrix"
        )
    csv_path = args.out + ".csv"
    header_path = args.out + ".json"
    _check_writable(csv_path, header_path)
    dataset, p = build_bad_dataset(
        target, pattern, p_override=args.p, point_cap=args.point_cap
    )
    write_dataset(dataset, csv_path, header_path, target, pattern, p)
    print(f"wrote {len(dataset)} points to {csv_path} (header {header_path})")
    return 0


def cmd_emit_smt(args) -> int:
    with parsing(args.pattern):
        pattern = load_pattern(args.pattern)
    stats = emit_qe_sentence(pattern, args.out)
    print(json.dumps({"path": args.out, **dataclasses.asdict(stats)}))
    return 0


def cmd_project(args) -> int:
    try:
        keep = [int(tok) - 1 for tok in args.keep.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--keep must be comma-separated integers, got {args.keep!r}") from None
    with parsing(args.input):
        poly = load_polyhedron(args.input)
    _check_writable(args.out)
    projected = project(poly, keep, args.row_cap)
    save_polyhedron(projected, args.out)
    print(f"rows before: {poly.num_rows}, rows after: {projected.num_rows}")
    return 0


# one parser per process: parse_args keeps no state between calls
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # each subcommand's lower bounds, refused before any input is read
        for dest, low in args.bounds.items():
            value = getattr(args, dest)
            if value is not None and value < low:
                kind = {0: "non-negative", 1: "positive"}[low]
                raise ValueError(f"--{dest.replace('_', '-')} must be {kind}, got {value}")
        return args.handler(args)
    except InputError as exc:
        failure, code = exc, EXIT_PARSE_ERROR
    except RowCapExceeded as exc:
        failure, code = exc, EXIT_ROW_CAP
    except (ValueError, OSError) as exc:
        # a bad argument value, a grid (TooManyPoints) or sentence cap, or an unwritable output
        failure, code = exc, EXIT_USAGE
    print(f"error: {failure}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
