"""Reading the command line's input files.

Every failure to read or parse one (missing file, bad JSON, wrong shape or
type) becomes an InputError, so the caller maps input faults to a single
exit code without also catching faults of the computation that follows.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .rational import row_lengths


class InputError(Exception):
    """An input file could not be read or parsed."""


@contextmanager
def parsing(path):
    """Turn any read or parse failure inside the block into an InputError."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def load_input(load, path):
    """Return load(path), turning any read or parse failure into an InputError."""
    with parsing(path):
        return load(path)


def load_rows(path):
    """A JSON matrix as parsed: a list of equally long lists whose entries
    are not converted yet (rational.matrix converts them)."""
    with open(path) as fh:
        rows = json.load(fh)
    if len(set(row_lengths(rows))) > 1:
        raise ValueError("ragged rows in rational matrix")
    return rows
