"""Reading the command line's input files.

Every failure to read or parse one (missing file, bad JSON, wrong shape or
type) becomes an InputError, so the caller maps input faults to a single
exit code without also catching faults of the computation that follows.
"""

from __future__ import annotations

import json

from .rational import matrix


class InputError(Exception):
    """An input file could not be read or parsed."""


def load_input(load, path):
    """Return load(path), turning any read or parse failure into an InputError."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot parse {path}: {exc}") from exc


def load_matrix(path):
    """A JSON matrix of rationals (numbers or 'p/q' strings)."""
    with open(path) as fh:
        return matrix(json.load(fh))
