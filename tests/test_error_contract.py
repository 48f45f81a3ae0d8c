"""Property test of the command line's error contract.

Each example starts from a small valid input file and breaks it in exactly
one way: a wrongly typed or non-finite scalar, a 0-based or out-of-range
index, or a wrong nesting.  The subcommand that reads the file must exit 3
(input file malformed) with an error line, and no exception may escape
`cli.main`.  Sizes stay small; huge declared sizes have their own tests.
"""

import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparse_closure.cli import EXIT_PARSE_ERROR, EXIT_USAGE, main
from sparse_closure.patterns import NEURON_INDEX_CAP, lu_pattern, pattern_to_json

FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# values that are no JSON integer
not_int = st.one_of(
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(1, 3), max_size=2),
)
# strings outside the documented rational forms: an integer or p/q with an
# optional sign and a nonzero denominator
bad_rational_text = st.text(alphabet="0123456789/+-e. x", max_size=8).filter(
    lambda s: not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", s)
)
# values that are no rational scalar (finite floats and integers are rationals)
not_rational = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, "1e999999", "1.5", " 1", "1/0"]),
    bad_rational_text,
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# values that are no [row, col] pair
not_pair = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                     st.lists(st.integers(1, 3), max_size=1), st.lists(st.integers(1, 3), min_size=3, max_size=3))
# values that are not a list
not_list = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def malformed_patterns(draw):
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    masks = [
        [[r + 1, c + 1] for r in range(dims[i + 1]) for c in range(dims[i]) if draw(st.booleans())]
        for i in range(len(dims) - 1)
    ]
    pattern = {"dims": dims, "masks": masks}
    layer = draw(st.integers(0, len(masks) - 1))
    if not masks[layer]:
        masks[layer].append([1, 1])
    pair = draw(st.sampled_from(masks[layer]))
    fault = draw(st.sampled_from(["dim", "dim-nonpositive", "index", "index-range", "pair", "layer",
                                  "dims", "masks", "mask-count", "key", "top"]))
    if fault == "dim":
        dims[draw(st.integers(0, len(dims) - 1))] = draw(not_int)
    elif fault == "dim-nonpositive":
        dims[draw(st.integers(0, len(dims) - 1))] = draw(st.integers(-2, 0))
    elif fault == "index":
        pair[draw(st.integers(0, 1))] = draw(st.one_of(not_int, st.integers(-2, 0)))
    elif fault == "index-range":
        k = draw(st.integers(0, 1))
        bound = dims[layer + 1] if k == 0 else dims[layer]
        pair[k] = bound + draw(st.integers(1, 3))
    elif fault == "pair":
        masks[layer][masks[layer].index(pair)] = draw(not_pair)
    elif fault == "layer":
        masks[layer] = draw(not_list)
    elif fault == "dims":
        pattern["dims"] = draw(not_list)
    elif fault == "masks":
        pattern["masks"] = draw(not_list)
    elif fault == "mask-count":
        pattern["masks"] = masks + [[]] if draw(st.booleans()) else masks[:-1]
    elif fault == "key":
        del pattern[draw(st.sampled_from(["dims", "masks"]))]
    else:
        pattern = draw(st.one_of(not_list, st.just([pattern])))
    return pattern


@st.composite
def malformed_polyhedra(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    rows = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-3, 3)) for _ in range(m)]
    poly = {"num_vars": n, "C": rows, "y": rhs}
    fault = draw(st.sampled_from(["num_vars", "num_vars-width", "entry", "rhs-entry", "row", "row-width",
                                  "C", "y", "y-length", "key", "top"]))
    if fault == "num_vars":
        poly["num_vars"] = draw(st.one_of(not_int, st.integers(-2, 0)))
    elif fault == "num_vars-width":
        poly["num_vars"] = n + draw(st.integers(1, 3))
    elif fault == "entry":
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(not_rational)
    elif fault == "rhs-entry":
        rhs[draw(st.integers(0, m - 1))] = draw(not_rational)
    elif fault == "row":
        rows[draw(st.integers(0, m - 1))] = draw(not_list)
    elif fault == "row-width":
        rows[draw(st.integers(0, m - 1))].append(1)
    elif fault == "C":
        poly["C"] = draw(not_list)
    elif fault == "y":
        poly["y"] = draw(not_list)
    elif fault == "y-length":
        poly["y"] = rhs + [0] if draw(st.booleans()) else rhs[:-1]
    elif fault == "key":
        del poly[draw(st.sampled_from(["num_vars", "C", "y"]))]
    else:
        poly = draw(st.one_of(not_list, st.just([poly])))
    return poly


@st.composite
def malformed_matrices(draw):
    """A 2 x 2 target for lu(2), broken in one way."""
    a = [[draw(st.integers(-3, 3)) for _ in range(2)] for _ in range(2)]
    fault = draw(st.sampled_from(["entry", "row", "ragged", "top"]))
    if fault == "entry":
        a[draw(st.integers(0, 1))][draw(st.integers(0, 1))] = draw(not_rational)
        return a
    if fault == "row":
        a[draw(st.integers(0, 1))] = draw(not_list)
        return a
    if fault == "ragged":
        a[draw(st.integers(0, 1))].append(0)
        return a
    return draw(not_list)


def run(tmp_path, capsys, name, document, argv):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    capsys.readouterr()
    code = main([a.format(file=path, tmp=tmp_path) for a in argv])
    err = capsys.readouterr().err
    return code, err


@pytest.mark.parametrize("argv", [
    ["check", "--pattern", "{file}"],
    ["gen-dataset", "--pattern", "{file}", "--p", "2", "--out", "{tmp}/d"],
    ["emit-smt", "--pattern", "{file}", "--out", "{tmp}/s.smt2"],
], ids=["check", "gen-dataset", "emit-smt"])
@FUZZ
@given(document=malformed_patterns())
def test_malformed_pattern_exits_3(tmp_path, capsys, argv, document):
    code, err = run(tmp_path, capsys, "pattern.json", document, argv)
    assert code == EXIT_PARSE_ERROR, (document, err)
    assert err.startswith("error: ")
    # the message names the field, not a Python internal
    assert "unpack" not in err and "not iterable" not in err, (document, err)


@FUZZ
@given(document=malformed_polyhedra())
def test_malformed_polyhedron_exits_3(tmp_path, capsys, document):
    argv = ["project", "--input", "{file}", "--keep", "1", "--out", "{tmp}/o.json"]
    code, err = run(tmp_path, capsys, "poly.json", document, argv)
    assert code == EXIT_PARSE_ERROR, (document, err)
    assert err.startswith("error: ")


@FUZZ
@given(document=malformed_matrices())
def test_malformed_target_exits_3(tmp_path, capsys, document):
    (tmp_path / "lu2.json").write_text(json.dumps(pattern_to_json(lu_pattern(2))))
    argv = ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "2", "--a", "{file}", "--out", "{tmp}/d"]
    code, err = run(tmp_path, capsys, "a.json", document, argv)
    assert code == EXIT_PARSE_ERROR, (document, err)
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "--pattern", "{file}"],
    ["gen-dataset", "--pattern", "{file}", "--p", "2", "--out", "{tmp}/d"],
], ids=["check", "gen-dataset"])
@pytest.mark.parametrize("width", [10**20, NEURON_INDEX_CAP + 1], ids=["1e20", "cap+1"])
def test_a_hidden_layer_too_wide_to_index_exits_4(tmp_path, capsys, argv, width):
    # unchecked, [0] * N_1 raised OverflowError at 10^20 (exit 1, the
    # not-closed code, with a traceback) and would try to allocate gigabytes
    # below it; neither width is ever allocated here
    document = {"dims": [2, width, 2], "masks": [[], []]}
    code, err = run(tmp_path, capsys, "pattern.json", document, argv)
    assert code == EXIT_USAGE, err
    assert err == f"error: refusing to index {width} hidden neurons (cap {NEURON_INDEX_CAP}, about 81 bytes each)\n"


@pytest.mark.parametrize("argv", [
    ["check", "--pattern", "{file}", "--out", "{tmp}/out/v.json"],
    ["emit-smt", "--pattern", "{file}", "--out", "{tmp}/out/s.smt2"],
    ["gen-dataset", "--pattern", "{file}", "--p", "2", "--out", "{tmp}/out/d"],
    ["gen-dataset", "--pattern", "{tmp}/lu2.json", "--p", "2", "--a", "{file}", "--out", "{tmp}/out/d"],
    ["project", "--input", "{file}", "--keep", "1", "--out", "{tmp}/out/o.json"],
], ids=["check", "emit-smt", "gen-dataset-pattern", "gen-dataset-a", "project"])
@pytest.mark.parametrize("depth", [1000, 100_000])
def test_deeply_nested_json_exits_3(tmp_path, capsys, argv, depth):
    # json.load raises RecursionError on deep nesting, which escaped main as a
    # traceback with exit 1 (for check: "not closed")
    (tmp_path / "lu2.json").write_text(json.dumps(pattern_to_json(lu_pattern(2))))
    (tmp_path / "out").mkdir()
    path = tmp_path / "nested.json"
    path.write_text("[" * depth + "]" * depth)
    code = main([a.format(file=path, tmp=tmp_path) for a in argv])
    captured = capsys.readouterr()
    assert code == EXIT_PARSE_ERROR, captured.err
    assert captured.err.startswith(f"error: cannot parse {path}: ")
    assert "Traceback" not in captured.err and captured.out == ""
    assert list((tmp_path / "out").iterdir()) == []
