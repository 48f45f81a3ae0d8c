"""The package's public surface: each name is read from its home module on
first use, and the surface is the one the eager imports gave; and no
module imports a name it never uses."""

import ast
import importlib
from pathlib import Path

import pytest

import sparse_closure
from sparse_closure import polyhedra

PUBLIC = """
Closedness ClosednessVerdict Grid Hyperplane InfimumResult LabeledDataset NetworkParams
QeSentenceStats RationalPolyhedron SearchStats SparseFactors StackTrace SupportPattern
TrainingConfig TrainingTrace affine_image build_bad_dataset check_theorem5_conditions
closedness_verdict closure_gap_witness_lu contains dense_pattern drop_redundant
eliminate_variable emit_qe_sentence find_free_hypercube forward infimum_oracle init_params
jacobian_at loss_and_grad lu_membership lu_pattern metrics normalize_first_layer product project
restrict_to_hidden sgd_step theoretical_resolution train validate_pattern
""".split()


def test_all_lists_the_same_names_in_the_same_order():
    assert sparse_closure.__all__ == PUBLIC


def test_dir_lists_every_public_name():
    assert set(sparse_closure.__all__) <= set(dir(sparse_closure))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from sparse_closure import *", namespace)
    assert set(PUBLIC) <= set(namespace)


@pytest.mark.parametrize("name", PUBLIC)
def test_each_name_is_the_object_of_its_home_module(name):
    value = getattr(sparse_closure, name)
    home = value.__module__
    assert home.startswith("sparse_closure.")
    assert getattr(importlib.import_module(home), name) is value


def test_a_swapped_function_shows_through_the_package(monkeypatch):
    # a resolved name is not stored on the package, so a wrapper installed
    # on the home module (and removed again) is what the package gives
    original = sparse_closure.project
    monkeypatch.setattr(polyhedra, "project", lambda *args: None)
    assert sparse_closure.project is polyhedra.project
    monkeypatch.undo()
    assert sparse_closure.project is original
    assert "project" not in vars(sparse_closure)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        sparse_closure.nonexistent
    assert not hasattr(sparse_closure, "nonexistent")


# experiments keeps ProcessPoolExecutor for the benchmark's tracer, which
# reads it there (see the comment on that import)
UNUSED_IMPORTS_KEPT = {("experiments.py", "ProcessPoolExecutor")}


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(Path(sparse_closure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in imported - used}
    assert unused == UNUSED_IMPORTS_KEPT


# Top-level definitions that no module in src/ uses, each with its consumer:
# an acceptance criterion, a demo, a benchmark binding or the ROADMAP item
# that deletes it.  Entries only ever leave this table.
CONSUMERS = {
    ("closure", "lu_membership"): "criterion 6",
    ("datasets", "find_free_hypercube"): "criterion 5, demo_pathological_dataset",
    ("datasets", "hyperplane"): "criterion 5, demo_pathological_dataset",
    ("experiments", "run_single_seed"): "bench/workloads.py probe; ROADMAP item 11b deletes it",
    ("patterns", "dense_pattern"): "demo_closedness_checks; ROADMAP item 19 gives it a caller",
    ("patterns", "product"): "demo_closedness_checks, demo_infimum_gap",
    ("patterns", "random_factors"): "demo_infimum_gap",
    ("patterns", "restrict_to_hidden"): "bench/tracing.py binding; ROADMAP item 11b deletes it",
    ("polyhedra", "affine_image"): "demo_fourier_motzkin",
    ("polyhedra", "contains"): "criterion 4, demo_fourier_motzkin",
    ("relu", "jacobian_at"): "criterion 2",
    ("relu", "loss_and_grad"): "criterion 1, bench/tracing.py binding",
    ("relu", "normalize_first_layer"): "criterion 9",
}


def test_every_top_level_definition_has_a_consumer():
    # a use is a loaded name or attribute, or an import of the name from a
    # sibling module under any alias; the package's lazy name table is
    # strings and counts for none
    defined, used = set(), set()
    for path in sorted(Path(sparse_closure.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined |= {(path.stem, name) for name in names if not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                used |= {alias.name for alias in node.names}
    assert {(module, name) for module, name in defined if name not in used} == set(CONSUMERS)
