"""In-memory spans around calls into the sparse_closure modules.

The benchmark measures the package from outside: `Tracer.install` swaps the
public functions named in `BOUNDARIES` for wrappers in every loaded
sparse_closure module that binds them (aliases included), and `uninstall`
puts the originals back.  Nothing in `src/` changes.  A span is
[name, start_ns, end_ns, parent, job_id, attrs]; `parent` is the index of
the enclosing span or -1.  Spans stay in a list until `write` at the end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, function) pairs whose calls get a span; span names are
# "<module>.<function>".  rational has no boundary of its own here: its work
# is inside the datasets and polyhedra spans.
BOUNDARIES = (
    ("cli", "main"),
    ("closure", "closedness_verdict"),
    ("closure", "check_theorem5_conditions"),
    ("patterns", "load_pattern"),
    ("patterns", "restrict_to_hidden"),
    ("patterns", "compress_hidden"),
    ("smt", "emit_qe_sentence"),
    ("infimum", "infimum_oracle"),
    ("relu", "train"),
    ("relu", "loss_and_grad"),
    ("relu", "sgd_step"),
    ("relu", "metrics"),
    ("experiments", "run_experiment"),
    ("experiments", "run_single_seed"),
    ("experiments", "write_experiment"),
    ("datasets", "build_bad_dataset"),
    ("datasets", "write_dataset"),
    ("polyhedra", "load"),
    ("polyhedra", "save"),
    ("polyhedra", "eliminate_variable"),
)


def _infimum_attrs(args, kwargs, result):
    return {"distance": result.distance, "norm": result.max_factor_norm}


def _thm5_attrs(args, kwargs, result):
    return {"subsets": len(result.subset_verdicts)}


def _compress_attrs(args, kwargs, result):
    # hidden-permutation-invariant key: the multiset of (inputs, outputs)
    # supports of the kept hidden neurons
    first, second = result.masks
    n1 = result.dims[1]
    ins = [[] for _ in range(n1)]
    outs = [[] for _ in range(n1)]
    for r, c in first:
        ins[r].append(c)
    for r, c in second:
        outs[c].append(r)
    key = (result.dims, tuple(sorted((tuple(sorted(i)), tuple(sorted(o))) for i, o in zip(ins, outs))))
    return {"key": hash(key)}


def _smt_attrs(args, kwargs, result):
    path = kwargs.get("out_path", args[1] if len(args) > 1 else None)
    return {"bytes": os.path.getsize(path), "variables": result.num_variables}


def _dataset_attrs(args, kwargs, result):
    return {"points": len(result[0])}


def _train_attrs(args, kwargs, result):
    return {"epochs": len(result)}


def _eliminate_pre(args, kwargs):
    poly, idx = args[0], args[1] if len(args) > 1 else kwargs["idx"]
    pos = sum(1 for row in poly.rows if row[idx] > 0)
    neg = sum(1 for row in poly.rows if row[idx] < 0)
    return {"rows_in": poly.num_rows, "zero": poly.num_rows - pos - neg, "pairs": pos * neg}


def _eliminate_attrs(args, kwargs, result):
    return {"rows_out": result.num_rows}


# outcome counters read at the boundary, outside the timed interval
POST_HOOKS = {
    "infimum.infimum_oracle": _infimum_attrs,
    "closure.check_theorem5_conditions": _thm5_attrs,
    "patterns.compress_hidden": _compress_attrs,
    "smt.emit_qe_sentence": _smt_attrs,
    "datasets.build_bad_dataset": _dataset_attrs,
    "relu.train": _train_attrs,
    "polyhedra.eliminate_variable": _eliminate_attrs,
}
PRE_HOOKS = {"polyhedra.eliminate_variable": _eliminate_pre}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.job_id = -1
        self.workers: list[int] = []
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = pre(args, kwargs) if pre else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.job_id, attrs]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = time.perf_counter_ns()
                span[5] = dict(attrs or {}, error=type(exc).__name__)
                raise
            finally:
                stack.pop()
            span[2] = time.perf_counter_ns()
            if post:
                span[5] = dict(attrs or {}, **post(args, kwargs, result))
            return result

        return wrapper

    def _pool(self, cls):
        workers = self.workers

        def recording_pool(*args, **kwargs):
            workers.append(kwargs.get("max_workers", args[0] if args else None))
            return cls(*args, **kwargs)

        return recording_pool

    def install(self, spans=True) -> None:
        """Swap the boundary functions (and the process pool, to record the
        worker count) in every loaded sparse_closure module."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("sparse_closure") and m]
        targets = []
        if spans:
            for mod_name, fn_name in BOUNDARIES:
                mod = sys.modules.get(f"sparse_closure.{mod_name}")
                if mod is not None:
                    fn = getattr(mod, fn_name)
                    targets.append((fn, self._wrap(f"{mod_name}.{fn_name}", fn)))
        exp = sys.modules.get("sparse_closure.experiments")
        if exp is not None:
            targets.append((exp.ProcessPoolExecutor, self._pool(exp.ProcessPoolExecutor)))
        for original, replacement in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)
                        self._swaps.append((mod, attr, original, replacement))

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._swaps):
            setattr(mod, attr, original)
        self._swaps.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, job_id, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job_id": job_id, "attrs": attrs}) + "\n")


def self_times(spans) -> list[int]:
    """Per span: duration minus the time its direct children cover (spans of
    one thread nest, so children never overlap)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
