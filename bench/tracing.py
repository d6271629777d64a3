"""Per-layer spans recorded from outside the program.

The tracer swaps every public function of each layer module for a thin
wrapper, in every contactsurgery namespace that binds it (the package
root re-exports most of them, `cli` imports gauge and homology functions
by name, and modules call each other through their globals).  Each call
records a span (function, start, end, parent span, op id); spans stay in
memory until the run ends and are reduced to per-layer metrics there.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import io
import sys
import tokenize
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("contfrac", "legendrian", "seifert", "intmat", "homology", "gauge", "lattice", "cli")


def lambda_gram(q: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the rank-2q obstruction lattice, built here."""
    rank = 2 * q
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank - 1):
        gram[i][i] = -2
        if i + 2 < rank:
            gram[i][i + 1] = gram[i + 1][i] = 1
    gram[rank - 1][rank - 1] = 1 - q
    gram[rank - 1][q - 1] = gram[q - 1][rank - 1] = 1
    return tuple(tuple(row) for row in gram)


def _lambda_q_of(lattice) -> int | None:
    q, odd = divmod(lattice.rank, 2)
    return q if not odd and q >= 2 and lattice.gram == lambda_gram(q) else None


# values kept per span, computed from the call's arguments and result
HOOKS = {
    "smith_normal_form": lambda args, result: (len(args[0]), len(args[0][0]) if args[0] else 0),
    "presentation": lambda args, result: len(result.matrix),
    "neg_cf_expand": lambda args, result: len(result.entries),
    "convert": lambda args, result: len(result.components),
    "embeds_in_diagonal": lambda args, result: (result is not None, _lambda_q_of(args[0])),
}


class Tracer:
    """Span-recording wrappers, swapped in while the tracer is entered."""

    def __init__(self) -> None:
        self.spans: list = []  # (function id, start ns, end ns, parent index, op id)
        self.extra: dict[int, object] = {}
        self.functions: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.op_id = -1
        self._stack: list[int] = []
        self._wrappers: dict[int, object] = {}  # id of original -> wrapper
        self._restore: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = importlib.import_module(f"contactsurgery.{layer}")
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = self._wrap(len(self.functions), fn, HOOKS.get(name))
                    self.functions.append((layer, name))

    def __enter__(self) -> "Tracer":
        for module_name, module in list(sys.modules.items()):
            if module_name == "contactsurgery" or module_name.startswith("contactsurgery."):
                for attr, value in list(vars(module).items()):
                    if id(value) in self._wrappers:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, self._wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, fid: int, fn, hook):
        spans, extra, stack = self.spans, self.extra, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (fid, start, end, stack[-1] if stack else -1, self.op_id)
            if hook is not None:
                extra[index] = hook(args, result)
            return result

        return traced


def code_lines(path: Path) -> int:
    """Lines carrying code: no blank, comment-only or docstring lines."""
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def layer_metrics(tracer: Tracer, traced_ns: int, untraced_ns: int, ops: int, points: int,
                  output_bytes: int, src: Path) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics.

    traced_ns and untraced_ns are the summed op latencies of the traced
    and untraced passes over the same ops; ops is their op count and
    points the admissible points those ops evaluate; src is the package
    directory, whose files give the src_lines counts.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for fid, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    by_name_calls: dict[str, int] = {}
    by_name_ns: dict[str, int] = {}
    snf_ns = {"dim_le_32": 0, "dim_le_128": 0, "dim_gt_128": 0}
    search_ns = {q: 0 for q in range(3, 11)}
    snf_dim_max = snf_cells = presentation_dims = found = empty = 0
    entries_out = components_out = 0
    for index, (fid, start, end, parent, _) in enumerate(spans):
        layer, name = tracer.functions[fid]
        duration = end - start
        calls[layer] += 1
        self_ns[layer] += duration - child_ns[index]
        by_name_calls[name] = by_name_calls.get(name, 0) + 1
        by_name_ns[name] = by_name_ns.get(name, 0) + duration
        extra = tracer.extra.get(index)
        if extra is None:
            continue
        if name == "smith_normal_form":
            rows, cols = extra
            dim = max(rows, cols)
            snf_dim_max = max(snf_dim_max, dim)
            snf_cells += rows * cols
            bucket = "dim_le_32" if dim <= 32 else "dim_le_128" if dim <= 128 else "dim_gt_128"
            snf_ns[bucket] += duration
        elif name == "presentation":
            presentation_dims += extra
        elif name == "neg_cf_expand":
            entries_out += extra
        elif name == "convert":
            components_out += extra
        elif name == "embeds_in_diagonal":
            embedded, q = extra
            found += embedded
            empty += not embedded
            if q in search_ns:
                search_ns[q] += duration

    def seconds(ns: int) -> float:
        return ns / 1e9

    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = seconds(self_ns[layer])
        metrics[f"{layer}.self_share"] = self_ns[layer] / traced_ns if traced_ns else 0.0
        metrics[f"{layer}.src_lines"] = code_lines(src / f"{layer}.py")
    presentations = by_name_calls.get("presentation", 0)
    omega_evals = by_name_calls.get("omega_red_long", 0) + by_name_calls.get("omega_red_closed", 0)
    metrics.update({
        "gauge.omega_long_s": seconds(by_name_ns.get("omega_red_long", 0)),
        "gauge.omega_closed_s": seconds(by_name_ns.get("omega_red_closed", 0)),
        "gauge.omega_evals_per_point": omega_evals / points if points else 0.0,
        "intmat.snf_calls": by_name_calls.get("smith_normal_form", 0),
        "intmat.det_calls": by_name_calls.get("determinant", 0),
        "intmat.snf_dim_max": snf_dim_max,
        "intmat.snf_cells": snf_cells,
        **{f"intmat.snf_s.{bucket}": seconds(ns) for bucket, ns in snf_ns.items()},
        "homology.presentations_per_op": presentations / ops,
        "homology.presentation_dim_mean": presentation_dims / presentations if presentations else 0.0,
        "homology.witness_s": seconds(by_name_ns.get("distinct_witness", 0)),
        "lattice.searches": by_name_calls.get("embeds_in_diagonal", 0),
        "lattice.embeddings_found": found,
        "lattice.certified_empty": empty,
        "lattice.definiteness_s": seconds(by_name_ns.get("is_negative_definite", 0)),
        **{f"lattice.search_s.q{q}": seconds(ns) for q, ns in search_ns.items()},
        "contfrac.entries_out": entries_out,
        "legendrian.components_out": components_out,
        "cli.render_json_s": seconds(by_name_ns.get("render_json", 0)),
        "cli.output_bytes": output_bytes,
        "package.src_lines": sum(code_lines(path) for path in sorted(src.glob("*.py"))),
        "trace.spans": len(spans),
        "trace.overhead_s": seconds(traced_ns - untraced_ns),
    })
    return metrics
