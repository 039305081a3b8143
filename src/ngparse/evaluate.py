"""Generalization study: exact-match and latency grids over exact
(depth, length) cells, for guided inference and the search baseline.

infer_runner and search_runner turn each parser's outcome into a tree
or a failure reason; the grid and `ngparse infer` and `ngparse search`
all run through them.

Each cell samples fresh programs from a seed space disjoint from
training ("eval" namespace vs "train"), runs every requested method on
the same programs, and scores exact tree match against the generator's
tree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engine import InferConfig, InferenceError, infer, model_selector, oracle_selector
from .grammar import Grammar, check_int
from .sampler import (
    MIN_PROGRAM_LENGTH,
    SampleBucket,
    UnsatisfiableBucket,
    derive_seed,
    sample_corpus,
)
from .search import SearchConfig, iddfs_parse

__all__ = [
    "EvalRecord", "check_methods", "evaluate_grid", "infer_runner", "search_runner", "write_csv"
]

# Guided methods and the engine mode each runs; search and oracle need no model.
_GUIDED_MODES = {"ngsi": "fallback", "greedy": "greedy", "beam": "beam"}
KNOWN_METHODS = (*_GUIDED_MODES, "search", "oracle")


@dataclass
class EvalRecord:
    method: str
    depth: int
    length: int
    count: int
    exact_match: float
    mean_time_s: float
    p95_time_s: float
    errors: dict = field(default_factory=dict)


def check_methods(methods, have_model: bool) -> None:
    """Raise ValueError for an unknown method, or for a guided one when
    there is no model to guide it."""
    for m in methods:
        if m not in KNOWN_METHODS:
            raise ValueError(f"unknown method {m!r}; known: {KNOWN_METHODS}")
    needs_model = [m for m in methods if m in _GUIDED_MODES]
    if needs_model and not have_model:
        raise ValueError(f"methods {needs_model} require a model")


def infer_runner(g, selector, cfg: InferConfig):
    """run(tokens) -> (tree, None), or (None, the InferenceError's kind)."""

    def run(tokens):
        try:
            return infer(g, tokens, selector, cfg), None
        except InferenceError as exc:
            return None, exc.kind

    return run


def search_runner(g, cfg: SearchConfig):
    """run(tokens) -> (tree, None), or (None, the search's status)."""

    def run(tokens):
        res = iddfs_parse(g, tokens, cfg)
        return (res.tree, None) if res.status == "found" else (None, res.status)

    return run


def _make_runner(g, method, model, search_cfg):
    if method == "search":
        return search_runner(g, search_cfg or SearchConfig())
    if method == "oracle":
        return infer_runner(g, oracle_selector(g), InferConfig())
    return infer_runner(g, model_selector(g, model), InferConfig(mode=_GUIDED_MODES[method]))


def evaluate_grid(
    g: Grammar,
    methods,
    depths,
    lengths,
    per_cell: int = 100,
    seed: int = 0,
    model=None,
    search_cfg: SearchConfig = None,
) -> list:
    """One EvalRecord per (method, depth, length) cell.

    Infeasible cells (no derivation at that exact depth and length) are
    emitted with count 0. A depth or length given twice is one cell. All
    methods in a cell see the same programs.
    """
    check_int("per_cell", per_cell, 1)
    check_int("seed", seed, 0)
    check_methods(methods, model is not None)
    depths, lengths = list(depths), list(lengths)
    for name, values in (("depth", depths), ("length", lengths)):
        for v in values:
            check_int(name, v)

    runners = {m: _make_runner(g, m, model, search_cfg) for m in methods}
    records = []
    # Largest cell first, so the sampler builds one count table for the grid.
    for d in sorted(set(depths), reverse=True):
        for l in sorted(set(lengths), reverse=True):
            programs = []
            # no program is shallower than 1 or shorter than MIN_PROGRAM_LENGTH
            if d >= 1 and l >= MIN_PROGRAM_LENGTH:
                try:
                    bucket = SampleBucket(l, l, d, d, seed=derive_seed("eval", seed, d, l))
                    programs = sample_corpus(g, bucket, per_cell)
                except UnsatisfiableBucket:
                    pass
            for method in methods:
                if not programs:
                    records.append(EvalRecord(method, d, l, 0, 0.0, 0.0, 0.0))
                    continue
                matches = 0
                times = []
                errors = {}
                for tokens, truth in programs:
                    t0 = time.perf_counter()
                    tree, err = runners[method](tokens)
                    times.append(time.perf_counter() - t0)
                    if tree is not None and tree == truth:
                        matches += 1
                    elif tree is not None:
                        errors["mismatch"] = errors.get("mismatch", 0) + 1
                    else:
                        errors[err] = errors.get(err, 0) + 1
                records.append(
                    EvalRecord(
                        method,
                        d,
                        l,
                        len(programs),
                        matches / len(programs),
                        float(np.mean(times)),
                        float(np.percentile(times, 95)),
                        errors,
                    )
                )
    records.sort(key=lambda r: (r.method, r.depth, r.length))
    return records


def _format_errors(errors: dict) -> str:
    return ";".join(f"{k}:{v}" for k, v in sorted(errors.items()))


def write_csv(records, path) -> None:
    """Deterministic CSV: sorted rows, 4-decimal rates, 6-decimal times."""
    rows = sorted(records, key=lambda r: (r.method, r.depth, r.length))
    with open(path, "w") as fh:
        fh.write("method,depth,length,count,exact_match,mean_time_s,p95_time_s,errors\n")
        for r in rows:
            fh.write(
                f"{r.method},{r.depth},{r.length},{r.count},"
                f"{r.exact_match:.4f},{r.mean_time_s:.6f},{r.p95_time_s:.6f},"
                f"{_format_errors(r.errors)}\n"
            )
