"""The benchmark's workloads: seeded inputs, a closed loop with one caller,
output checks and the metrics of one run.

Three parse workloads time one call of ``infer`` or ``iddfs_parse`` per
program, the way ``ngparse infer`` and ``ngparse search`` serve stdin. The
training workload times the optimizer steps of whole ``train()`` calls.
Every time metric is scaled to the reference host speed (see hostspeed.py);
the raw figures go to the run record. A traced run measures untraced first,
for the tracing overhead, then makes one traced pass.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ngparse import engine, guider, sampler
from ngparse import (
    Ast,
    InferConfig,
    SampleBucket,
    TrainConfig,
    build_grammar,
    curriculum_schedule,
    infer,
    load_model,
    model_selector,
    node_count,
    pretty_print,
    reference_parse,
    save_model,
    serialize,
)
from ngparse.parser import ParseError
from ngparse.sampler import derive_seed
from ngparse.search import SearchConfig, SearchResult, iddfs_parse

from fixture import checked_model_path
from hostspeed import HostSpeed
from metrics import PER_LAYER
from spans import Target, Totals, Tracer, patched, swapped

# Set-ups per run; setup_s is their median. A training set-up takes well
# under a millisecond, so it is repeated more to steady its median.
PARSE_SETUPS = 3
TRAIN_SETUPS = 100
WARMUP_PROGRAMS = 5
SEARCH = SearchConfig(max_depth=24, time_limit_s=10.0)


@dataclass(frozen=True)
class ParseSpec:
    name: str
    method: str  # fallback | beam | search
    bucket: tuple  # min_length, max_length, min_depth, max_depth
    pool: int  # distinct programs drawn per run


@dataclass(frozen=True)
class TrainSpec:
    name: str
    stages: int
    iters_per_stage: int
    programs_per_stage: int
    heldout_programs: int


WORKLOADS = {
    spec.name: spec
    for spec in (
        ParseSpec("fallback-long", "fallback", (30, 30, 11, 11), 800),
        ParseSpec("beam-short", "beam", (8, 15, 1, 9), 500),
        ParseSpec("search-short", "search", (8, 16, 1, 12), 800),
        TrainSpec("train-curriculum", 4, 50, 300, 100),
    )
}


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    inputs: int  # programs generated for the run
    inputs_digest: str
    notes: dict = field(default_factory=dict)
    tracer: Tracer = None


def run(spec, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """One run; out_dir takes the files a run writes on the way."""
    if isinstance(spec, TrainSpec):
        return _run_train(spec, seed, seconds, trace, out_dir)
    return _run_parse(spec, seed, seconds, trace)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _time_metrics(op_s, setup_s) -> dict:
    """p50 and p95 of the operation times, operations per second of
    operation time, and the median set-up time."""
    p95 = statistics.quantiles(op_s, n=100)[94] if len(op_s) > 1 else op_s[0]
    return {
        "p50_ms": statistics.median(op_s) * 1e3,
        "p95_ms": p95 * 1e3,
        "ops_per_s": _rate(op_s),
        "setup_s": statistics.median(setup_s),
    }


def _scaled(speed: HostSpeed, marks) -> list:
    """Durations of (start, end) marks at nominal host speed."""
    return [(b - a) * speed.scale((a + b) / 2) for a, b in marks]


def _timed_setups(speed: HostSpeed, make, repeats: int, context=nullcontext):
    """Run make() repeats times, probing the host speed before, after and
    in between when due; returns the last result and the (start, end) mark
    of each set-up."""
    marks = []
    speed.probe()
    for _ in range(repeats):
        speed.probe_if_due()
        t0 = time.perf_counter()
        with context():
            result = make()
        marks.append((t0, time.perf_counter()))
    speed.probe()
    return result, marks


def _finish_times(outcome, speed: HostSpeed, op_marks, setup_marks) -> None:
    """Scaled time metrics into outcome.metrics, raw ones and the host
    speed into outcome.notes."""
    raw = _time_metrics([b - a for a, b in op_marks], [b - a for a, b in setup_marks])
    outcome.metrics.update(_time_metrics(_scaled(speed, op_marks), _scaled(speed, setup_marks)))
    outcome.notes["raw"] = raw
    outcome.notes["host_kernel_ms"] = {
        "median": statistics.median(speed.durations) * 1e3,
        "min": min(speed.durations) * 1e3,
        "max": max(speed.durations) * 1e3,
        "probes": len(speed.durations),
    }


def _zero_layers() -> dict:
    return {name: 0.0 for name in PER_LAYER}


def _report_failure(what: str, exc: BaseException) -> None:
    print(f"{what} failed:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def _reference_agrees(g, tokens, tree) -> bool:
    try:
        return reference_parse(g, tokens) == tree
    except ParseError:
        return False


def _mismatches(g, pool) -> int:
    """Generator trees of (tokens, tree) pairs that reference_parse
    disagrees with."""
    n = sum(not _reference_agrees(g, tokens, tree) for tokens, tree in pool)
    if n:
        print(f"{n} generator trees differ from reference_parse", file=sys.stderr)
    return n


def _digest(g, trees) -> str:
    h = hashlib.sha256()
    for t in trees:
        h.update(serialize(g, t).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Parse workloads


@dataclass
class _ParseInputs:
    g: object
    model: object  # None for search
    pool: list  # (tokens, generator tree)


def _parse_setup(spec: ParseSpec, seed: int, model_path) -> _ParseInputs:
    """The timed set-up: grammar, model (none for search) and pool."""
    g = build_grammar()
    model = None if model_path is None else load_model(model_path, g)
    rng = np.random.default_rng(derive_seed("perfbench", spec.name, seed))
    pool = sampler.sample_corpus(g, SampleBucket(*spec.bucket), spec.pool, rng)
    return _ParseInputs(g, model, pool)


def _parse_call(spec: ParseSpec, inputs: _ParseInputs, tracer: Tracer = None):
    """One parse of a token tuple; with a tracer, the call and each selector
    call are spans, and each call starts a new group."""
    g = inputs.g
    if spec.method == "search":

        def call(tokens):
            return iddfs_parse(g, tokens, SEARCH)

        return tracer.wrap("search", call, new_group=True) if tracer else call

    selector = model_selector(g, inputs.model)
    if tracer:
        selector = tracer.wrap("engine.select", selector)
    cfg = InferConfig(mode=spec.method, beam_width=4)

    def call(tokens):
        return infer(g, tokens, selector, cfg)

    return tracer.wrap("engine.infer", call, new_group=True) if tracer else call


def _result_tree(out):
    if isinstance(out, SearchResult):
        return out.tree if out.status == "found" else None
    return out if isinstance(out, Ast) else None


def _check(g, tokens, tree, out) -> tuple:
    """(exact, ok): the tree equals the generator's, and every check holds."""
    got = _result_tree(out)
    if got is None:
        return False, False
    exact = got == tree
    ok = exact and (isinstance(out, SearchResult) or pretty_print(g, got) == tokens)
    return exact, ok


def _closed_loop(call, pool, speed: HostSpeed, seconds: float = None):
    """Parse pool programs in order, probing the host speed between calls.
    With seconds, cycle through the pool until they have passed; without,
    make one pass. Returns the (start, end) mark of each call and (pool
    index, output or exception) pairs."""
    marks, outputs = [], []
    gc.collect()
    speed.probe()
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while seconds or i < len(pool):
        speed.probe_if_due()
        k = i % len(pool)
        t0 = time.perf_counter()
        try:
            out = call(pool[k][0])
        except Exception as exc:  # a failed parse is counted, the loop goes on
            out = exc
        t1 = time.perf_counter()
        marks.append((t0, t1))
        outputs.append((k, out))
        i += 1
        if seconds and t1 >= deadline:
            break
    speed.probe()
    return marks, outputs


def _score(g, pool, outputs) -> tuple:
    """(exact, failed) over (pool index, output) pairs."""
    exact = failed = 0
    for k, out in outputs:
        tokens, tree = pool[k]
        e, ok = _check(g, tokens, tree, out)
        exact += e
        if not ok:
            if not failed:
                if isinstance(out, BaseException):
                    _report_failure(f"parse of program {k}", out)
                else:
                    print(f"parse of program {k} gave a wrong result: {out!r}", file=sys.stderr)
            failed += 1
    return exact, failed


def _parse_targets():
    return (
        Target(engine, "predict_rule_distribution", "guider.head"),
        Target(guider, "encode", "guider.encode", lambda g, tokens, m: tuple(tokens)),
        Target(engine, "decompose", "decompose"),
        Target(engine, "pretty_print", "tree.verify"),
    )


def _sampler_targets():
    return (
        Target(sampler, "sample_corpus", "sampler.sample_corpus", lambda g, bucket, n, rng=None: n),
        Target(sampler, "extract_training_pairs", "sampler.pairs"),
    )


def _run_parse(spec: ParseSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    # The benchmark's own checks (fixture digest, reference cross-check)
    # run outside the timed set-ups.
    model_path = None if spec.method == "search" else checked_model_path()
    inputs, setup_marks = _timed_setups(
        speed,
        lambda: _parse_setup(spec, seed, model_path),
        PARSE_SETUPS,
        (lambda: patched(tracer, _sampler_targets())) if trace else nullcontext,
    )
    g, pool = inputs.g, inputs.pool
    digest = _digest(g, (tree for _, tree in pool))
    mismatched = _mismatches(g, pool)

    call = _parse_call(spec, inputs)
    for tokens, _ in pool[:WARMUP_PROGRAMS]:
        try:
            call(tokens)
        except Exception:  # counted when the program comes up in the loop
            pass
    marks, outputs = _closed_loop(call, pool, speed, seconds / 2 if trace else seconds)
    exact, failed = _score(g, pool, outputs)
    attempted = len(outputs)
    failed += mismatched

    outcome = Outcome({}, attempted, failed, len(pool), digest, tracer=tracer)
    outcome.notes["generator_vs_reference_mismatches"] = mismatched
    outcome.notes["passes"] = attempted / len(pool)
    if not trace:
        _finish_times(outcome, speed, marks, setup_marks)
        outcome.metrics["accuracy"] = exact / attempted
        outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
        return outcome

    with patched(tracer, _parse_targets()):
        traced_marks, traced = _closed_loop(_parse_call(spec, inputs, tracer), pool, speed)
    _, traced_failed = _score(g, pool, traced)
    outcome.attempted += len(traced)
    outcome.failed += traced_failed
    outcome.metrics = _parse_layers(tracer, pool, traced)
    outcome.metrics["trace.overhead_frac"] = 1.0 - _rate(_scaled(speed, traced_marks)) / _rate(
        _scaled(speed, marks)
    )
    return outcome


def _rate(op_s) -> float:
    return len(op_s) / sum(op_s)


def _parse_layers(tracer: Tracer, pool, traced) -> dict:
    """Per-program means over one traced pass of the pool."""
    spans = tracer.spans
    tot = Totals(spans)
    n = len(pool)
    m = _zero_layers()

    spans_by_program = {}
    for s in spans:
        if s.name == "guider.encode":
            spans_by_program.setdefault(s.group, []).append(s.note)
    calls = sum(len(v) for v in spans_by_program.values())
    distinct = [set(v) for v in spans_by_program.values()]
    m["guider.encode_calls"] = calls / n
    m["guider.gru_steps"] = sum(len(t) for v in spans_by_program.values() for t in v) / n
    m["guider.distinct_span_frac"] = sum(map(len, distinct)) / calls if calls else 0.0
    m["guider.prefix_trie_steps"] = sum(
        len({t[:i] for t in d for i in range(1, len(t) + 1)}) for d in distinct
    ) / n
    m["guider.encode_ms"] = tot.total("guider.encode") / n * 1e3
    m["guider.head_ms"] = tot.own("guider.head") / n * 1e3

    selects = tot.count("engine.select")
    nodes = sum(node_count(t) for t in map(_result_tree, (o for _, o in traced)) if t)
    m["engine.selector_calls"] = selects / n
    m["engine.useful_call_frac"] = nodes / selects if selects else 0.0
    m["engine.self_ms"] = (tot.own("engine.infer") + tot.own("engine.select")) / n * 1e3

    m["decompose.calls"] = tot.count("decompose") / n
    if tot.count("decompose"):
        m["decompose.fail_frac"] = tot.failed("decompose") / tot.count("decompose")
    m["decompose.self_ms"] = tot.own("decompose") / n * 1e3
    m["tree.verify_ms"] = tot.total("tree.verify") / n * 1e3

    # The sampler runs in set-up here: per program it drew.
    drawn = sum(s.note for s in spans if s.name == "sampler.sample_corpus")
    m["sampler.programs_per_s"] = drawn / tot.total("sampler.sample_corpus")
    m["sampler.self_ms"] = tot.own("sampler.sample_corpus") / drawn * 1e3

    searches = [o for _, o in traced if isinstance(o, SearchResult)]
    if searches:
        expanded = sum(r.nodes_expanded for r in searches)
        m["search.nodes_expanded"] = expanded / n
        m["search.nodes_per_s"] = expanded / tot.total("search")
        m["search.final_depth_limit"] = sum(r.depth_limit for r in searches) / n
    return m


# ---------------------------------------------------------------------------
# Training workload


def _train_config(spec: TrainSpec, seed: int) -> TrainConfig:
    # early_stop_acc above 1 turns early stopping off, so every call takes
    # the same number of steps.
    return TrainConfig(
        iters_per_stage=spec.iters_per_stage,
        programs_per_stage=spec.programs_per_stage,
        heldout_programs=spec.heldout_programs,
        early_stop_acc=2.0,
        seed=seed,
    )


def _train_setup(spec: TrainSpec, seed: int):
    """The timed set-up: grammar, schedule and config."""
    g = build_grammar()
    return g, curriculum_schedule(spec.stages, base_seed=seed, repeats=1), _train_config(spec, seed)


def _train_corpora(g, schedule, cfg: TrainConfig) -> list:
    """The (tokens, tree) pairs train() will draw, drawn by the same calls
    and seeds it makes, to digest and cross-check them."""
    pool = []
    for stage, bucket in enumerate(schedule):
        rng = np.random.default_rng(guider.derive(cfg.seed, stage))
        for n in (cfg.programs_per_stage, cfg.heldout_programs):
            pool.extend(sampler.sample_corpus(g, bucket, n, rng))
    return pool


def _round_trips(model, g, path: Path) -> bool:
    save_model(model, path)
    back = load_model(path, g)
    return back.params.keys() == model.params.keys() and all(
        np.array_equal(back.params[k], v) for k, v in model.params.items()
    )


def _train_ok(spec: TrainSpec, log, steps: int, first_log) -> bool:
    return (
        steps == spec.stages * spec.iters_per_stage
        and [row[:2] for row in log] == [(s, spec.iters_per_stage) for s in range(spec.stages)]
        and all(np.isfinite(row[2]) for row in log)
        and (first_log is None or log == first_log)
    )


def _run_train(spec: TrainSpec, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    speed = HostSpeed()
    (g, schedule, cfg), setup_marks = _timed_setups(
        speed, lambda: _train_setup(spec, seed), TRAIN_SETUPS
    )
    pool = _train_corpora(g, schedule, cfg)
    mismatched = _mismatches(g, pool)
    outcome = Outcome({}, 0, mismatched, len(pool), _digest(g, (t for _, t in pool)))
    outcome.notes["generator_vs_reference_mismatches"] = mismatched
    roundtrip_path = out_dir / "train-roundtrip.bin"

    # A step runs from the end of the previous one (or of a host-speed
    # probe, or the start of the call) to the end of its adam_step, so
    # stage-start sampling and held-out evaluation land on the next step.
    step_marks = []  # (start, end) of every step of the run
    call_steps = []  # steps made by the current call
    last_mark = [0.0]

    def stamped_adam(*args, **kwargs):
        result = adam_step(*args, **kwargs)
        end = time.perf_counter()
        call_steps.append((last_mark[0], end))
        last_mark[0] = speed.probe_if_due() or end
        return result

    adam_step = guider.adam_step
    first_log = None

    def one_call():
        nonlocal first_log
        outcome.attempted += 1
        call_steps.clear()
        t0 = last_mark[0] = speed.probe()
        try:
            model, log = guider.train(g, schedule, cfg)
        except Exception as exc:  # counted as a failed operation
            _report_failure("train()", exc)
            outcome.failed += 1
            return None
        t1 = time.perf_counter()
        ok = _train_ok(spec, log, len(call_steps), first_log) and _round_trips(model, g, roundtrip_path)
        if not ok:
            print(f"train() call {outcome.attempted} failed its checks: {log}", file=sys.stderr)
            outcome.failed += 1
        first_log = first_log or log
        step_marks.extend(call_steps)
        return t1 - t0

    # Start another call only while it can end before the deadline.
    gc.collect()
    deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
    with swapped([(guider, "adam_step", stamped_adam)]):
        while True:
            took = one_call()
            if took is None or time.perf_counter() + took > deadline:
                break
    speed.probe()
    if first_log is not None:
        outcome.notes["final_heldout_acc"] = first_log[-1][3]
    outcome.notes["train_calls"] = outcome.attempted

    if not step_marks:
        return outcome  # every call failed; there is nothing to measure
    if not trace:
        _finish_times(outcome, speed, step_marks, setup_marks)
        outcome.metrics["accuracy"] = first_log[-1][3]
        outcome.metrics["peak_rss_mb"] = _peak_rss_mb()
        return outcome

    tracer = outcome.tracer = Tracer()
    targets = _sampler_targets() + (
        Target(guider, "loss_and_gradients", "guider.loss_grad", new_group=True),
        Target(guider, "adam_step", "guider.adam"),
    )
    with patched(tracer, targets):
        outcome.attempted += 1
        t0 = speed.probe()
        try:
            _, log = guider.train(g, schedule, cfg)
        except Exception as exc:  # counted as a failed operation
            _report_failure("traced train()", exc)
            log = None
        t1 = time.perf_counter()
    speed.probe()
    tot = Totals(tracer.spans)
    steps = tot.count("guider.loss_grad")
    if log is None or not _train_ok(spec, log, steps, first_log):
        outcome.failed += 1
    if not steps:
        return outcome  # the traced call failed before its first step
    m = _zero_layers()
    drawn = sum(s.note for s in tracer.spans if s.name == "sampler.sample_corpus")
    m["guider.loss_grad_ms"] = tot.total("guider.loss_grad") / steps * 1e3
    m["guider.adam_ms"] = tot.total("guider.adam") / steps * 1e3
    m["sampler.programs_per_s"] = drawn / tot.total("sampler.sample_corpus")
    m["sampler.self_ms"] = tot.own("sampler.sample_corpus") / steps * 1e3
    m["sampler.pairs_ms"] = tot.total("sampler.pairs") / steps * 1e3
    # The traced call has no probes inside; scale it by those around it.
    traced_rate = steps / ((t1 - t0) * speed.scale((t0 + t1) / 2))
    m["trace.overhead_frac"] = 1.0 - traced_rate / _rate(_scaled(speed, step_marks))
    outcome.metrics = m
    return outcome
