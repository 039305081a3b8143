"""Command-line entry point.

Subcommands: gen, train, infer, search, eval, parse, inspect-grammar,
inspect-model. Exit codes: 0 success, 1 usage error, 2 runtime error.
Diagnostics go to stderr, data to stdout. An optional --config file of
key=value lines supplies defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import evaluate, guider, sampler
from .engine import InferConfig, InferenceError, infer, model_selector
from .grammar import GrammarError, Nonterminal, build_grammar
from .parser import ParseError, reference_parse
from .search import SearchConfig, iddfs_parse
from .tree import serialize

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_bucket(text: str, seed: int) -> sampler.SampleBucket:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError("--bucket expects min_len:max_len:min_depth:max_depth")
    a, b, c, d = (int(p) for p in parts)
    return sampler.SampleBucket(a, b, c, d, seed=seed)


def _parse_range(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(p) for p in text.split(",")]


def _apply_config_file(argv: list) -> list:
    """Turn key=value lines from --config into leading flags (so explicit
    flags, parsed later, win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise _UsageError("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _UsageError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            injected += [f"--{key.strip()}", value.strip()]
    # subcommand stays first; injected defaults go right after it
    if not rest:
        return injected
    return rest[:1] + injected + rest[1:]


def _build_argparser() -> _Parser:
    p = _Parser(prog="ngparse", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a corpus and/or training pairs")
    gen.add_argument("--bucket", required=True, help="min_len:max_len:min_depth:max_depth")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="corpus file path")
    gen.add_argument("--pairs", help="also write extracted training pairs here")

    tr = sub.add_parser("train", help="curriculum-train the rule selector")
    tr.add_argument("--stages", type=int, default=4)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="model file path")
    tr.add_argument("--log", help="training log CSV path")
    tr.add_argument("--batch-size", type=int, default=64)
    tr.add_argument("--lr", type=float, default=1e-4)
    tr.add_argument("--beta1", type=float, default=0.9)
    tr.add_argument("--beta2", type=float, default=0.9)
    tr.add_argument("--d-emb", type=int, default=64)
    tr.add_argument("--d-h", type=int, default=256)
    tr.add_argument("--iters-per-stage", type=int, default=2000)
    tr.add_argument("--programs-per-stage", type=int, default=1500)

    inf = sub.add_parser("infer", help="guided inference, token strings on stdin")
    inf.add_argument("--model", required=True)
    inf.add_argument("--mode", choices=["greedy", "fallback", "beam"], default="fallback")
    inf.add_argument("--beam-width", type=int, default=4)

    se = sub.add_parser("search", help="IDDFS baseline, token strings on stdin")
    se.add_argument("--max-depth", type=int, default=24)
    se.add_argument("--time-limit", type=float, default=3600.0)

    ev = sub.add_parser("eval", help="accuracy/latency grid over depth x length")
    ev.add_argument("--model")
    ev.add_argument("--methods", default="ngsi", help="comma list: ngsi,greedy,beam,search,oracle")
    ev.add_argument("--depths", default="6..11")
    ev.add_argument("--lengths", default="15..30")
    ev.add_argument("--per-cell", type=int, default=100)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.add_argument("--search-max-depth", type=int, default=24)
    ev.add_argument("--search-time-limit", type=float, default=60.0)

    pa = sub.add_parser("parse", help="oracle recursive-descent parse of stdin lines")
    pa.add_argument("--oracle", action="store_true", required=True)

    sub.add_parser("inspect-grammar", help="dump the rule table")

    im = sub.add_parser("inspect-model", help="dump tensor names and shapes")
    im.add_argument("--model", required=True)

    return p


def _cmd_gen(g, args) -> int:
    bucket = _parse_bucket(args.bucket, args.seed)
    corpus = sampler.sample_corpus(g, bucket, args.n)
    sampler.write_corpus(g, corpus, args.out)
    if args.pairs:
        pairs = [p for _, t in corpus for p in sampler.extract_training_pairs(g, t)]
        sampler.write_pairs(g, pairs, args.pairs)
    return 0


def _cmd_train(g, args) -> int:
    schedule = sampler.curriculum_schedule(args.stages, base_seed=args.seed)
    cfg = guider.TrainConfig(
        d_emb=args.d_emb,
        d_h=args.d_h,
        batch_size=args.batch_size,
        lr=args.lr,
        beta1=args.beta1,
        beta2=args.beta2,
        iters_per_stage=args.iters_per_stage,
        programs_per_stage=args.programs_per_stage,
        seed=args.seed,
    )
    model, log = guider.train(g, schedule, cfg)
    guider.save_model(model, args.out)
    if args.log:
        guider.write_training_log(log, args.log)
    if log:
        print(f"final held-out step accuracy: {log[-1][3]:.4f}", file=sys.stderr)
    return 0


def _stdin_lines():
    for line in sys.stdin:
        line = line.strip()
        if line:
            yield line


def _cmd_infer(g, args) -> int:
    model = guider.load_model(args.model, g)
    selector = model_selector(g, model)
    cfg = InferConfig(mode=args.mode, beam_width=args.beam_width)
    for line in _stdin_lines():
        try:
            tokens = g.encode(line)
        except GrammarError:
            print("ERROR bad_input")
            continue
        # Anything else is a fault of the model or the program, not of
        # this line: it propagates and main exits 2.
        try:
            print(serialize(g, infer(g, tokens, selector, cfg)))
        except InferenceError as exc:
            print(f"ERROR {exc.kind}")
    return 0


def _cmd_search(g, args) -> int:
    cfg = SearchConfig(max_depth=args.max_depth, time_limit_s=args.time_limit)
    for line in _stdin_lines():
        try:
            res = iddfs_parse(g, g.encode(line), cfg)
        except Exception:
            print("ERROR bad_input")
            continue
        if res.status == "found":
            print(serialize(g, res.tree))
        else:
            print(f"ERROR {res.status}")
    return 0


def _cmd_eval(g, args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    model = guider.load_model(args.model, g) if args.model else None
    records = evaluate.evaluate_grid(
        g,
        methods,
        _parse_range(args.depths),
        _parse_range(args.lengths),
        per_cell=args.per_cell,
        seed=args.seed,
        model=model,
        search_cfg=SearchConfig(
            max_depth=args.search_max_depth, time_limit_s=args.search_time_limit
        ),
    )
    evaluate.write_csv(records, args.out)
    return 0


def _cmd_parse(g, args) -> int:
    for line in _stdin_lines():
        try:
            print(serialize(g, reference_parse(g, g.encode(line))))
        except (ParseError, Exception) as exc:
            print(f"ERROR {exc}")
    return 0


def _cmd_inspect_grammar(g, args) -> int:
    from .grammar import Token

    for r in g.rules:
        rhs = " ".join(
            s.text if isinstance(s, Token) else s.name for s in r.rhs
        )
        print(f"{r.id}\t{r.lhs.name} -> {rhs}")
    return 0


def _cmd_inspect_model(g, args) -> int:
    model = guider.load_model(args.model, g)
    for name in sorted(model.params):
        shape = "x".join(str(d) for d in model.params[name].shape)
        print(f"{name}\t{shape}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "infer": _cmd_infer,
    "search": _cmd_search,
    "eval": _cmd_eval,
    "parse": _cmd_parse,
    "inspect-grammar": _cmd_inspect_grammar,
    "inspect-model": _cmd_inspect_model,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config_file(argv)
        args = _build_argparser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    g = build_grammar()
    try:
        return _COMMANDS[args.command](g, args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
