"""Command-line entry point.

Subcommands: gen, train, infer, search, eval, parse, inspect-grammar,
inspect-model. Exit codes: 0 success, 1 usage error, 2 runtime error.
Diagnostics go to stderr, data to stdout. infer, search and parse print
ERROR bad_input for a line with an unknown terminal and ERROR <reason> for
a line that does not parse; any other failure exits 2. infer and search
run each line through the runners eval uses, so a reason is the one eval
counts. inspect-grammar prints the rule table that model files are
fingerprinted by. An optional --config file of key=value lines supplies
defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import evaluate, guider, sampler
from .engine import MODES, InferConfig, model_selector
from .grammar import GrammarError, build_grammar
from .parser import ParseError, reference_parse
from .search import SearchConfig
from .tree import serialize

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_bucket(text: str, seed: int) -> sampler.SampleBucket:
    try:
        a, b, c, d = (int(p) for p in text.split(":"))
    except ValueError:
        raise _UsageError(
            f"--bucket expects min_len:max_len:min_depth:max_depth integers, got {text!r}"
        ) from None
    try:
        return sampler.SampleBucket(a, b, c, d, seed=seed)
    except ValueError as exc:
        raise _UsageError(f"--bucket {text!r}: {exc}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _checked(check, *args, **kwargs):
    """check(*args, **kwargs), with a ValueError from it reported as a
    usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _config(cls, args, **fields):
    """cls from the flags in args named after its fields, plus fields. A
    flag left out is absent from args, so it takes cls's own default."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if f.name in args}
    return _checked(cls, **given, **fields)


def _parse_range(text: str, flag: str) -> list:
    try:
        if ".." not in text:
            return [int(p) for p in text.split(",")]
        lo, hi = (int(p) for p in text.split(".."))
        if lo <= hi:
            return list(range(lo, hi + 1))
    except ValueError:
        pass
    raise _UsageError(
        f"{flag} expects lo..hi with lo <= hi or a comma list of integers, got {text!r}"
    )


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
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read --config file: {exc}") from None
    injected = []
    for line in lines:
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
    gen.add_argument("--n", type=_positive_int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="corpus file path")
    gen.add_argument("--pairs", help="also write extracted training pairs here")

    # A flag with no default here stays out of args when left out, so the
    # config class it feeds supplies the default (see _config).
    suppress = {"argument_default": argparse.SUPPRESS}
    tr = sub.add_parser("train", help="curriculum-train the rule selector", **suppress)
    tr.add_argument("--stages", type=_positive_int, default=4)
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True, help="model file path")
    tr.add_argument("--log", default=None, help="training log CSV path")
    tr.add_argument("--batch-size", type=int)
    tr.add_argument("--lr", type=float)
    tr.add_argument("--beta1", type=float)
    tr.add_argument("--beta2", type=float)
    tr.add_argument("--d-emb", type=int)
    tr.add_argument("--d-h", type=int)
    tr.add_argument("--iters-per-stage", type=int)
    tr.add_argument("--programs-per-stage", type=int)

    inf = sub.add_parser("infer", help="guided inference, token strings on stdin", **suppress)
    inf.add_argument("--model", required=True)
    inf.add_argument("--mode", choices=MODES)
    inf.add_argument("--beam-width", type=_positive_int)

    se = sub.add_parser("search", help="IDDFS baseline, token strings on stdin", **suppress)
    se.add_argument("--max-depth", type=int)
    se.add_argument("--time-limit", type=float, dest="time_limit_s")

    ev = sub.add_parser("eval", help="accuracy/latency grid over depth x length")
    ev.add_argument("--model")
    ev.add_argument("--methods", default="ngsi", help="comma list: ngsi,greedy,beam,search,oracle")
    ev.add_argument("--depths", default="6..11")
    ev.add_argument("--lengths", default="15..30")
    ev.add_argument("--per-cell", type=_positive_int, default=100)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.add_argument("--search-max-depth", type=int, dest="max_depth", default=argparse.SUPPRESS)
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
    cfg = _config(guider.TrainConfig, args)
    schedule = sampler.curriculum_schedule(args.stages, base_seed=args.seed)
    model, log = guider.train(g, schedule, cfg)
    guider.save_model(model, args.out)
    if args.log:
        guider.write_training_log(log, args.log)
    if log:
        print(f"final held-out step accuracy: {log[-1][3]:.4f}", file=sys.stderr)
    return 0


def _serve(g, run) -> int:
    """One stdout line per nonblank stdin line: ERROR bad_input for a line
    with an unknown terminal, otherwise run(tokens)'s tree, or ERROR and
    its reason. Anything run raises is a fault of the model or the
    program, not of the line: it propagates and main exits 2."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            tokens = g.encode(line)
        except GrammarError:
            print("ERROR bad_input")
            continue
        tree, reason = run(tokens)
        print(f"ERROR {reason}" if tree is None else serialize(g, tree))
    return 0


def _cmd_infer(g, args) -> int:
    model = guider.load_model(args.model, g)
    cfg = _config(InferConfig, args)
    return _serve(g, evaluate.infer_runner(g, model_selector(g, model), cfg))


def _cmd_search(g, args) -> int:
    return _serve(g, evaluate.search_runner(g, _config(SearchConfig, args)))


def _cmd_eval(g, args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    _checked(evaluate.check_methods, methods, bool(args.model))
    depths = _parse_range(args.depths, "--depths")
    lengths = _parse_range(args.lengths, "--lengths")
    search_cfg = _config(SearchConfig, args, time_limit_s=args.search_time_limit)
    model = guider.load_model(args.model, g) if args.model else None
    records = evaluate.evaluate_grid(
        g,
        methods,
        depths,
        lengths,
        per_cell=args.per_cell,
        seed=args.seed,
        model=model,
        search_cfg=search_cfg,
    )
    evaluate.write_csv(records, args.out)
    return 0


def _cmd_parse(g, args) -> int:
    def run(tokens):
        try:
            return reference_parse(g, tokens), None
        except ParseError as exc:
            return None, exc

    return _serve(g, run)


def _cmd_inspect_grammar(g, args) -> int:
    for line in g.rule_lines():
        print(line)
    return 0


def _cmd_inspect_model(g, args) -> int:
    tensors = guider._file_tensors(guider.load_model(args.model, g).params)
    for name in sorted(tensors):
        shape = "x".join(str(d) for d in tensors[name].shape)
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
        args = _build_argparser().parse_args(_apply_config_file(argv))
        return _COMMANDS[args.command](build_grammar(), args)
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
