"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload fallback-long --seed 1 --seconds 15 --trace 0

The inputs come from --seed alone. The run measures for about --seconds,
checks every output, and prints each metric with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The run record and, when traced, the spans go to
.perfbench_out/ in the checkout. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from runrecord import THREAD_VARS, host_record  # noqa: E402

for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "ngparse" / "__init__.py").is_file():
        print(f"ngparse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import fixture
    import metrics
    import workloads

    spec = workloads.WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    outcome = workloads.run(spec, args.seed, args.seconds, bool(args.trace), out_dir)

    catalogue = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    missing = set(catalogue) - set(outcome.metrics)
    if missing and not outcome.failed:
        raise RuntimeError(f"run reported no value for {sorted(missing)}")
    values = {name: float(outcome.metrics.get(name, 0.0)) for name in catalogue}
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": catalogue[n]} for n, v in values.items()},
    }

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_record(ROOT),
        "fixture_sha256": json.loads(fixture.MODEL_JSON.read_text())["sha256"],
        "inputs": outcome.inputs,
        "inputs_sha256": outcome.inputs_digest,
        "notes": outcome.notes,
        "result": result,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if outcome.tracer is not None:
        outcome.tracer.write(out_dir / f"{stem}.spans.jsonl")

    print(f"{args.workload} seed {args.seed}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed, inputs sha256 {outcome.inputs_digest[:16]}")
    for name, value in values.items():
        print(f"  {name:28s} {value:14.6g} {catalogue[name]}")
    for name, value in outcome.notes.get("raw", {}).items():
        print(f"  raw {name:24s} {value:14.6g} {catalogue[name]} (unscaled)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
