"""Train the guider model that the parse workloads load, and record it.

The recipe is the acceptance suite's ``full_model``: ``curriculum_schedule(4)``
with base seed 0, 800 iterations and 800 programs per stage, 150 held-out
programs, seed 0, one BLAS thread. It writes ``data/model.bin`` and
``data/model.json`` (the recipe and the file's sha256) next to this script.
The benchmark refuses a model file whose digest differs from the record, so
a change to training code cannot change the inputs of the parse workloads.

Run from the repository root (about three minutes on one core):

    python3 perfbench/make_fixture.py
"""

import os

from runrecord import THREAD_VARS

for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

import dataclasses  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from fixture import MODEL_JSON, MODEL_PATH, file_sha256  # noqa: E402
from ngparse import TrainConfig, build_grammar, curriculum_schedule, save_model, train  # noqa: E402

RECIPE = {
    "schedule": "curriculum_schedule(4, base_seed=0)",
    "config": {
        "iters_per_stage": 800,
        "programs_per_stage": 800,
        "heldout_programs": 150,
        "eval_every": 100,
        "seed": 0,
    },
}


def main() -> None:
    g = build_grammar()
    cfg = TrainConfig(**RECIPE["config"])
    t0 = time.perf_counter()
    model, log = train(g, curriculum_schedule(4, base_seed=0), cfg)
    elapsed = time.perf_counter() - t0
    save_model(model, MODEL_PATH)
    record = {
        "file": MODEL_PATH.name,
        "sha256": file_sha256(MODEL_PATH),
        "bytes": MODEL_PATH.stat().st_size,
        "recipe": RECIPE,
        "train_config": {
            k: (v.__name__ if isinstance(v, type) else v)
            for k, v in dataclasses.asdict(cfg).items()
        },
        "final_heldout_acc": log[-1][3],
        "train_seconds": round(elapsed, 1),
    }
    MODEL_JSON.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))


if __name__ == "__main__":
    main()
