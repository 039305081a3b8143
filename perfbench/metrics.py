"""Names and units of every metric the benchmark prints, as BENCHMARK.json
at the repository root lists them.

A run with tracing off prints END_TO_END; a traced run prints PER_LAYER.
"""

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# name: unit
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Counts that depend only on the inputs, so two traced runs of one seed
# must read them exactly alike.
DETERMINISTIC = (
    "guider.encode_calls",
    "guider.gru_steps",
    "guider.prefix_trie_steps",
    "engine.selector_calls",
    "decompose.calls",
    "search.nodes_expanded",
)
