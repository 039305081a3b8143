import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for _path in (ROOT / "src", BENCH):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from runrecord import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"
