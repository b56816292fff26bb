"""Measure set-up in a fresh interpreter: import excolex, then build a workload's inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints {"import_s": ..., "setup_s": ...}; run.py takes the median of several.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

t0 = perf_counter()
import excolex.cli  # noqa: E402  (the whole package, as a command-line user loads it)

t1 = perf_counter()
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
