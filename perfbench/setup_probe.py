"""Set-up probe: a fresh interpreter imports the CLI and loads a config.

Prints one JSON line with the two parts it timed itself; ``run.py``
times the whole process from launch to that line (``setup_s``).
Usage: python3 perfbench/setup_probe.py CONFIG
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = perf_counter()
import wikialumni.cli  # noqa: E402,F401
from wikialumni import config  # noqa: E402

t1 = perf_counter()
config.load_config(sys.argv[1])
t2 = perf_counter()
print(json.dumps({"import_s": t1 - t0, "load_config_s": t2 - t1}), flush=True)
