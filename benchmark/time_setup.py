"""Time a fresh-process set-up of stagmt: the import plus grammar loading.

    python3 benchmark/time_setup.py SRC_DIR GRAMMAR...

Only sys and time are imported before the clock starts, so every module
stagmt pulls in, from the standard library too, is timed. Prints one JSON
object: the set-up seconds and five samples of the host-speed loop taken
right after (see hostspeed.py), after one more that warms the loop up.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stagmt  # noqa: E402

for source in sys.argv[2:]:
    stagmt.load_grammar(source)
setup_s = time.perf_counter() - start

import json  # noqa: E402

if not stagmt.__file__.startswith(sys.argv[1]):
    raise SystemExit(f"stagmt imported from {stagmt.__file__}, not {sys.argv[1]}")
from hostspeed import loop_seconds  # noqa: E402

print(json.dumps({"setup_s": setup_s, "loops_s": [loop_seconds() for _ in range(6)][1:]}))
