"""Set-up in a fresh interpreter: import numpy, import enrichedfp, resolve inputs.

Arguments are ``problem=<spec>`` or ``triple=<name>``.  Prints the times of
the three steps in ms as one JSON object; their sum is one setup_s sample.
"""

import json
import sys
import time

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
import enrichedfp  # noqa: E402

t2 = time.perf_counter()
for arg in sys.argv[1:]:
    kind, _, name = arg.partition("=")
    if kind == "problem":
        enrichedfp.get_problem(name)
    elif kind == "triple":
        enrichedfp.get_triple(name)
    else:
        sys.exit(f"bad argument {arg!r}; want problem=<spec> or triple=<name>")
t3 = time.perf_counter()
print(json.dumps({
    "numpy_ms": (t1 - t0) * 1e3,
    "enrichedfp_ms": (t2 - t1) * 1e3,
    "resolve_ms": (t3 - t2) * 1e3,
}))
