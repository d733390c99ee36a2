"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

    python3 -I probe_setup.py SRC_DIR INPUT...

Times ``import leibrack`` plus parsing and validating every INPUT (a
``.leib`` path, or ``builtin:NAME`` for a CLI built-in) and prints the
seconds.  Putting SRC_DIR on the path happens before the clock starts.
"""

import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
start = perf_counter()
import leibrack  # noqa: E402

for target in sys.argv[2:]:
    if target.startswith("builtin:"):
        leibrack.builtin(target.removeprefix("builtin:"))
    else:
        leibrack.parse_algebra_file(target)
print(perf_counter() - start)
