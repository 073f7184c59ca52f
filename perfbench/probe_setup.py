"""Time powersde's set-up in a fresh interpreter: import, then load and
resolve each given config, which builds its models.  Prints the seconds.

    python3 perfbench/probe_setup.py SRC_DIR CONFIG.ini [CONFIG.ini ...]
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import powersde.cli  # noqa: E402,F401  (everything a subcommand imports)
from powersde.config import load_config, resolve_config  # noqa: E402

for path in sys.argv[2:]:
    resolve_config(load_config(path))
print(repr(perf_counter() - t0))
