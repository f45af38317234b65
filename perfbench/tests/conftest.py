"""Make the benchmark modules and the program source importable."""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(os.path.dirname(BENCH), "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
