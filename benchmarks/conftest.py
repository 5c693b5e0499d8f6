"""Pytest configuration for the benchmark harness.

Benchmarks print the regenerated table / figure series for side-by-side
comparison with the paper; ``-s`` (or ``--capture=no``) shows them inline.
The paper's experiments E1–E8 are defined once, in
``tests/_paper_experiments.py``: tier-1 asserts their shape, and the
benchmarks here time the same runs and print their tables.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
