"""Benchmark entry point named in ``BENCHMARK.json``.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Same as ``python -m perfbench run ...`` from the repository root; the
children it starts find ``src/`` themselves, so no PYTHONPATH is needed.
"""

import sys
from pathlib import Path

# Run as a script, this directory is sys.path[0]; replace it with the
# repository root so ``perfbench`` imports as a package.
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.cli import main  # noqa: E402

sys.exit(main(["run", *sys.argv[1:]]))
