"""perfbench: the repository's measured host benchmark.

Run ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
or ``PYTHONPATH=src python -m perfbench run``; see ``perfbench/README.md``.
"""
