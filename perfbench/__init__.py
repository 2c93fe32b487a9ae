"""Wall-clock serving benchmark: see ``perfbench/run.py``."""
