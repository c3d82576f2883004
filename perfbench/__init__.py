"""The repository's benchmark: four seeded workloads behind one command,
``python3 perfbench/run.py`` (see ``README.md`` in this directory)."""
