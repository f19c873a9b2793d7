"""The repository's benchmark: fixed workloads, end-to-end and per-layer
metrics, and an independent answer check.  Entry point: ``run.py``."""
