"""The repository benchmark: workloads, tracing and load generation (see run.py)."""
