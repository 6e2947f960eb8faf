"""Served-plan benchmark: drives a planning fleet through its public client
and reports end-to-end and per-layer metrics (see ``run.py``)."""
