"""End-to-end and per-layer benchmark of the CPA library (see README.md)."""
