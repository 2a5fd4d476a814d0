"""End-to-end and per-layer benchmark of the repro package (see README.md)."""
