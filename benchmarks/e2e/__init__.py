"""End-to-end and per-layer benchmark of the public API (see README.md)."""
