"""Explanation benchmark: end-to-end and per-layer cost of CERTA explanations."""
