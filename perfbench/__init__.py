"""Linkage benchmark for mel_ray: see perfbench/README.md."""
