"""Benchmark for textclf; see README.md."""
