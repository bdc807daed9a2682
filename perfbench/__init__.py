"""Benchmark harness for the qeei package; see README.md."""
