"""Benchmark for qesa: workloads, result checks and an outside-in span tracer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
