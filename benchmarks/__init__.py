"""Benchmark suite: one module per paper table/figure (see docs/EXPERIMENTS.md §1 and §3)."""
