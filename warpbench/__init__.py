"""Benchmark for warpski: seeded workloads timed from outside the library."""
