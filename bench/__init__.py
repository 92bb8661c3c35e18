"""Benchmark of the geninv library: seeded workloads, oracle checks, traced layers."""
