"""Workload shapes shared by the benchmarks and the tests.

Performance is measured by ``benchmarks/e2e`` (every layer's ns/op under
``--trace 1``) and pinned in Tier-1 as exact counts; see
``docs/PERFORMANCE.md``.
"""
