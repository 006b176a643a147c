"""Built-in ruleset: importing this package registers every rule."""

from __future__ import annotations

from repro.lint.rules import (
    determinism,
    exec_safety,
    exe_pure,
    frozen,
    perf,
    rng,
    rng_flow,
    robustness,
    service_async,
    wal_order,
)

__all__ = [
    "determinism",
    "exec_safety",
    "exe_pure",
    "frozen",
    "perf",
    "rng",
    "rng_flow",
    "robustness",
    "service_async",
    "wal_order",
]
