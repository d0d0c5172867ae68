"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def check(name: str, expected, computed, **context) -> dict:
    """One check record: {check, *context, expected, computed, pass}."""
    return {"check": name, **context, "expected": expected, "computed": computed,
            "pass": expected == computed}


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int = 1) -> list[R]:
    """Order-preserving map, optionally through a thread pool.

    Results are identical to the sequential run regardless of the thread
    count; only the evaluation schedule changes.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
