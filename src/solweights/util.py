"""Small shared helpers."""

from __future__ import annotations


def check(name: str, expected, computed, **context) -> dict:
    """One check record: {check, *context, expected, computed, pass}."""
    return {"check": name, **context, "expected": expected, "computed": computed,
            "pass": expected == computed}
