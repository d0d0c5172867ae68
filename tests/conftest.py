"""Shared session fixtures.

The heavy verifications (the 2-local model builds and their reports) are
computed once per session and shared between the module tests and the
acceptance suite; the model and report functions are memoized per
enumeration cap (``groups.cached_per_cap``), so these fixtures are thin
wrappers around the first call, whose report carries its wall time in
``elapsed_s``.
"""

from __future__ import annotations

import pytest

from solweights import solmodel


@pytest.fixture(scope="session")
def sol0():
    return solmodel.build_sol_model(0)


@pytest.fixture(scope="session")
def sol1():
    return solmodel.build_sol_model(1)


@pytest.fixture(scope="session")
def torus_report_l0():
    return solmodel.verify_torus_sequence(0)


@pytest.fixture(scope="session")
def torus_report_l1():
    return solmodel.verify_torus_sequence(1)


@pytest.fixture(scope="session")
def sectional_report():
    return solmodel.sectional_rank_certificate(0)


@pytest.fixture(scope="session")
def sectional_report_l1():
    return solmodel.sectional_rank_certificate(1)


@pytest.fixture(scope="session")
def radicals_report_l0():
    return solmodel.verify_k_radicals_l0()


@pytest.fixture(scope="session")
def spotcheck_report_l1():
    return solmodel.spotcheck_l1()


@pytest.fixture(scope="session")
def quaternion_reports():
    return {l: solmodel.verify_quaternion_lemma(l) for l in (1, 2, 3)}


def failing(report: dict) -> list[dict]:
    return [c for c in report["checks"] if not c["pass"]]
