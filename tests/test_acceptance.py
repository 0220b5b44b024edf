"""Acceptance suite: one test per release criterion.

The reference numbers live in :mod:`pigouq.verification` only. Each test
here runs the ``pigouq verify`` check of its criterion, one name of
``CHECKS``, and fails with that check's detail.
"""

import pytest

from pigouq.verification import CHECKS, run_all


@pytest.fixture(scope="module")
def results():
    return dict(zip(CHECKS, run_all()))


def passes(results, name):
    result = results[name]
    assert result.passed, f"{result.name}: {result.detail}"
    print(f"ACCEPTANCE {CHECKS.index(name) + 1} PASS: {result.name}")


def test_criterion_01_two_person_classical_grid(results):
    passes(results, "two_person_classical_grid")


def test_criterion_02_two_person_phase_strategy_game(results):
    passes(results, "two_person_phase_strategy_game")


def test_criterion_03_two_person_miracle_strategy_game(results):
    passes(results, "two_person_miracle_strategy_game")


def test_criterion_04_k_person_grids_closed_form(results):
    passes(results, "k_person_grids_closed_form")


def test_criterion_05_protocol_vectors_and_miracle_totals(results):
    passes(results, "protocol_outcome_vectors")


def test_criterion_06_mixed_equilibrium_closed_form(results):
    passes(results, "mixed_equilibrium_closed_form")


def test_criterion_07_classical_sweep(results):
    passes(results, "classical_sweep_series")


def test_criterion_08_phase_strategy_sweep(results):
    passes(results, "phase_strategy_sweep_series")


def test_criterion_09_miracle_strategy_sweep(results):
    passes(results, "miracle_strategy_sweep_series")


def test_criterion_10_property_suite(results):
    passes(results, "property_batch")


def test_criterion_11_sweep_determinism(results):
    passes(results, "sweep_determinism")
