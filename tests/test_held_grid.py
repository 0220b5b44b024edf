"""Results read off the grid a matrix holds equal its integer grid's, in any read order.

An exact game from :func:`bimatrix` holds its integer grid over one
scale; a float game, and any matrix built through ``CostBimatrix(labels,
costs)``, holds its costs. The pure scan, dominance and the cheapest-cell
totals read the held grid, and only the square pass (``mixed`` and
``diagnostics``) reads ``scaled_costs``, which a float game builds on
first read. A positive scale keeps every comparison and tie, so every
equilibrium view must equal the one solved on the integer grid. A total is
the sum of two held costs, so a float game's least total and its reports
stay floats whatever was read first: reading ``mixed`` first builds the
integer grid, and that must not turn them into ``Fraction`` values.
"""

import math
import random
from fractions import Fraction as F
from itertools import product

import pytest

from pigouq.equilibria import PureProfile, optimal_outcome, solve
from pigouq.games import CostBimatrix, GameSpec, bimatrix, pinned_bill
from pigouq.metrics import MetricsReport, _per_game, format_equilibrium_label, profile_total
from pigouq.strategies import StrategyAngles

GAMMA_MAX = math.pi / 2
NAMED_SETS = [("P1", "P2", "M"), ("P1", "P2", "Q"), ("P2", "Q", "M"), ("Q", "M"), ("P1", "S1", "M")]


def _spec(rng, strategies, gamma, k_person):
    if not k_person:
        return GameSpec.quantum_two_person(strategies, gamma)
    n = rng.randrange(3, 31)
    return GameSpec.quantum_k_person(n, rng.randrange(n - 2), strategies, gamma)


def _builder_cases():
    """``(id, spec, build)`` for seeded games of the builder: named and custom sets, two-person and k-person."""
    rng = random.Random(2027)
    cases = []
    for strategies in NAMED_SETS:
        for gamma in [rng.uniform(0.0, GAMMA_MAX) for _ in range(4)] + [0.0, GAMMA_MAX]:
            for k_person in (False, True):
                cases.append(_spec(rng, strategies, gamma, k_person))
    for _ in range(12):
        custom = tuple(
            StrategyAngles(rng.uniform(0.0, math.pi), rng.uniform(0.0, GAMMA_MAX)) for _ in range(rng.choice((2, 3)))
        )
        cases.append(_spec(rng, custom, rng.uniform(0.0, GAMMA_MAX), rng.random() < 0.5))
    return [(spec.describe(), spec, lambda spec=spec: bimatrix(spec)) for spec in cases]


#: Float cells that tie exactly, and a total that ties only in floats: 2**-54 + 1.0 rounds to 1.0.
TIED = ((0.5, 2.0**-54, 0.75), (1.0, 0.5, 0.75), (0.75, 0.75, 0.5))


def _as(kind, x: F):
    """``x`` as an int, a Fraction or a float; a non-integer asked for as an int stays a Fraction."""
    return x if kind is int and x.denominator != 1 else kind(x)


def _user_cases():
    """``(id, spec, build)`` for matrices built through the public constructor, ints, Fractions and floats mixed."""
    rng = random.Random(1999)
    pool = [F(1, 4), F(1, 2), F(3, 4), F(1), F(5, 4), F(1, 3), F(2)]
    grids = [TIED, ((0.5, 0.5), (0.5, 0.5)), ((1, 2), (3, 1)), ((F(1, 3), F(1, 2)), (F(2, 3), F(1, 3)))]
    for _ in range(40):
        size = rng.choice((2, 3))
        rows = [[_as(rng.choice((int, F, float)), rng.choice(pool)) for _ in range(size)] for _ in range(size)]
        grids.append(tuple(map(tuple, rows)))
    cases = []
    for index, grid in enumerate(grids):
        labels = ("A", "B", "C")[: len(grid)]
        spec = GameSpec.quantum_k_person(10, index % 8, ("P1", "P2", "M")[: len(grid)])
        cases.append((f"user-{index}", spec, lambda labels=labels, grid=grid: CostBimatrix(labels, grid)))
    return cases


USER_CASES = _user_cases()
CASES = _builder_cases() + USER_CASES


def _integer_grid_solve(build):
    """The matrix's equilibria solved on its integer grid: the same costs, held as integers over one scale."""
    matrix = build()
    return solve(CostBimatrix._exact(matrix.labels, *matrix.scaled_costs))


def _cheapest_cells(build):
    """``optimal_outcome`` as a sum of each cell's two costs, read off the public cells view."""
    totals = [[a + b for a, b in row] for row in build().cells]
    best = min(map(min, totals))
    return [(i, j) for i, row in enumerate(totals) for j, t in enumerate(row) if t == best], best


def _lower(labels, probs):
    return sum(p for label, p in zip(labels, probs) if label == "P2")


def _report(spec, matrix, eq):
    """The per-game report, priced on the public cells view with the ``Fraction`` bill."""
    _, best = _cheapest_cells(lambda: matrix)
    cost_opt = best + pinned_bill(spec)
    selected = eq.selected
    if selected is None:
        return MetricsReport(None, cost_opt, None, None, spec.k, None)
    if isinstance(selected, PureProfile):
        labels = (selected.row_label, selected.col_label)
        a, b = matrix.cell(selected.row, selected.col)
        cost_ne = a + b + pinned_bill(spec, labels.count("P2"))
    else:
        lower = _lower(matrix.labels, selected.alice_probs) + _lower(matrix.labels, selected.bob_probs)
        cost_ne = selected.expected_cost_alice + selected.expected_cost_bob + pinned_bill(spec, lower)
    ratio = cost_ne / cost_opt
    return MetricsReport(cost_ne, cost_opt, ratio, ratio, spec.k, format_equilibrium_label(selected))


def _typed(report):
    return report, [type(x) for x in (report.cost_ne, report.cost_opt, report.pos, report.poa)]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
@pytest.mark.parametrize("mixed_first", [True, False], ids=["mixed-first", "mixed-last"])
def test_held_grid_gives_the_integer_grid_results_in_any_read_order(case, mixed_first):
    _, spec, build = case
    matrix = build()
    if mixed_first:
        solve(matrix).mixed  # builds the integer grid of a float game before anything else is read
    eq = solve(matrix)
    views = eq.selected, eq.selected_by, eq.weak_pure, eq.strict_pure
    cells, value = optimal_outcome(matrix)
    report = _per_game(spec, matrix)[2]
    fresh = build()
    want = _integer_grid_solve(build)
    assert views == (want.selected, want.selected_by, want.weak_pure, want.strict_pure)
    assert eq == want  # mixed and diagnostics too, read last in the mixed-last order

    want_cells, want_value = _cheapest_cells(build)
    assert [(p.row, p.col) for p in cells] == want_cells
    assert value == want_value and type(value) is type(want_value)
    assert _typed(report) == _typed(_report(spec, fresh, solve(fresh)))

    # The least total against the integer grid's exact totals: a float game's is their
    # correctly rounded float, since a float sum of two floats is.
    a, scale = fresh.scaled_costs
    exact = {(i, j): F(a[i][j] + a[j][i], scale) for i, j in product(range(fresh.size), repeat=2)}
    if all(type(x) is float for row in fresh.costs for x in row):
        assert type(value) is float and value == float(min(exact.values()))
        assert want_cells == [cell for cell, total in exact.items() if float(total) == value]
        assert all(type(x) is float for x in (report.cost_opt, report.pos) if x is not None)
    elif all(type(x) is F for row in fresh.costs for x in row):
        assert value == min(exact.values()) and want_cells == [c for c, t in exact.items() if t == value]


@pytest.mark.parametrize("case", USER_CASES[:12], ids=[case[0] for case in USER_CASES[:12]])
def test_pure_totals_of_user_matrices_add_the_bill_as_a_cost_sum_does(case):
    # Every cell as a pure profile, under a quantum spec and a classical one, whose
    # bill depends on the free players on P2: the same value and type as
    # cost + cost + pinned_bill, whatever the cost types.
    _, quantum, build = case
    matrix = build()
    labels = ("P1", "P2", "M")[: matrix.size]
    for spec in (quantum, GameSpec.classical_k_person(10, quantum.k)):
        for i, j in product(range(matrix.size), repeat=2):
            profile = PureProfile(i, j, labels[i], labels[j])
            lower = (labels[i], labels[j]).count("P2")
            want = matrix.cost_a(i, j) + matrix.cost_a(j, i) + pinned_bill(spec, lower)
            got = profile_total(spec, matrix, profile)
            assert got == want and type(got) is type(want)
