"""The over-k pass decides each selection once per signature: every k against its own solve.

:func:`~pigouq.metrics.solve_over_k` solves the first game of each
signature in full and gives every later game with that signature the
same selection: the same cell, or the producing support pair solved at
that game's k. Here each k's ``selected``, ``selected_by`` and total are
held to ``solve`` of that k's matrix, on random integer families
``A0 + k*A1`` with narrow entries (so that ties and sign changes at
integer k are common) and on float named-set and custom-set families.
"""

import math
import random

import pytest

import pigouq.metrics as metrics
from pigouq.cli import STRATEGY_SETS
from pigouq.equilibria import solve
from pigouq.games import CostBimatrix, GameSpec, bimatrix
from pigouq.metrics import profile_total, solve_over_k
from pigouq.strategies import StrategyAngles

GAMMA_MAX = math.pi / 2
TAGS = {1: ("P1",), 2: ("P1", "P2"), 3: ("P1", "P2", "Q")}


@pytest.fixture
def pass_calls(monkeypatch):
    """The games the pass hands to ``solve``, and each square signature it computes (None where the guard trips)."""
    calls = {"solved": [], "square": []}
    real_solve, real_signature = metrics.solve, metrics._square_signature

    def solving(matrix):
        calls["solved"].append(matrix)
        return real_solve(matrix)

    def signing(candidates):
        signature = real_signature(candidates)
        calls["square"].append(signature)
        return signature

    monkeypatch.setattr(metrics, "solve", solving)
    monkeypatch.setattr(metrics, "_square_signature", signing)
    return calls


def integer_family(monkeypatch, mode, n, a0, a1, scale):
    """A spec whose over-k pass reads the exact games ``(a0 + k*a1) / scale``, k = 0..n-3."""
    size = len(a0)
    spec = GameSpec(mode, n, 0, GAMMA_MAX if mode == "quantum" else None, TAGS[size])
    family = [
        CostBimatrix._exact(
            spec.strategy_labels(), [[x + k * y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)], scale
        )
        for k in range(n - 2)
    ]
    monkeypatch.setattr(metrics, "bimatrices_over_k", lambda _: family)
    return spec


def assert_matches_per_k_solve(points, opt, full_views=False):
    """Every point's selection, rule and total are those of ``solve`` of its own matrix."""
    totals = []
    for spec_k, matrix, eq, total in points:
        want = solve(matrix)
        assert (eq.selected, eq.selected_by) == (want.selected, want.selected_by), (spec_k, matrix)
        want_total = profile_total(spec_k, matrix, want.selected) if want.selected is not None else None
        assert total == want_total and type(total) is type(want_total)
        if full_views:
            assert eq == want and eq.to_json_obj() == want.to_json_obj()
        totals.append(want_total)
    assert opt == min((t for t in totals if t is not None), default=None)


def test_random_integer_families_match_per_k_solve(monkeypatch, pass_calls):
    rng = random.Random(2028)
    families = multi = guarded = reused_mixed = reused_cells = 0
    for index in range(1500):
        size, n = rng.randint(1, 3), rng.randint(3, 14)
        top = n - 3  # entries stay positive down to k = top
        a0 = [[rng.randint(top + 1, top + 4) for _ in range(size)] for _ in range(size)]
        a1 = [[rng.choice((-1, 0, 1)) for _ in range(size)] for _ in range(size)]
        mode = "classical" if size == 2 and rng.random() < 0.5 else "quantum"
        spec = integer_family(monkeypatch, mode, n, a0, a1, rng.randint(1, 6))
        pass_calls["solved"].clear()
        pass_calls["square"].clear()
        points, opt = solve_over_k(spec)
        assert_matches_per_k_solve(points, opt, full_views=index % 10 == 0)
        solved = pass_calls["solved"]
        families += 1
        multi += len(solved) >= 3 and len(solved) < len(points)
        guarded += None in pass_calls["square"]
        for _, matrix, eq, _ in points:
            if not any(m is matrix for m in solved):
                reused_mixed += eq.selected_by == "unique_mixed"
                reused_cells += eq.selected_by in ("dominance", "unique_strict_pure")
    # The corpus holds families whose signature changes at several ks and still
    # repeats, families that trip the guard, and reused selections of every kind.
    assert families == 1500 and multi > 300 and guarded > 5 and reused_mixed > 20 and reused_cells > 1000


@pytest.mark.parametrize(
    "a0, a1, n, solved, rules, guard",
    [
        # Four signatures at k = 0..3, then k = 4..7 read their unique mix off k = 3's.
        (
            [[8, 9, 10], [8, 9, 8], [10, 10, 11]],
            [[1, 0, 0], [0, 1, 0], [-1, 0, 1]],
            10,
            [0, 1, 2, 3],
            ["dominance", None, None] + ["unique_mixed"] * 5,
            [],
        ),
        # Past k = 0 two candidates share their supports, so every k is solved in full.
        (
            [[7, 8, 6], [8, 6, 5], [5, 8, 5]],
            [[0, -1, 1], [1, 1, 1], [-1, 1, 1]],
            7,
            [0, 1, 2, 3, 4],
            ["dominance", None, None, None, None],
            [None, None, None],
        ),
    ],
    ids=["signature-changes", "guard"],
)
def test_pinned_integer_families(monkeypatch, pass_calls, a0, a1, n, solved, rules, guard):
    spec = integer_family(monkeypatch, "quantum", n, a0, a1, 1)
    points, opt = solve_over_k(spec)
    assert_matches_per_k_solve(points, opt, full_views=True)
    assert [eq.selected_by for _, _, eq, _ in points] == rules
    matrices = [matrix for _, matrix, _, _ in points]
    assert [k for k, m in enumerate(matrices) if any(s is m for s in pass_calls["solved"])] == solved
    assert [s for s in pass_calls["square"] if s is None] == guard


CUSTOM_SETS = [
    (StrategyAngles(0.0, 0.0), StrategyAngles(math.pi, 0.0), StrategyAngles(math.pi / 2, math.pi / 2)),
    (StrategyAngles(0.4, 1.1), StrategyAngles(2.5, 0.2), StrategyAngles(1.3, 0.7)),
]


@pytest.mark.parametrize("gamma", [0.3, math.pi / 4, 1.2])
@pytest.mark.parametrize(
    "strategies", list(STRATEGY_SETS.values()) + CUSTOM_SETS, ids=list(STRATEGY_SETS) + ["custom-p1p2m", "custom"]
)
def test_float_families_match_per_k_solve(strategies, gamma):
    for n in range(3, 31):
        spec = GameSpec.quantum_k_person(n, 0, strategies, gamma)
        points, opt = solve_over_k(spec)
        for spec_k, matrix, _, _ in points:
            assert matrix == bimatrix(spec_k)
        assert_matches_per_k_solve(points, opt, full_views=n % 9 == 0)
