"""A family's games run dominance and the pure scan once per column signature: every game against its own solve.

:func:`~pigouq.equilibria.solve_family` leaves the first game of each
column signature to its own rules. A later game with that signature
gets the same selection where dominance or the pure scan decides it,
and otherwise reads the first game's pure scan and selects from its own
square candidates. Here each k of the over-k pass, which
solves its games as one family, has its ``selected``, ``selected_by``
and total held to ``solve`` of that k's matrix, on random integer
families ``A0 + k*A1`` with narrow entries (so that ties and sign
changes at integer k are common) and on float named-set and custom-set
families; and every game of float gamma families is held to ``solve``
of it in every view.
"""

import math
import random

import pytest

import pigouq.equilibria as equilibria
import pigouq.metrics as metrics
from pigouq.cli import STRATEGY_SETS
from pigouq.equilibria import solve, solve_family
from pigouq.games import CostBimatrix, GameSpec, _bimatrices, bimatrix
from pigouq.metrics import profile_total, solve_over_k
from pigouq.strategies import StrategyAngles

GAMMA_MAX = math.pi / 2
TAGS = {1: ("P1",), 2: ("P1", "P2"), 3: ("P1", "P2", "Q")}


@pytest.fixture
def pass_calls(monkeypatch, computed):
    """The games that run dominance and the pure scan on their own grid, and the arguments of each mix key built.

    :func:`~pigouq.equilibria._mix_key` runs twice per square candidate,
    once per player, before the candidates are deduplicated. Read
    ``solved`` before any reference ``solve`` runs its own rules on the
    same matrices.
    """
    calls = {"solved": computed("_pure_selection"), "keys": []}
    real_key = equilibria._mix_key

    def keying(*args):
        calls["keys"].append(args)
        return real_key(*args)

    monkeypatch.setattr(equilibria, "_mix_key", keying)
    return calls


def finds_a_profile_twice(matrix, keys) -> bool:
    """Whether the square pass decides ``matrix``'s selection and finds one of its profiles from two support pairs."""
    eq = solve(matrix)
    if eq._pure_selection is not None:
        return False
    keys.clear()
    profiles = len(eq.mixed)
    return len(keys) // 2 > profiles


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
    monkeypatch.setattr(metrics, "_bimatrices", lambda *_: family)
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
    families = multi = twice = reused_mixed = reused_cells = 0
    for index in range(1500):
        size, n = rng.randint(1, 3), rng.randint(3, 14)
        top = n - 3  # entries stay positive down to k = top
        a0 = [[rng.randint(top + 1, top + 4) for _ in range(size)] for _ in range(size)]
        a1 = [[rng.choice((-1, 0, 1)) for _ in range(size)] for _ in range(size)]
        mode = "classical" if size == 2 and rng.random() < 0.5 else "quantum"
        spec = integer_family(monkeypatch, mode, n, a0, a1, rng.randint(1, 6))
        pass_calls["solved"].clear()
        points, opt = solve_over_k(spec)
        solved = list(pass_calls["solved"])
        assert_matches_per_k_solve(points, opt, full_views=index % 10 == 0)
        families += 1
        multi += len(solved) >= 3 and len(solved) < len(points)
        for _, matrix, eq, _ in points:
            if not any(m is matrix for m in solved):
                reused_mixed += eq.selected_by == "unique_mixed"
                reused_cells += eq.selected_by in ("dominance", "unique_strict_pure")
            twice += finds_a_profile_twice(matrix, pass_calls["keys"])
    # The corpus holds families whose column signature changes at several ks and
    # still repeats, square-decided games that find a profile from two support
    # pairs, and reused pure scans of every outcome.
    assert families == 1500 and multi > 300 and twice > 30 and reused_mixed > 20 and reused_cells > 1000


@pytest.mark.parametrize(
    "a0, a1, n, solved, rules, twice",
    [
        # Four column signatures at k = 0..3; k = 4..7 read k = 3's pure scan and each selects
        # its own unique mix.
        (
            [[8, 9, 10], [8, 9, 8], [10, 10, 11]],
            [[1, 0, 0], [0, 1, 0], [-1, 0, 1]],
            10,
            [0, 1, 2, 3],
            ["dominance", None, None] + ["unique_mixed"] * 5,
            [],
        ),
        # From k = 2 the pair ({P2,Q},{P2,Q}) solves to the weak pure cell (Q,Q) again: three
        # candidates, two profiles (that cell and a full mix), so k = 2..4 select nothing.
        (
            [[7, 8, 6], [8, 6, 5], [5, 8, 5]],
            [[0, -1, 1], [1, 1, 1], [-1, 1, 1]],
            7,
            [0, 1, 2],
            ["dominance", None, None, None, None],
            [2, 3, 4],
        ),
    ],
    ids=["signature-changes", "shared-supports"],
)
def test_pinned_integer_families(monkeypatch, pass_calls, a0, a1, n, solved, rules, twice):
    spec = integer_family(monkeypatch, "quantum", n, a0, a1, 1)
    points, opt = solve_over_k(spec)
    matrices = [matrix for _, matrix, _, _ in points]
    assert [k for k, m in enumerate(matrices) if any(s is m for s in pass_calls["solved"])] == solved
    assert_matches_per_k_solve(points, opt, full_views=True)
    assert [eq.selected_by for _, _, eq, _ in points] == rules
    assert [k for k, m in enumerate(matrices) if finds_a_profile_twice(m, pass_calls["keys"])] == twice


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


def test_gamma_families_match_per_game_solve(computed):
    """Float gamma families through ``solve_family``: every game, in sweep and shuffled order, is ``solve`` of it.

    Each family holds a set's games at the exact endpoints (0, an angle
    whose t underflows to 0, pi/2 and an angle whose t rounds to 1) among
    61 evenly spaced and 20 random float angles, for the two-person game
    and two k-person ones.
    """
    ruled = computed("_pure_selection")
    rng = random.Random(2029)
    evenly = [GAMMA_MAX * i / 60 for i in range(61)]
    games = reused_cells = reused_mixed = 0
    for strategies in list(STRATEGY_SETS.values()) + CUSTOM_SETS:
        for n, k in ((2, None), (10, 4), (7, 2)):
            angles = [0.0, 1e-170, GAMMA_MAX - 1e-9, GAMMA_MAX] + evenly + [rng.uniform(0, GAMMA_MAX) for _ in range(20)]
            spec = GameSpec("quantum", n, k, 0.0, strategies)
            matrices = _bimatrices(spec, (spec.k or 0,), sorted(set(angles)))
            for order in (matrices, rng.sample(matrices, len(matrices))):
                ruled.clear()
                family = solve_family(order)
                rules = [eq.selected_by for eq in family]  # a game not filled in runs its own rules here
                solved = list(ruled)
                for matrix, eq, rule in zip(order, family, rules):
                    want = solve(matrix)
                    assert (eq.selected, rule) == (want.selected, want.selected_by), (strategies, n, k)
                    assert eq == want and eq.to_json_obj() == want.to_json_obj()
                    if not any(m is matrix for m in solved):
                        reused_cells += eq.selected_by in ("dominance", "unique_strict_pure")
                        reused_mixed += eq.selected_by == "unique_mixed"
                games += len(family)
    # 6 sets, 3 specs, 2 orders, 84 angles; most games read an earlier game's selection, some
    # its pure scan and then select their own unique mix
    assert games == 3024 and reused_cells > 2000 and reused_mixed > 50
