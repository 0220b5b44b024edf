"""A family's games run dominance and the pure scan once per column signature: every game against its own solve.

The over-k pass splits k = 0..n-3 into runs of one column signature and
decides each run on its first game
(:class:`~pigouq.equilibria._RunPass`). A run that dominance or the pure
scan decides gives every k that selection; otherwise each k reads the
first game's pure scan and selects from its own square candidates. An
exact population's runs start at the roots of its within-column
differences, a float one's where its games' signatures change. Here
each k of the pass has its ``selected``, ``selected_by`` and total held
to ``solve`` of that k's matrix, on random integer families ``A0 + k*A1``
with narrow entries (so that ties and sign changes at integer k are
common), on pinned integer and float families, read in any order, and on
float named-set and custom-set families. The games, results, signatures
and square candidates a sweep makes are counted. Gamma families go
through :func:`~pigouq.equilibria.solve_family`, which leaves the first
game of each column signature to its own rules; every game of float
gamma families is held to ``solve`` of it in every view.
"""

import math
import random

import pytest

import pigouq.equilibria as equilibria
import pigouq.games as games
import pigouq.metrics as metrics
from pigouq.cli import STRATEGY_SETS
from pigouq.equilibria import EquilibriumResult, _grid_runs, solve, solve_family
from pigouq.errors import DomainError
from pigouq.games import CostBimatrix, GameSpec, _bimatrices, _k_family, bimatrix
from pigouq.metrics import analyze, profile_total, solve_over_k
from pigouq.strategies import StrategyAngles
from pigouq.sweeps import sweep_k

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
    """A spec whose over-k pass reads the exact games ``(a0 + k*a1) / scale``, k = 0..n-3, as its integer grid."""
    spec = GameSpec(mode, n, 0, GAMMA_MAX if mode == "quantum" else None, TAGS[len(a0)])
    monkeypatch.setattr(metrics, "_k_family", lambda _: (a0, a1, scale))
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


VIEWS = ("strict_pure", "weak_pure", "mixed", "selected", "selected_by", "diagnostics")


def assert_every_view_in_any_order(spec, rng):
    """A fresh pass of ``spec``, its points read in a random order and each point's views too, against ``solve``."""
    points, opt = solve_over_k(spec)
    for k in rng.sample(range(len(points)), len(points)):
        spec_k, matrix, eq, total = points[k]
        want = solve(matrix)
        for view in rng.sample(VIEWS, len(VIEWS)):
            assert getattr(eq, view) == getattr(want, view), (k, view)
        want_total = profile_total(spec_k, matrix, want.selected) if want.selected is not None else None
        assert total == want_total and type(total) is type(want_total)
        assert eq == want and eq.to_json_obj() == want.to_json_obj()
    assert opt == min((t for t in points.totals if t is not None), default=None)


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
        # In column P2, P1's and P2's entries tie at k = 1, an integer, and at no other k:
        # runs start at the tie and after it.
        (
            [[8, 8, 8], [9, 7, 6], [6, 10, 7]],
            [[1, -1, 1], [1, 0, 1], [0, 1, 1]],
            8,
            [0, 1, 2],
            ["unique_strict_pure", None] + ["unique_mixed"] * 4,
            [1],
        ),
        # In column P1, Q's entry rises by 2 a step and passes P1's at k = 5/2 and P2's at
        # 7/2, both between two integers: runs start at 3 and 4.
        (
            [[8, 5, 8], [10, 6, 6], [3, 7, 7]],
            [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
            8,
            [0, 3, 4],
            ["unique_mixed"] * 3 + ["unique_strict_pure"] + ["dominance"] * 2,
            [],
        ),
        # A tie at k = 0 alone: the game at k = 0 is a run of its own.
        (
            [[8, 5, 5], [7, 5, 4], [4, 7, 7]],
            [[1, -1, 0], [0, 0, 0], [0, 0, 0]],
            6,
            [0, 1],
            ["dominance", None, None, "unique_mixed"],
            [2],
        ),
        # A tie at the last k, n-3 = 3, alone: that game is a run of its own.
        (
            [[7, 7, 5], [4, 6, 7], [8, 4, 6]],
            [[0, 1, -1], [1, 0, 0], [0, -1, 0]],
            6,
            [0, 3],
            ["unique_mixed"] * 3 + [None],
            [3],
        ),
        # No slopes: one run, each k its own square candidates on one grid.
        (
            [[8, 5, 8], [9, 6, 6], [6, 7, 7]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            7,
            [0],
            ["unique_mixed"] * 5,
            [],
        ),
    ],
    ids=[
        "signature-changes", "shared-supports", "integer-root", "between-integers", "root-at-k0", "root-at-last-k",
        "zero-slopes",
    ],
)
def test_pinned_integer_families(monkeypatch, pass_calls, a0, a1, n, solved, rules, twice):
    spec = integer_family(monkeypatch, "quantum", n, a0, a1, 1)
    assert _grid_runs(a0, a1, n - 2) == solved
    points, opt = solve_over_k(spec)
    matrices = [matrix for _, matrix, _, _ in points]
    assert [k for k, m in enumerate(matrices) if any(s is m for s in pass_calls["solved"])] == solved
    assert_matches_per_k_solve(points, opt, full_views=True)
    assert [eq.selected_by for _, _, eq, _ in points] == rules
    assert [k for k, m in enumerate(matrices) if finds_a_profile_twice(m, pass_calls["keys"])] == twice
    rng = random.Random(sum(map(sum, a0)))
    for _ in range(3):
        assert_every_view_in_any_order(spec, rng)


def test_a_float_family_whose_signature_comes_back(monkeypatch, pass_calls):
    """A float population decides each run of one signature on its own first game, a signature met before included.

    An integer family's differences are affine in k, so their signs are
    monotone and no signature comes back; float games are compared as
    they are. Here k = 0 and k = 2..3 share P1's dominance, and k = 1
    between them has two weak pure equilibria.
    """
    grids = [
        ((1.0, 2.0), (2.0, 3.0)),
        ((2.0, 1.0), (1.0, 2.0)),
        ((1.5, 2.5), (2.5, 3.5)),
        ((1.25, 2.5), (2.5, 3.75)),
    ]
    family = [CostBimatrix._float(("P1", "P2"), grid) for grid in grids]
    monkeypatch.setattr(metrics, "_k_family", lambda _: family)
    spec = GameSpec("quantum", 6, 0, 0.9, ("P1", "P2"))
    points, opt = solve_over_k(spec)
    assert [k for k, m in enumerate(family) if any(s is m for s in pass_calls["solved"])] == [0, 1, 2]
    assert [rule for _, rule in points.selections] == ["dominance", None, "dominance", "dominance"]
    assert_matches_per_k_solve(points, opt, full_views=True)
    rng = random.Random(6)
    for _ in range(3):
        assert_every_view_in_any_order(spec, rng)


def test_an_exact_population_is_checked_positive_at_every_k(monkeypatch):
    # Cell (0, 1) is (1 - k) / 4: positive at k = 0, so only the far end, k = n-3 = 3, fails.
    monkeypatch.setattr(games, "_exact_grid", lambda n, outcomes: ([[5, 1], [3, 3]], [[0, -1], [0, 0]], 4))
    with pytest.raises(DomainError, match=r"^cost entries must be positive and finite, got -1/2$"):
        solve_over_k(GameSpec.classical_k_person(6, 0))


@pytest.fixture
def made(monkeypatch):
    """The games, equilibrium results, column signatures and square candidates made, each as it is made."""
    made = {"games": [], "results": [], "signatures": [], "candidates": []}
    for name in ("_exact", "_float"):
        real = getattr(CostBimatrix, name)

        def building(cls, *args, real=real):
            made["games"].append(real(*args))
            return made["games"][-1]

        monkeypatch.setattr(CostBimatrix, name, classmethod(building))
    real_init, real_post_init = CostBimatrix.__init__, EquilibriumResult.__post_init__

    def init(self, *args):
        real_init(self, *args)
        made["games"].append(self)

    def post_init(self):
        real_post_init(self)
        made["results"].append(self)

    monkeypatch.setattr(CostBimatrix, "__init__", init)
    monkeypatch.setattr(EquilibriumResult, "__post_init__", post_init)
    for name, key in (("_column_signature", "signatures"), ("_square_candidates", "candidates")):
        real = getattr(equilibria, name)
        monkeypatch.setattr(equilibria, name, lambda *args, real=real, key=key: made[key].append(args) or real(*args))
    return made


REFERENCE_SETS = [
    ("classical", ("P1", "P2"), None),
    ("quantum", ("P1", "P2", "Q"), GAMMA_MAX),
    ("quantum", ("P1", "P2", "M"), GAMMA_MAX),
]


@pytest.mark.parametrize("n", [10, 101])
@pytest.mark.parametrize("mode, names, gamma", REFERENCE_SETS, ids=["classical", "p1p2q", "p1p2m"])
def test_a_k_sweep_builds_one_game_per_run(made, mode, names, gamma, n):
    spec = GameSpec(mode, n, 0, gamma, names)
    a0, a1, _ = _k_family(spec)
    runs = _grid_runs(a0, a1, n - 2)
    assert runs == [0]  # each reference population is one run
    sweep_k(mode, names, n, gamma=gamma)
    assert (len(made["games"]), len(made["results"]), made["signatures"]) == (len(runs), len(runs), [])
    assert len(made["candidates"]) == (n - 2 if "Q" in names else 0)
    for k in (0, 1, n - 3):
        for key in made:
            made[key].clear()
        analyze(GameSpec(mode, n, k, gamma, names))
        assert len(made["games"]) == len(made["results"]) == (1 if k == 0 else 2)


def test_a_float_k_sweep_builds_every_game_and_decides_each_run_once(made):
    # the float population pinned by tests/golden/sweep_over_k_p1p2m_gamma1.2_n30.csv
    series = sweep_k("quantum", ("P1", "P2", "M"), 30, gamma=1.2)
    assert (len(made["games"]), len(made["signatures"]), made["candidates"]) == (28, 28, [])
    assert [made["games"].index(r.matrix) for r in made["results"]] == [0, 22, 26]
    assert [rep.equilibrium for rep in series.reports].count(None) == 4


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
            matrices = _bimatrices(spec, sorted(set(angles)))
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
