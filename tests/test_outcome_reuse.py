"""No protocol run per game for named sets, and support enumeration only where the selection needs it.

Counted protocol evaluations, square support passes and linear solves,
and the per-k reference path.
"""

import math

import numpy as np
import pytest

import pigouq.equilibria as equilibria
import pigouq.games as games
import pigouq.metrics as metrics
import pigouq.sweeps as sweeps
from pigouq.cli import main
from pigouq.equilibria import solve
from pigouq.errors import DomainError
from pigouq.games import CostBimatrix, GameSpec, bimatrix
from pigouq.metrics import MetricsReport, analyze, format_equilibrium_label, profile_total, solve_over_k
from pigouq.strategies import StrategyAngles
from pigouq.sweeps import sweep_gamma, sweep_k

GAMMA_MAX = math.pi / 2
SETS = [("P1", "P2", "Q"), ("P1", "P2", "M")]
# The two endpoint tables of the catalog: 36 pairs at gamma = 0 and at pi/2.
ENDPOINT_RUNS = [36, 36]


@pytest.fixture
def protocol_runs(monkeypatch):
    """One entry per batched protocol evaluation made through the games layer: the pairs it ran.

    The endpoint tables are dropped first, so the first named-set grid of
    a test counts their two runs whatever ran before it.
    """
    runs = []
    real = games.outcome_table

    def counting(rows, cols, gamma):
        runs.append(len(rows) * len(cols))
        return real(rows, cols, gamma)

    monkeypatch.setattr(games, "outcome_table", counting)
    games._endpoint_tables.cache_clear()
    yield runs
    games._endpoint_tables.cache_clear()


@pytest.fixture
def enumerations(monkeypatch):
    """One entry per square support pass (the pass ``mixed`` reads): the size of its matrix."""
    runs = []
    real = equilibria._square_pass

    def counting(matrix, weak_pure):
        runs.append(matrix.size)
        return real(matrix, weak_pure)

    monkeypatch.setattr(equilibria, "_square_pass", counting)
    return runs


@pytest.fixture
def linear_solves(monkeypatch):
    """One entry per indifference system solved: the keys of each system table built."""
    runs = []
    real = equilibria._systems

    def counting(a, r):
        table = real(a, r)
        runs.extend(table)
        return table

    monkeypatch.setattr(equilibria, "_systems", counting)
    return runs


@pytest.fixture
def sweep_games(monkeypatch):
    """Every game the family builder returns to :func:`sweep_gamma`, in order."""
    games_built = []
    real = sweeps._bimatrices

    def recording(spec, ks, gammas):
        matrices = real(spec, ks, gammas)
        games_built.extend(matrices)
        return matrices

    monkeypatch.setattr(sweeps, "_bimatrices", recording)
    return games_built


def per_k_points(mode, names, n, ks, gamma):
    """(spec, equilibria, total) per k, each k built and solved on its own."""
    points = []
    for k in ks:
        spec = GameSpec(mode=mode, n=n, k=k, gamma=gamma, strategies=names)
        matrix = bimatrix(spec)
        eq = solve(matrix)
        total = profile_total(spec, matrix, eq.selected) if eq.selected is not None else None
        points.append((spec, eq, total))
    return points


def per_k_reports(points):
    """The points' reports, each priced against the cheapest total over k = 0..n-3 of the same game."""
    spec = points[0][0]
    full = per_k_points(spec.mode, spec.strategies, spec.n, range(0, spec.n - 2), spec.gamma)
    opt = min(total for _, _, total in full if total is not None)
    reports = []
    for spec, eq, total in points:
        if total is None:
            reports.append(MetricsReport(None, opt, None, None, spec.k, None))
        else:
            ratio = total / opt
            reports.append(MetricsReport(total, opt, ratio, ratio, spec.k, format_equilibrium_label(eq.selected)))
    return tuple(reports)


@pytest.mark.parametrize("names", SETS, ids="".join)
@pytest.mark.parametrize("n", [4, 10, 31])
def test_sweep_k_runs_the_protocol_once_per_strategy_pair(protocol_runs, names, n):
    series = sweep_k("quantum", names, n, gamma=GAMMA_MAX)
    assert protocol_runs == ENDPOINT_RUNS
    protocol_runs.clear()
    assert sweep_k("quantum", names, n, gamma=GAMMA_MAX) == series
    assert protocol_runs == []
    assert series.reports == per_k_reports(per_k_points("quantum", names, n, range(1, n - 2), GAMMA_MAX))


@pytest.mark.parametrize("k_values", [range(0, 8), [6, 7], [4], [7, 0, 3, 3]])
def test_sweep_k_with_explicit_range_matches_per_k_path(protocol_runs, k_values):
    for first, names in enumerate(SETS, start=1):
        protocol_runs.clear()
        series = sweep_k("quantum", names, 10, k_values, gamma=GAMMA_MAX)
        assert protocol_runs == (ENDPOINT_RUNS if first == 1 else [])
        ks = sorted(set(k_values))
        assert series.values == tuple(ks)
        assert series.reports == per_k_reports(per_k_points("quantum", names, 10, ks, GAMMA_MAX))


def test_float_gamma_sweep_matches_per_k_path(protocol_runs):
    series = sweep_k("quantum", ("P1", "P2", "M"), 9, gamma=0.9)
    assert protocol_runs == ENDPOINT_RUNS
    assert series.reports == per_k_reports(per_k_points("quantum", ("P1", "P2", "M"), 9, range(1, 7), 0.9))


CUSTOM = (StrategyAngles(0.0, 0.0), StrategyAngles(math.pi, 0.0), StrategyAngles(math.pi / 2, math.pi / 2))


def test_float_gamma_sweep_of_a_custom_set_matches_per_k_path(protocol_runs):
    # one outcome grid for the whole over-k pass: a single 3x3 protocol run
    series = sweep_k("quantum", CUSTOM, 9, gamma=0.7)
    assert protocol_runs == [9]
    assert series.reports == per_k_reports(per_k_points("quantum", CUSTOM, 9, range(1, 7), 0.7))


def test_classical_sweep_runs_no_protocol(protocol_runs):
    series = sweep_k("classical", ("P1", "P2"), 12, range(0, 10))
    assert protocol_runs == []
    assert series.reports == per_k_reports(per_k_points("classical", ("P1", "P2"), 12, range(0, 10), None))


@pytest.mark.parametrize("names", SETS, ids="".join)
@pytest.mark.parametrize("n", [5, 10, 31])
def test_report_runs_the_protocol_once_per_strategy_pair(protocol_runs, names, n):
    k = n // 2
    spec = GameSpec.quantum_k_person(n, k, names)
    matrix = bimatrix(spec)
    eq = solve(matrix)
    protocol_runs.clear()
    _, _, got = analyze(spec)
    assert protocol_runs == []
    points = per_k_points("quantum", names, n, range(0, n - 2), GAMMA_MAX)
    opt = min(total for _, _, total in points if total is not None)
    total = profile_total(spec, matrix, eq.selected)
    assert got == MetricsReport(total, opt, total / opt, total / opt, k, format_equilibrium_label(eq.selected))
    protocol_runs.clear()
    assert analyze(spec) == (matrix, eq, got)
    assert protocol_runs == []


def test_solve_over_k_matches_per_k_path(protocol_runs):
    names = ("P1", "P2", "Q")
    for first, n in enumerate((3, 4, 10), start=1):
        protocol_runs.clear()
        points, opt = solve_over_k(GameSpec.quantum_k_person(n, 0, names))
        assert protocol_runs == (ENDPOINT_RUNS if first == 1 else [])
        want = per_k_points("quantum", names, n, range(0, n - 2), GAMMA_MAX)
        assert [(spec, eq, total) for spec, _, eq, total in points] == want
        assert opt == min(total for _, _, total in want if total is not None)
    # The spec refuses the populations that have no over-k pass.
    with pytest.raises(DomainError, match=r"^the k-person game requires n >= 3$"):
        GameSpec.quantum_k_person(2, 0, names)
    with pytest.raises(DomainError, match=r"^n must be an integer, got 10\.0$"):
        GameSpec.quantum_k_person(10.0, 0, names)
    with pytest.raises(DomainError, match=r"^the two-person game has no pinned count to vary$"):
        solve_over_k(GameSpec.quantum_two_person(names))


def test_cli_solve_makes_one_over_k_pass(protocol_runs, monkeypatch, capsys):
    solves = []
    real = metrics.solve
    monkeypatch.setattr(metrics, "solve", lambda matrix: solves.append(matrix) or real(matrix))
    assert main(["solve", "--game", "quantumk", "--strategies", "p1p2q", "--n", "9", "--k", "3"]) == 0
    capsys.readouterr()
    assert protocol_runs == ENDPOINT_RUNS  # read off the endpoint tables, built once
    assert len(solves) == 1  # k = 0..6 share one signature: one solve, the rest read its selection


def test_gamma_sweep_runs_the_protocol_per_angle_only_for_custom_sets(protocol_runs):
    gammas = [0.0, 0.3, 0.9, GAMMA_MAX]
    sweep_gamma(("P1", "P2", "M"), gammas)
    assert protocol_runs == ENDPOINT_RUNS
    protocol_runs.clear()
    sweep_gamma(("P1", "P2", "Q"), gammas, n=10, k=4)
    assert protocol_runs == []
    sweep_gamma(CUSTOM, gammas)
    assert protocol_runs == [9] * len(gammas)


ANGLES_201 = [float(g) for g in np.linspace(0, GAMMA_MAX, 201)]
ANGLES_101 = [float(g) for g in np.linspace(0, GAMMA_MAX, 101)]


def _cli_solve(strategies):
    assert main(["solve", "--game", "quantumk", "--strategies", strategies, "--n", "9", "--k", "3"]) == 0


@pytest.mark.parametrize(
    "run, count",
    [
        (lambda: sweep_k("classical", ("P1", "P2"), 10), 0),  # dominance decides every k
        (lambda: sweep_k("quantum", ("P1", "P2", "M"), 10, gamma=GAMMA_MAX), 0),
        (lambda: sweep_k("quantum", ("P1", "P2", "Q"), 10, gamma=GAMMA_MAX), 1),  # k = 0..7 share one signature
        (lambda: sweep_k("quantum", ("P1", "P2", "Q"), 1000, gamma=GAMMA_MAX), 1),  # so do k = 0..997
        (lambda: _cli_solve("p1p2q"), 2),  # the over-k pass's one, and the printed k's mixed line
        (lambda: _cli_solve("p1p2m"), 1),  # only the printed k, for its mixed line
        # two weak pure equilibria decide every undecided angle without the pass
        (lambda: sweep_gamma(("P1", "P2", "M"), ANGLES_201), 0),
        (lambda: sweep_gamma(("P1", "P2", "Q"), ANGLES_201), 0),
        (lambda: sweep_gamma(("P1", "P2", "Q"), ANGLES_101, n=10, k=4), 30),
        (lambda: solve(bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M"), 0.3))).to_json_obj(), 1),  # all views
    ],
    ids=[
        "classical", "p1p2m", "p1p2q", "p1p2q-n1000", "cli-p1p2q", "cli-p1p2m",
        "gamma-p1p2m", "gamma-p1p2q", "gamma-p1p2q-k4", "json",
    ],
)
def test_support_enumeration_runs_only_where_the_selection_needs_it(enumerations, capsys, run, count):
    run()
    capsys.readouterr()
    assert len(enumerations) == count


@pytest.mark.parametrize(
    "matrix, read, count",
    [
        # one solve per ordered pair of equal-size supports of size 2+: Bob's system
        # for (S_a, S_b) is Alice's for (S_b, S_a), so 9 + 1 for a 3x3 game
        (bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q"))), lambda eq: eq.selected, 10),
        (bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q"))), lambda eq: eq.to_json_obj(), 10),
        (bimatrix(GameSpec.classical_two_person()), lambda eq: eq.to_json_obj(), 1),
        # the selection needs no pass here (two weak pure equilibria); the JSON then runs it once
        (
            bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M"), 0.3)),
            lambda eq: (eq.selected, eq.to_json_obj()),
            10,
        ),
    ],
    ids=["p1p2q-selected", "p1p2q-all-views", "classical-all-views", "p1p2m-selected-then-all-views"],
)
def test_each_support_pair_is_solved_at_most_once(linear_solves, matrix, read, count):
    read(solve(matrix))
    assert len(linear_solves) == count == len(set(linear_solves))


@pytest.mark.parametrize("names", SETS, ids="".join)
def test_gamma_sweep_without_a_square_pass_builds_no_integer_grid(sweep_games, enumerations, names):
    # Only the square pass reads a float game's integer grid, and these sweeps run none.
    sweep_gamma(names, ANGLES_201)
    assert enumerations == []
    floats = [m for m in sweep_games if all(type(x) is float for row in m.costs for x in row)]
    assert len(floats) == len(ANGLES_201) - 2  # every angle but 0 and pi/2
    assert [m for m in floats if "scaled_costs" in vars(m)] == []
    for matrix in floats:
        public = CostBimatrix(matrix.labels, matrix.costs)
        assert matrix == public and hash(matrix) == hash(public)
