import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

import pigouq.metrics as metrics
import pigouq.sweeps as sweeps
from pigouq.equilibria import solve
from pigouq.errors import DomainError
from pigouq.ewl import GAMMA_MAX, KET_00
from pigouq.games import GameSpec, bimatrix
from pigouq.metrics import analyze, profile_total
from pigouq.strategies import StrategyAngles, resolve
from pigouq.sweeps import CSV_HEADER, series_to_json_obj, sweep_gamma, sweep_k


def test_classical_series():
    series = sweep_k("classical", ("P1", "P2"), 10, range(1, 8))
    assert series.axis == "k"
    assert series.values == tuple(range(1, 8))
    costs = [r.cost_ne for r in series.reports]
    assert costs == [F(79, 10), F(38, 5), F(15, 2), F(38, 5), F(79, 10), F(42, 5), F(91, 10)]
    assert {k for k, c in zip(series.values, costs) if c == min(costs)} == {3}


def test_phase_strategy_series():
    series = sweep_k("quantum", ("P1", "P2", "Q"), 10, range(1, 8), gamma=GAMMA_MAX)
    costs = [float(r.cost_ne) for r in series.reports]
    printed = [8.38, 7.78, 7.38, 7.176, 7.177, 7.38, 7.78]
    assert all(abs(got - want) < 5e-3 for got, want in zip(costs, printed))
    exact = [r.cost_ne for r in series.reports]
    assert {k for k, c in zip(series.values, exact) if c == min(exact)} == {4}


def test_miracle_strategy_series():
    series = sweep_k("quantum", ("P1", "P2", "M"), 10, range(1, 8), gamma=GAMMA_MAX)
    costs = [r.cost_ne for r in series.reports]
    assert costs == [F(167, 20), F(31, 4), F(147, 20), F(143, 20), F(143, 20), F(147, 20), F(31, 4)]
    argmin = {k for k, c in zip(series.values, costs) if c == min(costs)}
    assert argmin == {4, 5}
    for k in (4, 5):
        rep = series.reports[list(series.values).index(k)]
        assert rep.pos == rep.poa == 1
    assert all(r.equilibrium == "pure:(M,M)" for r in series.reports)


def test_k_range_validation():
    with pytest.raises(DomainError, match=r"^empty k range$"):
        sweep_k("classical", ("P1", "P2"), 10, [])
    for n, k in ((10, 8), (10, -1), (4, 2)):  # the k rule GameSpec applies, with its message
        with pytest.raises(DomainError) as spec_error:
            GameSpec.classical_k_person(n, k)
        assert str(spec_error.value) == f"pinned lower-edge count must satisfy 0 <= k < n-2, got k={k}, n={n}"
        with pytest.raises(DomainError) as sweep_error:
            sweep_k("classical", ("P1", "P2"), n, [k])
        assert str(sweep_error.value) == str(spec_error.value)
    with pytest.raises(DomainError, match=r"^k must be an integer, got 2\.7$"):
        sweep_k("classical", ("P1", "P2"), 10, [2.7])  # once reported as k = 2
    with pytest.raises(DomainError, match=r"^n must be an integer, got 10\.0$"):
        sweep_k("classical", ("P1", "P2"), 10.0)
    assert sweep_k("classical", ("P1", "P2"), 10, np.arange(1, 3)).values == (1, 2)


@pytest.mark.parametrize(
    "mode, strategies, gamma", [("classical", ("P1", "P2"), None), ("quantum", ("P1", "P2", "Q"), GAMMA_MAX)]
)
@pytest.mark.parametrize("n, k_values", [(2, None), (1, None), (2, [0])])
def test_k_sweep_needs_three_travelers(mode, strategies, gamma, n, k_values):
    with pytest.raises(DomainError, match=r"^the k-person game requires n >= 3$"):
        sweep_k(mode, strategies, n, k_values, gamma=gamma)


def test_default_k_range_is_one_to_n_minus_three():
    series = sweep_k("classical", ("P1", "P2"), 10)
    assert series.values == tuple(range(1, 8))
    assert sweep_k("classical", ("P1", "P2"), 10, [0]).values == (0,)  # zero accepted on request


def test_sweep_points_match_direct_module_calls():
    series = sweep_k("quantum", ("P1", "P2", "M"), 10, range(1, 8), gamma=GAMMA_MAX)
    for k, rep in zip(series.values, series.reports):
        spec = GameSpec.quantum_k_person(10, k, ("P1", "P2", "M"))
        matrix = bimatrix(spec)
        eq = solve(matrix)
        assert rep.cost_ne == profile_total(spec, matrix, eq.selected)
        _, _, direct = analyze(spec)  # over the full 0..n-3 range
        assert rep.cost_opt == direct.cost_opt  # one optimum over k = 0..n-3 for both
        assert rep.pos == direct.pos


def test_gamma_sweep_endpoints():
    series = sweep_gamma(("P1", "P2", "M"), [0.0, GAMMA_MAX])
    assert series.axis == "gamma"
    start, end = series.reports
    assert start.cost_ne == 2 and start.equilibrium == "pure:(P2,P2)"
    assert end.cost_ne == F(7, 4) and end.equilibrium == "pure:(M,M)"
    plain = sweep_gamma(("P1", "P2"), [0.0, GAMMA_MAX])
    assert plain.reports[0].cost_ne == 2
    assert plain.reports[1].cost_ne == 2


def test_unentangled_miracle_cell_matches_hand_evolution():
    # independent evolution of the miracle pair with no entangler
    m = resolve("M")
    psi = np.kron(m, m) @ KET_00
    probs = np.abs(psi) ** 2
    costs_alice = [1, 1, 0.5, 1]
    expected = float(np.dot(probs, costs_alice))
    cell = bimatrix(
        GameSpec(mode="quantum", n=2, gamma=0.0, strategies=("P1", "P2", "M"))
    ).cell(2, 2)
    assert cell[0] == F(7, 8)
    assert abs(float(cell[0]) - expected) < 1e-12


def test_gamma_validation():
    with pytest.raises(DomainError):
        sweep_gamma(("P1", "P2"), [])
    with pytest.raises(DomainError):
        sweep_gamma(("P1", "P2"), [-0.2, 0.5])
    with pytest.raises(DomainError):
        sweep_gamma(("P1", "P2"), [0.5, GAMMA_MAX + 0.2])
    with pytest.raises(DomainError, match="must be a real number"):
        sweep_gamma(("P1", "P2"), [0.5, "0.7"])


def test_gamma_sweep_keeps_one_positive_zero():
    for angles in ([0.0, -0.0, 0.5], [-0.0, 0.0, 0.5]):
        values = sweep_gamma(("P1", "P2", "M"), angles).values
        assert values == (0.0, 0.5)
        assert math.copysign(1.0, values[0]) == 1.0


def test_gamma_sweep_k_person_endpoint_matches_k_sweep():
    g = sweep_gamma(("P1", "P2", "M"), [GAMMA_MAX], n=10, k=4)
    rep = g.reports[0]
    assert rep.cost_ne == F(143, 20)


def test_gamma_sweep_prices_a_k_person_point_per_game():
    # A k-person gamma row is priced against its own matrix, analyze against
    # the cheapest total over k = 0..n-3, so the two differ at the same game.
    (row,) = sweep_gamma(("P1", "P2", "Q"), [GAMMA_MAX], n=10, k=4).reports
    direct = analyze(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q")))[2]
    assert row.cost_ne == direct.cost_ne == F(122, 17)
    assert (row.cost_opt, row.pos) == (F(34, 5), F(305, 289))
    assert (direct.cost_opt, direct.pos) == (F(122, 17), 1)


def test_gamma_sweep_without_k_is_the_two_person_game():
    assert dict(sweep_gamma(("P1", "P2"), [0.5]).meta)["variant"] == "two_person"
    assert dict(sweep_gamma(("P1", "P2"), [0.5], n=10, k=4).meta)["variant"] == "k_person"
    with pytest.raises(DomainError, match="a game without k is the two-person game"):
        sweep_gamma(("P1", "P2"), [0.5], n=10)


def test_gamma_sweep_reads_an_iterator_of_strategies_once():
    names = ("P1", "P2", "M")
    assert sweep_gamma(iter(names), [0.1, 0.2]) == sweep_gamma(names, [0.1, 0.2])
    assert sweep_gamma(iter(names), [0.1, 0.2], n=10, k=4) == sweep_gamma(names, [0.1, 0.2], n=10, k=4)


@pytest.mark.parametrize(
    "strategies, n, k",
    [
        (("P1", "P2", "M"), 2, None),
        (("Q", "S1"), 2, None),
        (("P1", "P2", "Q"), 10, 4),
        ((StrategyAngles(0.3, 0.2), "P2", "M"), 2, None),
        ((StrategyAngles(2.0, 1.1), "Q"), 7, 2),
    ],
    ids=["p1p2m", "qs1", "p1p2q-k4", "custom", "custom-k2"],
)
def test_gamma_sweep_points_match_per_angle_games(strategies, n, k):
    # exact endpoints (t == 0.0 or 1.0, including the underflow and near-pi/2 angles) and float angles
    gammas = [0.0, 1e-170, 0.3, 0.9, GAMMA_MAX - 1e-9, GAMMA_MAX]
    series = sweep_gamma(strategies, gammas, n=n, k=k)
    for g, rep in zip(series.values, series.reports):
        spec = GameSpec(mode="quantum", n=n, k=k, gamma=g, strategies=strategies)
        assert repr(rep) == repr(metrics._per_game(spec, solve(bimatrix(spec))))  # values and types


def test_csv_is_deterministic_and_well_formed():
    def make():
        return sweep_k("quantum", ("P1", "P2", "Q"), 10, range(1, 8), gamma=GAMMA_MAX).to_csv()

    first, second = make(), make()
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 8
    row = lines[1].split(",", maxsplit=6)  # the equilibrium label holds commas
    assert row[0] == "k" and row[1] == "1"
    assert row[6] == "mixed:(7/29,7/29,15/29)"


def test_json_mirror_keeps_rationals():
    series = sweep_k("classical", ("P1", "P2"), 10, [3])
    obj = series_to_json_obj(series)
    assert obj["axis"] == "k"
    point = obj["points"][0]
    assert point["value"] == 3
    assert point["cost_ne"] == {"num": 15, "den": 2}
    assert point["equilibrium"] == "pure:(P2,P2)"
    assert obj["meta"]["mode"] == "classical"


def test_meta_holds_the_spec_canonical_values():
    """Numpy counts and an int angle reach the meta as the spec keeps them: ints and a float."""
    gamma_series = sweep_gamma(("P1", "P2", "M"), [0.3], n=np.int64(10), k=np.int64(3))
    obj = json.loads(json.dumps(gamma_series.to_json_obj()))
    assert obj["meta"] == {"mode": "quantum", "variant": "k_person", "n": 10, "k": 3, "strategies": "P1,P2,M"}
    k_series = sweep_k("quantum", ["P1", "P2", "Q"], np.int64(6), gamma=1)
    assert k_series.meta == (
        ("mode", "quantum"), ("variant", "k_person"), ("n", 6), ("gamma", 1.0), ("strategies", "P1,P2,Q"),
    )
    assert [type(value) for _, value in k_series.meta] == [str, str, int, float, str]
    assert type(gamma_series.reports[0].k) is int


@pytest.mark.parametrize("n, k_values", [(True, None), (10, [1, True])])
def test_k_sweep_takes_no_bool_counts(n, k_values):
    with pytest.raises(DomainError, match=r"^[nk] must be an integer, got True$"):
        sweep_k("classical", ("P1", "P2"), n, k_values)


@pytest.mark.parametrize("gammas", [[True, 0.5], [0.5, False], [np.True_]])
def test_gamma_sweep_takes_no_bool_angles(gammas):
    with pytest.raises(DomainError, match=r"^entanglement angle must be a real number, got (np\.)?(True|False)_?$"):
        sweep_gamma(("P1", "P2", "M"), gammas)


def test_axis_must_increase():
    series = sweep_k("classical", ("P1", "P2"), 10, [3, 1, 2])
    assert series.values == (1, 2, 3)  # sorted and deduped



REFERENCE_SETS = [
    ("classical", ("P1", "P2"), None),
    ("quantum", ("P1", "P2", "Q"), GAMMA_MAX),
    ("quantum", ("P1", "P2", "M"), GAMMA_MAX),
]


@pytest.fixture
def remembered_passes(monkeypatch):
    """Run each distinct over-k pass once, for ``analyze`` and ``sweep_k`` alike.

    The test compares how the two read the pass; rerunning it per call
    would take about 15 s. A reader that asks for another pass than the
    other's still gets another result.
    """
    real, memo = metrics.solve_over_k, {}

    def remembered(spec):
        key = spec._at(k=0)  # a pass does not depend on the spec's own k
        if key not in memo:
            memo[key] = real(spec)
        return memo[key]

    monkeypatch.setattr(metrics, "solve_over_k", remembered)
    monkeypatch.setattr(sweeps, "solve_over_k", remembered)


@pytest.mark.parametrize("mode, strategies, gamma", REFERENCE_SETS, ids=["classical", "p1p2q", "p1p2m"])
def test_every_k_sweep_prices_each_k_as_analyze_does(remembered_passes, mode, strategies, gamma):
    # One optimum per (strategy set, n, gamma), whatever range a sweep reports:
    # at n = 10 {P1,P2,Q} a sweep over 6..7 once priced k = 6 at PoS 1.
    for n in range(3, 31):
        specs = [GameSpec(mode, n, k, gamma, strategies) for k in range(n - 2)]
        direct = [analyze(spec)[2] for spec in specs]
        ranges = [[k] for k in range(n - 2)] + [[k, k + 1] for k in range(n - 3)]
        ranges.append([0] if n == 3 else None)
        for ks in ranges:
            series = sweep_k(mode, strategies, n, ks, gamma=gamma)
            assert series.reports == tuple(direct[k] for k in series.values), (n, ks)
