import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from pigouq.equilibria import PureProfile, solve
from pigouq.errors import DomainError
from pigouq.ewl import GAMMA_MAX
from pigouq.games import GameSpec, bimatrix, pinned_bill
from pigouq.metrics import (
    analyze,
    classical_cost_ne,
    classical_opt,
    classical_pos_poa,
    format_equilibrium_label,
    profile_total,
    solve_over_k,
    split_cost,
)
from pigouq.strategies import StrategyAngles
from pigouq.sweeps import sweep_gamma


def _pure(matrix, i, j):
    return PureProfile(i, j, matrix.labels[i], matrix.labels[j])


def test_pinned_player_total():
    quantum = GameSpec.quantum_k_person(10, 1)
    assert pinned_bill(quantum) == F(71, 10)  # one lower-edge user at 1/10 plus seven at 1
    assert pinned_bill(quantum, 2) == F(71, 10)  # billed as if the entangled pair were absent
    assert pinned_bill(GameSpec.quantum_k_person(3, 0)) == F(1)
    classical = GameSpec.classical_k_person(10, 1)
    assert pinned_bill(classical) == F(71, 10)
    assert pinned_bill(classical, 2) == F(73, 10)  # the realized load: 3/10 on the lower edge
    assert pinned_bill(classical, F(1, 2)) == F(71, 10) + F(1, 20)  # an expected count
    for spec in (GameSpec.classical_two_person(), GameSpec.quantum_two_person()):
        assert pinned_bill(spec, 2) == 0 and type(pinned_bill(spec, 2)) is F


def test_profile_total_examples():
    classical = GameSpec.classical_two_person()
    assert profile_total(classical, bimatrix(classical), _pure(bimatrix(classical), 0, 0)) == 2
    miracle = GameSpec.quantum_k_person(10, 1, ("P1", "P2", "M"))
    m = bimatrix(miracle)
    assert profile_total(miracle, m, _pure(m, 2, 2)) == F(167, 20)  # 8.35
    phase = GameSpec.quantum_k_person(10, 1, ("P1", "P2", "Q"))
    m = bimatrix(phase)
    (mixed,) = solve(m).mixed
    assert (mixed.expected_cost_alice, mixed.expected_cost_bob) == (F(37, 58), F(37, 58))
    mixed_total = profile_total(phase, m, mixed)
    assert mixed_total == F(2429, 290)
    assert abs(float(mixed_total) - 8.3759) < 5e-4


def _realized_load_total(spec, matrix, alice_probs, bob_probs):
    """Expected classical total: every lower-edge user pays the realized load (P2 is the lower edge)."""
    n, k = spec.n, spec.k or 0
    return sum(
        pa * qb * split_cost(n, n - k - (matrix.labels[i], matrix.labels[j]).count("P2"))
        for i, pa in enumerate(alice_probs)
        for j, qb in enumerate(bob_probs)
    )


def test_classical_totals_bill_the_realized_load():
    specs = [GameSpec.classical_two_person()]
    specs += [GameSpec.classical_k_person(n, k) for n in range(3, 25) for k in range(n - 2)]
    checked = 0
    for spec in specs:
        m = bimatrix(spec)
        for i in range(m.size):
            for j in range(m.size):
                got = profile_total(spec, m, _pure(m, i, j))
                unit = [F(0)] * m.size
                want = _realized_load_total(spec, m, unit[:i] + [F(1)] + unit[i + 1:], unit[:j] + [F(1)] + unit[j + 1:])
                assert (got, type(got)) == (want, F), (spec.describe(), i, j)
                checked += 1
        for profile in solve(m).mixed:
            got = profile_total(spec, m, profile)
            want = _realized_load_total(spec, m, profile.alice_probs, profile.bob_probs)
            assert (got, type(got)) == (want, F), (spec.describe(), profile)
            checked += 1
    assert checked == 1272


def test_classical_equilibrium_total():
    assert classical_cost_ne(10, 3) == F(15, 2)
    assert classical_cost_ne(10, 7) == F(91, 10)
    assert classical_cost_ne(4, 0) == 3
    with pytest.raises(DomainError):
        classical_cost_ne(10, 8)


@pytest.mark.parametrize("n, k", [(10, 2.5), (10, 2.0), (10.0, 2), (F(10), 2), (10, 8), (10, -1), (2, 0)])
def test_closed_forms_take_the_game_spec_k_rule(n, k):
    # the same error, message included, as the n-traveler spec they price
    with pytest.raises(DomainError) as spec_error:
        GameSpec.classical_k_person(n, k)
    for closed_form in (classical_cost_ne, classical_pos_poa):
        with pytest.raises(DomainError) as error:
            closed_form(n, k)
        assert str(error.value) == str(spec_error.value)


@pytest.mark.parametrize("n", [10.5, 10.0, F(10)])
def test_optimal_split_takes_an_integer_population(n):
    with pytest.raises(DomainError, match="n must be an integer"):
        classical_opt(n)


def test_classical_ratio_closed_form():
    assert classical_pos_poa(10, 3) == 1
    assert classical_pos_poa(10, 1) == F(79, 75)
    for n in (5, 10, 20):
        for k in range(0, n - 2):
            assert classical_pos_poa(n, k) == classical_cost_ne(n, k) / F(3 * n, 4)


def test_odd_population_prices_against_the_relaxed_split():
    # classical_opt is the fractional optimum; no integer split reaches it at odd n
    assert classical_opt(5) == (F(5, 2), F(15, 4))
    assert min(split_cost(5, p) for p in range(0, 6)) == F(19, 5)
    for n in (5, 7, 9, 11):
        assert min(split_cost(n, p) for p in range(0, n + 1)) == F(3 * n * n + 1, 4 * n) > classical_opt(n)[1]
    # the classical equilibrium's best total over k is that integral cost, so no ratio reads 1
    assert min(classical_cost_ne(5, k) for k in range(3)) == F(19, 5)
    assert min(classical_pos_poa(5, k) for k in range(3)) == F(76, 75)


def test_equilibrium_total_matches_matrix_path():
    # the closed form equals costing the equilibrium cell with realized loads
    for n in (5, 10, 20):
        for k in range(0, n - 2):
            _, eq, rep = analyze(GameSpec.classical_k_person(n, k))
            assert (eq.selected.row_label, eq.selected.col_label) == ("P2", "P2")
            assert rep.cost_ne == classical_cost_ne(n, k)


def test_balanced_split_is_optimal():
    split, cost = classical_opt(10)
    assert (split, cost) == (5, F(15, 2))
    assert classical_opt(2) == (1, F(3, 2))
    # brute force over integer splits
    costs = {p: split_cost(10, p) for p in range(0, 11)}
    assert min(costs, key=costs.get) == 5
    assert split_cost(10, 5) == F(15, 2)


def test_split_cost_takes_an_integer_population_and_any_upper_count():
    with pytest.raises(DomainError, match=r"^n must be an integer, got 10\.5$"):
        split_cost(10.5, 5)
    assert split_cost(10, F(9, 2)) == F(9, 2) + F(121, 40)
    assert split_cost(10, 4.5) == 4.5 + 5.5 * 5.5 / 10
    assert split_cost(10, 0) == 10 and split_cost(10, 10) == 10
    # int and Fraction counts stay exact
    assert all(type(split_cost(10, c)) is F and split_cost(10, c) == F(79, 10) for c in (3, np.int64(3), F(3)))


@pytest.mark.parametrize("count", [np.float64(4.5), np.float32(4.5), np.float16(4.5)], ids=repr)
def test_split_cost_of_a_float_count_is_a_python_float(count):
    got = split_cost(10, count)
    assert got == 7.525 and type(got) is float


@pytest.mark.parametrize("count", ["3", True, np.True_, None, 1 + 0j, np.complex128(1)], ids=repr)
def test_split_cost_takes_only_a_real_count(count):
    with pytest.raises(DomainError, match=r"^upper_count must be a real number, got "):
        split_cost(10, count)


@pytest.mark.parametrize("count", [-1, 11, F(-1, 2), 10.5, math.nan, math.inf, -math.inf], ids=repr)
def test_split_cost_takes_only_a_finite_count_in_0_to_n(count):
    with pytest.raises(DomainError, match=r"^upper_count must be a finite number in 0\.\.10, got "):
        split_cost(10, count)


def _fraction_total(spec, matrix, profile):
    """Both free players' costs plus the pinned bill, summed as ``Fraction``s or floats, as the cells are."""
    if isinstance(profile, PureProfile):
        i, j = profile.row, profile.col
        lower = (profile.row_label, profile.col_label).count("P2")
        return matrix.cost_a(i, j) + matrix.cost_b(i, j) + pinned_bill(spec, lower)
    moves = zip(matrix.labels * 2, profile.alice_probs + profile.bob_probs)
    lower = sum(p for label, p in moves if label == "P2")
    return profile.expected_cost_alice + profile.expected_cost_bob + pinned_bill(spec, lower)


OVER_K_PASSES = [("classical", ("P1", "P2"), None, range(3, 25))] + [
    ("quantum", names, gamma, range(3, 18))
    for names in (("P1", "P2", "Q"), ("P1", "P2", "M"))
    for gamma in (0.0, GAMMA_MAX)
]


@pytest.mark.parametrize("mode, names, gamma, populations", OVER_K_PASSES)
def test_over_k_grids_and_totals_are_the_per_k_ones(mode, names, gamma, populations):
    """Each over-k grid is ``bimatrix`` at its k, to the integer, and each total the ``Fraction`` sum."""
    kinds = set()
    for n in populations:
        points, _ = solve_over_k(GameSpec(mode, n, 0, gamma, names))
        assert [spec.k for spec, *_ in points] == list(range(n - 2))
        for spec, matrix, eq, total in points:
            direct = bimatrix(spec)
            assert matrix == direct and matrix.scaled_costs == direct.scaled_costs
            if eq.selected is None:
                assert total is None
                continue
            want = _fraction_total(spec, matrix, eq.selected)
            assert (total, type(total)) == (want, F), spec.describe()
            kinds.add(type(eq.selected).__name__)
    # The phase set at maximal entanglement selects mixed profiles, the other passes pure ones.
    assert kinds == ({"MixedProfile"} if (names, gamma) == (("P1", "P2", "Q"), GAMMA_MAX) else {"PureProfile"})


def test_over_k_totals_of_a_float_game_are_the_float_sums():
    pure = 0
    for names in (("P1", "P2", "Q"), ("P1", "P2", "M")):
        points, _ = solve_over_k(GameSpec.quantum_k_person(9, 0, names, 0.9))
        for spec, matrix, eq, total in points:
            assert matrix == bimatrix(spec)
            if isinstance(eq.selected, PureProfile):
                want = _fraction_total(spec, matrix, eq.selected)
                assert (total, type(total)) == (want, float)
                pure += 1
    assert pure > 0


@pytest.mark.parametrize(
    "mode, strategies, gamma",
    [
        ("classical", ("P1", "P2"), None),
        ("quantum", ("P1", "P2", "Q"), GAMMA_MAX),
        ("quantum", ["P1", "P2", "M"], np.float64(0.9)),
        ("quantum", ("P1", StrategyAngles(math.pi / 2, math.pi / 2)), 0.0),
    ],
)
def test_over_k_specs_are_the_validated_per_k_specs(mode, strategies, gamma):
    """One spec of the pass is validated; the others, derived from it, are the specs built at their k."""
    n = 7
    points, _ = solve_over_k(GameSpec(mode=mode, n=n, k=n - 3, gamma=gamma, strategies=strategies))
    for k, (spec, *_) in enumerate(points):
        built = GameSpec(mode=mode, n=n, k=k, gamma=gamma, strategies=tuple(strategies))
        assert spec == built and hash(spec) == hash(built)
        assert spec.describe() == built.describe()
        assert vars(spec) == vars(built) and type(spec.gamma) is type(built.gamma)


@pytest.mark.parametrize(
    "call",
    [
        lambda: classical_cost_ne(10, True),
        lambda: classical_pos_poa(True, 0),
        lambda: classical_opt(True),
        lambda: split_cost(True, 1),
    ],
)
def test_closed_forms_take_no_bool_counts(call):
    with pytest.raises(DomainError, match=r"^[nk] must be an integer, got True$"):
        call()


def test_report_of_a_numpy_spec_holds_python_values():
    spec = GameSpec.quantum_k_person(np.int64(10), np.int64(3), ("P1", "P2", "M"))
    matrix, eq, report = analyze(spec)
    assert type(report.k) is int
    assert (matrix, eq, report) == analyze(GameSpec.quantum_k_person(10, 3, ("P1", "P2", "M")))
    assert json.loads(json.dumps(report.to_json_obj()))["k"] == 3


def test_two_person_quantum_reports():
    _, _, rep_m = analyze(GameSpec.quantum_two_person(("P1", "P2", "M")))
    assert (rep_m.cost_ne, rep_m.cost_opt) == (F(7, 4), F(3, 2))
    assert rep_m.pos == rep_m.poa == F(7, 6)
    _, _, rep_q = analyze(GameSpec.quantum_two_person(("P1", "P2", "Q")))
    assert (rep_q.cost_ne, rep_q.cost_opt) == (F(2), F(3, 2))
    assert rep_q.pos == F(4, 3)


def test_k_person_quantum_reports_over_k():
    _, _, rep = analyze(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q")))
    assert rep.cost_ne == rep.cost_opt == F(122, 17)  # 7.176...
    assert rep.pos == rep.poa == 1
    _, _, rep5 = analyze(GameSpec.quantum_k_person(10, 5, ("P1", "P2", "M")))
    assert rep5.cost_ne == F(143, 20)  # 7.15
    assert rep5.pos == 1
    # the printed 1.0001 at k=5 for the phase strategy is a rounding
    # artifact; full precision is just above 1.00006
    _, _, rep5q = analyze(GameSpec.quantum_k_person(10, 5, ("P1", "P2", "Q")))
    assert rep5q.cost_ne == F(933, 130)
    assert rep5q.pos == F(933, 130) / F(122, 17)
    assert abs(float(rep5q.pos) - 1.000063) < 1e-6


def test_mixed_labels_name_both_players_when_they_differ():
    classical = solve(bimatrix(GameSpec.classical_two_person())).mixed
    assert [format_equilibrium_label(p) for p in classical] == ["mixed:(1,0|0,1)", "mixed:(0,1|1,0)", "mixed:(0,1)"]
    (phase,) = solve(bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q")))).mixed
    assert format_equilibrium_label(phase) == "mixed:(4/17,4/17,9/17)"


def test_per_game_convention():
    # A gamma sweep prices a k-person game against its own cheapest cell.
    (rep,) = sweep_gamma(("P1", "P2", "Q"), [GAMMA_MAX], n=10, k=1).reports
    # cheapest cell pair total is 3/5, plus the pinned players' 71/10
    assert rep.cost_opt == F(3, 5) + F(71, 10)


def test_report_without_selection_leaves_fields_unset():
    _, empty, rep = analyze(GameSpec.quantum_two_person(("P1", "P2", "M"), 0.3))
    assert empty.selected is None
    assert rep.cost_ne is None and rep.pos is None and rep.poa is None
    assert rep.cost_opt == F(3, 2)


def test_pos_never_exceeds_poa():
    specs = [
        GameSpec.classical_two_person(),
        GameSpec.quantum_two_person(("P1", "P2", "M")),
        GameSpec.quantum_k_person(10, 3, ("P1", "P2", "Q")),
    ]
    for spec in specs:
        _, _, rep = analyze(spec)
        assert rep.pos <= rep.poa

