"""pigouq.verification: the random-draw check, against the per-draw loop it replaced, the
exact best-response check, against the Fraction oracle it replaced, the exact symmetry
check, and the reference results one run_all computes once and shares among its checks,
its k-person analyses and series read off one over-k pass per population."""

import dataclasses
import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from pigouq import metrics, sweeps, verification
from pigouq.equilibria import MixedProfile, solve
from pigouq.ewl import GAMMA_MAX, _paired_outcomes, outcome_table
from pigouq.games import GameSpec, bimatrix
from pigouq.metrics import analyze
from pigouq.strategies import PHI_MAX, THETA_MAX, _unitary_stack, unitary_from_angles
from pigouq.sweeps import sweep_k

SEED = 20250811
DRAWS = 1000


def loop_draws():
    """(theta_a, theta_b, phi_a, phi_b, gamma) of each draw, as the per-draw loop drew them."""
    rng = np.random.default_rng(SEED)
    draws = []
    for _ in range(DRAWS):
        theta_a, theta_b = rng.uniform(0, math.pi, size=2)
        phi_a, phi_b = rng.uniform(0, math.pi / 2, size=2)
        gamma = rng.uniform(0, GAMMA_MAX)
        draws.append((theta_a, theta_b, phi_a, phi_b, gamma))
    return draws


@pytest.fixture(scope="module")
def draws():
    return loop_draws()


def record_inputs(monkeypatch):
    """Spy on the check's calls: the (theta, phi) of each stacked matrix and the angles of each paired run."""
    angles, gammas = [], []

    def spy_stack(thetas, phis):
        angles.extend(zip(thetas.tolist(), phis.tolist()))
        return _unitary_stack(thetas, phis)

    def spy_paired(rows, cols, gamma):
        gammas.extend(gamma)
        return _paired_outcomes(rows, cols, gamma)

    monkeypatch.setattr(verification, "_unitary_stack", spy_stack)
    monkeypatch.setattr(verification, "_paired_outcomes", spy_paired)
    return angles, gammas


def test_check_draws_the_inputs_of_the_per_draw_loop(monkeypatch, draws):
    angles, gammas = record_inputs(monkeypatch)
    assert verification.check_random_unitarity_and_normalization().passed
    alice = [(ta, pa) for ta, _, pa, _, _ in draws]
    bob = [(tb, pb) for _, tb, _, pb, _ in draws]
    # One stack of Alice's matrices, then one of Bob's.
    assert angles == alice + bob
    assert gammas == [g for *_, g in draws]


def test_stack_has_the_bits_of_unitary_from_angles(draws):
    for player in (0, 1):
        thetas = np.array([d[player] for d in draws])
        phis = np.array([d[2 + player] for d in draws])
        want = np.array([unitary_from_angles(theta, phi) for theta, phi in zip(thetas.tolist(), phis.tolist())])
        # tobytes tells 0.0 from -0.0, which array_equal does not.
        assert _unitary_stack(thetas, phis).tobytes() == want.tobytes()
        for start in range(0, DRAWS, 250):
            block = slice(start, start + 250)
            assert _unitary_stack(thetas[block], phis[block]).tobytes() == want[block].tobytes()


def test_stack_has_the_bits_of_unitary_from_angles_at_edge_angles():
    edges = [0.0, -0.0, 5e-324, 1e-300, 1e-16, 0.5, math.nextafter(PHI_MAX, 0.0), PHI_MAX]
    pairs = [(theta, phi) for theta in edges + [THETA_MAX] for phi in edges]
    thetas, phis = np.array([t for t, _ in pairs]), np.array([p for _, p in pairs])
    want = np.array([unitary_from_angles(theta, phi) for theta, phi in pairs])
    assert _unitary_stack(thetas, phis).tobytes() == want.tobytes()


def test_paired_run_has_the_bits_of_outcome_table(draws):
    ua = np.array([unitary_from_angles(ta, pa) for ta, _, pa, _, _ in draws])
    ub = np.array([unitary_from_angles(tb, pb) for _, tb, _, pb, _ in draws])
    gammas = [g for *_, g in draws]
    want = np.array([outcome_table([a], [b], g)[0, 0] for a, b, g in zip(ua, ub, gammas)])
    assert np.array_equal(_paired_outcomes(ua, ub, gammas), want)
    for start in range(0, DRAWS, 250):
        block = slice(start, start + 250)
        assert np.array_equal(_paired_outcomes(ua[block], ub[block], gammas[block]), want[block])


def break_unitarity(monkeypatch, draws, index, player):
    """Make the matrix of ``player`` at draw ``index`` non-unitary; return the check's detail."""
    theta_a, theta_b, phi_a, phi_b, _ = draws[index]
    target = (theta_a, phi_a) if player == "alice" else (theta_b, phi_b)
    wrapped = verification._unitary_stack

    def broken(thetas, phis):
        stack = wrapped(thetas, phis)
        stack[[pair == target for pair in zip(thetas.tolist(), phis.tolist())]] *= 2
        return stack

    monkeypatch.setattr(verification, "_unitary_stack", broken)
    return f"non-unitary at ({theta_a}, {phi_a})"


def break_normalization(monkeypatch, draws, index):
    """Make the paired run's distribution at draw ``index`` sum to about 1 + 1e-9; return the check's detail."""
    theta_a, theta_b, phi_a, phi_b, target = draws[index]
    row = outcome_table([unitary_from_angles(theta_a, phi_a)], [unitary_from_angles(theta_b, phi_b)], target)[0, 0]
    row[0] += 1e-9
    total = sum(row.tolist())
    assert abs(total - 1 - 1e-9) < 1e-12
    wrapped = verification._paired_outcomes

    def off(rows, cols, gammas):
        probs = wrapped(rows, cols, gammas)
        probs[[g == target for g in gammas], 0] += 1e-9
        return probs

    monkeypatch.setattr(verification, "_paired_outcomes", off)
    return f"normalization {total!r}"


def assert_fails_with(detail):
    result = verification.check_random_unitarity_and_normalization()
    assert not result.passed
    assert result.detail == detail
    batch = verification.check_property_batch()
    assert not batch.passed
    assert batch.detail == f"{result.name}: {detail}"


@pytest.mark.parametrize("player", ["alice", "bob"])
@pytest.mark.parametrize("index", [0, 613, DRAWS - 1])
def test_a_non_unitary_draw_fails_the_check(monkeypatch, draws, index, player):
    assert_fails_with(break_unitarity(monkeypatch, draws, index, player))


@pytest.mark.parametrize("index", [0, 250, 613, DRAWS - 1])
def test_a_distribution_off_one_fails_the_check(monkeypatch, draws, index):
    assert_fails_with(break_normalization(monkeypatch, draws, index))


FAULTS = {
    "alice non-unitary": lambda monkeypatch, draws, index: break_unitarity(monkeypatch, draws, index, "alice"),
    "bob non-unitary": lambda monkeypatch, draws, index: break_unitarity(monkeypatch, draws, index, "bob"),
    "off one": break_normalization,
}


@pytest.mark.parametrize(("earlier", "later"), [(300, 700), (260, 480)], ids=["draws 300 and 700", "draws 260 and 480"])
@pytest.mark.parametrize("second", FAULTS)
@pytest.mark.parametrize("first", FAULTS)
def test_the_first_failing_draw_is_named(monkeypatch, draws, first, second, earlier, later):
    FAULTS[second](monkeypatch, draws, later)
    detail = FAULTS[first](monkeypatch, draws, earlier)
    assert verification.check_random_unitarity_and_normalization().detail == detail


def test_matrices_slightly_off_unitary_fail_on_normalization(monkeypatch):
    # Scaled by 1 + 4e-13, every matrix still passes is_unitary at 1e-12, but each
    # distribution sums to about 1 + 1.6e-12: the check itself reports it.
    wrapped = verification._unitary_stack
    monkeypatch.setattr(verification, "_unitary_stack", lambda thetas, phis: (1 + 4e-13) * wrapped(thetas, phis))
    batch = verification.check_property_batch()
    assert not batch.passed
    name = verification.check_random_unitarity_and_normalization().name
    assert batch.detail.startswith(f"{name}: normalization 1.0000000000")
    assert ";" not in batch.detail and "DomainError" not in batch.detail


# --- the exact best-response check --------------------------------------------------

PHASE_GAME = GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q"))
EPSILON = F(1e-12)  # the float's exact value


def nudged(matrix, profile):
    """``profile`` with EPSILON of Alice's weight moved from her second move to her first, costs recomputed exactly."""
    p = (profile.alice_probs[0] + EPSILON, profile.alice_probs[1] - EPSILON) + profile.alice_probs[2:]
    q = profile.bob_probs
    size = matrix.size
    cost_a = sum(F(matrix.cost_a(i, j)) * p[i] * q[j] for i in range(size) for j in range(size))
    cost_b = sum(F(matrix.cost_b(i, j)) * p[i] * q[j] for i in range(size) for j in range(size))
    return MixedProfile(p, q, cost_a, cost_b)


def fraction_profile_problems(matrix, profile):
    """The Fraction oracle the integer check replaced, over ``cost_a`` and ``cost_b``, zero weights skipped."""
    size = matrix.size
    p, q = profile.alice_probs, profile.bob_probs
    rows = [sum(F(matrix.cost_a(i, j)) * q[j] for j in range(size) if q[j]) for i in range(size)]
    cols = [sum(F(matrix.cost_b(i, j)) * p[i] for i in range(size) if p[i]) for j in range(size)]
    problems = []
    for player, mix, pure, reported in (
        ("Alice", p, rows, profile.expected_cost_alice),
        ("Bob", q, cols, profile.expected_cost_bob),
    ):
        cost = sum(x * c for x, c in zip(mix, pure))
        if cost != reported:
            problems.append(f"{player}'s expected cost is {cost}, reported {reported}")
        if min(pure) < cost:
            problems.append(f"{player} saves {cost - min(pure)} by a pure deviation")
    return problems


def off_by_epsilon(profile, player):
    """``profile`` with ``player``'s reported cost raised by EPSILON."""
    alice, bob = profile.expected_cost_alice, profile.expected_cost_bob
    if player == "alice":
        return MixedProfile(profile.alice_probs, profile.bob_probs, alice + EPSILON, bob)
    return MixedProfile(profile.alice_probs, profile.bob_probs, alice, bob + EPSILON)


def test_integer_oracle_matches_fraction_oracle():
    """Every mixed profile of the reference games, and each of them nudged or misreported, word for word."""
    kinds = set()
    for spec in verification._all_reference_specs():
        matrix = bimatrix(spec)
        for profile in solve(matrix).mixed:
            assert verification._profile_problems(matrix, profile) == fraction_profile_problems(matrix, profile) == []
            for case in (nudged(matrix, profile), off_by_epsilon(profile, "alice"), off_by_epsilon(profile, "bob")):
                want = fraction_profile_problems(matrix, case)
                assert verification._profile_problems(matrix, case) == want, spec.describe()
                kinds |= {tuple(problem.split()[:2]) for problem in want}
    # Both kinds of problem occur for both players.
    assert kinds == {("Alice's", "expected"), ("Bob's", "expected"), ("Alice", "saves"), ("Bob", "saves")}


def test_a_profile_off_by_1e_12_fails():
    matrix = bimatrix(PHASE_GAME)
    (profile,) = solve(matrix).mixed
    assert profile.alice_probs == (F(4, 17), F(4, 17), F(9, 17))
    assert verification._profile_problems(matrix, profile) == []
    (problem,) = verification._profile_problems(matrix, nudged(matrix, profile))
    assert [problem] == fraction_profile_problems(matrix, nudged(matrix, profile))
    assert problem.startswith("Bob saves ")
    saving = F(problem.split()[2])
    # A 1e-9 slack, the float grid oracle's, would have passed this profile.
    assert 0 < saving < 1e-9


def test_a_reported_cost_off_by_1e_12_fails():
    matrix = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M")))
    mm = next(p for p in solve(matrix).mixed if p.alice_probs == (0, 0, 1) and p.bob_probs == (0, 0, 1))
    off = off_by_epsilon(mm, "alice")
    assert verification._profile_problems(matrix, off) == fraction_profile_problems(matrix, off) == [
        f"Alice's expected cost is 7/8, reported {F(7, 8) + EPSILON}"
    ]


def nudged_result(eq):
    """``eq`` with its one mixed profile, the selected one, nudged."""
    (profile,) = eq.mixed
    assert eq.selected == profile
    mixed = (nudged(eq.matrix, profile),)
    return SimpleNamespace(matrix=eq.matrix, mixed=mixed, selected=mixed[0])


class NudgedPoints(list):
    """An over-k pass's points as a list, with the per-k ``selections`` and ``totals`` its reports read."""


def nudge_the_phase_game(monkeypatch):
    """Have the over-k pass, where every check reads its n = 10 games, return PHASE_GAME's profile nudged."""
    real = verification.solve_over_k

    def solve_with_a_nudge(spec):
        points, opt = real(spec)
        nudged = NudgedPoints((s, m, nudged_result(eq) if s == PHASE_GAME else eq, t) for s, m, eq, t in points)
        nudged.selections = [(eq.selected, rule) for (*_, eq, _), (_, rule) in zip(nudged, points.selections)]
        nudged.totals = points.totals
        return nudged, opt

    monkeypatch.setattr(verification, "solve_over_k", solve_with_a_nudge)


def test_the_property_batch_names_the_failing_profile(monkeypatch):
    nudge_the_phase_game(monkeypatch)
    result = verification.check_mixed_profiles_best_responses()
    assert not result.passed
    assert result.detail.startswith(f"{PHASE_GAME.describe()}: Bob saves ")
    batch = verification.check_property_batch()
    assert not batch.passed and batch.detail == f"{result.name}: {result.detail}"


# --- the exact symmetry check -------------------------------------------------------

FLOAT_GAME = GameSpec.quantum_two_person(("P1", "P2", "M"), gamma=0.3)


def test_an_unmirrored_outcome_grid_fails_the_symmetry_check(monkeypatch):
    # bimatrix would still transpose Alice's grid, so only the grid check sees this
    real = verification.outcome_grid

    def unmirrored(strategies, gamma):
        grid = [list(row) for row in real(strategies, gamma)]
        p00, p01, p10, p11 = grid[1][2]
        grid[1][2] = (p00, math.nextafter(p01, 0.0), p10, p11)
        return tuple(map(tuple, grid)) if gamma == FLOAT_GAME.gamma else real(strategies, gamma)

    assert verification.check_bimatrix_symmetry().passed
    monkeypatch.setattr(verification, "outcome_grid", unmirrored)
    result = verification.check_bimatrix_symmetry()
    assert not result.passed and result.detail == f"{FLOAT_GAME.describe()} at (1,2); {FLOAT_GAME.describe()} at (2,1)"


# --- the reference results of one run -----------------------------------------------

PUBLIC_CALLS = ("bimatrix", "solve", "solve_over_k", "analyze", "sweep_k")
# One over-k pass per n = 10 population, off which the two n = 10, k = 1 analyses and the
# three series are read; analyze for the two-person {P1,P2,Q} and {P1,P2,M} games; the one
# fresh phase sweep of the determinism check; the classical two-person game and {P1,P2,M}
# at 0.3 and 0.6 built and solved once; and the six zero-entanglement games and the n = 7
# and n = 5 classical games of the classical-limit check.
CALLS_PER_RUN = {"bimatrix": 11, "solve": 3, "solve_over_k": 3, "analyze": 2, "sweep_k": 1}


def count_public_calls(monkeypatch):
    """Count the calls each check makes through the public names bound in ``verification``."""
    counts = dict.fromkeys(PUBLIC_CALLS, 0)

    def counted(name, real):
        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name in PUBLIC_CALLS:
        monkeypatch.setattr(verification, name, counted(name, getattr(verification, name)))
    return counts


def count_over_k_passes(monkeypatch):
    """Count the ``solve_over_k`` passes made through its name in ``metrics``, ``sweeps`` or ``verification``."""
    calls, real = [], metrics.solve_over_k

    def counted(spec):
        calls.append(spec)
        return real(spec)

    for module in (metrics, sweeps, verification):
        monkeypatch.setattr(module, "solve_over_k", counted)
    return calls


def failing(results):
    return {name for name, result in zip(verification.CHECKS, results) if not result.passed}


def test_one_run_makes_each_public_call_once_per_result(monkeypatch):
    counts = count_public_calls(monkeypatch)
    assert failing(verification.run_all()) == set()
    assert counts == CALLS_PER_RUN


def test_a_second_run_recomputes_every_result(monkeypatch):
    counts = count_public_calls(monkeypatch)
    assert failing(verification.run_all()) == failing(verification.run_all()) == set()
    assert counts == {name: 2 * count for name, count in CALLS_PER_RUN.items()}


def test_one_run_makes_one_over_k_pass_per_population_and_one_for_the_fresh_sweep(monkeypatch):
    passes = count_over_k_passes(monkeypatch)
    populations = [verification.CLASSICAL_10, verification.PHASE_10, verification.MIRACLE_10]
    assert failing(verification.run_all()) == set()
    # The phase population's second pass is the fresh sweep's.
    classical, phase, miracle = populations
    assert sorted(passes, key=populations.index) == [classical, phase, phase, miracle]
    assert failing(verification.run_all()) == set()
    assert len(passes) == 8


def test_one_run_builds_the_reference_specs_once(monkeypatch):
    real, calls = verification._all_reference_specs, []

    def specs():
        calls.append(1)
        return real()

    monkeypatch.setattr(verification, "_all_reference_specs", specs)
    assert failing(verification.run_all()) == set()
    assert len(calls) == 1


def test_the_results_read_off_a_pass_equal_the_public_calls():
    run = verification._Run()
    for population in (verification.CLASSICAL_10, verification.PHASE_10, verification.MIRACLE_10):
        want = sweep_k(population.mode, population.strategies, 10, range(1, 8), gamma=population.gamma)
        assert run.series(population) == want
        assert run.series(population).to_csv() == want.to_csv()
    for spec in (
        GameSpec.quantum_k_person(10, 1, ("P1", "P2", "M")),
        GameSpec.quantum_k_person(10, 1, ("P1", "P2", "Q")),
        GameSpec.classical_k_person(10, 3),
    ):
        assert run.analysis(spec) == analyze(spec)
    # Every one of them was read off the run's three passes.
    assert {key[0] for key in run._done} == {"over k", "sweep"}


@pytest.mark.parametrize("name", verification.CHECKS)
def test_a_check_called_alone_passes(name):
    result = getattr(verification, f"check_{name}")()
    assert result.passed, result.detail


def misreport_the_two_person_phase_game(monkeypatch):
    """Make ``analyze`` report the two-person {P1,P2,Q} game's cost(NE) as 3 instead of 2."""
    real, spec = verification.analyze, GameSpec.quantum_two_person(("P1", "P2", "Q"))

    def analyze(target):
        matrix, eq, metrics = real(target)
        return matrix, eq, dataclasses.replace(metrics, cost_ne=F(3)) if target == spec else metrics

    monkeypatch.setattr(verification, "analyze", analyze)


@pytest.mark.parametrize(
    ("fault", "failed"),
    [
        # Four checks read the n = 10, k = 4 {P1,P2,Q} profile off the over-k pass: the
        # mixes across k, the phase series' k = 4 profile, the best-response check, and the
        # run's phase series, whose k = 4 label no longer matches the fresh sweep's.
        (
            nudge_the_phase_game,
            {"mixed_equilibrium_closed_form", "phase_strategy_sweep_series", "property_batch", "sweep_determinism"},
        ),
        (misreport_the_two_person_phase_game, {"two_person_phase_strategy_game"}),
    ],
    ids=["over-k pass", "two-person analysis"],
)
def test_a_fault_injected_between_two_runs_fails_the_second(monkeypatch, fault, failed):
    assert failing(verification.run_all()) == set()
    fault(monkeypatch)
    assert failing(verification.run_all()) == failed


def test_the_determinism_check_compares_the_series_with_a_fresh_sweep(monkeypatch):
    # The run's only sweep_k is the determinism check's fresh one: altered, it fails that check alone.
    real, sweeps_made = verification.sweep_k, []

    def sweep_k(*args, **kwargs):
        series = real(*args, **kwargs)
        sweeps_made.append(series)
        last = dataclasses.replace(series.reports[-1], equilibrium="pure:(Q,Q)")
        return dataclasses.replace(series, reports=series.reports[:-1] + (last,))

    monkeypatch.setattr(verification, "sweep_k", sweep_k)
    assert failing(verification.run_all()) == {"sweep_determinism"}
    (fresh,) = sweeps_made
    phase_meta = {"mode": "quantum", "variant": "k_person", "n": 10, "gamma": GAMMA_MAX, "strategies": "P1,P2,Q"}
    assert dict(fresh.meta) == phase_meta
    sweeps_made.clear()
    assert not verification.check_sweep_determinism().passed
    assert len(sweeps_made) == 1
