"""Three checks of pigouq.verification: the random-draw check, against the per-draw loop it
replaced, the exact best-response check, against the Fraction oracle it replaced, and the
exact symmetry check."""

import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from pigouq import verification
from pigouq.equilibria import MixedProfile, solve
from pigouq.ewl import GAMMA_MAX, _paired_outcomes, outcome_table
from pigouq.games import GameSpec, bimatrix
from pigouq.strategies import _unitary_stack, unitary_from_angles

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
    # Alice's and Bob's matrices are built block by block, so compare the calls as a multiset.
    assert sorted(angles) == sorted(alice + bob)
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


@pytest.mark.parametrize(("earlier", "later"), [(300, 700), (260, 480)], ids=["two blocks", "one block"])
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


def test_the_property_batch_names_the_failing_profile(monkeypatch):
    target, real = bimatrix(PHASE_GAME), verification.solve

    def solve_with_a_nudge(matrix):
        mixed = real(matrix).mixed
        return SimpleNamespace(mixed=tuple(nudged(matrix, p) for p in mixed) if matrix == target else mixed)

    monkeypatch.setattr(verification, "solve", solve_with_a_nudge)
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
