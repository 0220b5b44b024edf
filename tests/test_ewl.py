import math
from itertools import product

import numpy as np
import pytest
import scipy.linalg

from pigouq.errors import DomainError
from pigouq.ewl import GAMMA_MAX, KET_00, entangler, outcome_table, validate_gamma
from pigouq.strategies import STRATEGY_TAGS, StrategyAngles, resolve, unitary_from_angles

INV_SQRT2 = 1 / math.sqrt(2)


def entangler_by_expm(gamma):
    """Independent construction via the matrix exponential."""
    p2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    return scipy.linalg.expm(-1j * (gamma / 2) * np.kron(p2, p2))


def outcomes_by_hand(ua, ub, gamma):
    """Protocol evolution spelled out with raw numpy ops."""
    j = entangler_by_expm(gamma)
    psi = j.conj().T @ np.kron(ua, ub) @ j @ np.array([1, 0, 0, 0], dtype=complex)
    return np.abs(psi) ** 2


def outcomes_per_pair(ua, ub, gamma):
    """The protocol for one pair, in the association the batched kernel must reproduce bit for bit."""
    j = entangler(gamma)
    psi = j.conj().T @ (np.kron(ua, ub) @ (j @ KET_00))
    return np.clip(np.abs(psi) ** 2, 0.0, 1.0)


def test_zero_angle_entangler_is_identity():
    assert np.allclose(entangler(0.0), np.eye(4), atol=0)


def test_maximal_entangler_matrix():
    expected = np.array(
        [
            [INV_SQRT2, 0, 0, -1j * INV_SQRT2],
            [0, INV_SQRT2, 1j * INV_SQRT2, 0],
            [0, 1j * INV_SQRT2, INV_SQRT2, 0],
            [-1j * INV_SQRT2, 0, 0, INV_SQRT2],
        ]
    )
    assert np.allclose(entangler(GAMMA_MAX), expected, atol=1e-15)


def test_entangler_is_unitary_at_generic_angle():
    j = entangler(0.3)
    assert np.allclose(j @ j.conj().T, np.eye(4), atol=1e-15)


def test_entangler_matches_matrix_exponential():
    for gamma in (0.0, 0.2, 0.77, 1.1, GAMMA_MAX):
        assert np.allclose(entangler(gamma), entangler_by_expm(gamma), atol=1e-12)


@pytest.mark.parametrize("gamma", [-0.01, GAMMA_MAX + 0.01, 4.0])
def test_out_of_range_gamma_rejected(gamma):
    with pytest.raises(DomainError):
        entangler(gamma)
    with pytest.raises(DomainError):
        outcome_table([resolve("P1")], [resolve("P1")], gamma)


def test_negative_zero_gamma_is_positive_zero():
    for gamma in (-0.0, 0.0, 0, np.float64(-0.0)):
        g = validate_gamma(gamma)
        assert (g, type(g), math.copysign(1.0, g)) == (0.0, float, 1.0)


def one_pair(tag_a, tag_b, gamma):
    """The (00, 01, 10, 11) distribution of one pair: the 1x1 case of outcome_table."""
    return outcome_table([resolve(tag_a)], [resolve(tag_b)], gamma)[0, 0]


def test_identity_pair_stays_on_upper_edge():
    assert one_pair("P1", "P1", GAMMA_MAX).tolist() == [1.0, 0.0, 0.0, 0.0]


def test_miracle_pair_is_uniform():
    assert np.allclose(one_pair("M", "M", GAMMA_MAX), (0.25, 0.25, 0.25, 0.25), atol=1e-15)


def test_identity_against_phase_lands_on_lower_edge():
    assert np.allclose(one_pair("P1", "Q", GAMMA_MAX), (0, 0, 0, 1), atol=1e-15)


def test_unentangled_double_flip():
    assert one_pair("P2", "P2", 0.0).tolist() == [0.0, 0.0, 0.0, 1.0]


def test_classical_limit_is_a_point_mass():
    tags = ("P1", "P2")
    for (ia, ta), (ib, tb) in product(enumerate(tags), repeat=2):
        expected = [0.0] * 4
        expected[2 * ia + ib] = 1.0
        assert np.allclose(one_pair(ta, tb, 0.0), expected, atol=1e-15)


def test_swapping_players_swaps_the_cross_outcomes():
    tags = ("P1", "P2", "Q", "M")
    for ta, tb in product(tags, repeat=2):
        p00, p01, p10, p11 = one_pair(ta, tb, GAMMA_MAX)
        q00, q01, q10, q11 = one_pair(tb, ta, GAMMA_MAX)
        assert abs(p00 - q00) < 1e-12
        assert abs(p11 - q11) < 1e-12
        assert abs(p01 - q10) < 1e-12
        assert abs(p10 - q01) < 1e-12


def test_outcomes_match_hand_evolution_on_random_draws():
    rng = np.random.default_rng(42)
    for _ in range(200):
        ua = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        ub = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        gamma = rng.uniform(0, GAMMA_MAX)
        got = outcome_table([ua], [ub], gamma)[0, 0]
        want = outcomes_by_hand(ua, ub, gamma)
        assert np.allclose(got, want, atol=1e-12)


def test_outcomes_normalize_across_random_draws():
    rng = np.random.default_rng(20250811)
    for _ in range(1000):
        ua = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        ub = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        gamma = rng.uniform(0, GAMMA_MAX)
        # both the exposed distribution and the raw amplitudes
        assert abs(sum(outcome_table([ua], [ub], gamma)[0, 0].tolist()) - 1) <= 1e-12
        j = entangler(gamma)
        psi = j.conj().T @ np.kron(ua, ub) @ j @ KET_00
        assert abs(float(np.sum(np.abs(psi) ** 2)) - 1) <= 1e-12


@pytest.mark.parametrize("gamma", [0.0, 1e-6, 3e-5, "random", GAMMA_MAX])
def test_outcome_table_has_the_bits_of_the_per_pair_protocol(gamma):
    rng = np.random.default_rng(1999)
    named = [resolve(tag) for tag in STRATEGY_TAGS]
    for size in range(1, 7):
        g = rng.uniform(0, GAMMA_MAX) if gamma == "random" else gamma
        custom = [
            resolve(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))) for _ in range(size)
        ]
        stack = custom + named
        want = np.array([[outcomes_per_pair(ua, ub, g) for ub in stack] for ua in stack])
        assert np.array_equal(outcome_table(stack, stack, g), want)
        # distinct row and column stacks
        assert np.array_equal(outcome_table(custom, named, g), want[:size, size:])


BAD_MATRICES = {
    "nan": np.array([[np.nan, 0], [0, 1]], dtype=complex),
    "inf": np.array([[1, np.inf], [0, 1]], dtype=complex),
    "3x3": np.eye(3, dtype=complex),
    "non-unitary": np.array([[2, 0], [0, 1]], dtype=complex),
}


@pytest.mark.parametrize("player", ["alice", "bob"])
@pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES)
def test_non_unitary_strategy_rejected(bad, player):
    rows, cols = ([bad], [resolve("P1")]) if player == "alice" else ([resolve("P1")], [bad])
    with pytest.raises(DomainError):
        outcome_table(rows, cols, GAMMA_MAX)


@pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES)
def test_outcome_table_rejects_a_bad_matrix_inside_a_stack(bad):
    good = [resolve(tag) for tag in ("P1", "P2", "Q", "M")]
    stack = good[:2] + [bad] + good[2:]
    with pytest.raises(DomainError):
        outcome_table(stack, good, 0.4)
    with pytest.raises(DomainError):
        outcome_table(good, stack, 0.4)
    with pytest.raises(DomainError):
        outcome_table(stack, stack, 0.4)
