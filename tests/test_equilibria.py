from fractions import Fraction as F

import numpy as np
import pytest

from pigouq.equilibria import (
    MixedProfile,
    dominance_select,
    optimal_outcome,
    solve,
)
from pigouq.errors import DomainError
from pigouq.games import CostBimatrix, GameSpec, bimatrix

ONE = F(1)
HALF = F(1, 2)


def grid(labels, cells):
    cells = tuple(tuple((F(a), F(b)) for a, b in row) for row in cells)
    return CostBimatrix(tuple(labels), tuple(labels), cells)


CLASSICAL_2P = grid(["P1", "P2"], [[(1, 1), (1, HALF)], [(HALF, 1), (1, 1)]])
ALL_TIES = grid(["P1", "P2"], [[(1, 1), (1, 1)], [(1, 1), (1, 1)]])
PHASE_2P = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "Q")))
MIRACLE_2P = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M")))


def cells(profiles):
    return [(p.row_label, p.col_label) for p in profiles]


def grid_deviation_gap(matrix, alice_probs, bob_probs, step=200):
    """Best cost saving any grid deviation offers either player (floats)."""
    size = matrix.size
    a = np.array([[float(matrix.cost_a(i, j)) for j in range(size)] for i in range(size)])
    b = np.array([[float(matrix.cost_b(i, j)) for j in range(size)] for i in range(size)])
    p = np.array([float(x) for x in alice_probs])
    q = np.array([float(x) for x in bob_probs])
    if size == 2:
        simplex = np.array([[i / step, 1 - i / step] for i in range(step + 1)])
    else:
        simplex = np.array(
            [[i / step, j / step, (step - i - j) / step] for i in range(step + 1) for j in range(step + 1 - i)]
        )
    row_costs = a @ q
    col_costs = b.T @ p
    return max(float(p @ row_costs - (simplex @ row_costs).min()), float(q @ col_costs - (simplex @ col_costs).min()))


class TestPureNash:
    def test_strict_scan_of_miracle_game(self):
        assert cells(solve(MIRACLE_2P).strict_pure) == [("M", "M")]

    def test_weak_includes_the_double_flip(self):
        assert ("P2", "P2") in cells(solve(CLASSICAL_2P).weak_pure)

    def test_total_indifference(self):
        assert solve(ALL_TIES).strict_pure == ()
        assert len(solve(ALL_TIES).weak_pure) == 4

    def test_phase_game_has_no_strict_equilibria(self):
        assert solve(PHASE_2P).strict_pure == ()
        assert cells(solve(PHASE_2P).weak_pure) == [("P2", "Q"), ("Q", "P2"), ("Q", "Q")]


class TestDominance:
    def test_classical_two_person(self):
        chosen = dominance_select(CLASSICAL_2P)
        assert (chosen.row_label, chosen.col_label) == ("P2", "P2")

    def test_phase_game_selects_the_double_phase(self):
        chosen = dominance_select(PHASE_2P)
        assert (chosen.row_label, chosen.col_label) == ("Q", "Q")

    def test_miracle_game_selects_the_double_miracle(self):
        chosen = dominance_select(MIRACLE_2P)
        assert (chosen.row_label, chosen.col_label) == ("M", "M")

    def test_nothing_dominated_returns_none(self):
        assert dominance_select(ALL_TIES) is None

    def test_k_person_phase_game_is_dominance_free(self):
        m = bimatrix(GameSpec.quantum_k_person(10, 3, ("P1", "P2", "Q")))
        assert dominance_select(m) is None


class TestMixedNash:
    def test_full_support_profile_n10_k1(self):
        m = bimatrix(GameSpec.quantum_k_person(10, 1, ("P1", "P2", "Q")))
        profiles = solve(m).mixed
        assert len(profiles) == 1
        p = profiles[0]
        assert p.alice_probs == (F(7, 29), F(7, 29), F(15, 29))
        assert p.bob_probs == (F(7, 29), F(7, 29), F(15, 29))
        assert p.expected_cost_alice == F(37, 58)
        assert p.expected_cost_bob == F(37, 58)

    def test_full_support_profile_n10_k4(self):
        m = bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q")))
        profiles = solve(m).mixed
        assert len(profiles) == 1
        assert profiles[0].alice_probs == (F(4, 17), F(4, 17), F(9, 17))

    def test_closed_form_share_across_k(self):
        n = 10
        for k in range(1, 8):
            m_free = n - k - 2
            share = F(m_free, 4 * m_free + 1)
            profiles = solve(bimatrix(GameSpec.quantum_k_person(n, k, ("P1", "P2", "Q")))).mixed
            assert len(profiles) == 1
            assert profiles[0].alice_probs == (share, share, 1 - 2 * share)

    def test_degenerate_pure_profile_in_classical_game(self):
        profiles = solve(CLASSICAL_2P).mixed
        pure_supports = [p for p in profiles if p.is_pure()]
        flip_flip = [p for p in pure_supports if p.alice_probs == (F(0), ONE) and p.bob_probs == (F(0), ONE)]
        assert len(flip_flip) == 1
        # the independent grid oracle agrees it is an equilibrium
        assert grid_deviation_gap(CLASSICAL_2P, flip_flip[0].alice_probs, flip_flip[0].bob_probs) <= 1e-9

    def test_indifference_within_support(self):
        m = bimatrix(GameSpec.quantum_k_person(10, 2, ("P1", "P2", "Q")))
        (profile,) = solve(m).mixed
        sup_a, sup_b = profile.support()
        for i in sup_a:
            cost = sum(m.cost_a(i, j) * profile.bob_probs[j] for j in range(m.size))
            assert cost == profile.expected_cost_alice
        for j in sup_b:
            cost = sum(m.cost_b(i, j) * profile.alice_probs[i] for i in range(m.size))
            assert cost == profile.expected_cost_bob

    def test_all_reference_profiles_survive_grid_oracle(self):
        matrices = [CLASSICAL_2P, PHASE_2P, MIRACLE_2P]
        for k in range(1, 8):
            matrices.append(bimatrix(GameSpec.quantum_k_person(10, k, ("P1", "P2", "Q"))))
            matrices.append(bimatrix(GameSpec.quantum_k_person(10, k, ("P1", "P2", "M"))))
        for m in matrices:
            for profile in solve(m).mixed:
                assert grid_deviation_gap(m, profile.alice_probs, profile.bob_probs) <= 1e-9

    def test_degenerate_supports_are_recorded_not_raised(self):
        eq = solve(PHASE_2P)
        profiles, diagnostics = eq.mixed, eq.diagnostics
        assert profiles
        assert diagnostics == (
            "support ({P1,P2},{P2,Q}): singular column-mix indifference system, skipped",
            "support ({P1,Q},{P1,Q}): singular column-mix indifference system, skipped",
            "support ({P2,Q},{P1,P2}): singular row-mix indifference system, skipped",
        )

    def test_size_limit(self):
        labels = ("A", "B", "C", "D")
        cells_4 = tuple(tuple((ONE, ONE) for _ in labels) for _ in labels)
        with pytest.raises(DomainError, match="limited to 3x3"):
            solve(CostBimatrix(labels, labels, cells_4))


class TestOptimalOutcome:
    def test_classical_two_person(self):
        best_cells, total = optimal_outcome(CLASSICAL_2P)
        assert cells(best_cells) == [("P1", "P2"), ("P2", "P1")]
        assert total == F(3, 2)

    def test_phase_game_has_four_optima(self):
        best_cells, total = optimal_outcome(PHASE_2P)
        assert set(cells(best_cells)) == {("P1", "P2"), ("P2", "P1"), ("P2", "Q"), ("Q", "P2")}
        assert total == F(3, 2)

    def test_miracle_game_has_two_optima(self):
        best_cells, total = optimal_outcome(MIRACLE_2P)
        assert cells(best_cells) == [("P1", "P2"), ("P2", "P1")]
        assert total == F(3, 2)


class TestSolveSelection:
    def test_dominance_wins_first(self):
        eq = solve(CLASSICAL_2P)
        assert eq.selected_by == "dominance"
        assert (eq.selected.row_label, eq.selected.col_label) == ("P2", "P2")

    def test_unique_mixed_fallback(self):
        eq = solve(bimatrix(GameSpec.quantum_k_person(10, 1, ("P1", "P2", "Q"))))
        assert eq.selected_by == "unique_mixed"
        assert isinstance(eq.selected, MixedProfile)

    def test_unique_strict_pure_before_unique_mixed(self):
        eq = solve(bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "S2"), 1.5)))
        assert len(eq.strict_pure) == len(eq.mixed) == 1
        assert eq.selected_by == "unique_strict_pure"
        assert eq.selected == eq.strict_pure[0]

    def test_no_selection_on_total_indifference(self):
        eq = solve(ALL_TIES)
        assert eq.selected is None and eq.selected_by is None

    def test_oversized_game_is_refused_at_the_call(self):
        four = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "Q", "M")))
        with pytest.raises(DomainError, match="limited to 3x3"):
            solve(four)

    def test_equality_compares_views_not_matrices(self):
        # Row/column A strictly dominates; (B,B) costs differ but every view agrees.
        low = grid(["A", "B"], [[(1, 1), (2, 3)], [(3, 2), (4, 4)]])
        high = grid(["A", "B"], [[(1, 1), (2, 3)], [(3, 2), (5, 5)]])
        assert low != high
        assert solve(low) == solve(high) and hash(solve(low)) == hash(solve(high))
        assert solve(low) != solve(CLASSICAL_2P)

    def test_strict_subset_of_weak(self):
        for m in (CLASSICAL_2P, PHASE_2P, MIRACLE_2P, ALL_TIES):
            eq = solve(m)
            assert set(cells(eq.strict_pure)) <= set(cells(eq.weak_pure))


def test_strict_set_invariant_under_affine_rescaling():
    scaled_cells = tuple(
        tuple((3 * a + 1, 3 * b + 1) for a, b in row) for row in MIRACLE_2P.cells
    )
    scaled = CostBimatrix(MIRACLE_2P.row_labels, MIRACLE_2P.col_labels, scaled_cells)
    assert cells(solve(scaled).strict_pure) == cells(solve(MIRACLE_2P).strict_pure)
    assert cells(solve(scaled).weak_pure) == cells(solve(MIRACLE_2P).weak_pure)
