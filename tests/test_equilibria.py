from fractions import Fraction as F

import pytest

from pigouq.equilibria import (
    MixedProfile,
    dominance_select,
    optimal_outcome,
    solve,
)
from pigouq.errors import DomainError
from pigouq.games import CostBimatrix, GameSpec, bimatrix
from pigouq.verification import _profile_problems

ONE = F(1)
HALF = F(1, 2)


def grid(labels, costs):
    """A symmetric game from Alice's grid; Bob's cost at (i, j) is ``costs[j][i]``."""
    return CostBimatrix(tuple(labels), [[F(x) for x in row] for row in costs])


CLASSICAL_2P = grid(["P1", "P2"], [[1, 1], [HALF, 1]])
ALL_TIES = grid(["P1", "P2"], [[1, 1], [1, 1]])
PHASE_2P = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "Q")))
MIRACLE_2P = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M")))


def cells(profiles):
    return [(p.row_label, p.col_label) for p in profiles]


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
        # the exact best-response check agrees it is an equilibrium
        assert _profile_problems(CLASSICAL_2P, flip_flip[0]) == []

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

    def test_all_reference_profiles_pass_the_exact_best_response_check(self):
        matrices = [CLASSICAL_2P, PHASE_2P, MIRACLE_2P]
        for k in range(1, 8):
            matrices.append(bimatrix(GameSpec.quantum_k_person(10, k, ("P1", "P2", "Q"))))
            matrices.append(bimatrix(GameSpec.quantum_k_person(10, k, ("P1", "P2", "M"))))
        for m in matrices:
            for profile in solve(m).mixed:
                assert _profile_problems(m, profile) == []

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
        with pytest.raises(DomainError, match="limited to 3x3"):
            solve(CostBimatrix(labels, [[ONE] * 4] * 4))


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
        low = grid(["A", "B"], [[1, 2], [3, 4]])
        high = grid(["A", "B"], [[1, 2], [3, 5]])
        assert low != high
        assert solve(low) == solve(high) and hash(solve(low)) == hash(solve(high))
        assert solve(low) != solve(CLASSICAL_2P)

    def test_strict_subset_of_weak(self):
        for m in (CLASSICAL_2P, PHASE_2P, MIRACLE_2P, ALL_TIES):
            eq = solve(m)
            assert set(cells(eq.strict_pure)) <= set(cells(eq.weak_pure))


def test_strict_set_invariant_under_affine_rescaling():
    scaled = CostBimatrix(MIRACLE_2P.labels, [[3 * a + 1 for a in row] for row in MIRACLE_2P.costs])
    assert cells(solve(scaled).strict_pure) == cells(solve(MIRACLE_2P).strict_pure)
    assert cells(solve(scaled).weak_pure) == cells(solve(MIRACLE_2P).weak_pure)
