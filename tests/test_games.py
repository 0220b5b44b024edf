import json
import math
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

import pigouq.games as games
from pigouq.errors import DomainError
from pigouq.games import (
    CLASSICAL_GRID,
    PROB_SNAP_TARGETS,
    CostBimatrix,
    GameSpec,
    bimatrix,
    cost_assignment,
    outcome_grid,
    snap_probability,
)
from pigouq.ewl import outcome_table
from pigouq.strategies import STRATEGY_TAGS, StrategyAngles, resolve

ONE = F(1)
HALF = F(1, 2)


def test_snap_probability():
    assert snap_probability(0.25 + 1e-12) == F(1, 4)
    assert snap_probability(1.0) == ONE
    assert snap_probability(0.3) == 0.3  # not a snap target, stays float
    assert isinstance(snap_probability(0.3), float)


@pytest.mark.parametrize("offset, snaps", [(0.5e-10, True), (-0.5e-10, True), (2e-10, False), (-2e-10, False)])
def test_outcome_grid_snaps_only_within_the_tolerance(monkeypatch, offset, snaps):
    probs = np.array([[[float(t) + offset for t in PROB_SNAP_TARGETS]]])
    monkeypatch.setattr(games, "outcome_table", lambda rows, cols, gamma: probs)
    ((cell,),) = outcome_grid(("P1",), 0.0)
    if snaps:
        assert cell == PROB_SNAP_TARGETS and all(isinstance(p, F) for p in cell)
    else:
        assert cell == tuple(probs[0, 0].tolist()) and all(type(p) is float for p in cell)
    assert cell == tuple(snap_probability(p) for p in probs[0, 0].tolist())



@pytest.mark.parametrize("gamma", [0.0, 1e-6, 2e-5, 3e-5, 0.4, math.pi / 4, math.pi / 2])
def test_outcome_grid_is_the_protocol_snapped_cell_by_cell(gamma):
    rng = np.random.default_rng(11)
    custom = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(3))
    for strategies in (STRATEGY_TAGS, custom):
        matrices = [resolve(s) for s in strategies]
        want = [
            [tuple(snap_probability(p) for p in probs) for probs in row]
            for row in outcome_table(matrices, matrices, gamma).tolist()
        ]
        got = outcome_grid(strategies, gamma)
        assert repr(got) == repr(tuple(map(tuple, want)))  # values and types

class TestGameSpecValidation:
    def test_two_person_fixes_n(self):
        with pytest.raises(DomainError):
            GameSpec(variant="two_person", mode="classical", n=3)

    def test_two_person_takes_no_k(self):
        with pytest.raises(DomainError):
            GameSpec(variant="two_person", mode="classical", n=2, k=1)

    def test_k_bounds(self):
        GameSpec.classical_k_person(10, 0)
        GameSpec.classical_k_person(10, 7)
        for bad_k in (-1, 8, 9):
            with pytest.raises(DomainError):
                GameSpec.classical_k_person(10, bad_k)

    def test_classical_strategies_limited_to_paths(self):
        with pytest.raises(DomainError):
            GameSpec(variant="two_person", mode="classical", n=2, strategies=("P1", "Q"))

    @pytest.mark.parametrize("strategies", [("P2", "P1"), ("P1",), ("P2",)])
    def test_classical_strategies_are_both_paths_in_grid_order(self, strategies):
        # CLASSICAL_GRID is laid out over (P1, P2), so no other list may label it
        with pytest.raises(DomainError, match="exactly P1 and P2"):
            GameSpec(variant="k_person", mode="classical", n=10, k=3, strategies=strategies)

    def test_classical_takes_no_gamma(self):
        with pytest.raises(DomainError):
            GameSpec(variant="two_person", mode="classical", n=2, gamma=0.5)

    def test_quantum_requires_gamma(self):
        with pytest.raises(DomainError):
            GameSpec(variant="two_person", mode="quantum", n=2, strategies=("P1", "P2"))

    def test_quantum_gamma_range(self):
        with pytest.raises(DomainError):
            GameSpec.quantum_two_person(gamma=math.pi)

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(DomainError):
            GameSpec.quantum_two_person(("P1", "P1"))


def test_two_person_cost_assignment():
    alice, bob = cost_assignment(GameSpec.classical_two_person())
    assert alice == (ONE, ONE, HALF, ONE)
    assert bob == (ONE, HALF, ONE, ONE)


def test_k_person_cost_assignment():
    alice, bob = cost_assignment(GameSpec.classical_k_person(10, 1))
    assert alice[3] == F(3, 10)
    assert alice == (ONE, ONE, F(1, 5), F(3, 10))
    assert bob == (ONE, F(1, 5), ONE, F(3, 10))
    alice0, _ = cost_assignment(GameSpec.classical_k_person(10, 0))
    assert alice0[2] == F(1, 10)  # a lone lower-edge user pays 1/n
    # quantum games are billed through the same map
    assert cost_assignment(GameSpec.quantum_k_person(10, 1)) == (alice, bob)
    assert all(type(c) is F for side in (alice, bob) for c in side)


def test_two_person_classical_grid():
    m = bimatrix(GameSpec.classical_two_person())
    assert m.row_labels == ("P1", "P2")
    assert m.cells == (((ONE, ONE), (ONE, HALF)), ((HALF, ONE), (ONE, ONE)))


def test_k_person_classical_grid():
    m = bimatrix(GameSpec.classical_k_person(10, 3))
    assert m.cell(1, 0) == (F(2, 5), ONE)
    assert m.cell(1, 1) == (HALF, HALF)
    m0 = bimatrix(GameSpec.classical_k_person(10, 0))
    assert m0.cell(0, 1) == (ONE, F(1, 10))


@pytest.mark.parametrize("gamma", [0.0, 1e-6, 2e-5, 0.4, math.pi / 2])
def test_skipping_exact_zeros_keeps_every_bit_and_type(gamma):
    # the cell sum drops the snapped Fraction(0) probabilities; the full
    # Fraction-dispatched sum over all four outcomes must give the same cells
    rng = np.random.default_rng(7)
    custom = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(2))
    for strategies in (("P1", "P2", "Q"), ("P1", "P2", "M"), ("S1", "S2"), custom):
        spec = GameSpec.quantum_k_person(9, 2, strategies, gamma)
        outcomes = outcome_grid(strategies, gamma)
        alice, bob = cost_assignment(spec)
        want = tuple(
            tuple((sum(p * c for p, c in zip(probs, alice)), sum(p * c for p, c in zip(probs, bob))) for probs in row)
            for row in outcomes
        )
        got = bimatrix(spec, outcomes).cells
        assert got == want
        assert [type(x) for row in got for cell in row for x in cell] == [
            type(x) for row in want for cell in row for x in cell
        ]


def test_two_person_miracle_cell():
    m = bimatrix(GameSpec.quantum_two_person(("P1", "P2", "M")))
    assert m.cell(2, 2) == (F(7, 8), F(7, 8))
    # every cell exact rational at maximal entanglement
    assert all(isinstance(v, F) for row in m.cells for cell in row for v in cell)


def test_k_person_miracle_cell():
    m = bimatrix(GameSpec.quantum_k_person(10, 1, ("P1", "P2", "M")))
    assert m.cell(2, 2) == (F(5, 8), F(5, 8))


def test_k_person_phase_cross_cell():
    for k in range(0, 8):
        m = bimatrix(GameSpec.quantum_k_person(10, k, ("P1", "P2", "Q")))
        shared = F(k + 2, 10)
        assert m.cell(0, 2) == (shared, shared)  # identity vs phase: both on lower edge
        assert m.cell(1, 2) == (ONE, F(k + 1, 10))  # flip vs phase: they split


def test_unentangled_restriction_equals_classical():
    assert outcome_grid(("P1", "P2"), 0.0) == CLASSICAL_GRID
    q2 = bimatrix(GameSpec(variant="two_person", mode="quantum", n=2, gamma=0.0, strategies=("P1", "P2")))
    c2 = bimatrix(GameSpec.classical_two_person())
    assert q2.cells == c2.cells
    for n, k in ((10, 1), (10, 5), (6, 2)):
        qk = bimatrix(GameSpec(variant="k_person", mode="quantum", n=n, k=k, gamma=0.0, strategies=("P1", "P2")))
        ck = bimatrix(GameSpec.classical_k_person(n, k))
        assert qk.cells == ck.cells


def test_generic_gamma_cells_are_floats():
    m = bimatrix(GameSpec(variant="two_person", mode="quantum", n=2, gamma=0.4, strategies=("P1", "P2", "M")))
    kinds = {type(v) for row in m.cells for cell in row for v in cell}
    assert float in kinds  # partial entanglement leaves non-dyadic outcomes


def test_miracle_grid_closed_forms():
    for n in (5, 10, 20):
        for k in range(0, n - 2):
            m = bimatrix(GameSpec.quantum_k_person(n, k, ("P1", "P2", "M")))
            hi = F(n + k + 2, 2 * n)
            lo = F(2 * k + 3, 2 * n)
            both = F(2 * n + 2 * k + 3, 4 * n)
            assert m.cell(2, 0) == (lo, hi)
            assert m.cell(0, 2) == (hi, lo)
            assert m.cell(2, 2) == (both, both)


@pytest.mark.parametrize(
    "spec",
    [
        GameSpec.classical_two_person(),
        GameSpec.classical_k_person(10, 4),
        GameSpec.quantum_two_person(("P1", "P2", "Q")),
        GameSpec.quantum_two_person(("P1", "P2", "M")),
        GameSpec.quantum_k_person(10, 2, ("P1", "P2", "Q")),
        GameSpec.quantum_k_person(10, 6, ("P1", "P2", "M")),
        GameSpec.quantum_two_person(("P1", "P2", "M"), gamma=0.9),
    ],
    ids=lambda s: s.describe(),
)
def test_grid_exchange_symmetry(spec):
    m = bimatrix(spec)
    for i, j in product(range(m.size), repeat=2):
        a, b = m.cost_a(i, j), m.cost_b(j, i)
        if isinstance(a, F) and isinstance(b, F):
            assert a == b
        else:
            assert abs(float(a) - float(b)) < 1e-12


def test_json_serialization_uses_num_den():
    m = bimatrix(GameSpec.classical_two_person())
    obj = m.to_json_obj()
    assert obj["rows"] == ["P1", "P2"]
    assert obj["cells"][0][1] == {"a": {"num": 1, "den": 1}, "b": {"num": 1, "den": 2}}
    json.dumps(obj)  # round-trippable


def test_text_table_lists_labels_and_entries():
    text = bimatrix(GameSpec.classical_two_person()).to_text_table()
    assert "P1" in text and "P2" in text
    assert "(1, 1/2)" in text


def test_bimatrix_type_rejects_nonsquare_and_nonpositive():
    with pytest.raises(DomainError):
        CostBimatrix(("A",), ("A", "B"), (((ONE, ONE), (ONE, ONE)),))
    with pytest.raises(DomainError):
        CostBimatrix(("A",), ("A",), (((F(0), ONE),),))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_bimatrix_type_rejects_nonfinite_costs(bad):
    cells = (((ONE, ONE), (ONE, F(1, 2))), ((F(1, 2), ONE), (bad, ONE)))
    with pytest.raises(DomainError):
        CostBimatrix(("P1", "P2"), ("P1", "P2"), cells)
