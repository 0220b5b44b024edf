import dataclasses
import json
import math
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

import pigouq.games as games
from pigouq.cli import STRATEGY_SETS
from pigouq.equilibria import PureProfile, solve
from pigouq.errors import DomainError
from pigouq.games import (
    CLASSICAL_GRID,
    CostBimatrix,
    GameSpec,
    bimatrix,
    cost_assignment,
    outcome_grid,
)
from pigouq.ewl import GAMMA_MAX, outcome_table
from pigouq.metrics import profile_total
from pigouq.strategies import STRATEGY_TAGS, StrategyAngles, resolve

ONE = F(1)
HALF = F(1, 2)


# 201 even samples plus the edges of the exactness rule
ANGLES = sorted(
    {0.0, 1e-6, 2e-5, math.pi / 4, math.pi / 2 - 1e-6, math.pi / 2}
    | set(np.linspace(0.0, math.pi / 2, 201).tolist())
)


@pytest.fixture
def fresh_endpoints():
    """Rebuild the endpoint tables on first use in the test, and after it."""
    games._endpoint_tables.cache_clear()
    yield
    games._endpoint_tables.cache_clear()


def test_tag_grid_is_the_protocol_at_every_angle():
    # all 36 ordered pairs of the catalog, affine in sin^2(gamma)
    matrices = [resolve(s) for s in STRATEGY_TAGS]
    worst = max(
        np.abs(np.array(outcome_grid(STRATEGY_TAGS, g), dtype=float) - outcome_table(matrices, matrices, g)).max()
        for g in ANGLES
    )
    assert worst <= 1e-15


def test_snap_probability(monkeypatch, fresh_endpoints):
    # The endpoint build snaps each protocol probability to its quarter: a
    # float within 1e-12 of one becomes that exact Fraction, and a float off
    # every quarter is an error, never a float left in an exact game.
    real = games.outcome_table
    nudges = {(GAMMA_MAX, 3, 3, 2): 0.25 + 1e-13}  # M vs M, outcome 10: 1/4

    def nudged(rows, cols, gamma):
        table = real(rows, cols, gamma)
        for (at, i, j, o), value in nudges.items():
            if gamma == at:
                table[i, j, o] = value
        return table

    monkeypatch.setattr(games, "outcome_table", nudged)
    (((*_, p10, _),),) = outcome_grid(("M",), GAMMA_MAX)
    assert p10 == F(1, 4) and type(p10) is F
    ((cell,),) = outcome_grid(("P1",), 0.0)
    assert cell == (ONE, 0, 0, 0) and all(type(p) is F for p in cell)
    games._endpoint_tables.cache_clear()
    nudges[(0.0, 0, 0, 0)] = 0.3  # P1 vs P1, outcome 00: 1
    with pytest.raises(DomainError, match="P1 vs P1 outcome 0 probability 0.3,"):
        outcome_grid(("P1",), 0.4)


@pytest.mark.parametrize("gamma", [0.0, 1e-6, 2e-5, 3e-5, 0.4, math.pi / 4, math.pi / 2])
def test_outcome_grid_is_the_protocol_snapped_cell_by_cell(gamma):
    # A tag set's grid is the protocol with every probability snapped to its
    # quarter where t = sin^2(gamma) is exactly 0 or 1, and the protocol
    # within 1e-15 in floats at every other angle, however close to an
    # endpoint; a custom set's grid is the protocol, never snapped.
    matrices = [resolve(s) for s in STRATEGY_TAGS]
    table = outcome_table(matrices, matrices, gamma)
    got = outcome_grid(STRATEGY_TAGS, gamma)
    if math.sin(gamma) ** 2 in (0.0, 1.0):
        quarters = np.rint(table * 4)
        assert np.abs(table - quarters / 4).max() <= 1e-12
        want = tuple(tuple(tuple(F(int(q), 4) for q in cell) for cell in row) for row in quarters.tolist())
        assert repr(got) == repr(want)  # values and types
    else:
        assert {type(p) for row in got for cell in row for p in cell} == {float}
        assert np.abs(np.array(got) - table).max() <= 1e-15
    rng = np.random.default_rng(11)
    custom = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(3))
    matrices = [resolve(s) for s in custom]
    want = tuple(tuple(map(tuple, row)) for row in outcome_table(matrices, matrices, gamma).tolist())
    assert repr(outcome_grid(custom, gamma)) == repr(want)


@pytest.mark.parametrize(
    "gamma, exact",
    [
        (0.0, True),
        (1e-200, True),  # sin(gamma) ** 2 underflows to 0.0
        (1e-6, False),
        (0.4, False),
        (math.pi / 4, False),
        (math.pi / 2 - 1e-6, False),
        (math.pi / 2 - 1e-9, True),  # sin(gamma) rounds to 1.0
        (math.pi / 2, True),
    ],
)
def test_tag_grid_is_all_exact_at_t_0_or_1_and_all_float_otherwise(gamma, exact):
    assert (math.sin(gamma) ** 2 in (0.0, 1.0)) == exact
    grid = outcome_grid(STRATEGY_TAGS, gamma)
    assert {type(p) for row in grid for cell in row for p in cell} == ({F} if exact else {float})
    cells = bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q"), gamma)).cells
    assert {type(x) for row in cells for cell in row for x in cell} == ({F} if exact else {float})


@pytest.mark.parametrize("gamma", [0.0, 1e-6, 0.4, math.pi / 2])
def test_custom_grid_is_the_protocol_bit_for_bit(gamma):
    rng = np.random.default_rng(11)
    custom = (StrategyAngles(0.0, 0.0),) + tuple(
        StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(2)
    )
    for strategies in (custom, ("P1", custom[1], "M")):
        matrices = [resolve(s) for s in strategies]
        want = tuple(tuple(map(tuple, row)) for row in outcome_table(matrices, matrices, gamma).tolist())
        assert repr(outcome_grid(strategies, gamma)) == repr(want)  # values and types: never snapped


@pytest.mark.parametrize("offset, raises", [(2e-12, True), (-2e-12, True), (0.5e-12, False)])
def test_endpoint_off_a_quarter_raises(monkeypatch, fresh_endpoints, offset, raises):
    real = games.outcome_table

    def nudged(rows, cols, gamma):
        table = real(rows, cols, gamma)
        if gamma == GAMMA_MAX:
            table[3, 3, 2] += offset  # M vs M, outcome 10: 1/4
        return table

    monkeypatch.setattr(games, "outcome_table", nudged)
    if raises:
        with pytest.raises(DomainError, match="M vs M outcome 2 probability"):
            outcome_grid(("P1", "M"), 0.3)
    else:
        assert outcome_grid(("P1", "M"), GAMMA_MAX)[1][1] == (F(1, 4),) * 4


def test_tiny_gamma_is_not_the_unentangled_game():
    # Rounding probabilities that lie within 1e-10 of a quarter would make
    # gamma = 1e-6 and 1e-5 the gamma = 0 game, which selects (P2, P2).
    names = ("P1", "P2", "M")
    unentangled = solve(bimatrix(GameSpec.quantum_two_person(names, 0.0)))
    assert (unentangled.selected.row_label, unentangled.selected.col_label, unentangled.selected_by) == (
        "P2", "P2", "dominance"
    )
    for gamma in (1e-6, 1e-5):
        assert solve(bimatrix(GameSpec.quantum_two_person(names, gamma))).selected is None
    # the exact game at t = sin^2(gamma) = 1/10^9 agrees; costs are affine in the
    # probabilities, so it lies on the line between the two exact endpoint games
    t = F(1, 10**9)
    c0, c1 = (bimatrix(GameSpec.quantum_two_person(names, g)).costs for g in (0.0, GAMMA_MAX))
    matrix = CostBimatrix(names, [[a + t * (b - a) for a, b in zip(r0, r1)] for r0, r1 in zip(c0, c1)])
    assert all(type(x) is F for row in matrix.cells for cell in row for x in cell)
    assert solve(matrix).selected is None


class TestGameSpecValidation:
    def test_two_person_fixes_n(self):
        with pytest.raises(DomainError, match=r"^a game without k is the two-person game, which fixes n = 2; got n=3$"):
            GameSpec(mode="classical", n=3)

    def test_two_person_takes_no_k(self):
        # A spec with k is the n-traveler game, which n = 2 cannot hold.
        with pytest.raises(DomainError, match=r"^the k-person game requires n >= 3$"):
            GameSpec(mode="classical", n=2, k=1)

    def test_variant_is_derived_from_k(self):
        assert [f.name for f in dataclasses.fields(GameSpec)] == ["mode", "n", "k", "gamma", "strategies"]
        assert GameSpec.classical_two_person().variant == "two_person"
        assert GameSpec.quantum_k_person(10, 0).variant == "k_person"
        assert GameSpec.classical_k_person(10, 3).describe() == "classical k-person n=10 k=3 strategies=P1,P2"
        with pytest.raises(AttributeError):
            GameSpec.classical_two_person().variant = "k_person"

    def test_k_bounds(self):
        GameSpec.classical_k_person(10, 0)
        GameSpec.classical_k_person(10, 7)
        for bad_k in (-1, 8, 9):
            with pytest.raises(DomainError):
                GameSpec.classical_k_person(10, bad_k)

    @pytest.mark.parametrize("n, k", [(10, 2.5), (10, 2.0), (10.0, 2), (F(10), 2)])
    def test_population_and_pinned_count_are_integers(self, n, k):
        with pytest.raises(DomainError, match="must be an integer"):
            GameSpec.classical_k_person(n, k)
        with pytest.raises(DomainError, match="must be an integer"):
            GameSpec.quantum_k_person(n, k)

    def test_two_person_population_is_an_integer(self):
        with pytest.raises(DomainError, match=r"^n must be an integer, got 2\.0$"):
            GameSpec(mode="classical", n=2.0)

    def test_classical_strategies_limited_to_paths(self):
        with pytest.raises(DomainError):
            GameSpec(mode="classical", n=2, strategies=("P1", "Q"))

    @pytest.mark.parametrize("strategies", [("P2", "P1"), ("P1",), ("P2",)])
    def test_classical_strategies_are_both_paths_in_grid_order(self, strategies):
        # CLASSICAL_GRID is laid out over (P1, P2), so no other list may label it
        with pytest.raises(DomainError, match="exactly P1 and P2"):
            GameSpec(mode="classical", n=10, k=3, strategies=strategies)

    def test_classical_takes_no_gamma(self):
        with pytest.raises(DomainError):
            GameSpec(mode="classical", n=2, gamma=0.5)

    def test_quantum_requires_gamma(self):
        with pytest.raises(DomainError):
            GameSpec(mode="quantum", n=2, strategies=("P1", "P2"))

    def test_quantum_gamma_range(self):
        with pytest.raises(DomainError):
            GameSpec.quantum_two_person(gamma=math.pi)

    @pytest.mark.parametrize("gamma", ["0.5", "max", 0.5j, [0.5], True, False, np.True_])
    def test_quantum_gamma_is_a_real_number(self, gamma):
        with pytest.raises(DomainError, match="must be a real number"):
            GameSpec.quantum_two_person(gamma=gamma)

    @pytest.mark.parametrize("gamma", [F(1, 2), 1, np.float32(0.5)])
    def test_quantum_gamma_is_kept_as_a_float(self, gamma):
        spec = GameSpec.quantum_k_person(10, 4, gamma=gamma)
        assert type(spec.gamma) is float and spec.gamma == float(gamma)
        assert f"gamma={float(gamma):.6g}" in spec.describe()

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(DomainError, match=r"^duplicate strategies in \['P1', 'P1'\]$"):
            GameSpec.quantum_two_person(("P1", "P1"))

    def test_a_negative_zero_angle_is_a_duplicate(self):
        strategies = (StrategyAngles(-0.0, 0.0), StrategyAngles(0.0, 0.0), "P2")
        with pytest.raises(DomainError, match=r"^duplicate strategies in \['U\(0,0\)', 'U\(0,0\)', 'P2'\]$"):
            GameSpec.quantum_two_person(strategies, 0.5)

    def test_distinct_strategies_that_print_alike_are_refused_as_such(self):
        strategies = (StrategyAngles(0.1, 0.2), StrategyAngles(0.1000001, 0.2))
        assert strategies[0] != strategies[1]
        with pytest.raises(DomainError, match=r"^distinct strategies print alike in \['U\(0.1,0.2\)', 'U\(0.1,0.2\)'\]"):
            GameSpec.quantum_two_person(strategies, 0.5)
        # Apart from a true duplicate, the duplicate is named first.
        with pytest.raises(DomainError, match="^duplicate strategies"):
            GameSpec.quantum_two_person(strategies + (StrategyAngles(0.1, 0.2),), 0.5)

    @pytest.mark.parametrize("n, k", [(True, None), (10, True), (10, False), (True, 0)])
    def test_bools_are_not_counts(self, n, k):
        with pytest.raises(DomainError, match=r"^[nk] must be an integer, got (True|False)$"):
            GameSpec(mode="classical", n=n, k=k)

    def test_fields_are_kept_canonical(self):
        """A list of strategies and numpy counts give the spec that tuples and ints give."""
        loose = GameSpec(mode="quantum", n=np.int64(10), k=np.int32(3), gamma=1, strategies=["P1", "P2", "M"])
        plain = GameSpec.quantum_k_person(10, 3, ("P1", "P2", "M"), 1.0)
        assert loose == plain and hash(loose) == hash(plain)
        assert [type(x) for x in (loose.n, loose.k, loose.strategies)] == [int, int, tuple]
        assert loose.describe() == "quantum k-person n=10 k=3 gamma=1 strategies=P1,P2,M"
        two = GameSpec(mode="quantum", n=np.int64(2), gamma=0.5, strategies=["P1", "P2"])
        assert two == GameSpec.quantum_two_person(["P1", "P2"], 0.5) and type(two.n) is int


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
    assert m.labels == ("P1", "P2")
    assert m.cells == (((ONE, ONE), (ONE, HALF)), ((HALF, ONE), (ONE, ONE)))


def test_k_person_classical_grid():
    m = bimatrix(GameSpec.classical_k_person(10, 3))
    assert m.cell(1, 0) == (F(2, 5), ONE)
    assert m.cell(1, 1) == (HALF, HALF)
    m0 = bimatrix(GameSpec.classical_k_person(10, 0))
    assert m0.cell(0, 1) == (ONE, F(1, 10))


@pytest.mark.parametrize("gamma", [0.0, 1e-6, 2e-5, 0.4, math.pi / 2])
def test_skipping_exact_zeros_keeps_every_bit_and_type(gamma):
    # Alice's cell sum drops the zero probabilities and multiplies float ones
    # by float costs; the full Fraction-dispatched sum over all four outcomes
    # must give the same cells, and Bob's cell (i, j) is Alice's (j, i)
    rng = np.random.default_rng(7)
    custom = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(2))
    for strategies in (("P1", "P2", "Q"), ("P1", "P2", "M"), ("S1", "S2"), custom):
        spec = GameSpec.quantum_k_person(9, 2, strategies, gamma)
        outcomes = outcome_grid(strategies, gamma)
        alice, _ = cost_assignment(spec)
        a = [[sum(p * c for p, c in zip(probs, alice)) for probs in row] for row in outcomes]
        want = tuple(tuple(zip(row, col)) for row, col in zip(a, zip(*a)))
        got = bimatrix(spec).cells
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
    q2 = bimatrix(GameSpec(mode="quantum", n=2, gamma=0.0, strategies=("P1", "P2")))
    c2 = bimatrix(GameSpec.classical_two_person())
    assert q2.cells == c2.cells
    for n, k in ((10, 1), (10, 5), (6, 2)):
        qk = bimatrix(GameSpec(mode="quantum", n=n, k=k, gamma=0.0, strategies=("P1", "P2")))
        ck = bimatrix(GameSpec.classical_k_person(n, k))
        assert qk.cells == ck.cells


def test_generic_gamma_cells_are_floats():
    m = bimatrix(GameSpec(mode="quantum", n=2, gamma=0.4, strategies=("P1", "P2", "M")))
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
        assert m.cost_b(i, j) == m.cost_a(j, i)


def _mirrored(cell):
    """The outcome distribution with the players exchanged: outcomes 01 and 10 swap."""
    p00, p01, p10, p11 = cell
    return p00, p10, p01, p11


def _mirror_gap(grid) -> float:
    return max(
        abs(x - y)
        for i, row in enumerate(grid)
        for j, cell in enumerate(row)
        for x, y in zip(cell, _mirrored(grid[j][i]))
    )


def test_endpoint_tables_are_mirrored_exactly():
    # Bob's grid being Alice's transposed rests on this, for all 36 pairs at both endpoints
    exact_0, exact_1, affine = games._endpoint_tables()
    for table in (exact_0, exact_1):
        for i, j in product(range(len(STRATEGY_TAGS)), repeat=2):
            assert table[j][i] == _mirrored(table[i][j])
    for i, j in product(range(len(STRATEGY_TAGS)), repeat=2):
        assert affine[j][i] == tuple(map(_mirrored, affine[i][j]))


def test_named_set_float_grids_are_mirrored_exactly():
    rng = np.random.default_rng(23)
    for gamma in rng.uniform(0.0, GAMMA_MAX, 50).tolist():
        assert _mirror_gap(outcome_grid(STRATEGY_TAGS, gamma)) == 0.0


def test_float_named_games_are_symmetric_exactly():
    rng = np.random.default_rng(29)
    names = sorted(set(STRATEGY_SETS.values()))
    for gamma in rng.uniform(0.0, GAMMA_MAX, 50).tolist():
        strategies = names[int(rng.integers(len(names)))]
        n = int(rng.integers(3, 20))
        for spec in (
            GameSpec.quantum_two_person(strategies, gamma),
            GameSpec.quantum_k_person(n, int(rng.integers(n - 2)), strategies, gamma),
        ):
            m = bimatrix(spec)
            assert any(isinstance(x, float) for row in m.cells for cell in row for x in cell)
            for i, j in product(range(m.size), repeat=2):
                assert m.cost_b(i, j) == m.cost_a(j, i)


def test_custom_angle_grids_are_mirrored_to_rounding():
    # the batched protocol's matmuls round the exchanged pair differently, so
    # a custom grid is mirrored only to within 1e-15, and Bob's transposed
    # cells stay within 1e-12 of a sum over his own per-outcome costs
    rng = np.random.default_rng(31)
    inexact = 0
    for _ in range(40):
        strategies = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2)) for _ in range(5))
        gamma = float(rng.uniform(0.0, GAMMA_MAX))
        outcomes = outcome_grid(strategies, gamma)
        gap = _mirror_gap(outcomes)
        assert gap <= 1e-15
        inexact += gap > 0
        spec = GameSpec.quantum_k_person(9, 2, strategies, gamma)
        _, bob = cost_assignment(spec)
        m = bimatrix(spec)
        for i, j in product(range(m.size), repeat=2):
            own = sum(p * float(c) for p, c in zip(outcomes[i][j], bob) if p)
            assert abs(m.cost_b(i, j) - own) <= 1e-12
    assert inexact  # the tolerance is needed: some grids are not mirrored exactly


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
    with pytest.raises(DomainError, match="cell grid does not match strategy labels"):
        CostBimatrix(("A",), ((ONE, ONE),))
    with pytest.raises(DomainError, match="cell grid does not match strategy labels"):
        CostBimatrix(("A", "B"), ((ONE, ONE),))
    with pytest.raises(DomainError, match="positive and finite, got 0$"):
        CostBimatrix(("A",), ((F(0),),))


def test_bimatrix_type_rejects_an_empty_game():
    with pytest.raises(DomainError, match="^strategy list must be nonempty$"):
        CostBimatrix((), ())


def test_bimatrix_type_keeps_its_labels_as_a_tuple():
    costs = ((ONE, HALF), (ONE, ONE))
    listed, tupled = CostBimatrix(["A", "B"], costs), CostBimatrix(("A", "B"), costs)
    assert listed.labels == ("A", "B")
    assert listed == tupled and hash(listed) == hash(tupled)


@pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint16])
def test_bimatrix_type_takes_numpy_integer_costs_as_ints(dtype):
    plain = CostBimatrix(("A", "B"), [[2, 1], [3, 2]])
    matrix = CostBimatrix(("A", "B"), np.array([[2, 1], [3, 2]], dtype=dtype))
    assert all(type(x) is int for row in matrix.costs for x in row)
    assert matrix == plain and hash(matrix) == hash(plain) and repr(matrix) == repr(plain)
    assert matrix.scaled_costs == plain.scaled_costs == ([[2, 1], [3, 2]], 1)
    assert solve(matrix) == solve(plain) and solve(matrix).selected == PureProfile(0, 0, "A", "A")


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
def test_bimatrix_type_takes_numpy_float_costs_as_floats(dtype):
    plain = CostBimatrix(("A", "B"), [[2.5, 1.0], [3.0, 2.0]])
    matrix = CostBimatrix(("A", "B"), np.array([[2.5, 1], [3, 2]], dtype=dtype))
    assert all(type(x) is float for row in matrix.costs for x in row)
    assert matrix == plain and hash(matrix) == hash(plain) and repr(matrix) == repr(plain)
    assert matrix.scaled_costs == plain.scaled_costs == ([[5, 2], [6, 4]], 2)
    # A float game's pure total is a float sum, not an exact Fraction.
    total = profile_total(GameSpec.classical_two_person(), matrix, solve(matrix).selected)
    assert type(total) is float and total == 5.0


@pytest.mark.parametrize(
    "costs",
    [
        np.array([[True, True], [True, True]]),
        [[1, 2], [np.True_, 1]],
        [[True, 2], [1, True]],  # Python bools too: True is not the cost 1
        [[1.0, F(1, 2)], [True, 0.5]],
    ],
)
def test_bimatrix_type_rejects_numpy_bool_costs(costs):
    with pytest.raises(DomainError, match="cost entries must be numbers"):
        CostBimatrix(("A", "B"), costs)


def test_bimatrix_type_takes_a_long_double_cost_only_when_a_float_equals_it():
    half, third = np.longdouble(1) / 2, np.longdouble(1) / 3
    assert CostBimatrix(("A",), [[half]]).costs == ((0.5,),)
    if float(third) == third:  # long double is a double on this platform
        assert CostBimatrix(("A",), [[third]]).costs == ((1 / 3,),)
    else:
        with pytest.raises(DomainError, match="exact as Python floats"):
            CostBimatrix(("A",), [[third]])


@pytest.mark.parametrize("bad", [math.inf, math.nan, "1/2", 0.5j, None, np.float32("nan"), np.float32("inf")])
def test_bimatrix_type_rejects_nonfinite_costs(bad):
    costs = ((ONE, ONE), (F(1, 2), bad))
    with pytest.raises(DomainError, match="positive and finite"):
        CostBimatrix(("P1", "P2"), costs)


# --- the integer build of exact games, against the Fraction cell loop ---


def fraction_cells(spec, outcomes):
    """The oracle: each player's cell as their own Fraction sum of probability times cost, zeros skipped.

    Every grid passed here is mirrored, so Bob's sums must be Alice's
    transposed, which :func:`bimatrix` assumes and never computes.
    """
    alice, bob = cost_assignment(spec)
    return tuple(
        tuple(
            (sum(p * c for p, c in zip(probs, alice) if p), sum(p * c for p, c in zip(probs, bob) if p))
            for probs in row
        )
        for row in outcomes
    )


def assert_matches_fraction_loop(spec):
    matrix = bimatrix(spec)
    outcomes = CLASSICAL_GRID if spec.mode == "classical" else outcome_grid(spec.strategies, spec.gamma)
    want = fraction_cells(spec, outcomes)
    # Alice's integer grid, which an exact game holds as its data, is an exact multiple of its costs over one scale
    a, scale = matrix.scaled_costs
    for i, j in product(range(matrix.size), repeat=2):
        assert a[i][j] == scale * matrix.cost_a(i, j) and a[j][i] == scale * matrix.cost_b(i, j)
        assert matrix.cell(i, j) == want[i][j]
    assert matrix.cells == want
    assert all(type(x) is F for row in matrix.cells for cell in row for x in cell)
    labels = spec.strategy_labels()
    built = CostBimatrix(labels, [[alice for alice, _ in row] for row in want])
    assert matrix == built and built == matrix and hash(matrix) == hash(built)
    assert matrix.to_json_obj() == built.to_json_obj()
    assert matrix.to_text_table() == built.to_text_table()
    assert repr(matrix) == repr(built)


def test_classical_integer_build_is_the_fraction_loop():
    assert_matches_fraction_loop(GameSpec.classical_two_person())
    for n in range(3, 25):
        for k in range(n - 2):
            assert_matches_fraction_loop(GameSpec.classical_k_person(n, k))


#: The CLI's named sets and every pair of catalog tags.
NAMED_SETS = sorted(set(STRATEGY_SETS.values()) | set(combinations(STRATEGY_TAGS, 2)))


@pytest.mark.parametrize("strategies", NAMED_SETS, ids=",".join)
@pytest.mark.parametrize("gamma", [0.0, GAMMA_MAX])
def test_named_set_integer_build_is_the_fraction_loop(strategies, gamma):
    assert_matches_fraction_loop(GameSpec.quantum_two_person(strategies, gamma))
    for n in range(3, 18):
        for k in range(n - 2):
            assert_matches_fraction_loop(GameSpec.quantum_k_person(n, k, strategies, gamma))


def test_integer_build_takes_any_exact_denominator():
    # thirds, sixths and twelfths next to quarters, in a mirrored grid: the
    # scale is n times the LCM of the probability denominators, not 4n, and
    # a0 + k * a1 over it is Alice's Fraction grid at every k
    third, sixth, quarter = F(1, 3), F(1, 6), F(1, 4)
    upper = {
        (0, 0): (third, sixth, sixth, third),
        (0, 1): (F(0), F(1, 2), third, sixth),
        (0, 2): (F(1, 12), F(5, 12), quarter, quarter),
        (1, 1): (quarter,) * 4,
        (1, 2): (sixth, F(1, 2), F(0), third),
        (2, 2): (F(0), third, third, third),
    }
    outcomes = tuple(
        tuple(upper[i, j] if i <= j else _mirrored(upper[j, i]) for j in range(3)) for i in range(3)
    )
    names = ("P1", "P2", "M")
    specs = [GameSpec.quantum_two_person(names)] + [GameSpec.quantum_k_person(10, k, names) for k in range(8)]
    for spec in specs:
        a0, a1, scale = games._exact_grid(spec.n, outcomes)
        assert scale == spec.n * 12
        k = spec.k or 0
        grid = [[F(x + k * y, scale) for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)]
        want = fraction_cells(spec, outcomes)
        assert grid == [[alice for alice, _ in row] for row in want]
        assert [list(col) for col in zip(*grid)] == [[bob for _, bob in row] for row in want]


@pytest.mark.parametrize(
    "strategies",
    [("P1", "P2", "M"), ("P1", "P2", "Q"), ("Q", "S2"), (StrategyAngles(0.3, 1.2), StrategyAngles(2.5, 0.1), "M")],
    ids=["P1P2M", "P1P2Q", "QS2", "custom"],
)
def test_float_family_games_equal_the_validating_constructors(strategies):
    # The builder forms float games through a constructor that checks only the least
    # cost; each must be the game CostBimatrix(labels, costs) validates and builds.
    gammas = (1e-6, 0.4, 1.1, GAMMA_MAX - 1e-6)
    two = games._bimatrices(GameSpec.quantum_two_person(strategies, 0.4), gammas)
    over_k = [m for g in gammas for m in games._k_family(GameSpec.quantum_k_person(9, 0, strategies, g))]
    assert len(two) + len(over_k) == 4 + 4 * 7
    for matrix in two + over_k:
        assert type(matrix.costs) is tuple and all(type(row) is tuple for row in matrix.costs)
        assert all(type(x) is float for row in matrix.costs for x in row)
        assert "scaled_costs" not in vars(matrix)
        public = CostBimatrix(matrix.labels, matrix.costs)
        assert matrix == public and public == matrix and hash(matrix) == hash(public)
        assert repr(matrix) == repr(public) and matrix.scaled_costs == public.scaled_costs


def test_float_build_rejects_a_nonpositive_cost():
    with pytest.raises(DomainError, match=r"positive and finite, got -0\.5$"):
        CostBimatrix._float(("P1", "P2"), ((1.0, 0.5), (-0.5, 0.0)))


def test_integer_build_rejects_a_nonpositive_cost():
    # Alice's integer grid over scale 4 with two non-positive costs: the least,
    # -4 / 4 = -1, is the one reported
    with pytest.raises(DomainError, match=r"positive and finite, got -1$"):
        CostBimatrix._exact(("P1", "P2"), [[4, 2], [-4, 0]], 4)
