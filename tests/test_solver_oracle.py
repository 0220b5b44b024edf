"""Differential test: the integer support enumeration against a rational oracle.

The oracle below is the straightforward solver the integer one replaced:
Gauss-Jordan on ``Fraction`` rows for every support pair. The ``mixed``
view of :func:`solve` must equal its profiles: the same profiles in the
same order with the same exact values. The ``diagnostics`` view must
equal its notes of equal-size support pairs, the only pairs the solver
enumerates; the oracle still solves the unequal pairs too, and finds no
profile there.
Each game also holds every entry of the solver's per-size system tables
to the oracle's solve, whether or not a support pair reads it, so a
wrong row system cannot hide behind an inconsistent column system. The
solver reads Bob's system as Alice's for the exchanged supports; the
oracle builds Bob's costs from ``cost_b`` and solves his systems
itself, so that sharing is checked, not assumed.

Every game here also checks :func:`solve`, whose views are computed on
first read, against an eager reference that runs a brute-force pure
scan, dominance and the oracle up front and spells out the selection
convention.

:func:`dominance_select` keeps one survivor list for both players, since
every game is symmetric. A two-sided oracle, which eliminates Alice's
rows on her costs and Bob's columns on his own, read through ``cost_b``,
checks that sharing on random games with many ties and on every
reference game.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from pigouq.equilibria import MixedProfile, PureProfile, _systems, dominance_select, solve
from pigouq.games import CostBimatrix, GameSpec, bimatrix
from pigouq.strategies import STRATEGY_TAGS, StrategyAngles
from pigouq.verification import _all_reference_specs

GAMMA_MAX = math.pi / 2


def _oracle_solve_unique(rows):
    m = [row[:] for row in rows]
    n_unknowns = len(m[0]) - 1
    pivot_cols = []
    r = 0
    for c in range(n_unknowns):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][-1] != 0:
            return "inconsistent", None
    if len(pivot_cols) < n_unknowns:
        return "singular", None
    solution = [F(0)] * n_unknowns
    for row_idx, c in enumerate(pivot_cols):
        solution[c] = m[row_idx][-1]
    return "unique", solution


def _oracle_indifference_mix(costs, chooser_support, mixer_support):
    n_mix = len(mixer_support)
    rows = [[costs[i][j] for j in mixer_support] + [F(-1), F(0)] for i in chooser_support]
    rows.append([F(1)] * n_mix + [F(0), F(1)])
    status, sol = _oracle_solve_unique(rows)
    if status != "unique":
        return status, None, None
    return "unique", sol[:n_mix], sol[n_mix]


def _note(matrix, sup_a, sup_b, side):
    rows = ",".join(matrix.labels[i] for i in sup_a)
    cols = ",".join(matrix.labels[j] for j in sup_b)
    return f"support ({{{rows}}},{{{cols}}}): singular {side}-mix indifference system, skipped"


def oracle_enumeration(matrix):
    """Rational Gauss-Jordan support enumeration, the reference for the integer solver."""
    size = matrix.size
    a = [[F(matrix.cost_a(i, j)) for j in range(size)] for i in range(size)]
    b = [[F(matrix.cost_b(i, j)) for j in range(size)] for i in range(size)]
    b_t = [[b[i][j] for i in range(size)] for j in range(size)]
    supports = [c for r in range(1, size + 1) for c in itertools.combinations(range(size), r)]
    found = {}
    diagnostics = []
    for sup_a, sup_b in itertools.product(supports, supports):
        status_q, q, value_a = _oracle_indifference_mix(a, sup_a, sup_b)
        if status_q == "singular":
            diagnostics.append(_note(matrix, sup_a, sup_b, "column"))
            continue
        if status_q != "unique":
            continue
        status_p, p, value_b = _oracle_indifference_mix(b_t, sup_b, sup_a)
        if status_p == "singular":
            diagnostics.append(_note(matrix, sup_a, sup_b, "row"))
            continue
        if status_p != "unique":
            continue
        if any(x < 0 for x in p) or any(x < 0 for x in q):
            continue
        p_full = [F(0)] * size
        q_full = [F(0)] * size
        for idx, i in enumerate(sup_a):
            p_full[i] = p[idx]
        for idx, j in enumerate(sup_b):
            q_full[j] = q[idx]
        if any(
            sum(a[r][j] * q_full[j] for j in range(size)) < value_a for r in range(size) if r not in sup_a
        ):
            continue
        if any(
            sum(b[i][c] * p_full[i] for i in range(size)) < value_b for c in range(size) if c not in sup_b
        ):
            continue
        profile = MixedProfile(tuple(p_full), tuple(q_full), value_a, value_b)
        found.setdefault((profile.alice_probs, profile.bob_probs), profile)
    ordered = sorted(found.values(), key=lambda pr: (pr.support(), pr.alice_probs, pr.bob_probs))
    return ordered, diagnostics


def _square_pairs(size):
    """Every support pair with two supports of the same size, in size-then-index order."""
    return [
        pair
        for r in range(1, size + 1)
        for pair in itertools.product(itertools.combinations(range(size), r), repeat=2)
    ]


def square_oracle_enumeration(matrix):
    """The oracle's profiles, and its notes restricted to equal-size support pairs."""
    profiles, notes = oracle_enumeration(matrix)
    square = {
        _note(matrix, sup_a, sup_b, side) for sup_a, sup_b in _square_pairs(matrix.size) for side in ("column", "row")
    }
    return profiles, [note for note in notes if note in square]


def _oracle_verdict(costs, chooser, mixer, q, v):
    """Whether the mix ``q`` over ``mixer`` is nonnegative and no chooser strategy outside ``chooser`` beats ``v``."""
    outside = [r for r in range(len(costs)) if r not in chooser]
    return min(q) >= 0 and all(sum(costs[r][j] * x for j, x in zip(mixer, q)) >= v for r in outside)


def _systems_match_oracle(matrix):
    """Every entry of every system table the square pass builds, each against the rational oracle.

    Those are the tables of support sizes 2 and up; the weak pure scan
    stands in for the 1x1 pairs. An entry ``(chooser, mixer)`` is Alice's
    column-mix system of the pair ``(chooser, mixer)`` and Bob's row-mix
    system of ``(mixer, chooser)``, so it is checked as both: on Alice's
    costs, and on Bob's, read through ``cost_b`` and scaled like ``a``.
    Each must agree in status and, when unique, in the exact mix, value,
    positive denominator and ``ok`` verdict. Returns the statuses seen.
    """
    a, scale = matrix.scaled_costs
    size = matrix.size
    alice = [[F(x) for x in row] for row in a]
    bob_as_chooser = [[scale * F(matrix.cost_b(r, c)) for r in range(size)] for c in range(size)]
    statuses = set()
    for r in range(2, size + 1):
        table = _systems(a, r)
        assert list(table) == [pair for pair in _square_pairs(size) if len(pair[0]) == r]
        for (chooser, mixer), (status, solution, ok) in table.items():
            for oracle_costs in (alice, bob_as_chooser):
                want, q, v = _oracle_indifference_mix(oracle_costs, chooser, mixer)
                assert status == want, (chooser, mixer)
                if status == "unique":
                    weights, value, denominator = solution
                    assert denominator > 0
                    assert [F(w, denominator) for w in weights] == q and F(value, denominator) == v
                    assert ok == _oracle_verdict(oracle_costs, chooser, mixer, q, v), (chooser, mixer)
                else:
                    assert (solution, ok) == (None, False)
            statuses.add(status)
    return statuses


def _same_as_oracle(matrix):
    eq = solve(matrix)
    got = (list(eq.mixed), list(eq.diagnostics))
    want = square_oracle_enumeration(matrix)
    assert got == want
    # Equal Fractions compare equal across types; pin the exact types too.
    for g, w in zip(got[0], want[0]):
        values = g.alice_probs + g.bob_probs + (g.expected_cost_alice, g.expected_cost_bob)
        assert all(type(x) is F for x in values)
        assert repr(g) == repr(w)
    _lazy_views_match_eager(matrix, want)
    return _systems_match_oracle(matrix)


VIEWS = ("strict_pure", "weak_pure", "mixed", "selected", "selected_by", "diagnostics")


def brute_force_pure(matrix):
    """``(strict, weak)`` pure equilibria: every unilateral deviation from every cell, tried on the cells themselves."""
    strict, weak = [], []
    for i, j in itertools.product(range(matrix.size), repeat=2):
        a, b = matrix.cell(i, j)
        deviations = [(matrix.cost_a(r, j), a) for r in range(matrix.size) if r != i]
        deviations += [(matrix.cost_b(i, c), b) for c in range(matrix.size) if c != j]
        if all(cost >= stay for cost, stay in deviations):
            profile = PureProfile(i, j, matrix.labels[i], matrix.labels[j])
            weak.append(profile)
            if all(cost > stay for cost, stay in deviations):
                strict.append(profile)
    return tuple(strict), tuple(weak)


def eager_views(matrix, oracle):
    """The six views of ``solve``, every solver run up front, the convention spelled out.

    ``mixed`` and ``diagnostics`` come from ``oracle``, the rational
    oracle's :func:`square_oracle_enumeration` of ``matrix``, which solves
    every support pair, so the views are checked against a reference that
    skips none; its notes are kept for equal-size pairs.
    """
    strict, weak = brute_force_pure(matrix)
    mixed, diagnostics = oracle
    dominant = dominance_select(matrix)
    if dominant is not None:
        selected, selected_by = dominant, "dominance"
    elif len(strict) == 1:
        selected, selected_by = strict[0], "unique_strict_pure"
    elif len(mixed) == 1:
        selected, selected_by = mixed[0], "unique_mixed"
    else:
        selected, selected_by = None, None
    return dict(zip(VIEWS, (strict, weak, tuple(mixed), selected, selected_by, tuple(diagnostics))))


def _lazy_views_match_eager(matrix, oracle):
    want = eager_views(matrix, oracle)
    results = []
    for first in ("selected", "mixed", "diagnostics"):  # the selection alone, then either pass first
        eq = solve(matrix)
        read_first = getattr(eq, first)
        got = {view: read_first if view == first else getattr(eq, view) for view in VIEWS}
        assert repr(got) == repr(want)  # values and types
        results.append(eq)
    assert results[0] == results[1] == results[2] and len({hash(eq) for eq in results}) == 1


NAMED_SETS = [s for r in (2, 3) for s in itertools.combinations(STRATEGY_TAGS, r)]


@pytest.mark.parametrize("names", NAMED_SETS, ids=lambda s: "".join(s))
def test_exact_k_person_games_match_oracle(names):
    rng = random.Random("".join(names))
    for _ in range(2):
        n = rng.randrange(3, 41)
        k = rng.randrange(n - 2)
        _same_as_oracle(bimatrix(GameSpec.quantum_k_person(n, k, names)))
    _same_as_oracle(bimatrix(GameSpec.quantum_two_person(names)))
    _same_as_oracle(bimatrix(GameSpec.quantum_two_person(names, gamma=0.0)))


def test_headline_sweep_games_match_oracle():
    for names in (("P1", "P2", "Q"), ("P1", "P2", "M")):
        for k in range(0, 8):
            _same_as_oracle(bimatrix(GameSpec.quantum_k_person(10, k, names)))


def test_float_gamma_games_match_oracle():
    rng = random.Random(2465)
    bits = 0
    for _ in range(12):
        names = rng.choice([("P1", "P2", "Q"), ("P1", "P2", "M"), ("Q", "M"), ("S1", "S2")])
        gamma = rng.uniform(0.0, GAMMA_MAX)
        n = rng.randrange(3, 31)
        for spec in (
            GameSpec.quantum_two_person(names, gamma),
            GameSpec.quantum_k_person(n, rng.randrange(n - 2), names, gamma),
        ):
            matrix = bimatrix(spec)
            bits = max(bits, max(x for row in matrix.scaled_costs[0] for x in row).bit_length())
            _same_as_oracle(matrix)
    assert bits > 50  # float cells scale to integers of about 2^60


def test_strategy_angle_games_match_oracle():
    rng = random.Random(1999)
    for _ in range(12):
        size = rng.choice((2, 3))
        strategies = tuple(StrategyAngles(rng.uniform(0, math.pi), rng.uniform(0, GAMMA_MAX)) for _ in range(size))
        gamma = rng.choice((0.0, GAMMA_MAX, rng.uniform(0.0, GAMMA_MAX)))
        _same_as_oracle(bimatrix(GameSpec.quantum_two_person(strategies, gamma)))


def test_classical_games_match_oracle():
    _same_as_oracle(bimatrix(GameSpec.classical_two_person()))
    for n in (3, 4, 10, 57):
        for k in range(n - 2):
            _same_as_oracle(bimatrix(GameSpec.classical_k_person(n, k)))


def test_degenerate_integer_games_match_oracle():
    """Small symmetric games with many ties: singular and inconsistent systems abound."""
    rng = random.Random(1968)
    statuses = set()
    for _ in range(60):
        size = rng.choice((2, 3))
        labels = tuple("ABC"[:size])
        costs = [[F(rng.randint(1, 3), rng.choice((1, 2))) for _ in labels] for _ in labels]
        statuses |= _same_as_oracle(CostBimatrix(labels, costs))
    # Every status occurs on the square systems the solver enumerates.
    assert statuses == {"unique", "inconsistent", "singular"}


@pytest.mark.parametrize(
    "costs",
    [((2, 6, 5), (6, 3, 5), (3, 5, 6)), ((1, 1, 4), (2, 4, 2), (3, 1, 1)), ((1, 4, 2), (4, 2, 2), (2, 3, 2))],
)
def test_profiles_sharing_supports_sort_by_probabilities(costs):
    """Two profiles on one pair of supports, found from different support pairs in the other order."""
    matrix = CostBimatrix(("A", "B", "C"), costs)
    supports = [m.support() for m in solve(matrix).mixed]
    assert len(set(supports)) < len(supports)
    _same_as_oracle(matrix)


def test_classical_continuum_reports_three_points():
    eq = solve(bimatrix(GameSpec.classical_two_person()))
    profiles, diagnostics = eq.mixed, eq.diagnostics
    assert len(profiles) == 3
    # The continuum (P2, any mix) shows as three points and no square pair
    # is singular, so it stays unflagged until vertex enumeration replaces
    # support enumeration and certifies equilibrium sets.
    assert diagnostics == ()


def test_headline_phase_game_skips_sixteen_supports():
    eq = solve(bimatrix(GameSpec.quantum_k_person(10, 4, ("P1", "P2", "Q"))))
    profiles, diagnostics = eq.mixed, eq.diagnostics
    assert diagnostics == ()  # its 16 singular supports are unequal pairs, which are not enumerated
    assert [p.alice_probs for p in profiles] == [(F(4, 17), F(4, 17), F(9, 17))]
    assert [p.bob_probs for p in profiles] == [(F(4, 17), F(4, 17), F(9, 17))]


def two_sided_dominance(matrix):
    """Iterated weak dominance, rows then columns, both players simultaneously.

    Each round judges Alice's rows on her costs against the surviving
    columns and Bob's columns on his costs against the surviving rows,
    both against the matrix as it stood at the start of the round. Returns
    the unique surviving cell, or ``None``.
    """
    size = matrix.size
    a = [[matrix.cost_a(i, j) for j in range(size)] for i in range(size)]
    b = [[matrix.cost_b(i, j) for j in range(size)] for i in range(size)]

    def dominates(new, old):  # each a list of costs against the surviving opponent strategies
        return all(x <= y for x, y in zip(new, old)) and any(x < y for x, y in zip(new, old))

    rows, cols = list(range(size)), list(range(size))
    while True:
        alice = {r: [a[r][c] for c in cols] for r in rows}
        bob = {c: [b[r][c] for r in rows] for c in cols}
        dead_rows = [r for r in rows if any(r2 != r and dominates(alice[r2], alice[r]) for r2 in rows)]
        dead_cols = [c for c in cols if any(c2 != c and dominates(bob[c2], bob[c]) for c2 in cols)]
        if not dead_rows and not dead_cols:
            break
        rows = [r for r in rows if r not in dead_rows]
        cols = [c for c in cols if c not in dead_cols]
    if len(rows) == 1 and len(cols) == 1:
        return PureProfile(rows[0], cols[0], matrix.labels[rows[0]], matrix.labels[cols[0]])
    return None


def test_one_sided_dominance_matches_two_sided_on_random_tied_games():
    """Symmetric games of sizes 1 to 4 with costs in {1, 2, 3}, so ties abound."""
    rng = random.Random(2002)
    outcomes = {True: 0, False: 0}
    sizes = set()
    for _ in range(400):
        size = rng.randint(1, 4)
        labels = tuple("ABCD"[:size])
        costs = [[F(rng.randint(1, 3)) for _ in labels] for _ in labels]
        matrix = CostBimatrix(labels, costs)
        want = two_sided_dominance(matrix)
        assert dominance_select(matrix) == want, costs
        outcomes[want is None] += 1
        sizes.add(size)
    # Both answers occur, and every size occurs.
    assert min(outcomes.values()) > 50 and sizes == {1, 2, 3, 4}


def test_one_sided_dominance_matches_two_sided_on_reference_games():
    specs = list(_all_reference_specs())
    four = ("P1", "P2", "Q", "M")  # dominance has no size cap
    specs += [GameSpec.quantum_two_person(four), GameSpec.quantum_k_person(10, 4, four)]
    decided = 0
    for spec in specs:
        matrix = bimatrix(spec)
        want = two_sided_dominance(matrix)
        assert dominance_select(matrix) == want, spec.describe()
        decided += want is not None
    assert 0 < decided < len(specs)
    assert dominance_select(bimatrix(specs[-2])) == PureProfile(2, 2, "Q", "Q")


def _tiny_alphabet_games(size, alphabet):
    """Every symmetric game of ``size`` strategies with costs in ``alphabet``, in lexicographic order."""
    labels = tuple("ABC"[:size])
    for entries in itertools.product(alphabet, repeat=size * size):
        yield CostBimatrix(labels, [entries[i : i + size] for i in range(0, size * size, size)])


def test_every_tiny_alphabet_game_matches_oracle():
    """Zero minor sums, parallel rows and constant rows, exhaustively: 81 2x2 games and 512 3x3 ones.

    The 2x2 games have costs in {1, 2, 3} and the 3x3 games in {1, 2}.
    Every game's system tables are held to the oracle entry by entry, and
    its ``mixed`` view must be closed under exchanging the players of a
    symmetric game: (p, q) with costs (cost_a, cost_b) maps to (q, p) with
    (cost_b, cost_a). The full :func:`_same_as_oracle`, whose oracle solves
    all 49 support pairs of a 3x3 game, runs on every 2x2 game and on a
    fixed-seed sample of 96 of the 3x3 games, to keep the test near 3 s.
    """
    two, three = list(_tiny_alphabet_games(2, (1, 2, 3))), list(_tiny_alphabet_games(3, (1, 2)))
    assert (len(two), len(three)) == (81, 512)
    sampled = set(random.Random(1995).sample(range(len(three)), 96))
    statuses = set()
    for i, matrix in enumerate(two + three):
        full = i < len(two) or i - len(two) in sampled
        statuses |= _same_as_oracle(matrix) if full else _systems_match_oracle(matrix)
        mixed = solve(matrix).mixed
        exchanged = {MixedProfile(m.bob_probs, m.alice_probs, m.expected_cost_bob, m.expected_cost_alice) for m in mixed}
        assert exchanged == set(mixed), matrix.costs
    assert statuses == {"unique", "inconsistent", "singular"}
