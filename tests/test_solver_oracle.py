"""Differential test: the integer support enumeration against a rational oracle.

The oracle below is the straightforward solver the integer one replaced:
Gauss-Jordan on ``Fraction`` rows for every support pair. The ``mixed``
view of :func:`solve` must equal its profiles: the same profiles in the
same order with the same exact values. The ``diagnostics`` view must
equal its notes of equal-size support pairs, the only pairs the solver
enumerates; the oracle still solves the unequal pairs too, and finds no
profile there.
Each game also holds every closed-form indifference solve to the
oracle's, for every square support pair and both of its systems, so a
wrong row system cannot hide behind an inconsistent column system. The
solver reads Bob's system as Alice's for the exchanged supports; the
oracle builds Bob's costs from ``cost_b`` and solves his systems
itself, so that sharing is checked, not assumed.

Every game here also checks :func:`solve`, whose views are computed on
first read, against an eager reference that runs a brute-force pure
scan, dominance and the oracle up front and spells out the selection
convention.
"""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from pigouq.equilibria import MixedProfile, PureProfile, _indifference_mix, dominance_select, solve
from pigouq.games import CostBimatrix, GameSpec, bimatrix
from pigouq.strategies import STRATEGY_TAGS, StrategyAngles

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


def _systems_match_oracle(matrix):
    """Every square support pair's column and row system, each against the rational oracle.

    The solver solves both on Alice's integer grid ``a``, Bob's with the
    supports exchanged; the oracle solves Bob's on his own costs, read
    through ``cost_b`` and scaled like ``a``. Each system must agree in
    status and, when unique, in the exact mix and value. Returns the
    statuses seen.
    """
    a, scale = matrix.scaled_costs
    size = matrix.size
    alice = [[F(x) for x in row] for row in a]
    bob_as_chooser = [[scale * F(matrix.cost_b(r, c)) for r in range(size)] for c in range(size)]
    statuses = set()
    for sup_a, sup_b in _square_pairs(size):
        for oracle_costs, chooser, mixer in ((alice, sup_a, sup_b), (bob_as_chooser, sup_b, sup_a)):
            status, solution = _indifference_mix(a, chooser, mixer)
            want, q, v = _oracle_indifference_mix(oracle_costs, chooser, mixer)
            assert status == want, (chooser, mixer)
            if status == "unique":
                weights, value, denominator = solution
                assert denominator > 0
                assert [F(w, denominator) for w in weights] == q and F(value, denominator) == v
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
    _lazy_views_match_eager(matrix)
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


def eager_views(matrix):
    """The six views of ``solve``, every solver run up front, the convention spelled out.

    ``mixed`` and ``diagnostics`` come from the rational oracle, which
    solves every support pair, so the views are checked against a
    reference that skips none; its notes are kept for equal-size pairs.
    """
    strict, weak = brute_force_pure(matrix)
    mixed, diagnostics = square_oracle_enumeration(matrix)
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


def _lazy_views_match_eager(matrix):
    want = eager_views(matrix)
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
