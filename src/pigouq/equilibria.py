"""Equilibrium search over small cost bimatrices.

Costs are minimized throughout: a profile is a weak pure equilibrium
when no unilateral deviation strictly lowers the deviator's cost, and a
strict one when every deviation strictly raises it. Three solvers are
used because they genuinely differ on these games:

* the pure scan tries every cell, read through the ``strict_pure`` and
  ``weak_pure`` views of :func:`solve`;
* :func:`dominance_select` iteratively removes weakly dominated
  strategies and reports the surviving cell when it is unique -- the
  selection the narrative "the equilibrium is X" claims of small
  congestion games rely on, since those cells are often only weak
  equilibria. Each round removes every weakly dominated strategy of
  both players at once; removing one at a time can end elsewhere. The
  game is symmetric, so both players lose the same strategies in every
  round, and one survivor list serves both;
* exact support enumeration, read through the ``mixed`` and
  ``diagnostics`` views of :func:`solve`.

Support enumeration visits only the square support pairs, those with
``|S_a| == |S_b|``. In a nondegenerate game every equilibrium has
supports of equal size (von Stengel, "Computing equilibria for
two-person games", Handbook of Game Theory 3, 2002), and an unequal
pair has one indifference system with more unknowns than equations, so
it never solves uniquely on both sides and yields no profile. A 1x1
pair always solves uniquely, and no strategy outside it beats it
exactly when it is a weak pure equilibrium, so the 1x1 pairs yield
exactly the weak pure equilibria. The profiles and the
"singular ..., skipped" notes therefore come from one *square pass*:
the weak pure scan plus the square pairs of size 2 and up, each solved
once.

:func:`solve` returns an :class:`EquilibriumResult` that runs each of
them the first time a view needs it. Its selection convention asks
dominance first and a unique strict pure equilibrium second, so the
square pass, by far the costliest of the three, runs for the selection
only when both fail to decide and the pure scan found at most one weak
pure equilibrium. Every weak pure equilibrium is also a profile of the
pass, so two of them already rule out a unique mixed equilibrium.

The convention reads only signs of quantities of Alice's grid, so one
selection often serves a whole *family* of games: either sweep's games,
the n-traveler games of one population at k = 0..n-3 or one spec's
games across gamma angles. Dominance and the pure scan compare entries
within a column, so the signs of the within-column differences, the
*column signature*, fix their results. Where they leave the selection
to the square pass, each game counts its own distinct square profiles,
found once and cached for ``mixed`` and ``diagnostics``: one is the
unique mixed equilibrium, any other count selects nothing.
:func:`solve_family` solves a gamma sweep's games, running dominance and
the pure scan once per column signature. :class:`_RunPass` solves a
population's games over k in *runs*, stretches of consecutive k of one
column signature, each decided once on its first game. An exact
population's grid is affine in k, so its runs start at the integer
roots of its within-column differences and the first k above each
root (:func:`_grid_runs`); a float population's start where its built
games' signatures change (:func:`_signature_runs`). The pass builds a
game and its result only for each run's first k, and any other k's when
they are read, with the views the pass found filled in.

Every game is symmetric, so each solver reads one grid ``a`` of
Alice's costs: Bob, choosing column c against row r, pays ``a[c][r]``.
The pure scan, dominance and the cheapest-cell totals of
:func:`optimal_outcome` read the grid the matrix holds, fixed by how it
was built: an exact game from :func:`~pigouq.games.bimatrix` holds its
integer grid, Alice's costs times n times the LCM of its probability
denominators (a divisor of 4n for the network's grids); a float game, or
any matrix built through ``CostBimatrix(labels, costs)``, holds its
costs. A positive scale changes no comparison or tie between costs, so
either grid gives the same result. Only the square pass needs integers:
it reads :attr:`CostBimatrix.scaled_costs`, which a float game builds
on first read, multiplying its dyadic costs once by the LCM of their
denominators, a power of two times a divisor of 4n. A positive scale
changes the solution of an indifference system only by scaling the
common cost value, which is divided back out.

Each indifference system is solved in closed form. Subtracting the
first chooser row from the others leaves ``D q = 0`` with ``sum(q) = 1``
for the mixer's probabilities q, D an integer difference matrix with one
row fewer than columns: 1x2 or 2x3, since :data:`MAX_MIXED_SIZE` is 3.
D's signed maximal minors, written out as straight-line cofactors, span
its kernel when it has full rank, so the system is unique exactly when
their sum is nonzero, and q is the minors over their sum (Cramer's
rule). Otherwise it is inconsistent when the all-ones row lies in D's
row space and singular when not; that test reads integer minors and
entries, so it is exact, and it is the classification rational
elimination gives. The square pass keeps one table per support size:
it forms each chooser support's difference rows once, solves every
mixer support's system from their columns, and judges whether the
probabilities are nonnegative and no strategy outside the chooser's
support beats the common cost. Both share the minors' sum, made
positive, as denominator, so the tests compare integers. Profiles are
deduplicated on their mixes in lowest integer terms, and ``Fraction``
values are built only for the survivors.

Everything is deterministic: cells in row-major order, supports in
size-then-index order, results sorted by support and probabilities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import DomainError
from .games import CostBimatrix, value_to_json

__all__ = [
    "EquilibriumResult",
    "MixedProfile",
    "PureProfile",
    "dominance_select",
    "optimal_outcome",
    "solve",
    "solve_family",
]

#: Support enumeration is only exhaustive-and-auditable at tiny sizes.
MAX_MIXED_SIZE = 3


@dataclass(frozen=True)
class PureProfile:
    """One cell of a bimatrix: row/column indices plus their labels."""

    row: int
    col: int
    row_label: str
    col_label: str

    def to_json_obj(self) -> dict:
        return {"row": self.row_label, "col": self.col_label}


@dataclass(frozen=True)
class MixedProfile:
    """Mixed strategies for both players with their expected costs.

    Probability vectors are exact rationals over the full strategy list
    (zeros outside the support) and sum to one.
    """

    alice_probs: tuple[Fraction, ...]
    bob_probs: tuple[Fraction, ...]
    expected_cost_alice: Fraction
    expected_cost_bob: Fraction

    def support(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (
            tuple(i for i, p in enumerate(self.alice_probs) if p > 0),
            tuple(j for j, q in enumerate(self.bob_probs) if q > 0),
        )

    def is_pure(self) -> bool:
        sup_a, sup_b = self.support()
        return len(sup_a) == 1 and len(sup_b) == 1

    def to_json_obj(self) -> dict:
        return {
            "alice_probs": [value_to_json(p) for p in self.alice_probs],
            "bob_probs": [value_to_json(q) for q in self.bob_probs],
            "expected_cost_alice": value_to_json(self.expected_cost_alice),
            "expected_cost_bob": value_to_json(self.expected_cost_bob),
        }


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """The equilibria of one bimatrix, each view solved the first time it is read.

    ``strict_pure`` and ``weak_pure`` read one pure scan of the cells.
    The result finds the distinct profiles of the square pass of support
    enumeration once, on top of ``weak_pure``, which stands in for the
    1x1 pairs; ``mixed`` and ``diagnostics`` sort them and build their
    values and notes. Reading every view solves each indifference system
    of the square support pairs at most once, and none of an unequal pair.
    ``selected`` and ``selected_by`` apply the selection convention and
    stop at the first rule that decides:
    :func:`dominance_select`, then ``strict_pure``, then the count of
    those profiles, building only a unique one's mix. Two weak pure
    equilibria decide it without the square pass: each is a profile of
    ``mixed``, so none is selected.
    Equality and hashing compare the six views, not the matrices.
    """

    matrix: CostBimatrix

    def __post_init__(self):
        if self.matrix.size > MAX_MIXED_SIZE:
            raise DomainError(f"support enumeration is limited to {MAX_MIXED_SIZE}x{MAX_MIXED_SIZE} games")

    @cached_property
    def _pure(self) -> tuple[tuple[PureProfile, ...], tuple[PureProfile, ...]]:
        return _pure_scan(self.matrix)

    @cached_property
    def strict_pure(self) -> tuple[PureProfile, ...]:
        return self._pure[1]

    @cached_property
    def weak_pure(self) -> tuple[PureProfile, ...]:
        return self._pure[0]

    @cached_property
    def _candidates(self) -> tuple[dict, list]:
        """:func:`_square_candidates` of the integer grid: what the selection and the square pass read."""
        return _square_candidates(self.matrix.scaled_costs[0], self.weak_pure)

    @cached_property
    def _unique(self) -> "MixedProfile | None":
        """The profile of the lone square candidate, built once for ``selected`` and ``mixed``; None unless lone."""
        found = self._candidates[0]
        if len(found) != 1:
            return None
        [(keys, values)] = found.items()
        return _mixed_profile(keys, values, self.matrix.scaled_costs[1])

    @cached_property
    def _square(self) -> tuple[tuple[MixedProfile, ...], tuple[str, ...]]:
        """The square pass: its profiles sorted, and a note per singular pair."""
        found, singular = self._candidates
        notes = tuple(_support_note(self.matrix, *pair) for pair in singular)
        if len(found) == 1:
            return (self._unique,), notes
        scale = self.matrix.scaled_costs[1]
        ordered = [(keys, _mixed_profile(keys, values, scale)) for keys, values in found.items()]
        # by integer supports; Fractions break ties
        ordered.sort(key=lambda entry: (entry[0][0][0], entry[0][1][0], entry[1].alice_probs, entry[1].bob_probs))
        return tuple(profile for _, profile in ordered), notes

    @cached_property
    def mixed(self) -> tuple[MixedProfile, ...]:
        return self._square[0]

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        """A "singular ..., skipped" note per singular square support pair, in size-then-index order.

        Unequal support pairs are not enumerated, so they add no note.
        """
        return self._square[1]

    @cached_property
    def _pure_selection(self) -> "tuple | None":
        """The selection when dominance or the pure scan decides it; None when the square pass must."""
        dominant = dominance_select(self.matrix)
        if dominant is not None:
            return dominant, "dominance"
        if len(self.strict_pure) == 1:
            return self.strict_pure[0], "unique_strict_pure"
        if len(self.weak_pure) >= 2:  # each is a profile of mixed, so no mix is unique
            return None, None
        return None

    @cached_property
    def _selection(self) -> tuple:
        if self._pure_selection is not None:
            return self._pure_selection
        if self._unique is not None:
            return self._unique, "unique_mixed"
        return None, None

    @cached_property
    def selected(self) -> "PureProfile | MixedProfile | None":
        return self._selection[0]

    @cached_property
    def selected_by(self) -> str | None:
        return self._selection[1]

    def _views(self) -> tuple:
        return (self.strict_pure, self.weak_pure, self.mixed, self.selected, self.selected_by, self.diagnostics)

    def __eq__(self, other):
        if not isinstance(other, EquilibriumResult):
            return NotImplemented
        return self._views() == other._views()

    def __hash__(self):
        return hash(self._views())

    def to_json_obj(self) -> dict:
        return {
            "strict_pure": [p.to_json_obj() for p in self.strict_pure],
            "weak_pure": [p.to_json_obj() for p in self.weak_pure],
            "mixed": [m.to_json_obj() for m in self.mixed],
            "selected": None if self.selected is None else self.selected.to_json_obj(),
            "selected_by": self.selected_by,
            "diagnostics": list(self.diagnostics),
        }


def _profile(matrix: CostBimatrix, i: int, j: int) -> PureProfile:
    return PureProfile(i, j, matrix.labels[i], matrix.labels[j])


def _pure_scan(matrix: CostBimatrix) -> tuple[tuple[PureProfile, ...], tuple[PureProfile, ...]]:
    """The ``(weak, strict)`` pure equilibria, from one row-major pass over the cells.

    A cell (i, j) is weak when ``a[i][j]`` is the least of column j of ``a``
    and Bob's ``a[j][i]`` the least of column i, and strict when both are unique.
    ``a`` is the grid the matrix holds: an exact game's integers, any other matrix's costs.
    """
    a, _ = matrix._grid
    cols = list(zip(*a))
    best = [min(col) for col in cols]
    weak, strict = [], []
    for i, j in itertools.product(range(matrix.size), repeat=2):
        if a[i][j] == best[j] and a[j][i] == best[i]:
            profile = _profile(matrix, i, j)
            weak.append(profile)
            if cols[i].count(best[i]) == 1 and cols[j].count(best[j]) == 1:
                strict.append(profile)
    return tuple(weak), tuple(strict)


def _weakly_dominates(costs, new, old, others) -> bool:
    """Whether strategy ``new`` weakly dominates ``old``; ``costs[s][o]`` is the chooser's cost at s against o.

    One pass over ``others``, which stops at the first opponent strategy against which ``new`` costs more.
    """
    row_new, row_old = costs[new], costs[old]
    strict = False
    for o in others:
        if row_new[o] > row_old[o]:
            return False
        strict = strict or row_new[o] < row_old[o]
    return strict


def dominance_select(matrix: CostBimatrix) -> PureProfile | None:
    """Iterated elimination of weakly dominated strategies.

    Each round judges every surviving strategy against the survivors as
    they stood at the start of the round and removes all strategies found
    weakly dominated, of both players at once. Removing one at a time can
    end elsewhere: no such order leaves the classical two-person game at
    (P2,P2) alone. The game is symmetric, so Alice's rows and Bob's
    columns read the same grid ``a`` against the same survivors, and the
    two players lose the same strategies in every round: one survivor list
    serves both. Returns the cell of the unique survivor, played by both,
    or ``None`` when more than one strategy survives. ``a`` is the grid
    the matrix holds: an exact game's integers, any other matrix's costs.
    """
    a, _ = matrix._grid
    alive = list(range(matrix.size))
    while True:
        dead = [s for s in alive if any(s2 != s and _weakly_dominates(a, s2, s, alive) for s2 in alive)]
        if not dead:
            break
        alive = [s for s in alive if s not in dead]
    if len(alive) == 1:
        return _profile(matrix, alive[0], alive[0])
    return None


def _column_signature(matrix: CostBimatrix) -> tuple:
    """The sign of ``a[i'][j] - a[i][j]`` for every column j and rows i < i' of the grid the matrix holds.

    These comparisons are all that :func:`dominance_select` and the pure
    scan read, so two games with one column signature have the same
    dominance survivor and the same strict and weak pure equilibria.
    """
    a, _ = matrix._grid
    return tuple((y > x) - (y < x) for col in zip(*a) for x, y in itertools.combinations(col, 2))


@cache
def _layout(size: int, r: int) -> tuple:
    """The supports of r of ``size`` strategies in index order, and the strategies outside each."""
    supports = tuple(itertools.combinations(range(size), r))
    return supports, tuple(tuple(i for i in range(size) if i not in s) for s in supports)


def _systems(a, r: int) -> dict:
    """Every r-by-r indifference system of the integer grid ``a``, each solved and judged once.

    Keyed ``(chooser support, mixer support)``, where the chooser pays
    ``a[i][j]`` playing i against the mixer's j; r is 2 or 3. Each chooser
    support's difference rows are formed once, at full width, and each
    mixer support reads its columns. A unique system's entry is
    ``("unique", (weights, value, denominator), ok)``: the mixer plays its
    support's j-th strategy with probability ``weights[j] / denominator``,
    the common cost is ``value / denominator``, the denominator is
    positive, and ``ok`` says the weights are nonnegative and no chooser
    strategy outside the support costs less than that value. Any other
    system's is ``(status, None, False)``.
    """
    supports, complements = _layout(len(a), r)
    table = {}
    for chooser, others in zip(supports, complements):
        first = a[chooser[0]]
        diff = [[x - y for x, y in zip(a[i], first)] for i in chooser[1:]]
        outside = [a[o] for o in others]
        for mixer in supports:  # written out per size: a loop per system costs more than its arithmetic
            if r == 2:
                j0, j1 = mixer
                w0, w1 = diff[0][j1], -diff[0][j0]
                if w0 + w1 < 0:
                    w0, w1 = -w0, -w1
                if not w0 + w1:  # a constant row: inconsistent when nonzero
                    table[chooser, mixer] = ("inconsistent" if w0 else "singular", None, False)
                    continue
                value = first[j0] * w0 + first[j1] * w1
                ok = w0 >= 0 and w1 >= 0 and all(row[j0] * w0 + row[j1] * w1 >= value for row in outside)
                table[chooser, mixer] = ("unique", ((w0, w1), value, w0 + w1), ok)
                continue
            j0, j1, j2 = mixer
            (u0, u1, u2), (v0, v1, v2) = ([row[j] for j in mixer] for row in diff)
            w0, w1, w2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
            if w0 + w1 + w2 < 0:
                w0, w1, w2 = -w0, -w1, -w2
            if not w0 + w1 + w2:
                # A nonzero minor puts the all-ones row in D's row space; below full
                # rank the rows are parallel, and it lies there when both are constant.
                constant = u0 == u1 == u2 and v0 == v1 == v2 and (u0 or v0)
                table[chooser, mixer] = ("inconsistent" if w0 or w1 or w2 or constant else "singular", None, False)
                continue
            value = first[j0] * w0 + first[j1] * w1 + first[j2] * w2
            ok = min(w0, w1, w2) >= 0 and all(row[j0] * w0 + row[j1] * w1 + row[j2] * w2 >= value for row in outside)
            table[chooser, mixer] = ("unique", ((w0, w1, w2), value, w0 + w1 + w2), ok)
    return table


def _mix_key(support, weights, denominator, size) -> tuple:
    """A mix over ``size`` strategies in lowest integer terms: ``(positive support, weights, denominator)``."""
    g = math.gcd(denominator, *weights)
    full = [0] * size
    for i, w in zip(support, weights):
        full[i] = w // g
    return tuple([i for i, w in zip(support, weights) if w]), tuple(full), denominator // g


def _square_candidates(a, weak_pure) -> tuple[dict, list]:
    """The distinct profiles the square pass finds on the integer grid ``a``, in the order found.

    Returns ``(found, singular)``. ``found`` maps each profile's ``keys``,
    Alice's and Bob's :func:`_mix_key`, to ``values``, their costs as
    ``(value, denominator)`` on ``a``'s scale; a profile found again keeps
    its first values. The weak pure cells of ``weak_pure`` come first,
    then each square support pair of size 2 and up, in size-then-index
    order, whose two systems are unique and ``ok``. Each support size
    builds one :func:`_systems` table; a pair (S_a, S_b) reads its
    column-mix system at ``(S_a, S_b)`` and, only when that is unique, its
    row-mix system at ``(S_b, S_a)``: Bob's system is Alice's for the
    exchanged supports. ``singular`` lists each pair with a singular
    system as ``(S_a, S_b, side)``.
    """
    size = len(a)
    found, singular = {}, []
    for pure in weak_pure:
        i, j = pure.row, pure.col
        keys = _mix_key((i,), (1,), 1, size), _mix_key((j,), (1,), 1, size)
        found.setdefault(keys, ((a[i][j], 1), (a[j][i], 1)))
    for r in range(2, size + 1):
        table = _systems(a, r)
        for (sup_a, sup_b), (status, sol_q, ok) in table.items():
            side = "column"
            if status == "unique":
                status, sol_p, ok_p = table[sup_b, sup_a]
                side, ok = "row", ok and ok_p
            if status == "singular":
                singular.append((sup_a, sup_b, side))
            if status != "unique" or not ok:
                continue
            (w_p, value_b, den_p), (w_q, value_a, den_q) = sol_p, sol_q
            keys = _mix_key(sup_a, w_p, den_p, size), _mix_key(sup_b, w_q, den_q, size)
            found.setdefault(keys, ((value_a, den_q), (value_b, den_p)))
    return found, singular


def _mixed_profile(keys, values, scale: int) -> MixedProfile:
    """The profile of one entry of :func:`_square_candidates`, its costs divided by the grid's ``scale``."""
    key_p, key_q = keys
    p = tuple(Fraction(w, key_p[2]) for w in key_p[1])
    q = p if key_q == key_p else tuple(Fraction(w, key_q[2]) for w in key_q[1])  # a symmetric mix is built once
    (value_a, den_a), (value_b, den_b) = values
    cost_a = Fraction(value_a, den_a * scale)
    cost_b = cost_a if value_b * den_a == value_a * den_b else Fraction(value_b, den_b * scale)
    return MixedProfile(p, q, cost_a, cost_b)


def _support_note(matrix, sup_a, sup_b, side) -> str:
    rows = ",".join(matrix.labels[i] for i in sup_a)
    cols = ",".join(matrix.labels[j] for j in sup_b)
    return f"support ({{{rows}}},{{{cols}}}): singular {side}-mix indifference system, skipped"


def _held_totals(matrix: CostBimatrix) -> tuple:
    """Each cell's combined cost ``a[i][j] + a[j][i]`` on the grid the matrix holds, and that grid's scale.

    The held grid follows from how the matrix was built, never from which
    views were read: an exact game from :func:`~pigouq.games.bimatrix`
    holds its integer grid over a scale, so a total is the integer sum
    over that scale; any other matrix holds its costs, scale ``None``, so
    a total is the sum of two costs, of their own type.
    """
    a, scale = matrix._grid
    return [[x + y for x, y in zip(row, col)] for row, col in zip(a, zip(*a))], scale


def optimal_outcome(matrix: CostBimatrix):
    """Cells minimizing the two players' combined cost, with that minimum.

    The minimum is a ``Fraction`` for an exact game, and otherwise the
    sum of the two costs of a cheapest cell (see :func:`_held_totals`).
    """
    totals, scale = _held_totals(matrix)
    best = min(map(min, totals))
    cells = [_profile(matrix, i, j) for i, row in enumerate(totals) for j, t in enumerate(row) if t == best]
    return cells, best if scale is None else Fraction(best, scale)


def solve(matrix: CostBimatrix) -> EquilibriumResult:
    """The equilibria of ``matrix``; each solver runs when a view first needs it.

    Selection order: the dominance-surviving cell when unique, else the
    unique strict pure equilibrium, else the unique mixed equilibrium,
    else nothing. Reading ``selected`` or ``selected_by`` runs
    :func:`dominance_select`, and only if that leaves more than one cell
    the pure scan, which finds the strict and the weak pure equilibria at
    once, and only if that finds no unique strict equilibrium and at most
    one weak one the square support pairs of support enumeration: two
    weak pure equilibria are two profiles of ``mixed``, so they already
    leave nothing selected. ``strict_pure`` and
    ``weak_pure`` read the pure scan, and ``mixed`` and ``diagnostics``
    the square pass. A matrix larger than ``MAX_MIXED_SIZE`` raises
    :class:`DomainError` here, not at the first read.
    """
    return EquilibriumResult(matrix)


def solve_family(matrices) -> list[EquilibriumResult]:
    """:func:`solve` of every game of a family, in order, dominance and the pure scan run once per column signature.

    The family is a gamma sweep's games, one per angle, in any order; the
    over-k pass solves its games in runs instead (:class:`_RunPass`),
    since a population's signatures change only between runs of
    consecutive k. The labels and the column signature key
    the dominance and pure-scan rules, and the first game of each key met
    runs them. A later game of a key whose first game they decide gets
    that selection filled in; otherwise it reads the first game's pure
    scan and decides from its own square candidates. Every other view is
    solved on its first read, so each result equals ``solve(matrix)`` in
    every view.
    """
    firsts = {}  # (labels, column signature) -> the family's first result with it
    family = []
    for matrix in matrices:
        eq = EquilibriumResult(matrix)
        family.append(eq)
        first = firsts.setdefault((matrix.labels, _column_signature(matrix)), eq)
        if first is eq:
            continue
        if first._pure_selection is not None:
            eq.__dict__["_selection"] = first._pure_selection
        else:
            eq.__dict__["_pure"] = first._pure  # one column signature, one pure scan
            eq.__dict__["_pure_selection"] = None
    return family


def _grid_runs(a0, a1, count: int) -> list[int]:
    """The first k of each run of one column signature among the integer grids ``a0 + k * a1``, k = 0..count-1.

    Each within-column difference ``a[i'][j] - a[i][j]`` is ``d0 + k * d1``,
    whose sign changes only at ``-d0 / d1``: a run starts there when that
    root is an integer, where the difference is zero, and at the first k
    above it. Integer ``divmod`` places every root exactly. Two adjacent
    runs differ in the sign of at least one difference, and each sign is
    monotone in k, so no signature comes back after a different run.
    """
    starts = {0}
    for c0, c1 in zip(zip(*a0), zip(*a1)):
        for (x0, x1), (y0, y1) in itertools.combinations(zip(c0, c1), 2):
            d0, d1 = y0 - x0, y1 - x1
            if d1:
                root, rest = divmod(-d0, d1) if d1 > 0 else divmod(d0, -d1)
                starts.add(root + 1)
                if not rest:
                    starts.add(root)
    return sorted(k for k in starts if 0 <= k < count)


def _signature_runs(matrices) -> list[int]:
    """The first index of each run of one :func:`_column_signature` among ``matrices``, in order."""
    signatures = [_column_signature(matrix) for matrix in matrices]
    return [k for k, signature in enumerate(signatures) if k == 0 or signature != signatures[k - 1]]


class _RunPass:
    """The selection of every game k = 0..count-1 of one population, decided once per run of one column signature.

    ``starts`` holds the first k of each run, from :func:`_grid_runs` or
    :func:`_signature_runs`; ``game_at(k)`` builds the game at k and
    ``grid_at(k)`` gives its integer grid ``(a, scale)``. Each run's first
    game runs dominance and the pure scan on its own grid. When they
    decide, that selection is every k's of the run; otherwise each k
    counts the square candidates of its own grid, over the run's weak pure
    equilibria, and selects a lone one's mix. ``selections[k]`` is the
    ``(selected, selected_by)`` of k. :meth:`result` builds k's game and
    :class:`EquilibriumResult` on first read, with the views the pass
    found filled in, so it equals ``solve`` of that game in every view.
    """

    def __init__(self, starts, count: int, game_at, grid_at):
        self._game_at = game_at
        self._results = {}
        self.selections, self._fills = [], []
        for lo, hi in zip(starts, [*starts[1:], count]):
            first = self._results[lo] = EquilibriumResult(game_at(lo))
            decided = first._pure_selection
            # The views one column signature fixes, as far as the first game computed them.
            shared = {name: vars(first)[name] for name in ("_pure", "_pure_selection") if name in vars(first)}
            if decided is not None:
                shared["_selection"] = decided
                self.selections += [decided] * (hi - lo)
                self._fills += [shared] * (hi - lo)
                continue
            for k in range(lo, hi):
                a, scale = grid_at(k)
                found, singular = _square_candidates(a, first.weak_pure)
                unique = None
                if len(found) == 1:
                    [(keys, values)] = found.items()
                    unique = _mixed_profile(keys, values, scale)
                selection = (unique, "unique_mixed") if unique is not None else (None, None)
                self.selections.append(selection)
                self._fills.append(
                    {**shared, "_candidates": (found, singular), "_unique": unique, "_selection": selection}
                )
        for lo in starts:
            self._results[lo].__dict__.update(self._fills[lo])

    def result(self, k: int) -> EquilibriumResult:
        """The equilibria of the game at k, built on first read."""
        eq = self._results.get(k)
        if eq is None:
            eq = self._results[k] = EquilibriumResult(self._game_at(k))
            eq.__dict__.update(self._fills[k])
        return eq
