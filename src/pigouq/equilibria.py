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
  equilibria;
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
only when both fail to decide.

All three work on one integer grid ``a``, Alice's costs times one
positive scale (:attr:`CostBimatrix.scaled_costs`): every game is
symmetric, so Bob, choosing column c against row r, pays ``a[c][r]``.
An exact game is built as an integer grid over n times the LCM of its
probability denominators, a divisor of 4n for the network's grids. A
float game's costs are dyadic rationals, multiplied once by the LCM of
their denominators, a power of two times a divisor of 4n. A positive
scale changes no comparison between costs, and it changes the solution
of an indifference system only by scaling the common cost value, which
is divided back out.

Each indifference system is solved in closed form. Subtracting the
first chooser row from the others leaves ``D q = 0`` with ``sum(q) = 1``
for the mixer's probabilities q, D an integer difference matrix with one
row fewer than columns. D's signed maximal minors span its kernel when
it has full rank, so the system is unique exactly when their sum is
nonzero, and q is the minors over their sum (Cramer's rule). Otherwise
it is inconsistent when the all-ones row lies in D's row space and
singular when not; ranks of integer matrices are exact, so this is the
classification rational elimination gives. The probabilities and the
common cost share the sum, made positive, as denominator: the sign and
best-response tests compare integers, and ``Fraction`` values are built
only for the profiles that pass both.

Everything is deterministic: cells in row-major order, supports in
size-then-index order, results sorted by support and probabilities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DomainError
from .games import CostBimatrix, value_to_json

__all__ = [
    "EquilibriumResult",
    "MixedProfile",
    "PureProfile",
    "dominance_select",
    "optimal_outcome",
    "solve",
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
    ``mixed`` and ``diagnostics`` read the square pass of support
    enumeration, run on top of ``weak_pure``, which stands in for the 1x1
    pairs. Reading every view solves each indifference system of the
    square support pairs at most once, and none of an unequal pair.
    ``selected`` and ``selected_by`` apply the selection convention and
    stop at the first rule that decides:
    :func:`dominance_select`, then ``strict_pure``, then ``mixed``.
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
    def _square(self) -> tuple[tuple[MixedProfile, ...], tuple[str, ...]]:
        profiles, notes = _square_pass(self.matrix, self.weak_pure)
        return tuple(profiles), tuple(notes)

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
    def _selection(self) -> tuple:
        dominant = dominance_select(self.matrix)
        if dominant is not None:
            return dominant, "dominance"
        if len(self.strict_pure) == 1:
            return self.strict_pure[0], "unique_strict_pure"
        if len(self.mixed) == 1:
            return self.mixed[0], "unique_mixed"
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
    """
    a, _ = matrix.scaled_costs
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
    """Whether strategy ``new`` weakly dominates ``old``; ``costs[s][o]`` is the chooser's cost at s against o."""
    le = all(costs[new][o] <= costs[old][o] for o in others)
    lt = any(costs[new][o] < costs[old][o] for o in others)
    return le and lt


def dominance_select(matrix: CostBimatrix) -> PureProfile | None:
    """Iterated elimination of weakly dominated strategies.

    Each round judges every row and every column against the matrix as
    it stood at the start of the round (rows first, then columns, both
    players simultaneously) and removes all strategies found weakly
    dominated. Returns the unique surviving cell, or ``None`` when more
    than one cell survives.
    """
    a, _ = matrix.scaled_costs
    rows = list(range(matrix.size))
    cols = list(range(matrix.size))
    while True:
        dead_rows = [r for r in rows if any(r2 != r and _weakly_dominates(a, r2, r, cols) for r2 in rows)]
        dead_cols = [c for c in cols if any(c2 != c and _weakly_dominates(a, c2, c, rows) for c2 in cols)]
        if not dead_rows and not dead_cols:
            break
        rows = [r for r in rows if r not in dead_rows]
        cols = [c for c in cols if c not in dead_cols]
    if len(rows) == 1 and len(cols) == 1:
        return _profile(matrix, rows[0], cols[0])
    return None


def _det(m) -> int:
    """Determinant of a small square integer matrix, by cofactor expansion on the first row."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1 :] for row in m[1:]]) for j, x in enumerate(m[0]) if x)


def _rank(rows, n_cols: int) -> int:
    """Rank of a small integer matrix: the order of its largest nonzero minor."""
    for r in range(min(len(rows), n_cols), 0, -1):
        for sub in itertools.combinations(rows, r):
            if any(_det([[row[c] for c in cols] for row in sub]) for cols in itertools.combinations(range(n_cols), r)):
                return r
    return 0


def _indifference_mix(costs, chooser_support, mixer_support):
    """Opponent mix making ``chooser_support`` strategies equally costly.

    ``costs[i][j]`` is the chooser's integer-scaled cost when the chooser
    plays i and the mixer plays j. The system must be square: both
    supports have the same size. Returns ``(status, solution)``, with
    ``status`` one of ``"unique"``, ``"inconsistent"`` and ``"singular"``
    by the rules of the module docstring. ``solution`` is ``(weights,
    value, denominator)`` for a unique system: the mixer plays
    ``mixer_support[j]`` with probability ``weights[j] / denominator``, the
    common cost is ``value / denominator``, and the denominator is
    positive. It is ``None`` otherwise.
    """
    first, *others = ([costs[i][j] for j in mixer_support] for i in chooser_support)
    diff = [[x - y for x, y in zip(row, first)] for row in others]
    n_mix = len(mixer_support)
    weights = [(-1) ** j * _det([row[:j] + row[j + 1 :] for row in diff]) for j in range(n_mix)]
    total = sum(weights)
    if total:
        if total < 0:
            weights, total = [-w for w in weights], -total
        return "unique", (weights, sum(c * w for c, w in zip(first, weights)), total)
    if _rank(diff + [[1] * n_mix], n_mix) == _rank(diff, n_mix):
        return "inconsistent", None
    return "singular", None


def _beaten(costs, weights, value, support, mixer_support) -> bool:
    """Whether a strategy outside ``support`` costs strictly less than ``value``.

    ``weights`` (the opponent's mix over ``mixer_support``) and ``value``
    share one positive denominator, so integer costs compare directly.
    """
    return any(
        sum(row[j] * w for j, w in zip(mixer_support, weights)) < value
        for r, row in enumerate(costs)
        if r not in support
    )


def _full_mix(weights, denominator, support, size):
    """Exact probabilities over all ``size`` strategies."""
    mix = dict(zip(support, weights))
    return tuple(Fraction(mix.get(i, 0), denominator) for i in range(size))


def _square_pass(matrix: CostBimatrix, weak_pure):
    """Equilibria of the square support pairs, with the notes those pairs add.

    ``weak_pure`` is the weak pure scan of ``matrix``, which
    stands in for the 1x1 pairs. Returns the sorted profiles and the
    notes in size-then-index order of their pairs. Each pair reads its
    column-mix system, then, only when that is unique, its row-mix system;
    a singular system skips the pair with a note.
    """
    size = matrix.size
    a, scale = matrix.scaled_costs

    found = {}
    for pure in weak_pure:
        i, j = pure.row, pure.col
        p_full = tuple(Fraction(int(r == i)) for r in range(size))
        q_full = tuple(Fraction(int(c == j)) for c in range(size))
        found[p_full, q_full] = MixedProfile(p_full, q_full, Fraction(a[i][j], scale), Fraction(a[j][i], scale))
    notes = []
    for r in range(2, size + 1):
        # Bob's row-mix system of (S_a, S_b) is Alice's column-mix system of
        # (S_b, S_a), which the pass reads anyway: one table serves both.
        pairs = itertools.product(itertools.combinations(range(size), r), repeat=2)
        systems = {pair: _indifference_mix(a, *pair) for pair in pairs}
        for sup_a, sup_b in systems:
            status, sol_q = systems[sup_a, sup_b]
            side = "column"
            if status == "unique":
                status, sol_p = systems[sup_b, sup_a]
                side = "row"
            if status == "singular":
                notes.append(_support_note(matrix, sup_a, sup_b, side))
            if status != "unique":
                continue
            (w_p, value_b, den_p), (w_q, value_a, den_q) = sol_p, sol_q
            if min(w_p) < 0 or min(w_q) < 0:
                continue
            # No unsupported strategy may beat the support's common cost.
            if _beaten(a, w_q, value_a, sup_a, sup_b) or _beaten(a, w_p, value_b, sup_b, sup_a):
                continue
            profile = MixedProfile(
                _full_mix(w_p, den_p, sup_a, size),
                _full_mix(w_q, den_q, sup_b, size),
                Fraction(value_a, den_q * scale),
                Fraction(value_b, den_p * scale),
            )
            found.setdefault((profile.alice_probs, profile.bob_probs), profile)

    ordered = sorted(
        found.values(),
        key=lambda pr: (pr.support(), pr.alice_probs, pr.bob_probs),
    )
    return ordered, notes


def _support_note(matrix, sup_a, sup_b, side) -> str:
    rows = ",".join(matrix.labels[i] for i in sup_a)
    cols = ",".join(matrix.labels[j] for j in sup_b)
    return f"support ({{{rows}}},{{{cols}}}): singular {side}-mix indifference system, skipped"


def _combined_costs(matrix: CostBimatrix):
    """Both players' summed cost in every cell, and the least of those sums."""
    totals = [[a + b for a, b in row] for row in matrix.cells]
    return totals, min(map(min, totals))


def optimal_outcome(matrix: CostBimatrix):
    """Cells minimizing the two players' combined cost, with that minimum."""
    totals, best = _combined_costs(matrix)
    cells = [_profile(matrix, i, j) for i, row in enumerate(totals) for j, t in enumerate(row) if t == best]
    return cells, best


def solve(matrix: CostBimatrix) -> EquilibriumResult:
    """The equilibria of ``matrix``; each solver runs when a view first needs it.

    Selection order: the dominance-surviving cell when unique, else the
    unique strict pure equilibrium, else the unique mixed equilibrium,
    else nothing. Reading ``selected`` or ``selected_by`` runs
    :func:`dominance_select`, and only if that leaves more than one cell
    the pure scan, which finds the strict and the weak pure equilibria at
    once, and only if that finds no unique strict equilibrium the square
    support pairs of support enumeration. ``strict_pure`` and
    ``weak_pure`` read the pure scan, and ``mixed`` and ``diagnostics``
    the square pass. A matrix larger than ``MAX_MIXED_SIZE`` raises
    :class:`DomainError` here, not at the first read.
    """
    return EquilibriumResult(matrix)
