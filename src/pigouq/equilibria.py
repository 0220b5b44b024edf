"""Equilibrium search over small cost bimatrices.

Costs are minimized throughout: a profile is a weak pure equilibrium
when no unilateral deviation strictly lowers the deviator's cost, and a
strict one when every deviation strictly raises it. Three views are
exposed because they genuinely differ on these games:

* :func:`pure_nash` scans every cell;
* :func:`dominance_select` iteratively removes weakly dominated
  strategies and reports the surviving cell when it is unique -- the
  selection the narrative "the equilibrium is X" claims of small
  congestion games rely on, since those cells are often only weak
  equilibria;
* :func:`mixed_nash` runs exact support enumeration.

:func:`solve` returns an :class:`EquilibriumResult` that runs each of
them the first time a view needs it. Its selection convention asks
dominance first and a unique strict pure equilibrium second, so support
enumeration, by far the costliest of the three, runs for the selection
only when both fail to decide.

All three work on integers. Each player's costs are multiplied once by
the LCM of their denominators (:attr:`CostBimatrix.scaled_costs`):
exact cells have denominators dividing 4n, and a float cell is a dyadic
rational, so the scale is a divisor of 4n times a power of two. A positive
scale per player changes no comparison between that player's costs, and
it changes the solution of an indifference system only by scaling the
common cost value, which is divided back out. Each system is solved by
fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968):
a row is eliminated as ``pivot * row - factor * pivot_row`` and divided
by the gcd of its entries, which keeps it a nonzero multiple of the row
rational elimination would give. Zero tests, pivot choices and the
rank-based classification (unique, inconsistent, singular) are therefore
the same as in rational arithmetic, and the probabilities are exactly
the same rationals; ``Fraction`` values are built only for candidates
whose probabilities pass the integer sign test.

Everything is deterministic: cells in row-major order, supports in
size-then-index order, results sorted by support and probabilities.
"""

from __future__ import annotations

import itertools
import math
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
    "mixed_nash",
    "optimal_outcome",
    "pure_nash",
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

    ``strict_pure`` and ``weak_pure`` each run one :func:`pure_nash` scan;
    ``mixed`` and ``diagnostics`` share one :func:`support_enumeration`
    run. ``selected`` and ``selected_by`` apply the selection convention
    and stop at the first rule that decides: :func:`dominance_select`,
    then ``strict_pure``, then ``mixed``. Equality and hashing compare the
    six views, not the matrices.
    """

    matrix: CostBimatrix

    def __post_init__(self):
        _check_mixed_size(self.matrix)

    @cached_property
    def strict_pure(self) -> tuple[PureProfile, ...]:
        return tuple(pure_nash(self.matrix, "strict"))

    @cached_property
    def weak_pure(self) -> tuple[PureProfile, ...]:
        return tuple(pure_nash(self.matrix, "weak"))

    @cached_property
    def _enumeration(self) -> tuple[tuple[MixedProfile, ...], tuple[str, ...]]:
        profiles, diagnostics = support_enumeration(self.matrix)
        return tuple(profiles), tuple(diagnostics)

    @cached_property
    def mixed(self) -> tuple[MixedProfile, ...]:
        return self._enumeration[0]

    @cached_property
    def diagnostics(self) -> tuple[str, ...]:
        return self._enumeration[1]

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
        selected = None
        if self.selected is not None:
            selected = self.selected.to_json_obj()
        return {
            "strict_pure": [p.to_json_obj() for p in self.strict_pure],
            "weak_pure": [p.to_json_obj() for p in self.weak_pure],
            "mixed": [m.to_json_obj() for m in self.mixed],
            "selected": selected,
            "selected_by": self.selected_by,
            "diagnostics": list(self.diagnostics),
        }


def _profile(matrix: CostBimatrix, i: int, j: int) -> PureProfile:
    return PureProfile(i, j, matrix.row_labels[i], matrix.col_labels[j])


def pure_nash(matrix: CostBimatrix, mode: str = "weak") -> list[PureProfile]:
    """All pure equilibria, scanned cell by cell in row-major order.

    ``mode="weak"``: no unilateral deviation strictly lowers the
    deviator's cost. ``mode="strict"``: every deviation strictly raises it.
    """
    if mode not in ("weak", "strict"):
        raise DomainError(f"mode must be 'weak' or 'strict', got {mode!r}")
    a, b, _, _ = matrix.scaled_costs
    size = matrix.size
    found = []
    for i in range(size):
        for j in range(size):
            if mode == "weak":
                ok_a = all(a[r][j] >= a[i][j] for r in range(size))
                ok_b = all(b[i][c] >= b[i][j] for c in range(size))
            else:
                ok_a = all(a[r][j] > a[i][j] for r in range(size) if r != i)
                ok_b = all(b[i][c] > b[i][j] for c in range(size) if c != j)
            if ok_a and ok_b:
                found.append(_profile(matrix, i, j))
    return found


def _weakly_dominates_row(a, r_new, r_old, cols) -> bool:
    le = all(a[r_new][c] <= a[r_old][c] for c in cols)
    lt = any(a[r_new][c] < a[r_old][c] for c in cols)
    return le and lt


def _weakly_dominates_col(b, c_new, c_old, rows) -> bool:
    le = all(b[r][c_new] <= b[r][c_old] for r in rows)
    lt = any(b[r][c_new] < b[r][c_old] for r in rows)
    return le and lt


def dominance_select(matrix: CostBimatrix) -> PureProfile | None:
    """Iterated elimination of weakly dominated strategies.

    Each round judges every row and every column against the matrix as
    it stood at the start of the round (rows first, then columns, both
    players simultaneously) and removes all strategies found weakly
    dominated. Returns the unique surviving cell, or ``None`` when more
    than one cell survives.
    """
    a, b, _, _ = matrix.scaled_costs
    rows = list(range(matrix.size))
    cols = list(range(matrix.size))
    while True:
        dead_rows = [
            r
            for r in rows
            if any(r2 != r and _weakly_dominates_row(a, r2, r, cols) for r2 in rows)
        ]
        dead_cols = [
            c
            for c in cols
            if any(c2 != c and _weakly_dominates_col(b, c2, c, rows) for c2 in cols)
        ]
        if not dead_rows and not dead_cols:
            break
        rows = [r for r in rows if r not in dead_rows]
        cols = [c for c in cols if c not in dead_cols]
    if len(rows) == 1 and len(cols) == 1:
        return _profile(matrix, rows[0], cols[0])
    return None


def _solve_integer(m: list[list[int]]):
    """Fraction-free Gauss-Jordan on integer augmented rows, in place.

    Eliminating column c replaces each other row by ``pivot * row - m[i][c]
    * pivot_row`` and divides the result by the gcd of its entries, so every
    row stays a nonzero multiple of the row rational elimination would
    hold. Zero patterns, pivot choices and the rank classification are the
    same as with rational arithmetic. Returns ``("unique", solution)`` with
    ``solution[c] = (numerator, denominator)`` unreduced,
    ``("inconsistent", None)`` or ``("singular", None)``.
    """
    n_rows = len(m)
    n_unknowns = len(m[0]) - 1
    rank = 0
    for c in range(n_unknowns):
        for pivot in range(rank, n_rows):
            if m[pivot][c]:
                break
        else:
            continue
        pivot_row = m[pivot]
        m[pivot] = m[rank]
        m[rank] = pivot_row
        p = pivot_row[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != rank:
                row = [p * x - f * y for x, y in zip(row, pivot_row)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == n_rows:
            break
    if any(m[i][-1] for i in range(rank, n_rows)):
        return "inconsistent", None
    if rank < n_unknowns:
        return "singular", None
    # Full rank: row c pivots on column c and is zero in every other unknown.
    return "unique", [(m[c][-1], m[c][c]) for c in range(n_unknowns)]


def _indifference_mix(costs, chooser_support, mixer_support):
    """Opponent mix making ``chooser_support`` strategies equally costly.

    ``costs[i][j]`` is the chooser's integer-scaled cost when the chooser
    plays i and the mixer plays j. Unknowns: one probability per
    mixer-support strategy plus the common (scaled) cost value. Returns
    ``(status, solution)`` as :func:`_solve_integer` does.
    """
    n_mix = len(mixer_support)
    # sum_j costs[i][j] * q_j - v = 0 for each supported i; the q_j sum to 1.
    rows = [[costs[i][j] for j in mixer_support] + [-1, 0] for i in chooser_support]
    rows.append([1] * n_mix + [0, 1])
    return _solve_integer(rows)


def _nonnegative(solution) -> bool:
    """Whether every probability (all but the trailing value) is >= 0."""
    return all(num == 0 or (num > 0) == (den > 0) for num, den in solution[:-1])


def _full_mix(solution, support, size):
    """Exact probabilities over all ``size`` strategies, plus the scaled value."""
    probs = [Fraction(0)] * size
    for idx, i in enumerate(support):
        probs[i] = Fraction(*solution[idx])
    return probs, Fraction(*solution[-1])


def _beaten(costs, probs, value, support) -> bool:
    """Whether a strategy outside ``support`` costs strictly less than ``value``.

    ``costs[i][j]`` is the integer-scaled chooser cost, ``probs`` the
    opponent's mix and ``value`` the support's common scaled cost.
    """
    den = math.lcm(*(p.denominator for p in probs))
    weights = [p.numerator * (den // p.denominator) for p in probs]
    bound = value * den
    return any(
        sum(c * w for c, w in zip(costs[r], weights)) < bound
        for r in range(len(costs))
        if r not in support
    )


def mixed_nash(matrix: CostBimatrix) -> list[MixedProfile]:
    """All mixed equilibria found by exact support enumeration."""
    profiles, _ = support_enumeration(matrix)
    return profiles


def _check_mixed_size(matrix: CostBimatrix) -> None:
    if matrix.size > MAX_MIXED_SIZE:
        raise DomainError(f"support enumeration is limited to {MAX_MIXED_SIZE}x{MAX_MIXED_SIZE} games")


def support_enumeration(matrix: CostBimatrix):
    """Support enumeration with diagnostics.

    Iterates every pair of nonempty supports; on each, solves the two
    cost-indifference systems exactly, keeps solutions with nonnegative
    probabilities where no strategy outside the support achieves a
    strictly lower expected cost, merges duplicates, and sorts the
    result by support then probabilities. Supports whose indifference
    system has no unique solution are skipped and recorded in the
    returned diagnostics list.
    """
    _check_mixed_size(matrix)
    size = matrix.size
    a, b, scale_a, scale_b = matrix.scaled_costs
    # Bob chooses columns; his cost as chooser is indexed [col][row].
    b_t = [list(col) for col in zip(*b)]

    supports = [
        combo
        for r in range(1, size + 1)
        for combo in itertools.combinations(range(size), r)
    ]
    found = {}
    diagnostics = []
    for sup_a, sup_b in itertools.product(supports, supports):
        status_q, sol_q = _indifference_mix(a, sup_a, sup_b)
        if status_q == "singular":
            diagnostics.append(_support_note(matrix, sup_a, sup_b, "column"))
            continue
        if status_q != "unique":
            continue
        status_p, sol_p = _indifference_mix(b_t, sup_b, sup_a)
        if status_p == "singular":
            diagnostics.append(_support_note(matrix, sup_a, sup_b, "row"))
            continue
        if status_p != "unique":
            continue
        if not (_nonnegative(sol_p) and _nonnegative(sol_q)):
            continue
        p_full, value_b = _full_mix(sol_p, sup_a, size)
        q_full, value_a = _full_mix(sol_q, sup_b, size)
        # No unsupported strategy may beat the support's common cost.
        if _beaten(a, q_full, value_a, sup_a) or _beaten(b_t, p_full, value_b, sup_b):
            continue
        profile = MixedProfile(tuple(p_full), tuple(q_full), value_a / scale_a, value_b / scale_b)
        found.setdefault((profile.alice_probs, profile.bob_probs), profile)

    ordered = sorted(
        found.values(),
        key=lambda pr: (pr.support(), pr.alice_probs, pr.bob_probs),
    )
    return ordered, diagnostics


def _support_note(matrix, sup_a, sup_b, side) -> str:
    rows = ",".join(matrix.row_labels[i] for i in sup_a)
    cols = ",".join(matrix.col_labels[j] for j in sup_b)
    return f"support ({{{rows}}},{{{cols}}}): singular {side}-mix indifference system, skipped"


def optimal_outcome(matrix: CostBimatrix):
    """Cells minimizing the two players' combined cost, with that minimum."""
    totals = [
        [matrix.cost_a(i, j) + matrix.cost_b(i, j) for j in range(matrix.size)]
        for i in range(matrix.size)
    ]
    best = min(t for row in totals for t in row)
    cells = [
        _profile(matrix, i, j)
        for i in range(matrix.size)
        for j in range(matrix.size)
        if totals[i][j] == best
    ]
    return cells, best


def solve(matrix: CostBimatrix) -> EquilibriumResult:
    """The equilibria of ``matrix``; each solver runs when a view first needs it.

    Selection order: the dominance-surviving cell when unique, else the
    unique strict pure equilibrium, else the unique mixed equilibrium,
    else nothing. Reading ``selected`` or ``selected_by`` runs
    :func:`dominance_select`, and only if that leaves more than one cell
    the strict :func:`pure_nash` scan, and only if that finds no unique
    strict equilibrium :func:`support_enumeration`. ``strict_pure`` and
    ``weak_pure`` run their own scan, and ``mixed`` and ``diagnostics``
    share the one enumeration. A matrix larger than ``MAX_MIXED_SIZE``
    raises :class:`DomainError` here, not at the first read.
    """
    return EquilibriumResult(matrix)
