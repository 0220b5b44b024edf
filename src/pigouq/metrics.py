"""Social-cost accounting: equilibrium cost, optimal cost, stability and anarchy ratios.

A profile's total is the two free players' (expected) costs plus the
pinned players' bill, :func:`~pigouq.games.pinned_bill`, for pure and
mixed profiles alike. That bill is where the two game modes differ, under
the conventions the reference numbers of this model are defined in:

* classical n-traveler games charge every lower-edge user the realized
  load, so with both free players there the k pinned users pay (k+2)/n
  each and the equilibrium total is (k+2)^2/n + (n-k-2);
* quantum n-traveler games bill the pinned players a profile-independent
  k*(k/n) + (n-k-2)*1, i.e. as if the entangled pair were absent.

Price of Stability = best equilibrium total / optimal total; Price of
Anarchy uses the worst equilibrium. Under the selection convention the
equilibrium-cost set has a single element, so the two ratios coincide
whenever they are defined.

The optimal cost, cost(OPT), follows one of two pricing rules, with no
option to override them, because the headline claims quote each number
in its own context:

* **per game**: the cheapest cell of the matrix at hand plus the pinned
  players' bill, profile-independent wherever this rule applies.
  :func:`analyze` prices a two-person game this way, and
  :func:`~pigouq.sweeps.sweep_gamma` every point, k-person ones too.
* **over k**: the cheapest selected-equilibrium total over k = 0..n-3 for
  the same mode, strategy set, n and gamma (:func:`solve_over_k`),
  whatever k or range of k is reported. :func:`analyze` prices an
  n-traveler game this way, and :func:`~pigouq.sweeps.sweep_k` every k;
  when no k selects an equilibrium, cost(OPT) and the ratios are None.

The over-k pass decides each game's selection once per *signature*
(see :mod:`pigouq.equilibria`): the signs of the within-column
differences of its grid and, where the square pass decides, the
positive supports of that pass's candidates. The first game of each
signature is solved in full; every later one gets its selection filled
in, the same cell or the producing support pair solved at its own k,
unless two of its candidates share their supports (the guard), and then
it is solved in full too. Every other view stays lazy, and the
signatures live only for one pass.

A total is formed in the numbers its matrix holds. An exact game sums
its integer grid and builds one ``Fraction``. A float game adds the
float of the bill, n times the bill over n in int / int division, to a
float sum of costs, which is the float that adding the ``Fraction`` bill
gives; int and ``Fraction`` costs add the ``Fraction`` bill.

A game that selects no equilibrium has no cost(NE) and no ratios. The
rules can differ on one game: at n = 10, k = 4, {P1,P2,Q} and gamma =
pi/2, the per-game row reads cost(OPT) 34/5 and PoS 305/289, and the
over-k report 122/17 and 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibria import (
    EquilibriumResult,
    MixedProfile,
    PureProfile,
    _column_signature,
    _least_total,
    _mixed_profile,
    _square_candidates,
    _square_signature,
    solve,
)
from .errors import DomainError
from .games import (
    CostBimatrix,
    GameSpec,
    _check_k_person,
    _integer,
    _pinned_bill_times_n,
    bimatrices_over_k,
    bimatrix,
    format_value,
    pinned_bill,
    value_to_json,
)

__all__ = [
    "MetricsReport",
    "analyze",
    "classical_cost_ne",
    "classical_opt",
    "classical_pos_poa",
    "describe_metrics",
    "format_equilibrium_label",
    "profile_total",
    "solve_over_k",
    "split_cost",
]


def classical_cost_ne(n: int, k: int) -> Fraction:
    """Equilibrium total of the classical n-traveler game: (k+2)^2/n + (n-k-2).

    Both free players join the k pinned users on the lower edge, so all
    k+2 of them pay (k+2)/n while n-k-2 stay on the upper edge at 1.
    """
    _check_k_person(n, k)
    return Fraction((k + 2) ** 2, n) + (n - k - 2)


def classical_pos_poa(n: int, k: int) -> Fraction:
    """Stability/anarchy ratio of the classical game, in closed form.

    Equals ``classical_cost_ne(n, k) / (3n/4)`` exactly; the equilibrium
    is unique so both ratios coincide. The base is the relaxed optimum of
    :func:`classical_opt`, so at odd n, where no integral split reaches
    3n/4, no ratio reads 1.
    """
    _check_k_person(n, k)
    return Fraction(4 * (k * k - (n - 4) * k + n * n - 2 * n + 4), 3 * n * n)


def split_cost(n: int, upper_count) -> Fraction:
    """Total cost when ``upper_count`` of the n travelers use the constant edge.

    The remaining n - upper_count share the load-dependent edge:
    f(p) = p + (n-p)^2 / n. n must be an integer; ``upper_count`` may be
    fractional, for plotting.
    """
    if _integer("n", n) < 2:
        raise DomainError(f"need n >= 2, got {n}")
    p = Fraction(upper_count) if not isinstance(upper_count, float) else upper_count
    return p + (n - p) * (n - p) / Fraction(n)


def classical_opt(n: int) -> tuple[Fraction, Fraction]:
    """The relaxed optimum: half the traffic on each edge, cost 3n/4.

    The split n/2 is fractional: it minimizes :func:`split_cost` over
    real counts. An even n reaches it with whole travelers; an odd n does
    not, and its best integral split, (n-1)/2 or (n+1)/2 on the upper
    edge, costs (3n^2 + 1)/(4n): at n = 5 this returns (5/2, 15/4),
    while the best assignment of five travelers costs 19/5.
    """
    if _integer("n", n) < 2:
        raise DomainError(f"need n >= 2, got {n}")
    half = Fraction(n, 2)
    return half, split_cost(n, half)


@dataclass(frozen=True)
class MetricsReport:
    """Cost of the selected equilibrium, the optimal cost, and their ratios."""

    cost_ne: "Fraction | float | None"
    cost_opt: "Fraction | float | None"
    pos: "Fraction | float | None"
    poa: "Fraction | float | None"
    k: int | None
    equilibrium: str | None

    def to_json_obj(self) -> dict:
        return {
            "cost_ne": value_to_json(self.cost_ne),
            "cost_opt": value_to_json(self.cost_opt),
            "pos": value_to_json(self.pos),
            "poa": value_to_json(self.poa),
            "k": self.k,
            "equilibrium": self.equilibrium,
        }


def format_equilibrium_label(profile) -> str | None:
    """Compact label: ``pure:(M,M)``, or ``mixed:(7/29,7/29,15/29)`` when both
    players mix alike and ``mixed:(1,0|0,1)`` (Alice's mix, then Bob's) when not."""
    if profile is None:
        return None
    if isinstance(profile, PureProfile):
        return f"pure:({profile.row_label},{profile.col_label})"

    def text(probs):
        # Exact fractions read well while their denominators are small;
        # float-derived monsters fall back to decimal.
        return ",".join(str(p) if p.denominator <= 10**9 else repr(float(p)) for p in probs)

    label = text(profile.alice_probs)
    if profile.bob_probs != profile.alice_probs:
        label += "|" + text(profile.bob_probs)
    return f"mixed:({label})"


def profile_total(spec: GameSpec, matrix: CostBimatrix, profile):
    """Social cost of a profile: both free players' costs plus the pinned players' bill.

    A mixed profile counts its expected costs, and the bill counts the
    expected number of free players on P2, the lower edge of the classical
    game (quantum bills do not depend on it).

    A pure profile of an exact game from :func:`~pigouq.games.bimatrix`
    is summed in integers: the cell's two integers of the grid it holds
    (:attr:`~pigouq.games.CostBimatrix.scaled_costs`) times n, plus n
    times the bill times the scale, over n times the scale, with one
    ``Fraction`` built at the end. Any other matrix's pure total is the
    sum of its two costs plus the bill, and a mixed total the ``Fraction``
    sum of its expected costs and the bill (see :func:`_plus_bill`).
    """
    if isinstance(profile, PureProfile):
        i, j = profile.row, profile.col
        lower = (profile.row_label, profile.col_label).count("P2")
        a, scale = matrix._grid
        if scale is not None:
            bill = _pinned_bill_times_n(spec, lower)
            return Fraction((a[i][j] + a[j][i]) * spec.n + bill * scale, spec.n * scale)
        cost = a[i][j] + a[j][i]
    elif isinstance(profile, MixedProfile):
        cost = profile.expected_cost_alice + profile.expected_cost_bob
        lower = 0  # only a classical bill counts the free players on the lower edge
        if spec.mode == "classical":
            moves = zip(matrix.labels * 2, profile.alice_probs + profile.bob_probs)
            lower = sum(p for label, p in moves if label == "P2")
    else:
        raise DomainError(f"cannot cost a profile of type {type(profile).__name__}")
    return _plus_bill(spec, cost, lower)


def _plus_bill(spec: GameSpec, cost, lower=0):
    """``cost + pinned_bill(spec, lower)``, with no ``Fraction`` formed for a float ``cost``.

    A float plus a ``Fraction`` is the float sum of the two floats, and
    the bill's float is n times the bill over n in int / int division,
    which rounds correctly; ``lower`` is then a whole count. An int or
    ``Fraction`` cost adds the ``Fraction`` bill.
    """
    if isinstance(cost, float):
        return cost + _pinned_bill_times_n(spec, lower) / spec.n
    return cost + pinned_bill(spec, lower)


def _per_game_opt(spec: GameSpec, matrix: CostBimatrix):
    # Every spec priced per game has a profile-independent bill: quantum
    # bills never depend on the profile, and the one classical spec priced
    # per game, the two-person game, has no pinned players. x -> x + bill
    # is monotone (exact on exact cells), so the cheapest cell wins.
    return _plus_bill(spec, _least_total(matrix))


def solve_over_k(spec: GameSpec):
    """Solve the n-traveler game of a k-person ``spec`` at every k = 0..n-3, in order.

    ``spec.k`` is ignored, as in :func:`~pigouq.games.bimatrices_over_k`,
    which builds the games over one outcome grid, each equal to
    :func:`bimatrix` at its k. Returns ``(points, opt)``: one ``(spec_k,
    matrix, equilibria, total)`` per k, indexed by k, where ``spec_k`` is
    ``spec`` with that k, ``total`` is the selected equilibrium's social
    cost, :func:`profile_total`, in integers for an exact game (None when
    nothing is selected), and ``opt``, the cheapest of those totals (None
    when no k selects an equilibrium).

    Each ``equilibria`` is ``solve(matrix)``, but only the first game of
    each signature met in the pass is solved: a later one with that
    signature gets ``selected`` and ``selected_by`` filled in from it,
    the same cell, or its unique mix's support pair solved at this k,
    and every other view on its first read. The column signature (the
    signs of the grid's within-column differences) fixes dominance and
    the pure scan; where those leave the selection to the square pass,
    the square signature (the positive supports of the pass's
    candidates, computed on the game's integer grid) joins it. A game
    whose candidates share their supports is solved in full.
    """
    points = []
    firsts = {}  # signature -> equilibria of the pass's first game with it
    for k, matrix in enumerate(bimatrices_over_k(spec)):
        spec_k = spec._at(k=k)
        eq = _solve_in_pass(matrix, firsts)
        total = profile_total(spec_k, matrix, eq.selected) if eq.selected is not None else None
        points.append((spec_k, matrix, eq, total))
    return points, min((total for *_, total in points if total is not None), default=None)


def _solve_in_pass(matrix: CostBimatrix, firsts: dict) -> EquilibriumResult:
    """:func:`solve` of one game of an over-k pass, its selection read off an earlier game with its signature.

    ``firsts`` maps each signature met so far in the pass to the first
    game's equilibria. The column signature fixes the dominance and
    pure-scan rules; where those leave the selection to the square pass,
    the game's square signature, on its own integer grid, joins the key.
    A game whose signature is new, or whose square signature is None
    (the guard), is solved in full; a key holding None is filed but never
    looked up.
    """
    column = _column_signature(matrix)
    first = firsts.get(column)
    if first is None:
        first = firsts[column] = solve(matrix)
        if first._pure_selection is None:  # the square pass decides: file the game under its square signature too
            firsts[column, _square_signature(_square_candidates(matrix.scaled_costs[0], first.weak_pure))] = first
        return first
    if first._pure_selection is not None:
        return EquilibriumResult._with_selection(matrix, *first._pure_selection)
    a, scale = matrix.scaled_costs
    candidates = _square_candidates(a, first.weak_pure)
    key = column, _square_signature(candidates)
    first = firsts.get(key) if key[1] is not None else None
    if first is None:
        first = firsts[key] = solve(matrix)
        return first
    if first.selected is None:
        return EquilibriumResult._with_selection(matrix, None, None)
    # One candidate, as at the first game: its pair solved at this k is the unique mix.
    return EquilibriumResult._with_selection(matrix, _mixed_profile(*candidates[0], scale), "unique_mixed")


def _metrics_report(spec: GameSpec, eq: EquilibriumResult, cost_ne, cost_opt) -> MetricsReport:
    if eq.selected is None:
        return MetricsReport(None, cost_opt, None, None, spec.k, None)
    ratio = cost_ne / cost_opt
    return MetricsReport(cost_ne, cost_opt, ratio, ratio, spec.k, format_equilibrium_label(eq.selected))


def _per_game(spec: GameSpec, matrix: CostBimatrix):
    """(matrix, equilibria, metrics) of ``spec``'s game ``matrix``, priced against its own cheapest cell."""
    eq = solve(matrix)
    cost_ne = profile_total(spec, matrix, eq.selected) if eq.selected is not None else None
    return matrix, eq, _metrics_report(spec, eq, cost_ne, _per_game_opt(spec, matrix))


def analyze(spec: GameSpec):
    """(bimatrix, equilibria, metrics) for a spec.

    A two-person game is priced against its own cheapest cell. A k-person
    game is priced against the cheapest equilibrium total over k = 0..n-3,
    and the game at ``spec.k`` is one point of that over-k pass, so its
    matrix, equilibria and total come from there.
    """
    if spec.k is None:
        return _per_game(spec, bimatrix(spec))
    points, cost_opt = solve_over_k(spec)
    _, matrix, eq, cost_ne = points[spec.k]
    return matrix, eq, _metrics_report(spec, eq, cost_ne, cost_opt)


def describe_metrics(metrics: MetricsReport) -> str:
    """One human-readable line: totals and ratios with exact values."""

    def text(x):
        return "-" if x is None else format_value(x)

    return (
        f"cost(NE) = {text(metrics.cost_ne)}, cost(OPT) = {text(metrics.cost_opt)}, "
        f"PoS = {text(metrics.pos)}, PoA = {text(metrics.poa)}"
    )
