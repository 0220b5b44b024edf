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

A gamma sweep's family of games is solved by
:func:`~pigouq.equilibria.solve_family`, which runs dominance and the
pure scan once per column signature of the family's games. The over-k
pass, :func:`solve_over_k`, splits k = 0..n-3 into runs of one column
signature and decides each run once: for an exact population it builds
one game per run, and each k's game only when its point is read.

Every total, cost(NE) and per-game cost(OPT) alike, adds the bill in
:func:`_priced`, in the numbers its matrix holds. An exact game sums
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

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .equilibria import (
    EquilibriumResult,
    MixedProfile,
    PureProfile,
    _grid_runs,
    _held_totals,
    _RunPass,
    _signature_runs,
    _square_cuts,
    solve,
)
from .errors import DomainError
from .games import (
    CostBimatrix,
    GameSpec,
    _check_k_person,
    _grid_at,
    _k_family,
    _integer,
    _pinned_bill_times_n,
    bimatrix,
    format_value,
    value_to_json,
)
from .strategies import _check_real

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


def split_cost(n: int, upper_count) -> Fraction | float:
    """Total cost when ``upper_count`` of the n travelers use the constant edge.

    The remaining n - upper_count share the load-dependent edge:
    f(p) = p + (n-p)^2 / n. n must be an integer; ``upper_count`` is any
    real in 0..n, for plotting: an int or ``Fraction`` gives a
    ``Fraction``, a float of any width a Python float.
    """
    if (n := _integer("n", n)) < 2:
        raise DomainError(f"need n >= 2, got {n}")
    _check_real("upper_count", upper_count)
    p = Fraction(upper_count) if isinstance(upper_count, numbers.Rational) else float(upper_count)
    if not 0 <= p <= n:
        raise DomainError(f"upper_count must be a finite number in 0..{n}, got {upper_count!r}")
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

    A mixed profile counts its expected costs, added exactly as integer
    ratios, and the bill counts the expected number of free players on P2,
    the lower edge of the classical game (quantum bills do not depend on
    it); the total is a ``Fraction``. A pure profile sums the
    cell's two entries of the grid the matrix holds
    (:func:`~pigouq.equilibria._held_totals`): an exact game's integers
    over their scale, any other matrix's costs. :func:`_priced` adds the
    bill in those numbers.
    """
    if isinstance(profile, PureProfile):
        i, j = profile.row, profile.col
        a, scale = matrix._grid
        return _pure_total(spec, profile, a[i][j] + a[j][i], scale)
    if isinstance(profile, MixedProfile):
        return _mixed_total(spec, matrix.labels, profile)
    raise DomainError(f"cannot cost a profile of type {type(profile).__name__}")


def _pure_total(spec: GameSpec, profile: PureProfile, cost, scale):
    """The total of pure ``profile`` whose two free players cost ``cost`` (over ``scale``, if one)."""
    return _priced(spec, cost, scale, (profile.row_label, profile.col_label).count("P2"))


def _mixed_total(spec: GameSpec, labels, profile: MixedProfile) -> Fraction:
    """The total of mixed ``profile`` over strategies ``labels``: its two expected costs added as integer ratios."""
    lower = 0  # only a classical bill counts the free players on the lower edge
    if spec.mode == "classical":
        moves = zip(labels * 2, profile.alice_probs + profile.bob_probs)
        lower = sum(p for label, p in moves if label == "P2")
    num_a, den_a = profile.expected_cost_alice.as_integer_ratio()
    num_b, den_b = profile.expected_cost_bob.as_integer_ratio()
    return _priced(spec, num_a * den_b + num_b * den_a, den_a * den_b, lower)


def _priced(spec: GameSpec, cost, scale, lower=0):
    """``cost`` plus the pinned players' bill with ``lower`` free players on the lower edge.

    With a ``scale``, ``cost`` is an integer over that scale, the sum of
    a held grid's integers or of a mix's two costs as integer ratios, and
    the total is one ``Fraction``, of integers unless a classical mix's
    expected lower-edge count makes the bill a ``Fraction``. A float
    ``cost`` adds the bill's float, n times the bill over n in int / int
    division, which rounds correctly; ``lower`` is then a whole count. An
    int or ``Fraction`` cost adds the ``Fraction`` bill,
    :func:`~pigouq.games.pinned_bill`.
    """
    bill, n = _pinned_bill_times_n(spec, lower), spec.n
    if scale is not None:
        return Fraction(cost * n + bill * scale, n * scale)
    if isinstance(cost, float):
        return cost + bill / n
    return cost + Fraction(bill, n)


def solve_over_k(spec: GameSpec):
    """Solve the n-traveler game of a k-person ``spec`` at every k = 0..n-3, in order.

    ``spec.k`` is ignored; a two-person spec raises :class:`DomainError`.
    Returns ``(points, opt)``: ``points[k]`` is the ``(spec_k, matrix,
    equilibria, total)`` of k, where ``spec_k`` is ``spec`` with that k,
    ``matrix`` equals :func:`bimatrix` of ``spec_k`` and ``equilibria``
    equals ``solve(matrix)`` in every view, and ``total`` is the selected
    equilibrium's social cost, :func:`profile_total`, in integers for an
    exact game (None when nothing is selected); ``opt`` is the cheapest
    of those totals (None when no k selects an equilibrium).

    The pass splits k = 0..n-3 into runs of one column signature and
    decides each run once, on its first game
    (:class:`~pigouq.equilibria._RunPass`). That is the only game it
    builds for a run. A run left to the square pass is cut where a sign
    that pass reads may change, and each piece counts the square
    candidates of its first k's integer grid; where one support pair is
    accepted, each other k of the piece solves only that pair's systems.
    Finding the runs and their pieces is where an exact population and a
    float one differ. An exact one, the classical game or a named set at
    t in {0, 1}, is one affine integer grid ``a0 + k * a1`` over one scale
    (:func:`~pigouq.games._k_family`): its runs start at the roots of the
    within-column differences (:func:`~pigouq.equilibria._grid_runs`), its
    pieces at the roots of the square pass's affine and quadratic signs
    (:func:`~pigouq.equilibria._square_cuts`), a pure total is the
    selected cell's affine total priced with one ``Fraction``, and a k's
    game is built only when its point is read. A float population builds
    its games at every k, as :func:`bimatrix` would, finds its runs by
    comparing their column signatures, and makes every k a piece of its
    own.
    """
    if spec.k is None:
        raise DomainError("the two-person game has no pinned count to vary")
    count, labels = spec.n - 2, spec.strategy_labels()
    family = _k_family(spec)
    if isinstance(family, list):
        starts, game_at, square_cuts = _signature_runs(family), family.__getitem__, range

        def grid_at(k):
            return family[k].scaled_costs

        def pair_cost(k, i, j):
            a, held_scale = family[k]._grid
            return a[i][j] + a[j][i], held_scale

    else:
        a0, a1, scale = family
        starts = _grid_runs(a0, a1, count)

        def grid_at(k):
            return _grid_at(a0, a1, k), scale

        def game_at(k):
            return CostBimatrix._exact(labels, _grid_at(a0, a1, k), scale)

        def square_cuts(lo, hi):
            return _square_cuts(a0, a1, lo, hi)

        def pair_cost(k, i, j):
            return a0[i][j] + a0[j][i] + k * (a1[i][j] + a1[j][i]), scale

    runs = _RunPass(starts, count, game_at, grid_at, square_cuts)
    specs = [spec._at(k=k) for k in range(count)]
    totals = []
    for spec_k, (selected, _) in zip(specs, runs.selections):
        if isinstance(selected, PureProfile):
            totals.append(_pure_total(spec_k, selected, *pair_cost(spec_k.k, selected.row, selected.col)))
        else:
            totals.append(None if selected is None else _mixed_total(spec_k, labels, selected))
    return _OverK(specs, runs, totals), min((total for total in totals if total is not None), default=None)


class _OverK(Sequence):
    """The points of one :func:`solve_over_k` pass; the game and equilibria of ``points[k]`` are built when first read.

    ``selections[k]`` and ``totals[k]``, the pass's ``(selected,
    selected_by)`` and total at k, are read without building k's game.
    """

    def __init__(self, specs, runs, totals):
        self._specs, self._runs, self.totals = specs, runs, totals
        self.selections = runs.selections

    def __len__(self):
        return len(self._specs)

    def __getitem__(self, k):
        k = range(len(self))[k]  # an IndexError past either end
        eq = self._runs.result(k)
        return self._specs[k], eq.matrix, eq, self.totals[k]


def _metrics_report(k, label, cost_ne, cost_opt) -> MetricsReport:
    """The report of a game whose selection has the label ``label``, None when nothing is selected."""
    if label is None:
        return MetricsReport(None, cost_opt, None, None, k, None)
    ratio = cost_ne / cost_opt
    return MetricsReport(cost_ne, cost_opt, ratio, ratio, k, label)


def _per_game(spec: GameSpec, eq: EquilibriumResult) -> MetricsReport:
    """The metrics of ``spec``'s game with equilibria ``eq``, priced against its own cheapest cell.

    Every spec priced per game has a profile-independent bill: quantum
    bills never depend on the profile, and the one classical spec priced
    per game, the two-person game, has no pinned players. So cost(OPT) is
    the least held total plus the bill. Pricing reads n, k and mode, never
    gamma, so one spec prices every angle of a gamma sweep.
    """
    cost_ne = profile_total(spec, eq.matrix, eq.selected) if eq.selected is not None else None
    totals, scale = _held_totals(eq.matrix)
    cost_opt = _priced(spec, min(map(min, totals)), scale)
    return _metrics_report(spec.k, format_equilibrium_label(eq.selected), cost_ne, cost_opt)


def _over_k_reports(points, opt, ks) -> list[MetricsReport]:
    """The metrics of the games at ``ks`` of one :func:`solve_over_k` pass's ``(points, opt)``, games left unbuilt.

    The one place an over-k point becomes a report: every k-sweep row,
    public or verify's, is read here, and :func:`analyze` reads its
    k-person game's through :func:`_over_k_at`. Every k of a run that
    dominance or the pure scan decides holds one selection object, so a
    label is formatted once per selection object met in a row.
    """
    reports, last, label = [], None, None
    for k in ks:
        selected = points.selections[k][0]
        if selected is not last:
            last, label = selected, format_equilibrium_label(selected)
        reports.append(_metrics_report(k, label, points.totals[k], opt))
    return reports


def _over_k_at(points, opt, k: int):
    """(bimatrix, equilibria, metrics) of the game at ``k`` of one :func:`solve_over_k` pass's ``(points, opt)``."""
    _, matrix, eq, _ = points[k]
    return matrix, eq, _over_k_reports(points, opt, (k,))[0]


def analyze(spec: GameSpec):
    """(bimatrix, equilibria, metrics) for a spec.

    A two-person game is priced against its own cheapest cell. A k-person
    game is priced against the cheapest equilibrium total over k = 0..n-3:
    the game at ``spec.k`` is one point of that over-k pass, read by
    :func:`_over_k_at`, so its matrix, equilibria and total come from
    there, and the pass builds at most one game besides the first of each
    run.
    """
    if spec.k is None:
        eq = solve(bimatrix(spec))
        return eq.matrix, eq, _per_game(spec, eq)
    return _over_k_at(*solve_over_k(spec), spec.k)


def describe_metrics(metrics: MetricsReport) -> str:
    """One human-readable line: totals and ratios with exact values."""

    def text(x):
        return "-" if x is None else format_value(x)

    return (
        f"cost(NE) = {text(metrics.cost_ne)}, cost(OPT) = {text(metrics.cost_opt)}, "
        f"PoS = {text(metrics.pos)}, PoA = {text(metrics.poa)}"
    )
