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

The optimal cost follows the game, because the headline claims quote
each number in its own context: a two-person game is priced against the
cheapest cell of the matrix at hand; an n-traveler game at any k against
the cheapest equilibrium total over k = 0..n-3 for the same strategy
set, n and gamma, which :func:`solve_over_k` computes (None, with the
ratios, when no k selects an equilibrium). :func:`analyze` and every k
sweep read that one number, whatever k or range of k they report. A
gamma sweep is the exception: it prices every point per game, k-person
points included (see :func:`~pigouq.sweeps.sweep_gamma`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equilibria import EquilibriumResult, MixedProfile, PureProfile, _combined_costs, solve
from .errors import DomainError
from .games import (
    CostBimatrix,
    GameSpec,
    _check_k_person,
    _integer,
    bimatrix,
    format_value,
    outcome_grid,
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
    is unique so both ratios coincide.
    """
    _check_k_person(n, k)
    return Fraction(4 * (k * k - (n - 4) * k + n * n - 2 * n + 4), 3 * n * n)


def split_cost(n: int, upper_count) -> Fraction:
    """Total cost when ``upper_count`` travelers use the constant edge.

    The remaining n - upper_count share the load-dependent edge:
    f(p) = p + (n-p)^2 / n. Accepts fractional counts for plotting.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    p = Fraction(upper_count) if not isinstance(upper_count, float) else upper_count
    return p + (n - p) * (n - p) / Fraction(n)


def classical_opt(n: int) -> tuple[Fraction, Fraction]:
    """Optimal split and its total: half the traffic on each edge, cost 3n/4."""
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

    def csv_row(self, axis: str, value) -> str:
        """One line of the sweep CSV schema (no header)."""

        def num(x):
            return "" if x is None else repr(float(x))

        label = "" if self.equilibrium is None else self.equilibrium
        return ",".join(
            [axis, _axis_value_text(value), num(self.cost_ne), num(self.cost_opt),
             num(self.pos), num(self.poa), label]
        )


def _axis_value_text(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


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
    """
    if isinstance(profile, PureProfile):
        a, b = matrix.cell(profile.row, profile.col)
        lower = (profile.row_label, profile.col_label).count("P2")
    elif isinstance(profile, MixedProfile):
        a, b = profile.expected_cost_alice, profile.expected_cost_bob
        moves = zip(matrix.labels * 2, profile.alice_probs + profile.bob_probs)
        lower = sum(p for label, p in moves if label == "P2")
    else:
        raise DomainError(f"cannot cost a profile of type {type(profile).__name__}")
    return a + b + pinned_bill(spec, lower)


def _per_game_opt(spec: GameSpec, matrix: CostBimatrix):
    # Every spec priced per game has a profile-independent bill: quantum
    # bills never depend on the profile, and the one classical spec priced
    # per game, the two-person game, has no pinned players. x -> x + bill
    # is monotone (exact on exact cells), so the cheapest cell wins; its
    # minimum is all that is needed, not the cells that reach it.
    return _combined_costs(matrix)[1] + pinned_bill(spec)


def solve_over_k(mode: str, strategies, n: int, gamma: float | None = None):
    """Solve the n-traveler game at every k = 0..n-3, in order.

    Quantum games share one :func:`outcome_grid` across all k, since the
    protocol never sees k. Returns ``(points, opt)``: one ``(spec,
    matrix, equilibria, total)`` per k, indexed by k, where ``total`` is
    the selected equilibrium's social cost (None when nothing is
    selected), and ``opt``, the cheapest of those totals (None when no k
    selects an equilibrium).
    """
    _check_k_person(n, 0)
    specs = [GameSpec(mode=mode, n=n, k=k, gamma=gamma, strategies=tuple(strategies)) for k in range(n - 2)]
    outcomes = outcome_grid(specs[0].strategies, gamma) if mode == "quantum" else None
    points = []
    for spec in specs:
        matrix = bimatrix(spec, outcomes)
        eq = solve(matrix)
        total = profile_total(spec, matrix, eq.selected) if eq.selected is not None else None
        points.append((spec, matrix, eq, total))
    return points, min((total for *_, total in points if total is not None), default=None)


def _metrics_report(spec: GameSpec, eq: EquilibriumResult, cost_ne, cost_opt) -> MetricsReport:
    if eq.selected is None:
        return MetricsReport(None, cost_opt, None, None, spec.k, None)
    ratio = cost_ne / cost_opt
    return MetricsReport(cost_ne, cost_opt, ratio, ratio, spec.k, format_equilibrium_label(eq.selected))


def _per_game(spec: GameSpec):
    """(bimatrix, equilibria, metrics) of ``spec``'s game, priced against its own cheapest cell."""
    matrix = bimatrix(spec)
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
        return _per_game(spec)
    points, cost_opt = solve_over_k(spec.mode, spec.strategies, spec.n, spec.gamma)
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
