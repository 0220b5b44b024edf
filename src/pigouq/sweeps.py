"""Parameter sweeps over the pinned-player count k and the entanglement angle.

Sweeps emit figure-ready data, not figures: CSV with the fixed header

    axis,value,cost_ne,cost_opt,pos,poa,equilibrium

and a JSON mirror that keeps full-precision rationals. Points are
independent pure computations, so reruns are byte-identical. A k-sweep's
optimal cost is the cheapest equilibrium total over k = 0..n-3 (the
over-k convention of :mod:`pigouq.metrics`), whatever range it reports.
A gamma-sweep prices each point per game, against its own matrix's
cheapest cell plus the pinned bill, so a k-person gamma row can differ
from :func:`~pigouq.metrics.analyze` at the same k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError
from .ewl import validate_gamma
from .games import GameSpec, _check_k_person, _integer, value_to_json
from .metrics import MetricsReport, _metrics_report, _per_game, solve_over_k

__all__ = [
    "CSV_HEADER",
    "SweepSeries",
    "series_to_csv",
    "series_to_json_obj",
    "sweep_gamma",
    "sweep_k",
]

CSV_HEADER = "axis,value,cost_ne,cost_opt,pos,poa,equilibrium"


@dataclass(frozen=True)
class SweepSeries:
    """One report per axis value, plus the game context that produced them."""

    axis: str
    values: tuple
    reports: tuple[MetricsReport, ...]
    meta: tuple  # ordered (key, value) pairs describing the game

    def __post_init__(self):
        if len(self.values) != len(self.reports):
            raise DomainError("one report per axis value required")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise DomainError("axis values must be strictly increasing")

    def to_csv(self) -> str:
        return series_to_csv(self)

    def to_json_obj(self) -> dict:
        return series_to_json_obj(self)


def sweep_k(
    mode: str,
    strategies,
    n: int,
    k_values: Iterable[int] | None = None,
    gamma: float | None = None,
) -> SweepSeries:
    """Solve the n-traveler game for every requested k.

    ``k_values`` defaults to 1..n-3 inclusive, which is empty at n = 3;
    0 is accepted when asked for. The rows are read off one
    :func:`~pigouq.metrics.solve_over_k` pass, so each k is priced as
    ``analyze`` prices it. ``gamma`` is required for quantum mode and
    forbidden for classical.
    """
    n = _integer("n", n)
    _check_k_person(n, 0)
    if k_values is None:
        if n == 3:
            raise DomainError(
                "the default k range 1..n-3 is empty for n=3; ask for k = 0 with k_values=[0] (--k-range 0..0)"
            )
        k_values = range(1, n - 2)
    ks = sorted(set(_integer("k", k) for k in k_values))
    if not ks:
        raise DomainError("empty k range")
    for k in ks:
        _check_k_person(n, k)

    points, opt = solve_over_k(mode, strategies, n, gamma)
    reports = [_metrics_report(spec, eq, total, opt) for spec, _, eq, total in (points[k] for k in ks)]
    meta = _meta(mode=mode, variant="k_person", n=n, gamma=gamma, strategies=points[0][0].strategy_labels())
    return SweepSeries("k", tuple(ks), tuple(reports), meta)


def sweep_gamma(
    strategies,
    gamma_values: Iterable[float],
    n: int = 2,
    k: int | None = None,
) -> SweepSeries:
    """Solve the quantum game across entanglement angles.

    ``k=None`` runs the two-person game, which fixes ``n=2``; otherwise the
    n-traveler game at the given k. Each point is priced per game: its
    optimal cost is its own matrix's cheapest cell plus the pinned bill,
    not the over-k optimum that :func:`~pigouq.metrics.analyze` and
    :func:`sweep_k` use.
    """
    gammas = sorted(set(validate_gamma(g) for g in gamma_values))
    if not gammas:
        raise DomainError("empty gamma range")

    specs = [GameSpec(mode="quantum", n=n, k=k, gamma=g, strategies=tuple(strategies)) for g in gammas]
    reports = [_per_game(spec)[2] for spec in specs]
    meta = _meta(mode="quantum", variant=specs[0].variant, n=n, k=k, strategies=specs[0].strategy_labels())
    return SweepSeries("gamma", tuple(gammas), tuple(reports), meta)


def _meta(**kwargs) -> tuple:
    items = []
    for key, value in kwargs.items():
        if value is None:
            continue
        if key == "strategies":
            value = ",".join(value)
        items.append((key, value))
    return tuple(items)


def series_to_csv(series: SweepSeries) -> str:
    lines = [CSV_HEADER]
    for value, rep in zip(series.values, series.reports):
        lines.append(rep.csv_row(series.axis, value))
    return "\n".join(lines) + "\n"


def series_to_json_obj(series: SweepSeries) -> dict:
    return {
        "axis": series.axis,
        "meta": {key: value for key, value in series.meta},
        "points": [
            {"value": value_to_json(value) if not isinstance(value, int) else value, **rep.to_json_obj()}
            for value, rep in zip(series.values, series.reports)
        ],
    }
