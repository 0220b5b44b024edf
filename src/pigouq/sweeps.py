"""Parameter sweeps over the pinned-player count k and the entanglement angle.

Sweeps emit figure-ready data, not figures: CSV with the fixed header

    axis,value,cost_ne,cost_opt,pos,poa,equilibrium

and a JSON mirror that keeps full-precision rationals. This module owns
that schema: :func:`series_to_csv` writes every CSV row, for ``pigouq
solve --format csv`` too. Points are independent pure computations, so
reruns are byte-identical. A k-sweep follows the over-k pricing rule and
a gamma-sweep the per-game one, both set out in :mod:`pigouq.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .equilibria import solve_family
from .errors import DomainError
from .ewl import validate_gamma
from .games import GameSpec, _bimatrices, _check_k_person, value_to_json
from .metrics import MetricsReport, _over_k_reports, _per_game, solve_over_k

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
    :func:`~pigouq.metrics.solve_over_k` pass by the private builder
    :func:`_k_series`, whose every row is the metrics that
    :func:`~pigouq.metrics.analyze` reads through the same
    :func:`~pigouq.metrics._over_k_reports`: each k is priced by the over-k
    rule of :mod:`pigouq.metrics`, as ``analyze`` prices it. The rows
    read each k's selection and total off the pass, so a sweep builds no
    game beyond the pass's one per run of one column signature.
    ``gamma`` is required for quantum mode and forbidden for classical.
    """
    spec = GameSpec(mode=mode, n=n, k=0, gamma=gamma, strategies=strategies)
    if k_values is None:
        if spec.n == 3:
            raise DomainError(
                "the default k range 1..n-3 is empty for n=3; ask for k = 0 with k_values=[0] (--k-range 0..0)"
            )
        k_values = range(1, spec.n - 2)
    ks = sorted({_check_k_person(spec.n, k)[1] for k in k_values})
    if not ks:
        raise DomainError("empty k range")

    return _k_series(spec, ks, *solve_over_k(spec))


def _k_series(spec: GameSpec, ks, points, opt) -> SweepSeries:
    """The k-sweep of ``spec``'s population at ``ks``, read off one over-k pass's ``(points, opt)``.

    ``ks`` is strictly increasing, each in 0..n-3, and each row is the
    metrics of :func:`~pigouq.metrics._over_k_reports`, the builder
    :func:`~pigouq.metrics.analyze` reads its k-person game's through.
    """
    reports = tuple(_over_k_reports(points, opt, ks))
    return SweepSeries("k", tuple(ks), reports, _meta(spec, "k"))


def sweep_gamma(
    strategies,
    gamma_values: Iterable[float],
    n: int = 2,
    k: int | None = None,
) -> SweepSeries:
    """Solve the quantum game across entanglement angles.

    ``k=None`` runs the two-person game, which fixes ``n=2``; otherwise the
    n-traveler game at the given k. Each point is priced by the per-game
    rule of :mod:`pigouq.metrics`, not the over-k one that
    :func:`~pigouq.metrics.analyze` and :func:`sweep_k` use, so a k-person
    row can differ from ``analyze`` at the same k.

    The sweep validates one spec, reading ``strategies`` once, and prices
    every angle with it: pricing reads n, k and mode, never gamma. Its
    games are one family of the games builder: the strategy set is looked
    up once, and each angle's game equals :func:`~pigouq.games.bimatrix`
    of the spec at that angle. They are solved as one family by
    :func:`~pigouq.equilibria.solve_family`, as the over-k pass's are, so
    dominance and the pure scan run once per column signature of the
    sweep's games.
    """
    gammas = sorted(set(validate_gamma(g) for g in gamma_values))
    if not gammas:
        raise DomainError("empty gamma range")

    spec = GameSpec(mode="quantum", n=n, k=k, gamma=gammas[0], strategies=strategies)
    family = solve_family(_bimatrices(spec, gammas))
    reports = [_per_game(spec, eq) for eq in family]
    return SweepSeries("gamma", tuple(gammas), tuple(reports), _meta(spec, "gamma"))


def _meta(spec: GameSpec, axis: str) -> tuple:
    """The ``(key, value)`` pairs a sweep over ``axis`` holds fixed: ``spec``'s set fields, then its strategies."""
    fields = (("mode", spec.mode), ("variant", spec.variant), ("n", spec.n), ("k", spec.k), ("gamma", spec.gamma))
    return tuple((key, value) for key, value in fields if key != axis and value is not None) + (
        ("strategies", ",".join(spec.strategy_labels())),
    )


def _csv_number(x) -> str:
    return "" if x is None else repr(float(x))


def series_to_csv(series: SweepSeries) -> str:
    """The CSV of ``series``; a number held by one object in several places is formatted once.

    A report's ``pos`` and ``poa`` are one object, and so is ``cost_opt``
    across the rows of a k-series, which share one over-k optimum.
    """
    lines = [CSV_HEADER]
    opt, opt_text = None, ""
    for value, rep in zip(series.values, series.reports):
        value_text = value if isinstance(value, int) else repr(float(value))
        if rep.cost_opt is not opt:
            opt, opt_text = rep.cost_opt, _csv_number(rep.cost_opt)
        pos_text = _csv_number(rep.pos)
        poa_text = pos_text if rep.poa is rep.pos else _csv_number(rep.poa)
        lines.append(
            f"{series.axis},{value_text},{_csv_number(rep.cost_ne)},{opt_text},"
            f"{pos_text},{poa_text},{rep.equilibrium or ''}"
        )
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
