"""Congestion games on the two-edge Pigou network, classical and entangled.

The library builds the network's cost matrices in exact rational
arithmetic, runs the two-qubit entangling protocol for quantum strategy
sets, finds pure and mixed equilibria, computes Price of Stability /
Price of Anarchy, and sweeps the pinned-player count or the
entanglement angle into figure-ready CSV/JSON. The ``pigouq`` CLI
exposes the same through ``matrix``, ``solve``, ``sweep`` and
``verify`` subcommands.
"""

from .errors import DomainError
from .strategies import STRATEGY_TAGS, StrategyAngles, is_unitary, resolve, strategy_label, unitary_from_angles
from .ewl import GAMMA_MAX, entangler, outcome_table
from .games import CostBimatrix, GameSpec, bimatrix, cost_assignment, pinned_bill
from .equilibria import (
    EquilibriumResult,
    MixedProfile,
    PureProfile,
    dominance_select,
    optimal_outcome,
    solve,
)
from .metrics import (
    MetricsReport,
    analyze,
    classical_cost_ne,
    classical_opt,
    classical_pos_poa,
    split_cost,
)
from .sweeps import CSV_HEADER, SweepSeries, series_to_csv, series_to_json_obj, sweep_gamma, sweep_k

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CostBimatrix",
    "DomainError",
    "EquilibriumResult",
    "GAMMA_MAX",
    "GameSpec",
    "MetricsReport",
    "MixedProfile",
    "PureProfile",
    "STRATEGY_TAGS",
    "StrategyAngles",
    "SweepSeries",
    "analyze",
    "bimatrix",
    "classical_cost_ne",
    "classical_opt",
    "classical_pos_poa",
    "cost_assignment",
    "dominance_select",
    "entangler",
    "is_unitary",
    "optimal_outcome",
    "outcome_table",
    "pinned_bill",
    "resolve",
    "series_to_csv",
    "series_to_json_obj",
    "solve",
    "split_cost",
    "strategy_label",
    "sweep_gamma",
    "sweep_k",
    "unitary_from_angles",
]
