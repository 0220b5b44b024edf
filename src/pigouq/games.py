"""Cost model of the two-edge congestion network and its strategy-form matrices.

The network routes ``n`` travelers from a source to a sink over two
parallel edges: the upper edge costs 1 regardless of load, the lower
edge costs x/n when x travelers use it. Two free players (row = Alice,
column = Bob) choose edges. In the n-traveler variant the behaviour of
the other n-2 players is pinned: k of them (k < n-2) sit on the lower
edge and the rest on the upper one, which shifts the free players'
marginal costs -- a lone free player on the lower edge pays (k+1)/n,
both together pay (k+2)/n each.

The whole cost model lives here, in two functions:
:func:`cost_assignment` gives the free players' costs for each joint
path outcome (00, 01, 10, 11), and :func:`pinned_bill` gives the pinned
players' total. Every game, classical or entangled, is the same map:
:func:`bimatrix` weights the per-outcome costs by each strategy pair's
outcome distribution. Only the distributions differ. A classical pair
plays its paths for sure, so the classical game's grid is the constant
:data:`CLASSICAL_GRID` and no protocol runs. An entangled pair's
distribution depends only on the pair and gamma, so :func:`outcome_grid`
computes it once per strategy set and angle, as one batched protocol
evaluation with the bits of the pair-by-pair runs, and every (n, k) can
reuse it. Cell costs are exact ``fractions.Fraction`` values whenever
every outcome probability snaps to a dyadic value (which covers the
classical games and all named-strategy games at gamma in {0, pi/2});
otherwise cells degrade to floats, each float probability times the
float of its exact cost, which is what Fraction arithmetic computes for
that product.

A quirk worth knowing about the phase strategy Q: under maximal
entanglement, Q against P1 lands both players on the lower edge while
Q against P2 sends the Q player to the upper edge, so its row and
column are not mirror images of the P2 ones. That is what the protocol
produces; "a path choice with a phase" is an interpretation, not a
derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import DomainError
from .ewl import GAMMA_MAX, outcome_table, validate_gamma
from .strategies import resolve, strategy_label

__all__ = [
    "CLASSICAL_GRID",
    "CostBimatrix",
    "GameSpec",
    "bimatrix",
    "cost_assignment",
    "outcome_grid",
    "pinned_bill",
    "snap_probability",
    "value_to_json",
]

#: Probabilities the protocol produces exactly for named-strategy games.
PROB_SNAP_TARGETS = (
    Fraction(0),
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(1),
)

PROB_SNAP_TOL = 1e-10

# The targets are exact in binary, so ``abs(p - float(t))`` has the bits of
# the ``abs(p - t)`` that :func:`snap_probability` computes.
_SNAP_TARGET_VALUES = np.array([float(t) for t in PROB_SNAP_TARGETS])


def snap_probability(p: float):
    """Replace ``p`` by the exact rational it is within ``PROB_SNAP_TOL`` of, if any.

    Returns a :class:`Fraction` on a hit and the float unchanged otherwise.
    """
    for target in PROB_SNAP_TARGETS:
        if abs(p - target) <= PROB_SNAP_TOL:
            return target
    return p


@dataclass(frozen=True)
class GameSpec:
    """Which game to build: variant, population, entanglement, strategy set."""

    variant: Literal["two_person", "k_person"]
    mode: Literal["classical", "quantum"]
    n: int
    k: int | None = None
    gamma: float | None = None
    strategies: tuple = ("P1", "P2")

    def __post_init__(self):
        if self.variant not in ("two_person", "k_person"):
            raise DomainError(f"unknown variant {self.variant!r}")
        if self.mode not in ("classical", "quantum"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if self.variant == "two_person":
            if self.n != 2:
                raise DomainError("the two-person game fixes n = 2")
            if self.k is not None:
                raise DomainError("the two-person game takes no pinned-player count k")
        else:
            if self.k is None:
                raise DomainError("the k-person game requires k")
            if self.n < 3:
                raise DomainError("the k-person game requires n >= 3")
            if not (0 <= self.k < self.n - 2):
                raise DomainError(
                    f"pinned lower-edge count must satisfy 0 <= k < n-2, got k={self.k}, n={self.n}"
                )
        if not self.strategies:
            raise DomainError("strategy list must be nonempty")
        labels = [strategy_label(s) for s in self.strategies]
        if len(set(labels)) != len(labels):
            raise DomainError(f"duplicate strategies in {labels}")
        if self.mode == "classical":
            if self.gamma is not None:
                raise DomainError("classical games take no entanglement angle")
            if labels != ["P1", "P2"]:
                raise DomainError("classical games play exactly P1 and P2, in that order")
        else:
            if self.gamma is None:
                raise DomainError("quantum games require an entanglement angle")
            validate_gamma(self.gamma)

    @classmethod
    def classical_two_person(cls) -> "GameSpec":
        return cls(variant="two_person", mode="classical", n=2)

    @classmethod
    def classical_k_person(cls, n: int, k: int) -> "GameSpec":
        return cls(variant="k_person", mode="classical", n=n, k=k)

    @classmethod
    def quantum_two_person(cls, strategies=("P1", "P2", "Q"), gamma: float = GAMMA_MAX) -> "GameSpec":
        return cls(variant="two_person", mode="quantum", n=2, gamma=gamma, strategies=tuple(strategies))

    @classmethod
    def quantum_k_person(
        cls, n: int, k: int, strategies=("P1", "P2", "Q"), gamma: float = GAMMA_MAX
    ) -> "GameSpec":
        return cls(
            variant="k_person", mode="quantum", n=n, k=k, gamma=gamma, strategies=tuple(strategies)
        )

    def strategy_labels(self) -> tuple[str, ...]:
        return tuple(strategy_label(s) for s in self.strategies)

    def describe(self) -> str:
        bits = [self.mode, self.variant.replace("_", "-")]
        bits.append(f"n={self.n}")
        if self.k is not None:
            bits.append(f"k={self.k}")
        if self.gamma is not None:
            bits.append(f"gamma={self.gamma:.6g}")
        bits.append("strategies=" + ",".join(self.strategy_labels()))
        return " ".join(bits)


@dataclass(frozen=True)
class CostBimatrix:
    """Square grid of (row cost, column cost) pairs over a strategy list.

    Entries are Fractions where exact, floats otherwise; all positive and finite.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple  # cells[i][j] = (cost_row, cost_col)

    def __post_init__(self):
        if len(self.row_labels) != len(self.col_labels):
            raise DomainError("cost bimatrix must be square")
        if len(self.cells) != len(self.row_labels) or any(
            len(row) != len(self.col_labels) for row in self.cells
        ):
            raise DomainError("cell grid does not match strategy labels")
        for row in self.cells:
            for a, b in row:
                if not (0 < a < math.inf and 0 < b < math.inf):
                    raise DomainError(f"cost entries must be positive and finite, got ({a}, {b})")

    @property
    def size(self) -> int:
        return len(self.row_labels)

    def cell(self, i: int, j: int):
        return self.cells[i][j]

    def cost_a(self, i: int, j: int):
        return self.cells[i][j][0]

    def cost_b(self, i: int, j: int):
        return self.cells[i][j][1]

    @cached_property
    def scaled_costs(self) -> tuple:
        """Both players' cost grids as exact integers: ``(a, b, scale_a, scale_b)``.

        ``a[i][j] == scale_a * cost_a(i, j)`` exactly, where ``scale_a`` is
        the LCM of the denominators of Alice's cells; likewise for Bob.
        Floats count by their exact binary value. In the network's games
        exact cells have denominators dividing 4n and float cells are
        dyadic rationals, so a scale is a divisor of 4n times a power of
        two. A positive scale per player keeps every comparison between
        one player's costs what it was, and scales the common value of
        an indifference system in them without changing its probabilities.
        """
        a, scale_a = _scale_to_integers([[cost for cost, _ in row] for row in self.cells])
        b, scale_b = _scale_to_integers([[cost for _, cost in row] for row in self.cells])
        return a, b, scale_a, scale_b

    def to_json_obj(self) -> dict:
        return {
            "rows": list(self.row_labels),
            "cols": list(self.col_labels),
            "cells": [
                [{"a": value_to_json(a), "b": value_to_json(b)} for a, b in row]
                for row in self.cells
            ],
        }

    def to_text_table(self) -> str:
        """Aligned text rendering with exact entries."""
        body = [[f"({format_value(a)}, {format_value(b)})" for a, b in row] for row in self.cells]
        headers = [""] + list(self.col_labels)
        table = [headers] + [[label] + line for label, line in zip(self.row_labels, body)]
        widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table)


def _scale_to_integers(grid):
    cells = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in grid]
    scale = math.lcm(*(x.denominator for row in cells for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in cells], scale


def format_value(x) -> str:
    """Exact text for a Fraction, shortest round-trip for a float."""
    if isinstance(x, Fraction):
        return str(x)
    return repr(float(x))


def value_to_json(x):
    """JSON encoding: Fractions become {"num": ..., "den": ...}, floats stay floats."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if x is None:
        return None
    return float(x)


def cost_assignment(spec: GameSpec) -> tuple[tuple, tuple]:
    """Per-outcome costs (Alice's, Bob's) of the two free players, as 4-tuples.

    Outcome bits: Alice's path first, 0 for the upper edge and 1 for the
    lower one. With k pinned lower-edge users out of n, a lone free user
    there faces load k+1 and a shared lower edge load k+2; the two-person
    game is the k=0, n=2 instance (a lone lower-edge user pays 1/2,
    everything else costs 1).
    """
    k = spec.k or 0
    one, lone, shared = Fraction(1), Fraction(k + 1, spec.n), Fraction(k + 2, spec.n)
    return (one, one, lone, shared), (one, lone, one, shared)


def pinned_bill(spec: GameSpec, lower=0) -> Fraction:
    """The pinned players' total cost with ``lower`` free players on the lower edge.

    The k pinned lower-edge users pay k/n each and the n-k-2 upper-edge
    users 1 each. Classical games charge the realized load, so every free
    player on the lower edge adds 1/n to each of the k; ``lower`` may be
    an expected count. Quantum games bill the pinned players as if the
    entangled pair were absent. The two-person game has no pinned players.
    """
    k = spec.k or 0
    bill = Fraction(k * k, spec.n) + (spec.n - k - 2)
    if spec.mode == "classical":
        bill += Fraction(k, spec.n) * lower
    return bill


_ZERO, _ONE = Fraction(0), Fraction(1)

#: The classical game's outcome grid over (P1, P2): a pair of paths is
#: played for sure, so pair (i, j) lands on outcome 2i + j with probability 1.
CLASSICAL_GRID = (
    ((_ONE, _ZERO, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO, _ZERO)),
    ((_ZERO, _ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ZERO, _ONE)),
)


def outcome_grid(strategies, gamma: float) -> tuple:
    """Snapped outcome distributions for every (row, column) strategy pair.

    ``grid[i][j]`` holds the four joint-path probabilities (00, 01, 10, 11)
    when Alice plays ``strategies[i]`` and Bob ``strategies[j]``; each is
    snapped by :func:`snap_probability`, so it is a Fraction on a hit and
    a float otherwise. The protocol sees only the pair and ``gamma``, never
    ``n`` or ``k``, so one grid serves every game of a k-sweep.

    The whole grid is one :func:`~pigouq.ewl.outcome_table` evaluation,
    whose bits equal those of running the protocol pair by pair. The
    nearness test to the snap targets is vectorised with the same float
    arithmetic as :func:`snap_probability`, and each hit takes the target
    the test found: the targets are 1/4 apart and the tolerance is far
    smaller, so at most one target is near any probability.
    """
    matrices = [resolve(s) for s in strategies]
    table = outcome_table(matrices, matrices, gamma)
    near = np.abs(table[..., None] - _SNAP_TARGET_VALUES) <= PROB_SNAP_TOL
    grid = table.tolist()
    for i, j, o, t in zip(*np.nonzero(near)):
        grid[i][j][o] = PROB_SNAP_TARGETS[t]
    return tuple(tuple(map(tuple, row)) for row in grid)


def bimatrix(spec: GameSpec, outcomes: tuple | None = None) -> CostBimatrix:
    """The spec's expected-cost grid over its strategy set.

    Each cell weights the :func:`cost_assignment` of the spec by the
    pair's outcome distribution: :data:`CLASSICAL_GRID` for a classical
    spec, the :func:`outcome_grid` of its strategies at its ``gamma`` for
    a quantum one (pass ``outcomes`` to reuse one already built for
    them). Zero probabilities are skipped: they are always the snapped
    ``Fraction(0)``, and adding their zero products changes neither the
    value nor the type of a sum, so a classical cell costs one product.
    """
    if outcomes is None:
        outcomes = CLASSICAL_GRID if spec.mode == "classical" else outcome_grid(spec.strategies, spec.gamma)
    # A float probability times a Fraction cost is computed by Fraction as
    # float * float(cost); doing that product directly gives the same bits
    # without the Fraction dispatch, so each cost is converted once here.
    alice, bob = ([(c, float(c)) for c in side] for side in cost_assignment(spec))
    labels = spec.strategy_labels()
    rows = []
    for row_outcomes in outcomes:
        row = []
        for probs in row_outcomes:
            ca = sum(p * cf if isinstance(p, float) else p * c for p, (c, cf) in zip(probs, alice) if p)
            cb = sum(p * cf if isinstance(p, float) else p * c for p, (c, cf) in zip(probs, bob) if p)
            row.append((ca, cb))
        rows.append(tuple(row))
    return CostBimatrix(labels, labels, tuple(rows))
