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
:func:`bimatrix` weights Alice's per-outcome costs by each strategy
pair's outcome distribution, and Bob's grid is hers transposed, since
every game is symmetric. Only the distributions differ. A classical pair
plays its paths for sure, so the classical game's grid is the constant
:data:`CLASSICAL_GRID` and no protocol runs. An entangled pair's
distribution depends only on the pair and gamma, so :func:`outcome_grid`
builds it once per strategy set and angle, and every (n, k) can reuse it.

For the named moves the distribution is affine in t = sin^2(gamma), the
closed-form view of Eisert, Wilkens & Lewenstein (PRL 83, 3077, 1999):
every probability is ``p0 + t * (p1 - p0)``, where p0 and p1 are the
pair's distributions at gamma = 0 and gamma = pi/2, each a multiple of
1/4. So the protocol runs twice per process, on first use, over the 36
pairs of the catalog (one run per endpoint); each probability is
rounded to its quarter, and a :class:`~pigouq.errors.DomainError` is
raised if one lies more than 1e-12 off it. A named set's grid is then
read off these two endpoint tables. The exactness rule: when the float
t is exactly 0.0 or 1.0 (gamma = 0 or below about 1e-162, where t
underflows, and every gamma within about 1e-8 of pi/2) the grid is the
exact endpoint grid of ``fractions.Fraction`` values; otherwise every
probability is the float ``p0 + t * (p1 - p0)``.
A set with a custom :class:`~pigouq.strategies.StrategyAngles` runs the
batched protocol at each angle and keeps its floats as they come.

A grid is therefore all-``Fraction`` or all-float, and so is every game
built on it: the classical games and the named sets at t in {0, 1} are
exact, and every other game has float cells, each float probability
times the float of its exact cost, which is what Fraction arithmetic
computes for that product. An exact game is built without ``Fraction``
arithmetic: every per-outcome cost is an integer load over n and every
probability a count of quarters, so 4n times a cell is an integer (n
times the LCM of the probability denominators, for any exact grid), and
Alice's integer grid is computed directly. That grid, over one scale, is
the :class:`CostBimatrix`'s data and every solver's input
(:attr:`CostBimatrix.scaled_costs`); Bob's grid is its transpose, and
the ``Fraction`` costs are a view built from it when printed or summed.
A float game is built, judged and priced in the floats it holds: the
builder forms its cells through a private constructor that checks only
the least cost, and the pure scan, dominance and the cheapest-cell totals
read those floats. Its integer grid is built only when the square pass
of support enumeration, or ``pigouq verify``'s best-response check,
first reads it.

:func:`bimatrix` is the one public way from a spec to its game. It
calls one private builder, which :func:`~pigouq.sweeps.sweep_gamma`
also calls for every angle of a sweep. The builder builds one *family*,
games that share a spec's mode, n and strategy set: it looks the set up
once, then at each angle asked for forms the outcome probabilities,
decides exact against float, and builds the game at the spec's k.
:func:`~pigouq.metrics.solve_over_k` reads a population's family, every
k at one angle, through the same steps (:func:`_k_family`): an exact one
as its integer grid, affine in k, from which a game is built only where
one is read, and a float one as its games.

A quirk worth knowing about the phase strategy Q: under maximal
entanglement, Q against P1 lands both players on the lower edge while
Q against P2 sends the Q player to the upper edge, so its row and
column are not mirror images of the P2 ones. That is what the protocol
produces; "a path choice with a phase" is an interpretation, not a
derivation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Literal

import numpy as np

from .errors import DomainError
from .ewl import GAMMA_MAX, outcome_table, validate_gamma
from .strategies import STRATEGY_TAGS, resolve, strategy_label

__all__ = [
    "CLASSICAL_GRID",
    "CostBimatrix",
    "GameSpec",
    "bimatrix",
    "cost_assignment",
    "outcome_grid",
    "pinned_bill",
    "value_to_json",
]


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a float or any other non-integer raises :class:`DomainError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _check_k_person(n, k) -> tuple[int, int]:
    """The n-traveler game's rule: integers n and k with n >= 3 and 0 <= k < n-2; returns them as ints."""
    n, k = _integer("n", n), _integer("k", k)
    if n < 3:
        raise DomainError("the k-person game requires n >= 3")
    if not (0 <= k < n - 2):
        raise DomainError(f"pinned lower-edge count must satisfy 0 <= k < n-2, got k={k}, n={n}")
    return n, k


@dataclass(frozen=True)
class GameSpec:
    """Which game to build: mode, population, pinned count, entanglement, strategy set.

    A spec without ``k`` is the two-person game, which fixes n = 2; a spec
    with ``k`` is the n-traveler game. Equal games give equal specs: ``n``
    and ``k`` are kept as ints, ``strategies`` as a tuple, and ``gamma`` as
    the float :func:`~pigouq.ewl.validate_gamma` returns.

    Every strategy must print its own label, since outputs name strategies
    by label: a repeated strategy is refused, and so are distinct custom
    :class:`~pigouq.strategies.StrategyAngles` whose angles agree to the 6
    significant digits a label shows, such as ``StrategyAngles(0.1, 0.2)``
    and ``StrategyAngles(0.1000001, 0.2)``.
    """

    mode: Literal["classical", "quantum"]
    n: int
    k: int | None = None
    gamma: float | None = None
    strategies: tuple = ("P1", "P2")

    def __post_init__(self):
        if self.k is None:
            n, k = _integer("n", self.n), None
            if n != 2:
                raise DomainError(f"a game without k is the two-person game, which fixes n = 2; got n={self.n}")
        else:
            n, k = _check_k_person(self.n, self.k)
        self.__dict__.update(n=n, k=k, strategies=tuple(self.strategies))
        if self.mode not in ("classical", "quantum"):
            raise DomainError(f"unknown mode {self.mode!r}")
        if not self.strategies:
            raise DomainError("strategy list must be nonempty")
        labels = [strategy_label(s) for s in self.strategies]
        if len(set(labels)) != len(labels):
            if len(set(self.strategies)) != len(self.strategies):
                raise DomainError(f"duplicate strategies in {labels}")
            raise DomainError(
                f"distinct strategies print alike in {labels}: a label shows each angle to 6 significant digits"
            )
        if self.mode == "classical":
            if self.gamma is not None:
                raise DomainError("classical games take no entanglement angle")
            if labels != ["P1", "P2"]:
                raise DomainError("classical games play exactly P1 and P2, in that order")
        else:
            if self.gamma is None:
                raise DomainError("quantum games require an entanglement angle")
            object.__setattr__(self, "gamma", validate_gamma(self.gamma))

    def _at(self, k: int) -> "GameSpec":
        """This validated k-person spec with pinned count ``k``, for the per-k specs of an over-k pass.

        Skips ``__post_init__``: every other field is this spec's, checked
        when it was built, and the caller checks that 0 <= k < n-2.
        """
        spec = object.__new__(GameSpec)
        spec.__dict__.update(self.__dict__, k=k)
        return spec

    @property
    def variant(self) -> Literal["two_person", "k_person"]:
        """``"two_person"`` for a spec without ``k``, ``"k_person"`` for one with it."""
        return "two_person" if self.k is None else "k_person"

    @classmethod
    def classical_two_person(cls) -> "GameSpec":
        return cls(mode="classical", n=2)

    @classmethod
    def classical_k_person(cls, n: int, k: int) -> "GameSpec":
        return cls(mode="classical", n=n, k=k)

    @classmethod
    def quantum_two_person(cls, strategies=("P1", "P2", "Q"), gamma: float = GAMMA_MAX) -> "GameSpec":
        return cls(mode="quantum", n=2, gamma=gamma, strategies=strategies)

    @classmethod
    def quantum_k_person(
        cls, n: int, k: int, strategies=("P1", "P2", "Q"), gamma: float = GAMMA_MAX
    ) -> "GameSpec":
        return cls(mode="quantum", n=n, k=k, gamma=gamma, strategies=strategies)

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


class CostBimatrix:
    """A symmetric game over one strategy list: Alice's cost grid, and Bob's is its transpose.

    ``cost_b(i, j) == cost_a(j, i)``. Entries are Fractions where exact,
    floats otherwise; all positive and finite, and none a bool.
    ``CostBimatrix(labels, costs)`` stores the labels as a tuple, at
    least one, and Alice's grid, checking every cost; a float game from
    :func:`bimatrix` is stored the same way, its cells unchecked but for
    the least. An exact game from :func:`bimatrix` is stored the other
    way round: Alice's integer grid is the data, and ``costs`` the
    ``Fraction`` view built on first read, by :meth:`cell`,
    :meth:`cost_a` and :meth:`cost_b` too. The matrix is immutable, and
    equality and hashing compare labels and costs, so they do not depend
    on how it was built.

    The grid a matrix *holds*, ``_grid``, is fixed by how it was built,
    never by which views were read: ``(a, scale)`` for an exact game from
    :func:`bimatrix`, ``(costs, None)`` for any other matrix. The pure
    scan, dominance and the cheapest-cell totals read it; only the square
    pass needs integers and reads :attr:`scaled_costs`.
    """

    def __init__(self, labels, costs):
        labels = tuple(labels)
        costs = tuple(tuple(_python_cost(x) if isinstance(x, np.generic) else x for x in row) for row in costs)
        if not labels:
            raise DomainError("strategy list must be nonempty")
        if len(costs) != len(labels) or any(len(row) != len(labels) for row in costs):
            raise DomainError("cell grid does not match strategy labels")
        for x in (x for row in costs for x in row):
            if isinstance(x, bool):
                raise DomainError(f"cost entries must be numbers, got {x!r}")
            try:
                ok = 0 < x < math.inf
            except TypeError:  # a str or complex cost has no order
                ok = False
            if not ok:
                raise DomainError(f"cost entries must be positive and finite, got {x}")
        self.__dict__.update(labels=labels, costs=costs, _grid=(costs, None))

    @classmethod
    def _exact(cls, labels: tuple, a: list, scale: int) -> "CostBimatrix":
        """An exact matrix stored as Alice's square integer grid: ``cost_a(i, j) == a[i][j] / scale``."""
        _check_exact_grid(a, scale)
        matrix = cls.__new__(cls)
        matrix.__dict__.update(labels=labels, scaled_costs=(a, scale), _grid=(a, scale))
        return matrix

    @classmethod
    def _float(cls, labels: tuple, costs: tuple) -> "CostBimatrix":
        """A float matrix whose cells the caller formed: ``costs`` is a square tuple of tuples of floats.

        Checks only that the least cost is positive, as :meth:`_exact`
        does; the builder's cells are finite floats by construction.
        """
        if (low := min(map(min, costs))) <= 0:
            raise DomainError(f"cost entries must be positive and finite, got {low}")
        matrix = cls.__new__(cls)
        matrix.__dict__.update(labels=labels, costs=costs, _grid=(costs, None))
        return matrix

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return self.labels, self.costs

    def __eq__(self, other):
        if not isinstance(other, CostBimatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"CostBimatrix(labels={self.labels!r}, costs={self.costs!r})"

    @property
    def size(self) -> int:
        return len(self.labels)

    @cached_property
    def costs(self) -> tuple:
        """Alice's grid: ``costs[i][j]`` is her cost when she plays ``labels[i]`` and Bob ``labels[j]``."""
        a, scale = self.scaled_costs
        return tuple(tuple(Fraction(x, scale) for x in row) for row in a)

    @cached_property
    def cells(self) -> tuple:
        """``cells[i][j] = (cost_row, cost_col)``: Alice's grid paired with its transpose."""
        costs = self.costs
        return tuple(tuple(zip(row, col)) for row, col in zip(costs, zip(*costs)))

    def cell(self, i: int, j: int):
        return self.cost_a(i, j), self.cost_a(j, i)

    def cost_a(self, i: int, j: int):
        return self.costs[i][j]

    def cost_b(self, i: int, j: int):
        return self.cost_a(j, i)

    @cached_property
    def scaled_costs(self) -> tuple:
        """Alice's cost grid as exact integers over one scale: ``(a, scale)``.

        ``a[i][j] == scale * cost_a(i, j)`` exactly; Bob's grid is ``a``
        transposed. An exact game from :func:`bimatrix` is built this way:
        ``scale`` is n times the LCM of its outcome grid's probability
        denominators, which divides 4n for the classical and named-set
        grids. Any other matrix derives it from its costs on first read,
        which only the square pass and ``pigouq verify``'s best-response
        check make: ``scale`` is the LCM of the denominators of the costs,
        floats counting by their exact binary value, so a float game's
        scale is a power of two times a divisor of 4n. A positive scale
        keeps every comparison between costs what it was, and scales the
        common value of an indifference system in them without changing
        its probabilities.
        """
        ratios = [[x.as_integer_ratio() for x in row] for row in self.costs]
        scale = math.lcm(*(den for row in ratios for _, den in row))
        return [[num * (scale // den) for num, den in row] for row in ratios], scale

    def to_json_obj(self) -> dict:
        return {
            "rows": list(self.labels),
            "cols": list(self.labels),
            "cells": [
                [{"a": value_to_json(a), "b": value_to_json(b)} for a, b in row]
                for row in self.cells
            ],
        }

    def to_text_table(self) -> str:
        """Aligned text rendering with exact entries."""
        body = [[f"({format_value(a)}, {format_value(b)})" for a, b in row] for row in self.cells]
        headers = [""] + list(self.labels)
        table = [headers] + [[label] + line for label, line in zip(self.labels, body)]
        widths = [max(len(r[c]) for r in table) for c in range(len(headers))]
        return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in table)


def _check_exact_grid(a: list, scale: int) -> None:
    """Raise :class:`DomainError` unless every cost of the integer grid ``a`` over ``scale`` is positive."""
    if (low := min(map(min, a))) <= 0:
        raise DomainError(f"cost entries must be positive and finite, got {Fraction(low, scale)}")


def _python_cost(x: np.generic):
    """A numpy number as the Python number it equals, so it behaves as a Python cost does.

    A numpy integer becomes an int and a numpy float a float; a numpy bool
    is no cost, nor is a float that no Python float equals. Any other
    numpy scalar is returned as it is.
    """
    if isinstance(x, np.bool_):
        raise DomainError(f"cost entries must be numbers, got {x!r}")
    if isinstance(x, np.integer):
        return operator.index(x)
    if isinstance(x, np.floating):
        value = float(x)
        if value != x and not np.isnan(x):  # a long double finer than a float
            raise DomainError(f"cost entries must be exact as Python floats, got {x!r}")
        return value
    return x


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
    alice = tuple(Fraction(c, spec.n) for c in _outcome_loads(spec.n, spec.k or 0))
    return alice, tuple(alice[o] for o in (0, 2, 1, 3))  # Bob's path is the second bit: 01 and 10 swap


def _outcome_loads(n: int, k: int) -> tuple:
    """Alice's :func:`cost_assignment` times n, in integers; affine in k."""
    return n, n, k + 1, k + 2


def pinned_bill(spec: GameSpec, lower=0) -> Fraction:
    """The pinned players' total cost with ``lower`` free players on the lower edge.

    The k pinned lower-edge users pay k/n each and the n-k-2 upper-edge
    users 1 each. Classical games charge the realized load, so every free
    player on the lower edge adds 1/n to each of the k; ``lower`` may be
    an expected count. Quantum games bill the pinned players as if the
    entangled pair were absent. The two-person game has no pinned players.
    """
    return Fraction(_pinned_bill_times_n(spec, lower), spec.n)


def _pinned_bill_times_n(spec: GameSpec, lower=0):
    """n times :func:`pinned_bill`, an integer when ``lower`` is one."""
    n, k = spec.n, spec.k or 0
    bill = k * k + n * (n - k - 2)
    if spec.mode == "classical":
        bill += k * lower
    return bill


_ZERO, _ONE = Fraction(0), Fraction(1)

#: The classical game's outcome grid over (P1, P2): a pair of paths is
#: played for sure, so pair (i, j) lands on outcome 2i + j with probability 1.
CLASSICAL_GRID = (
    ((_ONE, _ZERO, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO, _ZERO)),
    ((_ZERO, _ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ZERO, _ONE)),
)


#: Largest distance an endpoint probability may lie from its multiple of 1/4.
_ENDPOINT_TOL = 1e-12


@cache
def _endpoint_tables() -> tuple:
    """The catalog's outcome grids at t = 0 and t = 1: ``(exact_0, exact_1, affine)``.

    Each is indexed ``[i][j]`` by positions in :data:`STRATEGY_TAGS`.
    ``exact_0[i][j]`` and ``exact_1[i][j]`` are the pair's four
    probabilities at gamma = 0 and gamma = pi/2 as ``Fraction`` quarters;
    ``affine[i][j]`` is ``(p0, p1 - p0)``, two float 4-tuples, both exact
    since quarters are dyadic. Built by two protocol runs of 36 pairs on
    the first call, not at import.
    """
    matrices = [resolve(tag) for tag in STRATEGY_TAGS]
    exact = []
    for gamma in (0.0, GAMMA_MAX):
        table = outcome_table(matrices, matrices, gamma)
        quarters = np.rint(table * 4)
        off = np.abs(table - quarters / 4)
        if off.max() > _ENDPOINT_TOL:
            i, j, o = np.unravel_index(off.argmax(), off.shape)
            raise DomainError(
                f"the protocol at gamma = {gamma!r} gives {STRATEGY_TAGS[i]} vs {STRATEGY_TAGS[j]} "
                f"outcome {o} probability {float(table[i, j, o])!r}, off every multiple of 1/4"
            )
        exact.append(
            tuple(tuple(tuple(Fraction(int(q), 4) for q in cell) for cell in row) for row in quarters.tolist())
        )
    p0, p1 = exact
    affine = tuple(
        tuple((tuple(map(float, c0)), tuple(float(b - a) for a, b in zip(c0, c1))) for c0, c1 in zip(r0, r1))
        for r0, r1 in zip(p0, p1)
    )
    return p0, p1, affine


def outcome_grid(strategies, gamma: float) -> tuple:
    """Outcome distributions for every (row, column) strategy pair.

    ``grid[i][j]`` holds the four joint-path probabilities (00, 01, 10, 11)
    when Alice plays ``strategies[i]`` and Bob ``strategies[j]``. The
    protocol sees only the pair and ``gamma``, never ``n`` or ``k``, so
    one grid serves every game of a k-sweep.

    A set of catalog tags runs no protocol: with ``t = math.sin(gamma) **
    2``, each probability is ``p0 + t * (p1 - p0)`` over the exact
    endpoint tables at gamma = 0 and pi/2 (see the module docstring).
    When t is exactly 0.0 or 1.0 the grid is the endpoint grid of
    ``Fraction`` quarters, so every exact game is exact; otherwise every
    probability is that float. A set with a custom
    :class:`~pigouq.strategies.StrategyAngles` is one
    :func:`~pigouq.ewl.outcome_table` evaluation at ``gamma``, its floats
    unchanged.
    """
    outcomes = _outcome_family(strategies)(validate_gamma(gamma))
    if not isinstance(outcomes, list):
        return outcomes
    cells = list(zip(*[iter(outcomes)] * 4))
    size = len(strategies)
    return tuple(tuple(cells[r : r + size]) for r in range(0, size * size, size))


def _outcome_family(strategies):
    """The :func:`outcome_grid` of ``strategies`` as a function of a validated angle.

    Every lookup that depends on the set alone is made once: the
    strategy matrices, and for a catalog set its catalog indices and, at
    its first float angle, its affine pairs ``(p0, p1 - p0)``. The
    function returns the exact endpoint grid, nested as in
    :func:`outcome_grid`, when t is exactly 0.0 or 1.0, and otherwise a
    flat list of float probabilities: pair by pair in row-major order,
    outcomes 00, 01, 10, 11 within a pair. A catalog set's list is
    ``p0 + t * (p1 - p0)``; a custom set's is one protocol run at the angle.
    """
    matrices = [resolve(s) for s in strategies]  # rejects unknown tags too
    if not all(isinstance(s, str) for s in strategies):
        return lambda gamma: outcome_table(matrices, matrices, gamma).ravel().tolist()
    exact_0, exact_1, affine = _endpoint_tables()
    index = [STRATEGY_TAGS.index(s) for s in strategies]
    slopes = []  # flat (p0, p1 - p0) pairs, filled at the first float angle: exact games never read them

    def at(gamma: float):
        t = math.sin(gamma) ** 2
        if t == 0.0 or t == 1.0:
            table = exact_0 if t == 0.0 else exact_1
            return tuple(tuple(table[i][j] for j in index) for i in index)
        if not slopes:
            slopes.extend(pair for i in index for j in index for pair in zip(*affine[i][j]))
        return [p + t * d for p, d in slopes]

    return at


def bimatrix(spec: GameSpec) -> CostBimatrix:
    """The spec's expected-cost grid over its strategy set.

    Each of Alice's cells weights her :func:`cost_assignment` by the
    pair's outcome distribution: :data:`CLASSICAL_GRID` for a classical
    spec, the :func:`outcome_grid` of its strategies at its ``gamma`` for
    a quantum one. The :class:`CostBimatrix` holds Alice's grid alone and
    reads Bob's cost at (i, j) as hers at (j, i), which holds because
    :data:`CLASSICAL_GRID` and every :func:`outcome_grid` are mirrored:
    ``grid[j][i]`` is ``grid[i][j]`` with outcomes 01 and 10 exchanged
    (``pigouq verify`` checks the reference grids). An exact
    grid gives an exact game stored as integers, a float grid a game of
    float costs.

    An exact grid is built in integers and no ``Fraction`` is formed:
    Alice's grid at k is ``a0 + k * a1`` over one scale, from
    :func:`_exact_grid` (see :attr:`CostBimatrix.scaled_costs`), and the
    over-k pass of :func:`~pigouq.metrics.solve_over_k` reads that one
    grid for every k of a population (:func:`_k_family`).

    A float grid sums float probability times float cost. Fraction
    arithmetic computes a float times a Fraction as float * float(cost),
    so these are the bits an exact-cost sum would give. Each cell sums its
    four products with :func:`sum`, in outcome order, zero products too:
    adding a zero changes neither the value nor the type of a sum that
    has a positive term.
    """
    return _bimatrices(spec, (spec.gamma,))[0]


def _bimatrices(spec: GameSpec, gammas) -> list:
    """The spec's game at its pinned count (0 for the two-person game) and every angle in ``gammas``, in order.

    These games form one family: they share the spec's mode, n, k and
    strategy set, and only their angle differs. Its labels and its
    :func:`_outcome_family` are resolved once. An exact outcome grid
    gives one integer build, :func:`_exact_grid`; a float one gives each
    cell as its probabilities times Alice's costs, summed in outcome
    order, and the game through :meth:`CostBimatrix._float`, which forms
    no integer grid (see :func:`bimatrix`). The ``gammas`` of a classical
    spec are ``(None,)``.
    """
    labels, k = spec.strategy_labels(), spec.k or 0
    outcomes_at = _outcomes_at(spec)
    matrices = []
    for gamma in gammas:
        outcomes = outcomes_at(gamma)
        if isinstance(outcomes, list):
            matrices += _float_games(labels, spec.n, outcomes, (k,))
            continue
        a0, a1, scale = _exact_grid(spec.n, outcomes)
        matrices.append(CostBimatrix._exact(labels, _grid_at(a0, a1, k), scale))
    return matrices


def _k_family(spec: GameSpec):
    """The n-traveler games of ``spec``'s population at k = 0..n-3, at ``spec.gamma``, built as :func:`_bimatrices` builds one.

    An exact population, the classical one or a named set at t in {0, 1},
    returns its integer grid ``(a0, a1, scale)`` of :func:`_exact_grid`
    and builds no game: Alice's grid at k is :func:`_grid_at`. Its grids
    at k = 0 and k = n-3 are checked as :meth:`CostBimatrix._exact` checks
    a game's; each cell is affine in k, so that checks every k. A float
    population returns the list of its games in k order, each built as
    :func:`bimatrix` builds it.
    """
    outcomes = _outcomes_at(spec)(spec.gamma)
    if isinstance(outcomes, list):
        return _float_games(spec.strategy_labels(), spec.n, outcomes, range(spec.n - 2))
    a0, a1, scale = _exact_grid(spec.n, outcomes)
    for grid in (a0, _grid_at(a0, a1, spec.n - 3)):
        _check_exact_grid(grid, scale)
    return a0, a1, scale


def _outcomes_at(spec: GameSpec):
    """The outcome grid of ``spec``'s strategy set as a function of the angle, as :func:`_outcome_family` returns it."""
    return (lambda gamma: CLASSICAL_GRID) if spec.mode == "classical" else _outcome_family(spec.strategies)


def _float_games(labels: tuple, n: int, outcomes: list, ks) -> list:
    """The float game at each pinned count in ``ks`` over the flat float ``outcomes`` of one angle."""
    size = len(labels)
    rows = range(0, size * size, size)
    matrices = []
    for k in ks:
        # int / int is the correctly rounded float of the cost's Fraction
        c00, c01, c10, c11 = (c / n for c in _outcome_loads(n, k))
        probs = iter(outcomes)
        cells = tuple(
            sum((p00 * c00, p01 * c01, p10 * c10, p11 * c11)) for p00, p01, p10, p11 in zip(probs, probs, probs, probs)
        )
        matrices.append(CostBimatrix._float(labels, tuple(cells[r : r + size] for r in rows)))
    return matrices


def _grid_at(a0, a1, k: int) -> list:
    """Alice's integer grid ``a0 + k * a1`` at pinned count k, cell by cell (see :func:`_exact_grid`)."""
    return [[x + k * y for x, y in zip(r0, r1)] for r0, r1 in zip(a0, a1)]


def _exact_grid(n: int, outcomes) -> tuple:
    """Alice's integer grid over an exact outcome grid, affine in k: ``(a0, a1, scale)``.

    With L the LCM of the grid's probability denominators, each
    probability is ``q / L`` for an integer count q. Alice's per-outcome
    loads (:func:`_outcome_loads`) are affine in k, so at pinned count k
    her grid times ``scale = n * L`` is ``a0 + k * a1`` cell by cell:
    ``a0`` sums q times her loads at k = 0, and ``a1`` sums q times their
    step from k to k + 1. The scale does not depend on k, so one call
    serves every k of a population.
    """
    ratios = [p.as_integer_ratio() for row in outcomes for cell in row for p in cell]
    lcm = math.lcm(*{den for _, den in ratios})
    counts = iter([num * (lcm // den) for num, den in ratios])
    by_cell = list(zip(counts, counts, counts, counts))  # (q00, q01, q10, q11) of each cell, row-major
    base = _outcome_loads(n, 0)
    c00, c01, c10, c11 = base
    s00, s01, s10, s11 = (y - x for x, y in zip(base, _outcome_loads(n, 1)))
    a0 = [q00 * c00 + q01 * c01 + q10 * c10 + q11 * c11 for q00, q01, q10, q11 in by_cell]
    a1 = [q00 * s00 + q01 * s01 + q10 * s10 + q11 * s11 for q00, q01, q10, q11 in by_cell]
    size = len(outcomes)
    rows = range(0, size * size, size)
    return [a0[r : r + size] for r in rows], [a1[r : r + size] for r in rows], n * lcm
