"""The benchmark's own model of the Pigou games, used only to check pigouq's outputs.

Nothing here calls pigouq. The protocol is the plain product
J(gamma)^dag (U_A x U_B) J(gamma) |00> with
J(gamma) = cos(gamma/2) I - i sin(gamma/2) (P2 x P2); a player's cost
for each joint outcome comes from the two-edge network (upper edge 1,
lower edge load/n, k pinned travelers below). The checks are
properties of a correct answer -- best responses, closed forms, sums --
not recorded outputs, so they keep holding when the solver or the
protocol is reimplemented.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

TOL = 1e-9

P2 = np.array([[0, 1], [-1, 0]], dtype=complex)
MOVES = {
    "P1": np.eye(2, dtype=complex),
    "P2": P2,
    "Q": np.array([[1j, 0], [0, -1j]]),
    "M": np.array([[1j, 1], [-1, -1j]]) / math.sqrt(2),
    "S1": np.array([[-1j, 0], [0, 1j]]),
    "S2": np.array([[0, -1j], [-1j, 0]]),
}
_P2P2 = np.kron(P2, P2)


def move(theta: float, phi: float) -> np.ndarray:
    """The two-angle move U(theta, phi)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    e = cmath.exp(1j * phi)
    return np.array([[e * c, s], [-s, e.conjugate() * c]])


def outcome_probs(ua, ub, gamma: float) -> np.ndarray:
    """Probabilities of the outcomes 00, 01, 10, 11 (row player's bit first)."""
    j = math.cos(gamma / 2) * np.eye(4) - 1j * math.sin(gamma / 2) * _P2P2
    psi = j.conj().T @ (np.kron(ua, ub) @ j[:, 0])
    return np.abs(psi) ** 2


def outcome_costs(n: int, k: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Row and column player's cost per outcome with k pinned lower-edge travelers."""
    one, lone, shared = Fraction(1), Fraction(k + 1, n), Fraction(k + 2, n)
    return (one, one, lone, shared), (one, lone, one, shared)


def pinned_total(n: int, k: int) -> Fraction:
    """Cost of the n-2 pinned travelers under the quantum k-person convention."""
    return Fraction(k * k, n) + (n - k - 2)


def classical_total(n: int, k: int, lower: int) -> Fraction:
    """Realized total when ``lower`` of the two free players take the lower edge."""
    on_lower = k + lower
    return Fraction(on_lower * on_lower, n) + (n - on_lower)


def float_game(moves, gamma: float, n: int = 2, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Expected-cost matrices (A for rows, B for columns) in floating point."""
    ca, cb = (np.array([float(c) for c in side]) for side in outcome_costs(n, k))
    size = len(moves)
    a, b = np.empty((size, size)), np.empty((size, size))
    for i, ua in enumerate(moves):
        for j, ub in enumerate(moves):
            p = outcome_probs(ua, ub, gamma)
            a[i, j], b[i, j] = p @ ca, p @ cb
    return a, b


def exact_game(names, gamma: float, n: int = 2, k: int = 0):
    """Exact matrices for named moves at gamma in {0, pi/2}, where every
    outcome probability is a multiple of 1/4."""
    ca, cb = outcome_costs(n, k)
    a, b = [], []
    for x in names:
        row_a, row_b = [], []
        for y in names:
            quarters = outcome_probs(MOVES[x], MOVES[y], gamma) * 4
            rounded = np.rint(quarters)
            if np.max(np.abs(quarters - rounded)) > TOL:
                raise ValueError(f"({x},{y}) at gamma={gamma} is not quarter-valued")
            p = [Fraction(int(q), 4) for q in rounded]
            row_a.append(sum(pi * c for pi, c in zip(p, ca)))
            row_b.append(sum(pi * c for pi, c in zip(p, cb)))
        a.append(row_a)
        b.append(row_b)
    return a, b


def p1p2m_grid(n: int, k: int):
    """Closed form of the {P1, P2, M} game at gamma = pi/2 as (A, B).

    Against M, a P1 or P2 player ends on the upper edge or shares the
    lower edge with even odds, and M lands on the lower edge alone or
    shared with the same odds; M against M is uniform over the four
    outcomes.
    """
    one, lone, shared = Fraction(1), Fraction(k + 1, n), Fraction(k + 2, n)
    hi, lo, both = (one + shared) / 2, (lone + shared) / 2, (2 * one + lone + shared) / 4
    a = [[one, one, hi], [lone, shared, hi], [lo, lo, both]]
    b = [[a[j][i] for j in range(3)] for i in range(3)]
    return a, b


def br_gain(a, b, p, q) -> float:
    """Largest cost either player saves by a unilateral deviation from (p, q)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if p.min() < -TOL or q.min() < -TOL or abs(p.sum() - 1) > TOL or abs(q.sum() - 1) > TOL:
        return math.inf
    row, col = a @ q, b.T @ p
    return max(float(p @ row - row.min()), float(q @ col - col.min()))


def expected(m, p, q):
    """p^T m q, exact when every argument is."""
    return sum(p[i] * q[j] * m[i][j] for i in range(len(p)) for j in range(len(q)) if p[i] and q[j])


def unit(size: int, i: int) -> list[Fraction]:
    return [Fraction(int(x == i)) for x in range(size)]


def parse_label(label: str, names) -> tuple[list, list]:
    """Profile from a sweep label: ``pure:(M,M)`` or ``mixed:(4/17,4/17,9/17)``.

    A mixed label lists the row player's probabilities; in these
    exchange-symmetric games a unique mixed equilibrium is symmetric,
    so the column player plays the same mix.
    """
    kind, _, body = label.partition(":")
    items = body.strip("()").split(",")
    if kind == "pure":
        row, col = items
        return unit(len(names), names.index(row)), unit(len(names), names.index(col))
    if kind == "mixed":
        probs = [Fraction(x) for x in items]
        return probs, probs
    raise ValueError(f"unknown equilibrium label {label!r}")


def close(x, y) -> bool:
    return abs(float(x) - float(y)) <= TOL * max(1.0, abs(float(y)))


def decode(value):
    """A JSON number as pigouq writes it: {"num", "den"} or a float."""
    if isinstance(value, dict):
        return Fraction(value["num"], value["den"])
    return value
