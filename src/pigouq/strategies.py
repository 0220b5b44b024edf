"""Catalog of single-qubit moves for the two-path congestion game.

A move is a 2x2 complex unitary drawn from the two-angle family

    U(theta, phi) = [[exp(i*phi)*cos(theta/2),  sin(theta/2)],
                     [-sin(theta/2),            exp(-i*phi)*cos(theta/2)]]

with theta in [0, pi] and phi in [0, pi/2]. The named moves are

    P1 = U(0, 0)        take the constant-cost path
    P2 = U(pi, 0)       take the load-dependent path (a bit flip, i*sigma_y)
    Q  = U(0, pi/2)     a path choice decorated with a relative phase (i*sigma_z)
    M  = U(pi/2, pi/2)  the "miracle move", an even superposition of both paths

S1 and S2 are a diagonal/antidiagonal phase pair kept so comparison runs
against that strategy choice are possible; they sit outside the U(theta,
phi) family's angle box and are excluded from the default strategy sets.

Strategies are referred to either by their canonical tag ("P1", "P2",
"Q", "M", "S1", "S2") or by a :class:`StrategyAngles` value for custom
points of the family. The same tags are the wire format used in CLI
flags and JSON output.

:func:`is_unitary` is the unitarity guard for single matrices and for
stacks of them: the catalog checks its literals with it at import, and
the protocol checks every strategy stack with it before a run.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "STRATEGY_TAGS",
    "StrategyAngles",
    "is_unitary",
    "resolve",
    "strategy_label",
    "unitary_from_angles",
]

THETA_MAX = math.pi
PHI_MAX = math.pi / 2


@dataclass(frozen=True)
class StrategyAngles:
    """A point (theta, phi) of the parametrized strategy family, in radians."""

    theta: float
    phi: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= THETA_MAX):
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi <= PHI_MAX):
            raise DomainError(f"phi must lie in [0, pi/2], got {self.phi}")


def is_unitary(m, tol: float) -> bool:
    """Whether ``m`` times its conjugate transpose deviates from the
    identity by at most ``tol`` entry-wise.

    ``m`` may also be a stack of square matrices, shape ``(..., d, d)``;
    the stack passes when every matrix in it does.

    Raises
    ------
    DomainError
        If ``m`` is not square or has a non-finite entry.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    delta = m @ np.swapaxes(m.conj(), -1, -2) - np.eye(m.shape[-1])
    return bool(np.abs(delta).max() <= tol)


def unitary_from_angles(theta: float, phi: float) -> np.ndarray:
    """Evaluate the strategy family at ``(theta, phi)``.

    Raises
    ------
    DomainError
        If the angles fall outside the family's box.
    """
    StrategyAngles(theta, phi)  # range validation
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    phase = cmath.exp(1j * phi)
    return np.array([[phase * c, s], [-s, phase.conjugate() * c]])


def _named_matrices() -> dict[str, np.ndarray]:
    inv_sqrt2 = 1 / math.sqrt(2)
    named = {
        "P1": np.eye(2, dtype=complex),
        "P2": np.array([[0, 1], [-1, 0]], dtype=complex),
        "Q": np.array([[1j, 0], [0, -1j]]),
        "M": np.array([[1j, 1], [-1, -1j]]) * inv_sqrt2,
        "S1": np.array([[-1j, 0], [0, 1j]]),
        "S2": np.array([[0, -1j], [-1j, 0]]),
    }
    for mat in named.values():
        mat.setflags(write=False)
    return named


_NAMED = _named_matrices()

#: Canonical tags, in catalog order.
STRATEGY_TAGS = ("P1", "P2", "Q", "M", "S1", "S2")

#: Angles at which the named members of the U(theta, phi) family sit.
DEFINING_ANGLES = {
    "P1": StrategyAngles(0.0, 0.0),
    "P2": StrategyAngles(math.pi, 0.0),
    "Q": StrategyAngles(0.0, math.pi / 2),
    "M": StrategyAngles(math.pi / 2, math.pi / 2),
}


def resolve(strategy: str | StrategyAngles) -> np.ndarray:
    """Return the 2x2 unitary for a tag or a custom angle pair.

    Named tags resolve to exact literal matrices (entries 0, +-1, +-i,
    and 1/sqrt(2) multiples); custom angles go through
    :func:`unitary_from_angles`. Every resolved matrix is unitary to
    within 1e-12.
    """
    if isinstance(strategy, StrategyAngles):
        return unitary_from_angles(strategy.theta, strategy.phi)
    if isinstance(strategy, str):
        try:
            return _NAMED[strategy]
        except KeyError:
            raise DomainError(
                f"unknown strategy tag {strategy!r}; expected one of {', '.join(STRATEGY_TAGS)}"
            ) from None
    raise DomainError(f"cannot resolve strategy of type {type(strategy).__name__}")


def strategy_label(strategy: str | StrategyAngles) -> str:
    """Canonical display/serialization label for a strategy."""
    if isinstance(strategy, StrategyAngles):
        return f"U({strategy.theta:.6g},{strategy.phi:.6g})"
    resolve(strategy)  # validates the tag
    return strategy


# All catalog members must satisfy the unitarity guard; this runs once at
# import and guards against literal typos.
for _tag in STRATEGY_TAGS:
    assert is_unitary(_NAMED[_tag], 1e-12), _tag
