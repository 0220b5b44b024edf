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

The family's formula lives in one private assembly, :func:`_unitary`,
which :func:`unitary_from_angles` calls on one angle pair's cosine,
sine and phase, and the private :func:`_unitary_stack` on the arrays of
many pairs' at once, for the verification's random draws. Each value
comes from the same ``math``/``cmath`` call either way, so entry i of a
stack has the bits of the scalar call at pair i.
"""

from __future__ import annotations

import cmath
import math
import numbers
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
    """A point (theta, phi) of the parametrized strategy family, in radians.

    A zero angle is stored as 0.0, so ``StrategyAngles(-0.0, 0.0)`` equals,
    hashes and prints like ``StrategyAngles(0.0, 0.0)``, as
    :func:`~pigouq.ewl.validate_gamma` returns 0.0 for a -0.0 angle.
    """

    theta: float
    phi: float

    def __post_init__(self):
        _check_real("theta", self.theta)
        _check_real("phi", self.phi)
        if not (0.0 <= self.theta <= THETA_MAX):
            raise DomainError(f"theta must lie in [0, pi], got {self.theta}")
        if not (0.0 <= self.phi <= PHI_MAX):
            raise DomainError(f"phi must lie in [0, pi/2], got {self.phi}")
        if self.theta == 0:  # -0.0 too, which would print as -0
            object.__setattr__(self, "theta", 0.0)
        if self.phi == 0:
            object.__setattr__(self, "phi", 0.0)


def _check_real(name: str, value) -> None:
    """Raise :class:`DomainError` unless ``value`` is a real number; a bool, Python or numpy, is none."""
    # A float skips the ABC check, which costs about a microsecond.
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {value!r}")


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
    return _unitary(math.cos(theta / 2), math.sin(theta / 2), cmath.exp(1j * phi))


def _unitary_stack(thetas, phis) -> np.ndarray:
    """:func:`unitary_from_angles` at each ``(thetas[i], phis[i])``, as one ``(m, 2, 2)`` stack.

    Entry i has the bits of ``unitary_from_angles(thetas[i], phis[i])``:
    each cosine, sine and phase is the same ``math``/``cmath`` call on
    the same float, and :func:`_unitary` assembles the whole stack from
    them. Every angle is range-checked first.

    Raises
    ------
    DomainError
        If an angle falls outside the family's box, as :class:`StrategyAngles`
        raises it for the first such pair.
    """
    thetas = np.asarray(thetas, dtype=float)
    phis = np.asarray(phis, dtype=float)
    inside = (0.0 <= thetas) & (thetas <= THETA_MAX) & (0.0 <= phis) & (phis <= PHI_MAX)
    if not inside.all():
        first = int(np.argmin(inside))
        StrategyAngles(float(thetas[first]), float(phis[first]))  # raises
    halves = (thetas / 2).tolist()
    c = np.array([math.cos(h) for h in halves])
    s = np.array([math.sin(h) for h in halves])
    phase = np.array([cmath.exp(1j * phi) for phi in phis.tolist()])
    return np.ascontiguousarray(np.moveaxis(_unitary(c, s, phase), -1, 0))


def _unitary(c, s, phase) -> np.ndarray:
    """The family's matrix from ``cos(theta/2)``, ``sin(theta/2)`` and ``exp(i*phi)``.

    Scalars give one 2x2 matrix; equal-length 1-D arrays give a
    ``(2, 2, m)`` array, matrix i in ``[..., i]``. numpy multiplies a
    complex by a float as CPython 3.10-3.13 does, as a complex with a
    zero imaginary part, so either way each entry has the same bits.
    """
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
# import and guards against literal typos, also under ``python -O``.
for _tag in STRATEGY_TAGS:
    if not is_unitary(_NAMED[_tag], 1e-12):
        raise DomainError(f"catalog strategy {_tag} is not unitary")
