"""Two-qubit entangling protocol: entangle, play local moves, disentangle, measure.

The joint pair starts in |00>. An entangling operator J(gamma)
correlates the qubits, each player applies a local unitary, the inverse
operator undoes the entangling frame, and the squared amplitudes of the
final state give the joint path distribution:

    |psi_f> = J(gamma)^dag (U_A tensor U_B) J(gamma) |00>

The entangling operator is built in closed form,

    J(gamma) = cos(gamma/2) I - i sin(gamma/2) (P2 tensor P2),

which equals the matrix exponential exp(-i (gamma/2) P2 tensor P2)
exactly because (P2 tensor P2) squares to the identity. gamma = 0 leaves
the qubits independent; gamma = pi/2 is maximal entanglement and sends
|00> to the balanced superposition (|00> - i|11>)/sqrt(2). The
half-angle convention is deliberate: it is the one under which the
maximal setting produces all the 1/sqrt(2) matrix entries the rest of
the package's exact numbers are built on.

Only Alice's and Bob's qubits exist here; in the n-traveler games all
other players are classical and enter through the cost model, not the
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import KET_00, is_unitary, tensor_product
from .strategies import resolve

__all__ = [
    "GAMMA_MAX",
    "OutcomeDistribution",
    "entangler",
    "ewl_outcomes",
    "validate_gamma",
]

#: Largest admissible entanglement angle (maximal entanglement).
GAMMA_MAX = math.pi / 2

_P2_TENSOR_P2 = tensor_product(resolve("P2"), resolve("P2"))

#: Tolerance for the unitarity guard on player strategy matrices.
_STRATEGY_UNITARITY_TOL = 1e-9

#: Tolerance for the outcome-distribution normalization invariant.
_NORMALIZATION_TOL = 1e-12


def validate_gamma(gamma: float) -> float:
    """Check ``gamma`` lies in [0, pi/2] and return it as a float."""
    g = float(gamma)
    if not (0.0 <= g <= GAMMA_MAX):
        raise DomainError(f"entanglement angle must lie in [0, pi/2], got {gamma}")
    return g


def entangler(gamma: float) -> np.ndarray:
    """The 4x4 entangling operator J(gamma).

    Raises
    ------
    DomainError
        If ``gamma`` is outside [0, pi/2].
    """
    return _entangler(validate_gamma(gamma))


def _entangler(g: float) -> np.ndarray:
    return math.cos(g / 2) * np.eye(4) - 1j * math.sin(g / 2) * _P2_TENSOR_P2


@dataclass(frozen=True)
class OutcomeDistribution:
    """Joint probabilities of the four measured path profiles.

    Index order matches the basis convention: first bit is Alice's path
    (0 = constant-cost edge, 1 = load-dependent edge), second is Bob's.
    """

    p00: float
    p01: float
    p10: float
    p11: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p00, self.p01, self.p10, self.p11)


def ewl_outcomes(ua, ub, gamma: float) -> OutcomeDistribution:
    """Run the protocol for strategy matrices ``ua`` (Alice) and ``ub`` (Bob).

    Parameters
    ----------
    ua, ub
        2x2 strategy matrices; must be unitary to within 1e-9.
    gamma
        Entanglement angle in [0, pi/2].

    Returns
    -------
    OutcomeDistribution
        Squared amplitudes of the final state; they sum to 1 within 1e-12.

    Raises
    ------
    DomainError
        For non-finite or non-unitary strategies or an out-of-range angle.
    """
    g = validate_gamma(gamma)
    ua = np.asarray(ua, dtype=complex)
    ub = np.asarray(ub, dtype=complex)
    if ua.shape != (2, 2) or not is_unitary(ua, _STRATEGY_UNITARITY_TOL):
        raise DomainError("Alice's strategy matrix is not a 2x2 unitary")
    if ub.shape != (2, 2) or not is_unitary(ub, _STRATEGY_UNITARITY_TOL):
        raise DomainError("Bob's strategy matrix is not a 2x2 unitary")

    # ua, ub and g are validated above; build the operators from them directly.
    j = _entangler(g)
    psi = j.conj().T @ (np.kron(ua, ub) @ (j @ KET_00))
    probs = np.abs(psi) ** 2
    total = float(probs.sum())
    if abs(total - 1.0) > _NORMALIZATION_TOL:
        raise DomainError(
            f"outcome probabilities sum to {total!r}; strategy matrices are too far from unitary"
        )
    p = np.clip(probs, 0.0, 1.0)
    return OutcomeDistribution(float(p[0]), float(p[1]), float(p[2]), float(p[3]))
