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
state. States are plain numpy ``complex128`` vectors of length 4 over
the basis |00>, |01>, |10>, |11> (:data:`KET_00` is the first), with
Alice's qubit first, so ``np.kron(U_A, U_B)`` is the joint move.

:func:`outcome_table` runs the protocol for every pair of two strategy
stacks in one numpy evaluation: it validates gamma and each stack once
and forms all Kronecker products by one broadcast multiplication. The
private paired entry ``_paired_outcomes`` runs stacks of draws instead,
draw i's U_A against draw i's U_B at draw i's angle, with one J per draw,
for the random-draw check of :mod:`pigouq.verification`, which judges
the sums that only :func:`outcome_table` checks. The
two entries share one kernel, which applies J and its conjugate
transpose as stacked matrix products in the association
``J^dag @ (K @ (J @ |00>))``. Each cell or draw therefore sees the float
operations of a single run, and its bits equal those of the pair
evaluated one at a time: a paired entry has the bits of
``outcome_table([ua], [ub], gamma)[0, 0]``, the 1x1 case.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .strategies import _check_real, is_unitary, resolve

__all__ = [
    "GAMMA_MAX",
    "KET_00",
    "entangler",
    "outcome_table",
    "validate_gamma",
]

#: Largest admissible entanglement angle (maximal entanglement).
GAMMA_MAX = math.pi / 2

#: Initial joint state |00>.
KET_00 = np.array([1, 0, 0, 0], dtype=complex)
KET_00.setflags(write=False)

_P2_TENSOR_P2 = np.kron(resolve("P2"), resolve("P2"))

#: Tolerance for the unitarity guard on player strategy matrices.
_STRATEGY_UNITARITY_TOL = 1e-9

#: Tolerance for the outcome-distribution normalization invariant.
_NORMALIZATION_TOL = 1e-12


def validate_gamma(gamma: float) -> float:
    """Check ``gamma`` is a real number, not a bool, in [0, pi/2] and return it as a float, -0.0 as 0.0."""
    _check_real("entanglement angle", gamma)
    g = float(gamma)
    if not (0.0 <= g <= GAMMA_MAX):
        raise DomainError(f"entanglement angle must lie in [0, pi/2], got {gamma}")
    return g + 0.0  # -0.0 + 0.0 is +0.0; every other angle is unchanged


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


def outcome_table(rows, cols, gamma: float) -> np.ndarray:
    """Run the protocol for every (Alice, Bob) pair of two strategy stacks at once.

    Each cell has the bits of a one-pair run of
    ``J^dag @ (kron(U_A, U_B) @ (J @ |00>))``; the module docstring says why.

    Parameters
    ----------
    rows, cols
        Sequences of 2x2 strategy matrices for Alice and for Bob; each must
        be unitary to within 1e-9. Passing the same object twice validates
        it once.
    gamma
        Entanglement angle in [0, pi/2].

    Returns
    -------
    numpy.ndarray
        Shape ``(len(rows), len(cols), 4)``: entry ``[i, j]`` holds the
        squared amplitudes (00, 01, 10, 11) when Alice plays ``rows[i]``
        and Bob ``cols[j]``; each entry sums to 1 within 1e-12.

    Raises
    ------
    DomainError
        For a non-finite, non-2x2 or non-unitary strategy matrix or an
        out-of-range angle.
    """
    g = validate_gamma(gamma)
    a = _strategy_stack(rows, "Alice")
    b = a if cols is rows else _strategy_stack(cols, "Bob")

    # kron[i, j, 2p+r, 2q+s] = a[i, p, q] * b[j, r, s], i.e. np.kron(a[i], b[j]);
    # np.einsum would round some of these products differently.
    kron = (a[:, None, :, None, :, None] * b[None, :, None, :, None, :]).reshape(len(a), len(b), 4, 4)
    probs = _protocol(kron, _entangler(g))
    totals = probs.sum(axis=-1)
    off = np.abs(totals - 1.0) > _NORMALIZATION_TOL
    if off.any():
        raise DomainError(
            f"outcome probabilities sum to {float(totals[off][0])!r}; strategy matrices are too far from unitary"
        )
    return np.clip(probs, 0.0, 1.0)


def _paired_outcomes(rows, cols, gammas) -> np.ndarray:
    """Run the protocol for draw i's pair, ``rows[i]`` against ``cols[i]``, at ``gammas[i]``.

    Neither the stacks nor the sums are checked: the caller judges
    normalization. Entry ``[i]`` otherwise has the bits of
    ``outcome_table([rows[i]], [cols[i]], gammas[i])[0, 0]``: each J is
    built as :func:`_entangler` builds it, then the same kernel and clip.
    """
    a = np.asarray(rows, dtype=complex)
    b = np.asarray(cols, dtype=complex)
    halves = (np.asarray(gammas, dtype=float) / 2).tolist()
    cos = np.fromiter(map(math.cos, halves), float, len(halves))[:, None, None]
    sin = np.fromiter(map(math.sin, halves), float, len(halves))[:, None, None]
    j = cos * np.eye(4) - 1j * sin * _P2_TENSOR_P2
    # kron[i] = np.kron(a[i], b[i]), by the broadcast product outcome_table uses.
    kron = (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(a), 4, 4)
    return np.clip(_protocol(kron, j), 0.0, 1.0)


def _protocol(kron: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``|J^dag @ (kron @ (J @ |00>))|^2`` for a stack of joint moves, neither checked nor clipped.

    ``kron`` has shape ``(..., 4, 4)``; ``j`` is one 4x4 J or a stack of
    them that broadcasts against it. Every run sees the float operations
    of a single-pair run.
    """
    j_ket = (j @ KET_00)[..., None]
    j_dag = j.conj().swapaxes(-1, -2)
    return np.abs((j_dag @ (kron @ j_ket))[..., 0]) ** 2


def _strategy_stack(matrices, player: str) -> np.ndarray:
    """``matrices`` as an ``(m, 2, 2)`` stack of unitaries, or a DomainError naming the player."""
    try:
        stack = np.asarray(matrices, dtype=complex)
    except (TypeError, ValueError):  # ragged or non-numeric input
        stack = None
    if (
        stack is None
        or stack.ndim != 3
        or stack.shape[1:] != (2, 2)
        or not is_unitary(stack, _STRATEGY_UNITARITY_TOL)
    ):
        raise DomainError(f"{player}'s strategy matrix is not a 2x2 unitary")
    return stack

