"""Dense complex linear algebra for two-qubit protocol states.

Everything operates on plain numpy ``complex128`` arrays under a fixed
convention: 2x2 matrices act on one qubit, 4x4 matrices on the joint
pair, and length-4 state vectors hold amplitudes over the computational
basis ordered |00>, |01>, |10>, |11> with the row player's qubit first.
The protocol never needs anything larger, so there is no general-
dimension matrix type. Exact rational arithmetic is introduced
downstream, where matrix entries are rational; here everything is
double precision.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "KET_00",
    "apply",
    "as_square_matrix",
    "dagger",
    "is_unitary",
    "tensor_product",
]


def as_square_matrix(m, dim: int | None = None) -> np.ndarray:
    """Coerce ``m`` to a square complex array, optionally of a fixed size.

    Raises
    ------
    DomainError
        If the input is not square, has a disallowed size, or contains
        non-finite entries.
    """
    arr = _as_square_stack(m)
    if arr.ndim != 2:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DomainError(f"expected a {dim}x{dim} matrix, got {arr.shape[0]}x{arr.shape[1]}")
    return arr


def _as_square_stack(m) -> np.ndarray:
    """Coerce ``m`` to a finite complex array of shape ``(..., d, d)``."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("matrix entries must be finite")
    return arr


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit operators.

    Entry ``(2i+k, 2j+l)`` of the result is ``a[i, j] * b[k, l]``; the
    first factor acts on the row player's qubit.
    """
    a = as_square_matrix(a, dim=2)
    b = as_square_matrix(b, dim=2)
    return np.kron(a, b)


def apply(m, v) -> np.ndarray:
    """Matrix-vector product ``m @ v`` with shape and finiteness checks."""
    m = as_square_matrix(m)
    vec = np.asarray(v, dtype=complex)
    if vec.shape != (m.shape[0],):
        raise DomainError(f"state length {vec.shape} does not match matrix size {m.shape[0]}")
    if not np.all(np.isfinite(vec.real)) or not np.all(np.isfinite(vec.imag)):
        raise DomainError("state amplitudes must be finite")
    return m @ vec


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_square_matrix(m).conj().T


def is_unitary(m, tol: float) -> bool:
    """Whether ``m @ dagger(m)`` deviates from the identity by at most
    ``tol`` entry-wise.

    ``m`` may also be a stack of square matrices, shape ``(..., d, d)``;
    the stack passes when every matrix in it does.
    """
    m = _as_square_stack(m)
    delta = m @ np.swapaxes(m.conj(), -1, -2) - np.eye(m.shape[-1])
    return bool(np.abs(delta).max() <= tol)


#: Initial joint state |00>.
KET_00 = np.array([1, 0, 0, 0], dtype=complex)

KET_00.setflags(write=False)
