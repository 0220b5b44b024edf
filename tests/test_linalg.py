"""Linear-algebra facts the protocol rests on.

The Kronecker order of the joint move, the entangler's generator and
conjugate transpose, and the unitarity guard ``is_unitary``, which the
strategy catalog and every protocol run use.
"""

import math

import numpy as np
import pytest

from pigouq.errors import DomainError
from pigouq.ewl import KET_00, entangler, outcome_table
from pigouq.strategies import is_unitary, resolve, unitary_from_angles


def kron_by_definition(a, b):
    """Independent Kronecker product: entry (2i+k, 2j+l) = a[i,j]*b[k,l]."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def test_flip_tensor_flip_is_antidiagonal():
    # J(gamma) = cos(gamma/2) I - i sin(gamma/2) (P2 x P2), and P2 x P2 is this antidiagonal.
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = 1, -1, -1, 1
    for gamma in (0.3, 1.1, math.pi / 2):
        generator = (entangler(gamma) - math.cos(gamma / 2) * np.eye(4)) / (-1j * math.sin(gamma / 2))
        assert np.allclose(generator, expected, atol=1e-15)


def test_tensor_matches_definition_on_random_matrices():
    # outcome_table's broadcast product puts Alice's qubit first, as np.kron(U_A, U_B) does.
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        b = unitary_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2))
        gamma = rng.uniform(0, math.pi / 2)
        j = entangler(gamma)
        want = np.abs(j.conj().T @ kron_by_definition(a, b) @ j @ KET_00) ** 2
        got = outcome_table([a, b], [b, a], gamma)
        assert np.allclose(got[0, 0], want, atol=1e-14)
        # the swapped pair swaps the two cross outcomes
        assert np.allclose(got[1, 1], want[[0, 2, 1, 3]], atol=1e-14)


def test_apply_entangler_builds_balanced_superposition():
    got = entangler(math.pi / 2) @ KET_00
    expected = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert np.allclose(got, expected, atol=1e-15)


def test_dagger_entangler_flips_imaginary_signs():
    j = entangler(math.pi / 2)
    jd = j.conj().T
    inv = 1 / math.sqrt(2)
    expected = np.array(
        [
            [inv, 0, 0, 1j * inv],
            [0, inv, -1j * inv, 0],
            [0, -1j * inv, inv, 0],
            [1j * inv, 0, 0, inv],
        ]
    )
    assert np.allclose(jd, expected, atol=1e-15)
    assert np.allclose(jd @ j, np.eye(4), atol=1e-15)


def test_is_unitary_accepts_identity_and_strategy_family():
    assert is_unitary(np.eye(2), 1e-12)
    assert is_unitary(np.eye(4), 1e-12)
    assert is_unitary(unitary_from_angles(0.7, 0.3), 1e-12)
    assert is_unitary(entangler(0.3), 1e-15)


def test_is_unitary_rejects_scaled_entry():
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = 2
    assert not is_unitary(bad, 1e-12)


def test_is_unitary_checks_every_matrix_of_a_stack():
    stack = np.stack([np.eye(2), unitary_from_angles(0.7, 0.3), unitary_from_angles(2.0, 1.1)])
    assert is_unitary(stack, 1e-12)
    stack[1, 0, 0] *= 2
    assert not is_unitary(stack, 1e-12)


def test_non_finite_entries_are_rejected():
    for value in (np.nan, np.inf, complex(0, np.inf)):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = value
        with pytest.raises(DomainError, match="finite"):
            is_unitary(bad, 1e-12)
        with pytest.raises(DomainError, match="finite"):
            is_unitary(np.stack([resolve("P1"), bad]), 1e-12)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3), (3, 2, 4)])
def test_non_square_input_is_rejected(shape):
    with pytest.raises(DomainError, match="square"):
        is_unitary(np.ones(shape), 1e-12)
