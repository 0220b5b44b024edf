import math

import numpy as np
import pytest

from pigouq.errors import DomainError
from pigouq.ewl import entangler
from pigouq.linalg import KET_00, apply, dagger, is_unitary, tensor_product
from pigouq.strategies import resolve, unitary_from_angles


def kron_by_definition(a, b):
    """Independent Kronecker product: entry (2i+k, 2j+l) = a[i,j]*b[k,l]."""
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k, 2 * j + l] = a[i, j] * b[k, l]
    return out


def random_unitary(rng):
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


def test_identity_tensor_identity():
    assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))


def test_flip_tensor_flip_is_antidiagonal():
    p2 = resolve("P2")
    got = tensor_product(p2, p2)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = 1, -1, -1, 1
    assert np.array_equal(got, expected)


def test_miracle_tensor_miracle():
    m = resolve("M")
    expected = 0.5 * np.array(
        [
            [-1, 1j, 1j, 1],
            [-1j, 1, -1, -1j],
            [-1j, -1, 1, -1j],
            [1, 1j, 1j, -1],
        ]
    )
    assert np.allclose(tensor_product(m, m), expected, atol=1e-15)


def test_tensor_matches_definition_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.allclose(tensor_product(a, b), kron_by_definition(a, b), atol=1e-14)


def test_tensor_is_bilinear():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    alpha = 0.37 - 1.2j
    assert np.allclose(tensor_product(alpha * a, b), alpha * tensor_product(a, b), atol=1e-13)


def test_apply_identity_returns_state():
    v = np.array([0.5, 0.5j, -0.5, 0.5j])
    assert np.array_equal(apply(np.eye(4), v), v)


def test_apply_double_flip_sends_00_to_11():
    p2 = resolve("P2")
    got = apply(tensor_product(p2, p2), KET_00)
    assert np.allclose(got, [0, 0, 0, 1], atol=1e-15)


def test_apply_entangler_builds_balanced_superposition():
    got = apply(entangler(math.pi / 2), KET_00)
    expected = np.array([1, 0, 0, -1j]) / math.sqrt(2)
    assert np.allclose(got, expected, atol=1e-15)


def test_apply_preserves_norm_for_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(50):
        u = random_unitary(rng)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        assert abs(np.linalg.norm(apply(u, v)) - 1) < 1e-12


def test_apply_rejects_mismatched_shapes():
    with pytest.raises(DomainError):
        apply(np.eye(4), np.array([1, 0]))


def test_dagger_identity():
    assert np.array_equal(dagger(np.eye(4)), np.eye(4))


def test_dagger_entangler_flips_imaginary_signs():
    j = entangler(math.pi / 2)
    jd = dagger(j)
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


def test_dagger_is_an_involution():
    rng = np.random.default_rng(10)
    u = random_unitary(rng)
    assert np.allclose(dagger(dagger(u)), u, atol=1e-15)


def test_is_unitary_accepts_identity_and_strategy_family():
    assert is_unitary(np.eye(2), 1e-12)
    assert is_unitary(np.eye(4), 1e-12)
    assert is_unitary(unitary_from_angles(0.7, 0.3), 1e-12)


def test_is_unitary_rejects_scaled_entry():
    bad = np.eye(2, dtype=complex)
    bad = bad.copy()
    bad[0, 0] = 2
    assert not is_unitary(bad, 1e-12)


def test_is_unitary_checks_every_matrix_of_a_stack():
    stack = np.stack([np.eye(2), unitary_from_angles(0.7, 0.3), unitary_from_angles(2.0, 1.1)])
    assert is_unitary(stack, 1e-12)
    stack[1, 0, 0] *= 2
    assert not is_unitary(stack, 1e-12)


def test_non_finite_entries_are_rejected():
    bad = np.eye(2, dtype=complex)
    bad = bad.copy()
    bad[0, 1] = np.nan
    with pytest.raises(DomainError):
        is_unitary(bad, 1e-12)
