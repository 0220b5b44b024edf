import inspect
import math

import numpy as np
import pytest

from pigouq import strategies
from pigouq.errors import DomainError
from pigouq.strategies import (
    DEFINING_ANGLES,
    STRATEGY_TAGS,
    StrategyAngles,
    is_unitary,
    resolve,
    strategy_label,
    unitary_from_angles,
)

INV_SQRT2 = 1 / math.sqrt(2)


def test_zero_angles_give_identity():
    assert np.allclose(unitary_from_angles(0.0, 0.0), np.eye(2), atol=0)


def test_pi_theta_gives_bit_flip():
    expected = np.array([[0, 1], [-1, 0]], dtype=complex)
    assert np.allclose(unitary_from_angles(math.pi, 0.0), expected, atol=1e-16)


def test_miracle_angles():
    expected = INV_SQRT2 * np.array([[1j, 1], [-1, -1j]])
    assert np.allclose(unitary_from_angles(math.pi / 2, math.pi / 2), expected, atol=1e-15)


@pytest.mark.parametrize(
    "theta,phi",
    [(-0.1, 0.0), (math.pi + 0.1, 0.0), (0.0, -0.1), (0.0, math.pi / 2 + 0.1), (math.nan, 0.0), (0.0, math.nan)],
)
def test_out_of_range_angles_rejected(theta, phi):
    with pytest.raises(DomainError):
        unitary_from_angles(theta, phi)
    with pytest.raises(DomainError) as want:
        StrategyAngles(theta, phi)
    # A stack checks every angle and names the first bad pair as StrategyAngles does.
    with pytest.raises(DomainError) as got:
        strategies._unitary_stack(np.array([0.5, theta, 1.0, -1.0]), np.array([0.5, phi, 0.5, 0.5]))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "theta, phi, name",
    [
        (True, 0.0, "theta"),
        (0.0, False, "phi"),
        (np.True_, 0.0, "theta"),
        ("x", 0, "theta"),
        (0, None, "phi"),
        (0.5j, 0, "theta"),
    ],
)
def test_angles_must_be_real_numbers_not_bools(theta, phi, name):
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
        StrategyAngles(theta, phi)
    with pytest.raises(DomainError, match=f"^{name} must be a real number, got "):
        unitary_from_angles(theta, phi)


def test_angle_bounds_are_inclusive():
    unitary_from_angles(0.0, 0.0)
    unitary_from_angles(math.pi, math.pi / 2)
    stack = strategies._unitary_stack(np.array([0.0, math.pi]), np.array([math.pi / 2, 0.0]))
    corners = [unitary_from_angles(0.0, math.pi / 2), unitary_from_angles(math.pi, 0.0)]
    assert stack.tobytes() == np.array(corners).tobytes()


def test_named_literals():
    assert np.array_equal(resolve("P1"), np.eye(2))
    assert np.array_equal(resolve("Q"), np.diag([1j, -1j]))
    assert np.array_equal(resolve("S1"), np.diag([-1j, 1j]))
    assert np.array_equal(resolve("S2"), np.array([[0, -1j], [-1j, 0]]))


def test_named_strategies_sit_on_the_angle_family():
    for tag, angles in DEFINING_ANGLES.items():
        assert np.allclose(resolve(tag), unitary_from_angles(angles.theta, angles.phi), atol=1e-12)


def test_all_tags_resolve_to_unitaries_with_unit_determinant():
    for tag in STRATEGY_TAGS:
        mat = resolve(tag)
        assert is_unitary(mat, 1e-12)
        assert abs(abs(np.linalg.det(mat)) - 1) < 1e-12


def test_resolve_rejects_unknown_tags():
    with pytest.raises(DomainError):
        resolve("P3")


def test_custom_angles_resolve_and_label():
    angles = StrategyAngles(0.7, 0.3)
    assert is_unitary(resolve(angles), 1e-12)
    assert strategy_label(angles) == "U(0.7,0.3)"
    assert strategy_label("M") == "M"


@pytest.mark.parametrize("theta, phi", [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (np.float64(-0.0), 0), (0, 0.0)])
def test_a_zero_angle_is_stored_as_positive_zero(theta, phi):
    angles = StrategyAngles(theta, phi)
    assert angles == StrategyAngles(0.0, 0.0) and hash(angles) == hash(StrategyAngles(0.0, 0.0))
    assert type(angles.theta) is float and math.copysign(1.0, angles.theta) == 1.0
    assert type(angles.phi) is float and math.copysign(1.0, angles.phi) == 1.0
    assert strategy_label(angles) == "U(0,0)"


def test_family_is_unitary_across_random_draws():
    rng = np.random.default_rng(20250811)
    for _ in range(1000):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, math.pi / 2)
        assert is_unitary(unitary_from_angles(theta, phi), 1e-12)


def test_catalog_guard_survives_optimized_mode():
    # The import-time unitarity guard, compiled as ``python -O`` compiles it
    # (asserts stripped), still rejects a catalog entry that is not unitary.
    source = inspect.getsource(strategies)
    guard = source[source.index("for _tag in STRATEGY_TAGS:") :]
    bad = {**strategies._NAMED, "Q": 2 * strategies._NAMED["Q"]}
    with pytest.raises(DomainError, match="catalog strategy Q is not unitary"):
        exec(compile(guard, strategies.__file__, "exec", optimize=2), {**vars(strategies), "_NAMED": bad})
