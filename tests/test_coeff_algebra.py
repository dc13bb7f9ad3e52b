"""Coefficient algebra: C*-norm, unitization, functional calculus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from deformkit.coeff_algebra import (
    MatrixElement,
    UnitizedElement,
    cstar_norm,
    smooth_calculus,
    spectral_smoothing,
    spectrum,
    unitized_inverse,
    unitized_spectrum,
)
from deformkit.errors import NotSelfAdjointError, SingularError

RNG = np.random.default_rng(31415)


def random_element(k: int, rng=RNG) -> MatrixElement:
    return MatrixElement(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))


def random_hermitian(k: int, eigvals, rng=RNG) -> MatrixElement:
    q = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
    return MatrixElement(q @ np.diag(np.asarray(eigvals, dtype=float)) @ q.conj().T)


def test_cstar_norm_is_largest_singular_value():
    a = MatrixElement([[3.0, 0.0], [0.0, -4.0]])
    assert cstar_norm(a) == 4.0


def test_cstar_identity():
    # ||a* a|| = ||a||^2, the defining C* property.
    for k in (1, 2, 4):
        a = random_element(k)
        prod = a.adjoint() * a
        assert_allclose(cstar_norm(prod), cstar_norm(a) ** 2, rtol=1e-12)


def test_matrix_element_is_immutable():
    a = MatrixElement(np.eye(2))
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_matrix_element_rejects_nonsquare():
    with pytest.raises(ValueError):
        MatrixElement(np.ones((2, 3)))


def test_spectrum_of_diagonal():
    a = MatrixElement(np.diag([1.0, 2.0, -3.0]))
    assert sorted(np.real(spectrum(a))) == [-3.0, 1.0, 2.0]


def test_unitized_spectrum_contains_zero():
    a = random_element(3)
    assert any(abs(v) == 0.0 for v in unitized_spectrum(a))


def test_unit_is_neutral():
    x = UnitizedElement(random_element(3), 0.7 + 0.2j)
    e = UnitizedElement.unit(3)
    for prod in (x.multiply(e), e.multiply(x)):
        assert_allclose(prod.matrix.entries, x.matrix.entries, atol=1e-15)
        assert prod.scalar == x.scalar


def test_unitized_multiply_matches_dense_embedding():
    # Embed (a, alpha) as a + alpha I and compare dense products.
    for _ in range(10):
        x = UnitizedElement(random_element(3), complex(RNG.normal(), RNG.normal()))
        y = UnitizedElement(random_element(3), complex(RNG.normal(), RNG.normal()))
        dense_x = x.matrix.entries + x.scalar * np.eye(3)
        dense_y = y.matrix.entries + y.scalar * np.eye(3)
        prod = x.multiply(y)
        dense_prod = prod.matrix.entries + prod.scalar * np.eye(3)
        assert_allclose(dense_prod, dense_x @ dense_y, atol=1e-12)


def test_unitized_adjoint_reverses_products():
    x = UnitizedElement(random_element(2), 1.0 + 2.0j)
    y = UnitizedElement(random_element(2), -0.5j)
    lhs = x.multiply(y).adjoint()
    rhs = y.adjoint().multiply(x.adjoint())
    assert_allclose(lhs.matrix.entries, rhs.matrix.entries, atol=1e-12)
    assert_allclose(lhs.scalar, rhs.scalar, atol=1e-12)


@settings(derandomize=True, max_examples=25)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_unitized_inverse_roundtrip(k, seed):
    rng = np.random.default_rng(seed)
    a = MatrixElement(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    alpha = complex(rng.normal(), rng.normal())
    if abs(alpha) < 0.3:
        alpha += 1.0
    x = UnitizedElement(a, alpha)
    try:
        y = unitized_inverse(x)
    except SingularError:
        return
    prod = x.multiply(y)
    assert cstar_norm(prod.matrix) <= 1e-10
    assert abs(prod.scalar - 1.0) <= 1e-12


def test_unitized_inverse_rejects_zero_scalar():
    # (a, 0) is never invertible: the quotient by M_k kills it.
    with pytest.raises(SingularError):
        unitized_inverse(UnitizedElement(random_element(2), 0.0))


def test_unitized_inverse_rejects_singular_total():
    # alpha = 1 and a = -I makes a + alpha I = 0.
    x = UnitizedElement(MatrixElement(-np.eye(2)), 1.0)
    with pytest.raises(SingularError):
        unitized_inverse(x)


def test_smooth_calculus_polynomial():
    b = random_hermitian(4, [0.5, -1.0, 2.0, 0.0])
    out = smooth_calculus(lambda t: t ** 2 - t, b)
    expected = b.entries @ b.entries - b.entries
    assert_allclose(out.entries, expected, atol=1e-12)


def test_smooth_calculus_needs_self_adjoint():
    b = MatrixElement([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotSelfAdjointError):
        smooth_calculus(np.exp, b)


def test_spectral_smoothing_fixes_outer_spectrum():
    for eps in (0.1, 1.0, 10.0):
        y = random_hermitian(3, [eps, -1.5 * eps, 2.5 * eps])
        out = spectral_smoothing(y, eps)
        assert cstar_norm(MatrixElement(out.entries - y.entries)) <= 1e-12 * eps


def test_spectral_smoothing_kills_inner_spectrum():
    for eps in (0.1, 1.0, 10.0):
        y = random_hermitian(3, [eps / 4, -eps / 5, eps / 30])
        out = spectral_smoothing(y, eps)
        assert cstar_norm(out) <= 1e-12 * eps


def test_spectral_smoothing_transition_band_is_contractive():
    # Between eps/3 and 2 eps/3 the multiplier 1 - chi lies in [0, 1].
    eps = 1.0
    vals = np.linspace(0.35, 0.65, 7)
    y = random_hermitian(7, vals)
    out = spectral_smoothing(y, eps)
    got = sorted(np.real(spectrum(out)))
    assert all(-1e-12 <= g <= v + 1e-12 for g, v in zip(got, sorted(vals)))


def test_spectral_smoothing_rejects_bad_eps():
    with pytest.raises(ValueError):
        spectral_smoothing(random_hermitian(2, [1.0, 2.0]), 0.0)
