"""Truncated Hardy-space composition and its exact annihilators."""

import warnings

import numpy as np
import pytest

from tdzcert import (
    CirclePolynomial,
    DegenerateInputError,
    InputError,
    InvalidSymbolError,
    OperatorMatrix,
    PolySymbol,
    TruncatedSeries,
    compose_series,
    composition_matrix,
    RegularityBound,
    Side,
    TriState,
    constant_symbol_certificates,
    decide_composition_hardy,
    left_zero_divisor_hardy,
    monomial_right_annihilator,
    operator_norm,
    right_zero_divisor_finite,
    verify_annihilator,
    verify_certificate,
)


def sym(coeffs):
    return PolySymbol(CirclePolynomial(coeffs))


def matrix_of(coeffs, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return composition_matrix(sym(coeffs), n)


def test_truncated_series():
    s = TruncatedSeries([1, 2], order=4)
    assert s.coeffs == (1, 2, 0, 0)
    assert s.order == 4
    assert np.array_equal(s.as_array(), np.array([1, 2, 0, 0], dtype=complex))
    with pytest.raises(InputError):
        TruncatedSeries([1, 2, 3], order=2)
    with pytest.raises(InputError):
        TruncatedSeries([])
    with pytest.raises(InputError):
        TruncatedSeries([float("inf")])
    with pytest.raises(InputError):
        TruncatedSeries([1], order=0)


def test_poly_symbol_validation():
    assert sym([0, 0.5]).sup_on_circle == pytest.approx(0.5)
    assert sym([0, 0.25, 0.25]).sup_on_circle == pytest.approx(0.5)
    assert sym([0, 1]).sup_on_circle == pytest.approx(1.0)
    assert sym([0.3]).is_constant and not sym([0, 1]).is_constant
    with pytest.raises(InvalidSymbolError):
        sym([0, 2])
    with pytest.raises(InvalidSymbolError):
        sym([0.5, 0.75])
    raw = PolySymbol([0, 0.5])  # plain coefficients are accepted
    assert isinstance(raw.poly, CirclePolynomial)


def test_compose_series_examples():
    f = TruncatedSeries([1, 2, 3], order=4)
    out = compose_series(f, sym([0, 0.5]), 4)
    assert np.allclose(out.coeffs, [1, 1, 0.75, 0])

    out = compose_series(f, sym([0.0]), 4)
    assert np.allclose(out.coeffs, [1, 0, 0, 0])

    ident = TruncatedSeries([0, 1], order=4)
    out = compose_series(ident, sym([0, 0.25, 0.25]), 4)
    assert np.allclose(out.coeffs, [0, 0.25, 0.25, 0])

    with pytest.raises(InputError):
        compose_series(f, sym([0, 0.5]), 0)


def test_compose_series_matches_full_expansion():
    rng = np.random.default_rng(21)
    for _ in range(10):
        df = int(rng.integers(1, 4))
        dphi = int(rng.integers(1, 3))
        fc = rng.standard_normal(df + 1) + 1j * rng.standard_normal(df + 1)
        pc = rng.standard_normal(dphi + 1) + 1j * rng.standard_normal(dphi + 1)
        pc /= np.sum(np.abs(pc)) + 1.0  # sup on the circle < 1
        full = np.zeros(df * dphi + 1, dtype=complex)
        power = np.array([1.0 + 0j])
        for c in fc:
            full[: len(power)] += c * power
            power = np.convolve(power, pc)
        n = df * dphi + 3  # budget covers the full expansion
        out = compose_series(TruncatedSeries(fc), PolySymbol(list(pc)), n)
        want = np.zeros(n, dtype=complex)
        want[: len(full)] = full
        assert np.allclose(out.coeffs, want, atol=1e-12)
        # Short truncations agree with truncating the full expansion.
        short = compose_series(TruncatedSeries(fc), PolySymbol(list(pc)), 2)
        assert np.allclose(short.coeffs, full[:2], atol=1e-12)


def test_composition_matrix_examples():
    m = matrix_of([0, 0.5], 4)
    assert np.allclose(m.entries, np.diag([1, 0.5, 0.25, 0.125]))

    m = matrix_of([0.0], 3)
    want = np.zeros((3, 3))
    want[0, 0] = 1
    assert np.allclose(m.entries, want)

    m = matrix_of([0, 0.25, 0.25], 4)
    want = np.zeros((4, 4))
    want[0, 0] = 1
    want[1, 1] = want[2, 1] = 0.25
    want[2, 2] = 1 / 16
    want[3, 2] = 2 / 16
    want[3, 3] = 1 / 64
    assert np.allclose(m.entries, want)

    with pytest.raises(InputError):
        matrix_of([0, 0.5], 0)


def test_composition_matrix_agrees_with_series():
    rng = np.random.default_rng(22)
    n = 6
    phi = sym([0, 0.3, 0.1])
    m = composition_matrix(phi, n)
    for _ in range(5):
        fc = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = TruncatedSeries(fc)
        assert np.allclose(
            m.entries @ f.as_array(), compose_series(f, phi, n).as_array()
        )


def test_composition_matrix_boundary_warning():
    with pytest.warns(UserWarning, match="near 1"):
        composition_matrix(sym([0, 1]), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        composition_matrix(sym([0, 0.5]), 4)  # silent away from the boundary


def test_identity_symbol_matrix():
    m = matrix_of([0, 1], 5)
    assert np.array_equal(m.entries, np.eye(5))
    assert operator_norm(m) == pytest.approx(1.0)


def test_constant_symbol_certificates():
    certs = constant_symbol_certificates(0.5, 4)
    tl = certs.left.element
    assert (tl.rows, tl.cols) == (4, 3)
    assert np.allclose(tl.entries @ np.array([1, 0, 0]), [-0.5, 1, 0, 0])

    tr = certs.right.element
    assert np.allclose(tr.entries @ np.array([1, 2, 3, 0]), [2, 3, 0, 0])
    assert np.linalg.norm(tr.entries @ np.array([0, 1, 0, 0])) > 0

    c = matrix_of([0.5], 4)
    assert np.max(np.abs((c * tl).entries)) == 0.0
    assert np.max(np.abs((tr * c).entries)) == 0.0

    left_report = verify_annihilator(operator_norm, c, certs.left)
    right_report = verify_annihilator(operator_norm, c, certs.right)
    assert left_report.passes and right_report.passes

    with pytest.raises(InvalidSymbolError):
        constant_symbol_certificates(1.0, 4)
    with pytest.raises(InputError):
        constant_symbol_certificates(0.5, 1)


def test_monomial_right_annihilator():
    ann = monomial_right_annihilator(2, 6)
    t = ann.element
    assert np.allclose(np.diag(t.entries), [0, 1, 0, 1, 0, 1])
    c = matrix_of([0, 0, 1], 6)  # z^2
    assert np.max(np.abs((t * c).entries)) == 0.0
    z = np.zeros(6)
    z[1] = 1
    assert np.allclose(t.entries @ z, z)  # T fixes z, so T != 0

    ann3 = monomial_right_annihilator(3, 7)
    c3 = matrix_of([0, 0, 0, 1], 7)
    assert np.max(np.abs((ann3.element * c3).entries)) == 0.0
    assert verify_annihilator(operator_norm, c3, ann3).passes

    with pytest.raises(InputError):
        monomial_right_annihilator(1, 6)
    with pytest.raises(InputError):
        monomial_right_annihilator(3, 3)


def test_right_zero_divisor_finite():
    found = right_zero_divisor_finite(OperatorMatrix(np.diag([1.0, 0.0])))
    assert found is not None
    s = found.element
    assert operator_norm(s) == pytest.approx(1.0)
    assert np.max(np.abs((s * OperatorMatrix(np.diag([1.0, 0.0]))).entries)) <= 1e-12

    assert right_zero_divisor_finite(OperatorMatrix(np.eye(3))) is None

    c = matrix_of([0.0], 3)  # rank one
    found = right_zero_divisor_finite(c)
    prod = found.element * c
    assert operator_norm(prod) <= 1e-6 * operator_norm(c)

    with pytest.raises(DegenerateInputError):
        right_zero_divisor_finite(OperatorMatrix(np.zeros((2, 2))))
    with pytest.raises(InputError):
        right_zero_divisor_finite(OperatorMatrix(np.zeros((2, 3))))


def test_right_zero_divisor_forced_deficiency():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        sing = np.sort(rng.uniform(0.5, 2.0, d))[::-1]
        sing[-1] = 0.0
        t = OperatorMatrix(q1 @ np.diag(sing) @ q2.conj().T)
        found = right_zero_divisor_finite(t)
        assert found is not None
        assert operator_norm(found.element) == pytest.approx(1.0)
        assert operator_norm(found.element * t) <= 1e-9 * operator_norm(t)


def test_decide_composition_hardy_shapes():
    yes, no = TriState.YES, TriState.NO

    v = decide_composition_hardy(sym([0.5]), 4)
    assert (v.is_left_zero_divisor, v.is_right_zero_divisor) == (yes, yes)
    assert v.is_tdz and not v.is_regular
    assert [c.side for c in v.all_certificates] == [Side.LEFT, Side.RIGHT]
    c = matrix_of([0.5], 4)
    for cert in v.all_certificates:
        assert verify_certificate(c, cert, operator_norm).passes

    v = decide_composition_hardy(sym([0, 1]), 5)
    assert (v.is_left_zero_divisor, v.is_right_zero_divisor) == (no, no)
    assert v.is_regular and not v.is_tdz
    assert v.certificate == RegularityBound(lambda0=1.0, description="identity symbol")
    assert v.extra_certificates == ()

    v = decide_composition_hardy(sym([0, 0, 0, 1]), 7)
    assert (v.is_left_zero_divisor, v.is_right_zero_divisor) == (no, yes)
    assert v.is_tdz and not v.is_regular
    assert v.certificate.side is Side.RIGHT and v.extra_certificates == ()
    c3 = matrix_of([0, 0, 0, 1], 7)
    assert verify_certificate(c3, v.certificate, operator_norm).passes

    # Neither constant, identity nor a pure monomial: undecided.
    for coeffs in ([0, 0.25, 0.25], [0, 0.5], [0.1, 0, 0.5], [0, 0, 0.5]):
        assert decide_composition_hardy(sym(coeffs), 6) is None
        assert left_zero_divisor_hardy(sym(coeffs)) is no
    assert left_zero_divisor_hardy(sym([0.5])) is yes
