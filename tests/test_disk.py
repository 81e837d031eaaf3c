"""Disk-algebra polynomials: sup norms, circle zeros, peak witnesses."""

import cmath
import math

import numpy as np
import pytest

from tdzcert import (
    CirclePolynomial,
    DegenerateInputError,
    InputError,
    NotARootError,
    RegularityBound,
    TriState,
    WitnessSequence,
    circle_zeros,
    decide_tdz_disk,
    factor_out_root,
    min_modulus_on_circle,
    peak_witness,
    sup_norm_on_circle,
    verify_tdz_certificate,
)

# Frozen oracle values (dense-grid maximization, 2_000_000 samples):
# max over the circle of |(z-1)(z-i)| = 2 + sqrt(2).  The factored form
# gives it in closed form: |e^{it}-1||e^{it}-i| maximizes at t = 5*pi/4,
# opposite the midpoint of the two roots.
SUP_Z1_ZI = 3.4142135623730954


def grid_sup(p, m=200_000):
    theta = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    return float(np.max(np.abs(p(np.exp(1j * theta)))))


def test_polynomial_basics():
    p = CirclePolynomial([1, 2, 0, 0])
    assert p.coeffs == (1 + 0j, 2 + 0j)
    assert p.degree == 1
    with pytest.raises(InputError):
        CirclePolynomial([])
    z = CirclePolynomial([0])
    assert z.is_zero
    q = CirclePolynomial([1, 1]) * CirclePolynomial([-1, 1])
    assert np.allclose(q.coeffs, [-1, 0, 1])
    d = CirclePolynomial([3, 1]) - CirclePolynomial([1])
    assert np.allclose(d.coeffs, [2, 1])


def test_evaluation_matches_numpy():
    rng = np.random.default_rng(0)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    p = CirclePolynomial(c)
    zs = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    want = np.polyval(c[::-1], zs)
    assert np.allclose(p(zs), want)
    assert p(complex(zs[0])) == pytest.approx(want[0])


def test_sup_norm_known_values():
    assert sup_norm_on_circle(CirclePolynomial([0, 0, 0, 0, 0, 1])) == pytest.approx(1.0)
    assert sup_norm_on_circle(CirclePolynomial([1, 1])) == pytest.approx(2.0)
    # (z-1)(z-i) has coefficients (i, -1-i, 1).
    p = CirclePolynomial([1j, -1 - 1j, 1])
    assert sup_norm_on_circle(p) == pytest.approx(SUP_Z1_ZI, abs=1e-9)
    assert sup_norm_on_circle(p) == pytest.approx(2 + math.sqrt(2), abs=1e-12)
    assert grid_sup(p) == pytest.approx(SUP_Z1_ZI, abs=1e-6)


def test_sup_norm_dominates_grid_on_random_polynomials():
    rng = np.random.default_rng(1)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        p = CirclePolynomial(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
        sup = sup_norm_on_circle(p)
        grid = grid_sup(p, 50_000)
        assert grid <= sup + 1e-9
        assert sup <= grid + 1e-6 * max(1.0, grid)


def _oracle_families():
    """Seeded polynomials that stress the circle oracle."""
    rng = np.random.default_rng(11)
    for _ in range(12):
        d = int(rng.integers(1, 41))
        yield CirclePolynomial(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
    for _ in range(8):
        # A cluster of 2-5 roots within 1e-3 of a point of the circle.
        k = int(rng.integers(2, 6))
        center = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        roots = center * (1 + 1e-3 * (rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)))
        yield CirclePolynomial(np.poly(roots)[::-1])
    for k in (0, 1, 5, 17, 40):
        yield CirclePolynomial([0] * k + [0.6 - 0.3j])  # flat modulus, or constant
    for n in (10, 50, 120):
        z0 = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        yield CirclePolynomial([-z0, 1]) * peak_witness(z0, n)
    for scale in (1e200, 1e-200):
        # A root just off the circle, halfway between two 1024-grid angles.
        z0 = 1.001 * cmath.exp(1j * math.pi * 75 / 1024)
        yield CirclePolynomial([-scale * z0, scale], trim_eps=0.0)


def test_oracle_brackets_a_fine_grid():
    # The oracle refines its own grid, so against a finer grid its sup may
    # fall short and its min exceed only by rounding and Newton's last step.
    for p in _oracle_families():
        theta = np.linspace(0.0, 2.0 * math.pi, 2**16, endpoint=False)
        grid = np.abs(p(np.exp(1j * theta)))
        sup = sup_norm_on_circle(p)
        assert sup >= grid.max() - 1e-12 * sup
        assert min_modulus_on_circle(p) <= grid.min() + 1e-10 * sup
    flat = CirclePolynomial([0, 0, 0, 0, 0, 0.37])
    assert sup_norm_on_circle(flat) == pytest.approx(0.37, rel=1e-15, abs=0)
    assert min_modulus_on_circle(flat) == pytest.approx(0.37, rel=1e-15, abs=0)


def test_min_modulus():
    assert min_modulus_on_circle(CirclePolynomial([-2, 1])) == pytest.approx(1.0)
    assert min_modulus_on_circle(CirclePolynomial([-1, 1])) == pytest.approx(0.0, abs=1e-9)


def test_circle_zeros():
    p = CirclePolynomial([1j, -1 - 1j, 1])  # (z-1)(z-i)
    zs = circle_zeros(p)
    assert len(zs.zeros) == 2
    assert zs.zeros[0] == pytest.approx(1.0, abs=1e-9)  # sorted by angle
    assert zs.zeros[1] == pytest.approx(1j, abs=1e-9)
    assert zs.residual_min <= 1e-7

    far = circle_zeros(CirclePolynomial([-2, 1]))
    assert far.zeros == ()
    assert far.residual_min == pytest.approx(1.0)

    mixed = p * CirclePolynomial([-0.5, 1])  # extra root at 1/2
    assert len(circle_zeros(mixed).zeros) == 2


def test_peak_witness_shape_and_norm():
    f1 = peak_witness(1.0, 1)
    assert np.allclose(f1.coeffs, [0.5, 0.5])
    f2 = peak_witness(1j, 2)
    assert np.allclose(f2.coeffs, [0.25, -0.5j, -0.25])
    for n in (1, 5, 20):
        for z0 in (1.0, 1j, cmath.exp(0.77j)):
            fn = peak_witness(z0, n)
            assert sup_norm_on_circle(fn) == pytest.approx(1.0, abs=1e-9)
            assert abs(fn(z0)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InputError):
        peak_witness(0.5, 3)
    with pytest.raises(InputError):
        peak_witness(1.0, 0)


def test_peak_decay_closed_form():
    # |(z-1)/2 * f_n| on the circle equals max sin(t/2) cos(t/2)^n, whose
    # stationary value is (1/sqrt(n+1)) (n/(n+1))^(n/2).
    half = CirclePolynomial([-0.5, 0.5])
    for n in (1, 3, 10, 50):
        measured = sup_norm_on_circle(half * peak_witness(1.0, n))
        closed = (1 / math.sqrt(n + 1)) * (n / (n + 1)) ** (n / 2)
        assert measured == pytest.approx(closed, abs=1e-9)
    assert sup_norm_on_circle(half * peak_witness(1.0, 1)) == pytest.approx(0.5)


def test_peak_decay_bound():
    z_minus_1 = CirclePolynomial([-1, 1])
    for n in range(1, 51):
        val = sup_norm_on_circle(z_minus_1 * peak_witness(1.0, n))
        assert val <= 2 / math.sqrt(n + 1) + 1e-9


def test_factor_out_root():
    p = CirclePolynomial([-1, 0, 1])  # z^2 - 1
    r = factor_out_root(p, 1.0)
    assert np.allclose(r.coeffs, [1, 1])
    q = CirclePolynomial([0, 0, -1j, 1])  # z^3 - i z^2
    assert np.allclose(factor_out_root(q, 1j).coeffs, [0, 0, 1])
    cubic = CirclePolynomial([-3, 2, 0, 1])  # (z-1)(z^2+z+3)
    assert np.allclose(factor_out_root(cubic, 1.0).coeffs, [3, 1, 1])
    with pytest.raises(NotARootError):
        factor_out_root(p, 2.0)


def test_decide_tdz_trichotomy():
    tdz = decide_tdz_disk(CirclePolynomial([-0.5, 0.5]))
    assert tdz.is_tdz and not tdz.is_regular
    assert tdz.is_left_zero_divisor is TriState.NO
    assert isinstance(tdz.certificate, WitnessSequence)

    reg = decide_tdz_disk(CirclePolynomial([-1, 0.5]))  # root at 2
    assert reg.is_regular and not reg.is_tdz
    assert isinstance(reg.certificate, RegularityBound)
    assert reg.certificate.lambda0 == pytest.approx(0.5)

    # z(z-2): root 0 inside, root 2 outside, none on the circle.
    singular = decide_tdz_disk(CirclePolynomial([0, -2, 1]))
    assert not singular.is_tdz and not singular.is_regular
    assert singular.certificate is None

    with pytest.raises(DegenerateInputError):
        decide_tdz_disk(CirclePolynomial([0]))


def test_tdz_certificate_passes_harness():
    p = CirclePolynomial([-0.5, 0.5])
    v = decide_tdz_disk(p)
    report = verify_tdz_certificate(sup_norm_on_circle, p, v.certificate)
    assert report.passes
    assert report.samples[0].product_norm == pytest.approx(0.5)


def test_regularity_gap():
    # If min |p| = delta > 0 on the circle, any q within delta/2 is
    # still not a TDZ.
    p = CirclePolynomial([-2, 1])
    delta = min_modulus_on_circle(p)
    q = p - CirclePolynomial([0.4 * delta])
    assert not decide_tdz_disk(q).is_tdz


def test_absorption():
    rng = np.random.default_rng(4)
    p = CirclePolynomial([-1, 1])
    for _ in range(5):
        g = CirclePolynomial(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert decide_tdz_disk(p * g).is_tdz
