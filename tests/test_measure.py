"""L-infinity elements on atomic spaces: stats, verdicts, products."""

import itertools
import random

import pytest

from tdzcert import (
    Annihilator,
    CountingN,
    DecayingTail,
    DegenerateInputError,
    EventuallyPeriodic,
    FiniteAtoms,
    FiniteVector,
    InputError,
    MeasurableFn,
    RegularityBound,
    TriState,
    UnsupportedProductError,
    ZeroClass,
    decide_tdz_linf,
    decide_zero_divisor_linf,
    essential_stats,
    indicator_fn,
    linf_norm,
    pointwise_product,
    spectrum_mult,
    serialize_element,
    verify_certificate,
    verify_tdz_certificate,
)
from tdzcert.certificates import DEFAULT_TOL
from tdzcert.measure import _sublevel_indicator, _zero_set_indicator

N = CountingN()


def fv(*vals):
    return MeasurableFn(FiniteAtoms([1.0] * len(vals)), FiniteVector(vals))


def ep(prefix, cycle):
    return MeasurableFn(N, EventuallyPeriodic(prefix, cycle))


def dt(prefix, c):
    return MeasurableFn(N, DecayingTail(prefix, c))


def test_representation_validation():
    with pytest.raises(InputError):
        FiniteAtoms([])
    with pytest.raises(InputError):
        FiniteAtoms([1.0, 0.0])
    with pytest.raises(InputError):
        FiniteVector([])
    with pytest.raises(InputError):
        EventuallyPeriodic((1,), ())
    with pytest.raises(InputError):
        DecayingTail((1,), 0)
    with pytest.raises(InputError):
        MeasurableFn(FiniteAtoms([1, 1]), FiniteVector([1, 2, 3]))
    with pytest.raises(InputError):
        MeasurableFn(FiniteAtoms([1, 1]), EventuallyPeriodic((), (1,)))
    with pytest.raises(InputError):
        MeasurableFn(N, FiniteVector([1, 2]))


def test_value_at_indexing():
    f = ep((9,), (1, 2))
    assert [f.value_at(n) for n in range(1, 6)] == [9, 1, 2, 1, 2]
    g = dt((7,), 2)
    assert g.value_at(1) == 7
    assert g.value_at(3) == pytest.approx(2 / 3)
    h = fv(4, 5)
    assert h.value_at(2) == 5
    with pytest.raises(InputError):
        h.value_at(3)
    with pytest.raises(InputError):
        h.value_at(0)


def test_indicator_fn():
    ind = indicator_fn(N, [2, 5])
    assert [ind.value_at(n) for n in range(1, 7)] == [0, 1, 0, 0, 1, 0]
    find = indicator_fn(FiniteAtoms([1, 1, 1]), [1, 3])
    assert find.values.values == (1, 0, 1)
    with pytest.raises(InputError):
        indicator_fn(FiniteAtoms([1, 1]), [3])
    with pytest.raises(InputError):
        indicator_fn(N, [])


def test_essential_stats_trichotomy():
    s = essential_stats(fv(0, 2, 3))
    assert s.ess_sup == 3 and s.attains_zero and s.zero_in_ess_range
    assert s.min_modulus == 0 and s.min_attained

    s = essential_stats(dt((), 1))  # f(n) = 1/n
    assert s.ess_sup == pytest.approx(1.0)
    assert not s.attains_zero and s.zero_in_ess_range
    assert s.min_modulus == 0 and not s.min_attained

    s = essential_stats(ep((), (2, 3)))
    assert s.ess_sup == 3 and not s.zero_in_ess_range
    assert s.min_modulus == 2 and s.min_attained

    assert linf_norm(dt((5,), 1)) == pytest.approx(5.0)
    assert linf_norm(dt((), 10)) == pytest.approx(10.0)


def test_zero_divisor_attained():
    v = decide_zero_divisor_linf(fv(0, 2, 3))
    assert v.is_left_zero_divisor is TriState.YES
    assert v.is_right_zero_divisor is TriState.YES
    assert v.is_tdz and not v.is_regular
    ann = v.certificate
    assert isinstance(ann, Annihilator)
    assert ann.element.values.values == (1, 0, 0)
    product = pointwise_product(fv(0, 2, 3), ann.element)
    assert product.is_identically_zero
    report = verify_certificate(fv(0, 2, 3), ann, linf_norm)
    assert report.passes


def test_zero_divisor_not_attained():
    v = decide_zero_divisor_linf(dt((), 1))
    assert v.is_left_zero_divisor is TriState.NO
    assert v.is_tdz  # zero in essential range without attainment
    assert v.certificate is None

    v = decide_zero_divisor_linf(ep((), (2, 3)))
    assert v.is_left_zero_divisor is TriState.NO
    assert not v.is_tdz and v.is_regular


def test_zero_divisor_periodic_annihilator():
    f = ep((1, 0), (4,))
    v = decide_zero_divisor_linf(f)
    assert v.is_left_zero_divisor is TriState.YES
    product = pointwise_product(f, v.certificate.element)
    assert product.is_identically_zero
    assert v.certificate.element.value_at(2) == 1


def test_zero_divisor_brute_force_small():
    # On m <= 4 atoms over values {0, 1, 2}, compare against an
    # exhaustive search over all nonempty indicator annihilators.
    for m in (1, 2, 3, 4):
        for vals in itertools.product((0, 1, 2), repeat=m):
            f = fv(*vals)
            if f.is_identically_zero:
                continue
            brute = False
            for bits in itertools.product((0, 1), repeat=m):
                if not any(bits):
                    continue
                if all(a * b == 0 for a, b in zip(vals, bits)):
                    brute = True
                    break
            got = decide_zero_divisor_linf(f).is_left_zero_divisor is TriState.YES
            assert got == brute


def test_tdz_regular_with_inverse():
    v = decide_tdz_linf(fv(1, 2, 3))
    assert v.is_regular and not v.is_tdz
    cert = v.certificate
    assert isinstance(cert, RegularityBound)
    assert cert.lambda0 == pytest.approx(1.0)
    product = pointwise_product(fv(1, 2, 3), cert.inverse)
    assert all(x == 1 for x in product.values.values)
    s = essential_stats(fv(1, 2, 3))
    report = verify_certificate(fv(1, 2, 3), cert, linf_norm,
                                min_modulus_estimate=s.min_modulus)
    assert report.passes


def test_tdz_regular_periodic_inverse():
    f = ep((2,), (4, 5))
    v = decide_tdz_linf(f)
    assert v.is_regular
    inv = v.certificate.inverse
    for n in range(1, 10):
        assert f.value_at(n) * inv.value_at(n) == pytest.approx(1.0)


def test_tdz_decaying_tail_witnesses():
    f = dt((), 1)
    v = decide_tdz_linf(f)
    assert v.is_tdz and v.is_left_zero_divisor is TriState.NO
    for k in (1, 2, 5, 10):
        wk = v.certificate.generator(k)
        assert linf_norm(wk) == pytest.approx(1.0)
        # E_k = {m > k}, so |f| on E_k peaks at exactly 1/(k+1).
        assert linf_norm(pointwise_product(f, wk)) == pytest.approx(1 / (k + 1))
    report = verify_tdz_certificate(linf_norm, f, v.certificate)
    assert report.passes


def test_tdz_attained_zero_witnesses():
    f = fv(0, 2, 3)
    v = decide_tdz_linf(f)
    assert v.is_tdz and v.is_left_zero_divisor is TriState.YES
    w = v.certificate.generator(7)
    assert w.values.values == (1, 0, 0)
    assert pointwise_product(f, w).is_identically_zero
    assert verify_tdz_certificate(linf_norm, f, v.certificate).passes


def test_tdz_witness_empty_sublevel():
    v = decide_tdz_linf(dt((), 10))  # 10/n: E_1 = {m > 10}, never empty
    w1 = v.certificate.generator(1)
    assert w1.value_at(10) == 0 and w1.value_at(11) == 1


def test_zero_element_rejected():
    with pytest.raises(DegenerateInputError):
        decide_zero_divisor_linf(fv(0, 0))
    with pytest.raises(DegenerateInputError):
        decide_tdz_linf(ep((0,), (0,)))


def test_spectrum_trichotomy():
    r = spectrum_mult(fv(0, 2, 3))
    assert set(r.sigma) == {0, 2, 3}
    assert set(r.sigma_p) == {0, 2, 3}
    assert r.zero_class is ZeroClass.POINT_SPECTRUM
    assert not r.zero_is_limit

    r = spectrum_mult(dt((), 1))
    assert r.sigma == (0,)
    assert r.sigma_p == ()
    assert r.zero_class is ZeroClass.CONTINUOUS_SPECTRUM
    assert r.zero_is_limit
    assert "1/n" in r.tail_description

    r = spectrum_mult(ep((), (2, 3)))
    assert set(r.sigma) == {2, 3}
    assert r.zero_class is ZeroClass.NOT_IN_SPECTRUM


def test_pointwise_product_vectors():
    p = pointwise_product(fv(0, 2, 3), fv(1, 1, 0))
    assert p.values.values == (0, 2, 0)


def test_pointwise_product_periodic():
    p = pointwise_product(ep((), (2, 3)), ep((), (1, 0, 1)))
    assert p.values.cycle == (2, 0, 2, 3, 0, 3)
    for n in range(1, 20):
        want = ep((), (2, 3)).value_at(n) * ep((), (1, 0, 1)).value_at(n)
        assert p.value_at(n) == want


def test_pointwise_product_tail_scaling():
    p = pointwise_product(dt((), 1), ep((), (5,)))
    assert isinstance(p.values, DecayingTail)
    assert p.values.c == 5
    q = pointwise_product(ep((), (5,)), dt((), 1))  # commuted order
    assert q.values.c == 5
    z = pointwise_product(dt((), 1), ep((), (0,)))
    assert z.is_identically_zero


def test_pointwise_product_unrepresentable():
    with pytest.raises(UnsupportedProductError):
        pointwise_product(dt((), 1), dt((), 1))
    with pytest.raises(UnsupportedProductError):
        pointwise_product(dt((), 1), ep((), (1, 2)))
    with pytest.raises(InputError):
        pointwise_product(fv(1, 2), ep((), (1,)))


def test_mul_operator_syntax():
    p = fv(1, 2) * fv(3, 4)
    assert p.values.values == (3, 8)


def written_out(f):
    """The same element with its zero run stored atom by atom."""
    v = f.values
    pre = v.prefix + (0j,) * v.zeros
    if isinstance(v, DecayingTail):
        return dt(pre, v.c)
    return ep(pre, v.cycle)


def outcome(fn, *args):
    """The result of ``fn``, or the type of the error it raised."""
    try:
        return fn(*args)
    except (DegenerateInputError, UnsupportedProductError) as exc:
        return type(exc)


def atoms(f, k=60):
    return [f.value_at(m) for m in range(1, k + 1)]


def test_zero_runs_match_written_out_form():
    rng = random.Random(11)
    values = (0, 0.05, -0.3j, 1, 2 - 1j, 0.004)
    pick = lambda lo, hi: [rng.choice(values) for _ in range(rng.randint(lo, hi))]

    def periodic():
        return MeasurableFn(N, EventuallyPeriodic(pick(0, 4), pick(1, 3), rng.randint(0, 5)))

    def tail():
        c = rng.choice((0.5, 1.7 + 0.3j, -2, 3))
        return MeasurableFn(N, DecayingTail(pick(0, 4), c, rng.randint(0, 5)))

    def constant():
        k = rng.choice((0, 0, 2.5, -1j))
        return MeasurableFn(N, EventuallyPeriodic(pick(0, 4), (k,), rng.randint(0, 5)))

    for _ in range(200):
        f = rng.choice((periodic, tail))()
        ref = written_out(f)
        assert atoms(f) == atoms(ref)
        assert essential_stats(f) == essential_stats(ref)
        assert outcome(spectrum_mult, f) == outcome(spectrum_mult, ref)
        assert _zero_set_indicator(f, DEFAULT_TOL) == _zero_set_indicator(ref, DEFAULT_TOL)
        for n in range(1, 7):
            w, wref = outcome(_sublevel_indicator, f, n), outcome(_sublevel_indicator, ref, n)
            if isinstance(w, MeasurableFn):
                assert atoms(w) == atoms(wref) and linf_norm(w) == linf_norm(wref)
                assert len(w.values.prefix) == len(f.values.prefix) + f.values.zeros
            else:
                assert w is wref
        assert serialize_element(f) == serialize_element(ref)

        g = rng.choice((periodic, tail, constant))()
        for a, b in ((f, g), (g, f)):
            p = outcome(pointwise_product, a, b)
            pref = outcome(pointwise_product, written_out(a), written_out(b))
            if not isinstance(p, MeasurableFn):
                assert p is pref
                continue
            assert atoms(p) == atoms(pref)
            # A tail product stores c k / m, not (c / m) k: equal up to rounding.
            exact = [x * y for x, y in zip(atoms(a), atoms(b))]
            assert atoms(p) == pytest.approx(exact, rel=1e-15, abs=0)
            assert essential_stats(p) == essential_stats(pref)
            assert len(p.values.prefix) == max(len(a.values.prefix), len(b.values.prefix))


def test_tail_witness_stores_only_the_prefix():
    w = _sublevel_indicator(dt((), 3), 10**9)
    assert w.values.prefix == () and w.values.zeros == 3 * 10**9
    assert w.value_at(3 * 10**9) == 0 and w.value_at(3 * 10**9 + 1) == 1
    f = dt((0.5, 0), 3)
    w = _sublevel_indicator(f, 10**9)
    assert w.values.prefix == (0, 1)
    p = pointwise_product(f, w)
    assert p.values.prefix == (0, 0)
    assert linf_norm(p) == 3 / (3 * 10**9 + 1)
    # Runs are written out (a zero set, a serialized element) only up to
    # 10**6 atoms; a longer one is refused instead of built.
    v = decide_zero_divisor_linf(_sublevel_indicator(dt((), 1), 10**6))
    assert v.is_left_zero_divisor is TriState.YES
    for call in (decide_zero_divisor_linf, serialize_element, lambda g: _sublevel_indicator(g, 1)):
        with pytest.raises(InputError, match="zero atoms"):
            call(_sublevel_indicator(dt((), 1), 10**6 + 1))
