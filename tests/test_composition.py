"""Composition operators on sequence spaces: maps, sections, adjoints."""

import itertools
import math

import numpy as np
import pytest

from tdzcert import (
    Annihilator,
    CompositionOperatorSpec,
    CompositionUnrepresentableError,
    CoordinateInjection,
    DifferenceFunctional,
    Divide,
    InputError,
    RegularityBound,
    SelfMapN,
    Shift,
    TriState,
    adjoint_rn_check,
    compose_maps,
    composition_norm,
    divisor_status,
    finite_section_composition,
    map_properties,
    operator_norm,
    preimage_count,
    rn_derivative,
    stabilized_block,
    tail_spread,
    verify_annihilator,
)

SHIFT1 = SelfMapN((), Shift(1))
IDENT = SelfMapN((), Shift(0))
DIVIDE2 = SelfMapN((), Divide(2))
MERGE = SelfMapN((1,), Shift(-1))  # 1,1,2,3,4,...: onto but not one-one


def random_maps(rng, count):
    maps = []
    while len(maps) < count:
        plen = int(rng.integers(0, 5))
        prefix = [int(rng.integers(1, 7)) for _ in range(plen)]
        if rng.integers(0, 2):
            c = int(rng.integers(-2, 4))
            if plen + 1 + c < 1:
                continue
            tail = Shift(c)
        else:
            tail = Divide(int(rng.integers(1, 4)))
        maps.append(SelfMapN(prefix, tail))
    return maps


def brute_preimages(phi, m, window=200):
    return [n for n in range(1, window + 1) if phi(n) == m]


def test_selfmap_validation():
    with pytest.raises(InputError):
        SelfMapN((0,), Shift(1))
    with pytest.raises(InputError):
        SelfMapN((), Shift(-1))  # sends 1 to 0
    with pytest.raises(InputError):
        Divide(0)
    with pytest.raises(InputError):
        SelfMapN((), "not a tail")
    with pytest.raises(InputError):
        SHIFT1(0)
    for bad in ((1.5, 2.7), (True,), ("2",)):
        with pytest.raises(InputError):
            SelfMapN(bad, Shift(0))
    assert SelfMapN((2.0, 1), Shift(0)).prefix_map == (2, 1)
    phi = SelfMapN((3, 3), Shift(-2))  # 3,3,1,2,3,...
    assert [phi(n) for n in range(1, 6)] == [3, 3, 1, 2, 3]
    assert DIVIDE2(7) == 4 and DIVIDE2(8) == 4
    assert SelfMapN((), Divide(1)).identity_tail
    assert IDENT.identity_tail and not SHIFT1.identity_tail


def test_spec_validation():
    with pytest.raises(InputError):
        CompositionOperatorSpec("phi", 2)
    with pytest.raises(InputError):
        CompositionOperatorSpec(SHIFT1, 0)
    assert CompositionOperatorSpec(SHIFT1, math.inf).p == math.inf


def test_preimage_count_vs_brute_force():
    rng = np.random.default_rng(11)
    for phi in random_maps(rng, 40):
        for m in range(1, 13):
            assert preimage_count(phi, m) == len(brute_preimages(phi, m))
    with pytest.raises(InputError):
        preimage_count(SHIFT1, 0)


def test_rn_derivative_examples():
    rn = rn_derivative(SHIFT1)
    assert rn.values.prefix == (0,) and rn.values.cycle == (1,)

    rn = rn_derivative(DIVIDE2)
    assert rn.values.prefix == () and rn.values.cycle == (2,)
    for m in range(1, 100):
        assert rn.value_at(m) == len(brute_preimages(DIVIDE2, m, 300))

    rn = rn_derivative(MERGE)
    assert rn.values.prefix == (2,) and rn.values.cycle == (1,)


def test_composition_norm():
    assert composition_norm(CompositionOperatorSpec(SHIFT1, 2)) == pytest.approx(1.0)
    assert composition_norm(CompositionOperatorSpec(DIVIDE2, 2)) == pytest.approx(
        math.sqrt(2)
    )
    assert composition_norm(CompositionOperatorSpec(DIVIDE2, 1)) == pytest.approx(2.0)
    assert composition_norm(
        CompositionOperatorSpec(DIVIDE2, math.inf)
    ) == pytest.approx(1.0)
    assert composition_norm(CompositionOperatorSpec(MERGE, 2)) == pytest.approx(
        math.sqrt(2)
    )


def brute_properties(phi, value_bound=20, window=200):
    image = [phi(n) for n in range(1, window + 1)]
    injective = len(set(image)) == len(image)
    surjective = all(m in image for m in range(1, value_bound + 1))
    return injective, surjective


def test_map_properties_examples():
    p = map_properties(SHIFT1)
    assert p.injective and not p.surjective and p.missed_value == 1

    p = map_properties(MERGE)
    assert not p.injective and p.surjective
    assert p.collision == (1, 2)

    p = map_properties(DIVIDE2)
    assert not p.injective and p.surjective

    p = map_properties(IDENT)
    assert p.invertible and p.collision is None and p.missed_value is None


def test_map_properties_vs_brute_force():
    rng = np.random.default_rng(12)
    for phi in random_maps(rng, 60):
        got = map_properties(phi)
        injective, surjective = brute_properties(phi)
        assert got.injective == injective
        assert got.surjective == surjective
        if got.collision is not None:
            a, b = got.collision
            assert a != b and phi(a) == phi(b)
        if got.missed_value is not None:
            assert not brute_preimages(phi, got.missed_value)


def test_divisor_status_left_only():
    v = divisor_status(CompositionOperatorSpec(SHIFT1, 2))
    assert v.is_left_zero_divisor is TriState.YES
    assert v.is_right_zero_divisor is TriState.NO
    assert v.is_tdz and not v.is_regular
    cert = v.certificate
    assert isinstance(cert.element, CoordinateInjection)
    assert cert.element.m == 1


def test_divisor_status_right_only():
    v = divisor_status(CompositionOperatorSpec(MERGE, 2))
    assert v.is_right_zero_divisor is TriState.YES
    assert v.is_left_zero_divisor is TriState.NO
    cert = v.certificate
    assert isinstance(cert.element, DifferenceFunctional)
    assert cert.element.a == 1 and cert.element.b == 2


def test_divisor_status_two_sided():
    phi = SelfMapN((3,), Shift(1))  # 3,3,4,5,...: misses 1 and 2, repeats 3
    v = divisor_status(CompositionOperatorSpec(phi, 2))
    assert v.is_left_zero_divisor is TriState.YES
    assert v.is_right_zero_divisor is TriState.YES
    kinds = {type(c.element) for c in v.all_certificates}
    assert kinds == {DifferenceFunctional, CoordinateInjection}


def test_divisor_status_regular_inverse():
    swap = SelfMapN((2, 1), Shift(0))
    v = divisor_status(CompositionOperatorSpec(swap, 2))
    assert v.is_regular and not v.is_tdz
    cert = v.certificate
    assert isinstance(cert, RegularityBound)
    assert cert.lambda0 == pytest.approx(1.0)
    inv = cert.inverse.phi
    for n in range(1, 50):
        assert inv(swap(n)) == n and swap(inv(n)) == n
    comp = compose_maps(swap, inv)
    assert all(comp(n) == n for n in range(1, 50))


def test_annihilators_are_exact_on_sections():
    n = 32
    for phi in (SHIFT1, MERGE, DIVIDE2, SelfMapN((3,), Shift(1))):
        spec = CompositionOperatorSpec(phi, 2)
        v = divisor_status(spec)
        c = finite_section_composition(spec, n)
        for cert in v.all_certificates:
            t = cert.element.section(n)
            mat = Annihilator(element=t, side=cert.side, description=cert.description)
            report = verify_annihilator(operator_norm, c, mat)
            assert report.passes
            if cert.side.value == "left":
                prod = c * t
            else:
                prod = t * c
            assert np.max(np.abs(prod.entries)) == 0.0


def test_annihilator_section_shapes():
    df = DifferenceFunctional(1, 2)
    assert df.min_section == 2
    assert operator_norm(df.section(5)) == pytest.approx(math.sqrt(2))
    with pytest.raises(InputError):
        df.section(1)
    ci = CoordinateInjection(3)
    assert ci.min_section == 3
    assert operator_norm(ci.section(4)) == pytest.approx(1.0)
    with pytest.raises(InputError):
        ci.section(2)


def test_finite_section_examples():
    e = finite_section_composition(CompositionOperatorSpec(SHIFT1, 2), 3)
    want = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    assert np.array_equal(e.entries, want)

    e = finite_section_composition(CompositionOperatorSpec(IDENT, 2), 4)
    assert np.array_equal(e.entries, np.eye(4))

    e = finite_section_composition(CompositionOperatorSpec(DIVIDE2, 2), 4)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = want[1, 0] = want[2, 1] = want[3, 1] = 1
    assert np.array_equal(e.entries, want)

    with pytest.raises(InputError):
        finite_section_composition(CompositionOperatorSpec(SHIFT1, 1), 3)
    with pytest.raises(InputError):
        finite_section_composition(CompositionOperatorSpec(SHIFT1, 2), 0)


def test_stabilized_block_rules():
    assert stabilized_block(SHIFT1, 8) == 8
    assert stabilized_block(MERGE, 8) == 7
    assert stabilized_block(DIVIDE2, 8) == 4
    assert tail_spread(SHIFT1) == 1
    assert tail_spread(MERGE) == 1
    assert tail_spread(DIVIDE2) == 2


def test_adjoint_rn_shift():
    r = adjoint_rn_check(CompositionOperatorSpec(SHIFT1, 2), 5)
    assert r.block == 5
    assert r.identity_holds and r.max_block_difference == 0.0
    assert r.norms_agree and r.formula_norm == pytest.approx(1.0)
    assert r.operator_is_tdz and r.rn_is_tdz
    assert r.tdz_routes_agree and r.left_routes_agree


def test_adjoint_rn_identity():
    r = adjoint_rn_check(CompositionOperatorSpec(IDENT, 2), 4)
    assert r.identity_holds and r.block == 4
    assert not r.operator_is_tdz and not r.rn_is_tdz


def test_adjoint_rn_divide_block_is_floor():
    spec = CompositionOperatorSpec(DIVIDE2, 2)
    r = adjoint_rn_check(spec, 8)
    assert r.block == 4
    assert r.identity_holds
    assert r.formula_norm == pytest.approx(math.sqrt(2))
    assert r.norms_agree
    # Just past the stabilized block the finite section loses preimages:
    # column 5 of the section sees none of 9, 10, so the Gram entry is 0
    # while the true preimage count is 2.  Any larger claimed block fails.
    c = finite_section_composition(spec, 8)
    gram = (c.adjoint() * c).entries
    assert gram[4, 4] == 0.0
    assert rn_derivative(DIVIDE2).value_at(5) == 2


def test_adjoint_rn_routes_can_split():
    # Onto but not one-one: the operator is a TDZ while the preimage
    # counts stay bounded away from zero.
    r = adjoint_rn_check(CompositionOperatorSpec(MERGE, 2), 6)
    assert r.identity_holds
    assert r.operator_is_tdz and not r.rn_is_tdz
    assert not r.tdz_routes_agree
    assert r.left_routes_agree


def test_adjoint_rn_minimal_size():
    with pytest.raises(InputError, match="need N >= 3"):
        adjoint_rn_check(CompositionOperatorSpec(DIVIDE2, 2), 2)
    with pytest.raises(InputError):
        adjoint_rn_check(CompositionOperatorSpec(DIVIDE2, 1), 8)


def test_adjoint_rn_random_maps():
    rng = np.random.default_rng(13)
    for phi in random_maps(rng, 25):
        n = phi.prefix_len + tail_spread(phi) + 8
        r = adjoint_rn_check(CompositionOperatorSpec(phi, 2), n)
        assert r.identity_holds, phi
        assert r.left_routes_agree, phi


def test_injectivity_shows_in_section_rows():
    # Distinct rows on the collision-complete index range characterize
    # injectivity once the section is large enough to contain the images.
    rng = np.random.default_rng(14)
    for phi in random_maps(rng, 30):
        props = map_properties(phi)
        bound = max(phi.prefix_len, 1) + 2 * tail_spread(phi) + max(
            phi.prefix_map, default=0
        )
        n = bound + tail_spread(phi) + max(phi.prefix_map, default=0) + 4
        e = finite_section_composition(CompositionOperatorSpec(phi, 2), n).entries
        rows = [tuple(e[i].real) for i in range(bound)]
        distinct = len(set(rows)) == len(rows)
        assert distinct == props.injective


def rule(tail):
    """(k, c) of the tail n -> ceil(n/k) + c, read off the tail's class."""
    return (1, tail.c) if isinstance(tail, Shift) else (tail.k, 0)


def small_maps(max_len=3):
    """Every map with prefix length <= max_len, values 1..6, Shift(-3..3)
    and Divide(1..4)."""
    tails = [Shift(c) for c in range(-3, 4)] + [Divide(k) for k in range(1, 5)]
    maps = []
    for plen in range(max_len + 1):
        for prefix in itertools.product(range(1, 7), repeat=plen):
            for tail in tails:
                if plen + 1 + rule(tail)[1] >= 1:
                    maps.append(SelfMapN(prefix, tail))
    return maps


def test_closed_forms_vs_scan_on_every_small_map():
    # Preimages of m <= 12 sit below (12 + 3) * 4 = 60, so a scan of 1..70
    # sees all of them; the tail covers every value past 7.
    window, values = 70, 12
    for phi in small_maps():
        k, c = rule(phi.tail)
        n0 = phi.prefix_len
        image = [phi(n) for n in range(1, window + 1)]
        assert image == [
            phi.prefix_map[n - 1] if n <= n0 else -(-n // k) + c
            for n in range(1, window + 1)
        ]
        preimages = {m: [] for m in range(1, values + 1)}
        first_collision, seen = None, {}
        for n, v in enumerate(image, start=1):
            if v in preimages:
                preimages[v].append(n)
            if first_collision is None and v in seen:
                first_collision = (seen[v], n)
            seen.setdefault(v, n)
        rn = rn_derivative(phi)
        for m, pre in preimages.items():
            assert preimage_count(phi, m) == len(pre) == rn.value_at(m), (phi, m)
        missed = next((m for m, pre in preimages.items() if not pre), None)
        props = map_properties(phi)
        assert props.collision == first_collision, phi
        assert props.missed_value == missed, phi
        assert props.invertible == (first_collision is None and missed is None)
        # stabilized_block: the largest B <= n with every preimage of each
        # m <= B inside 1..n.
        for n in range(n0, n0 + 8):
            block = 0
            while block < n and all(i <= n for i in preimages[block + 1]):
                block += 1
            assert stabilized_block(phi, n) == block, (phi, n)


def test_compose_maps_on_small_maps():
    maps = small_maps()
    short = [phi for phi in maps if phi.prefix_len <= 1]
    rng = np.random.default_rng(16)
    sample = [
        (maps[i], maps[j]) for i, j in rng.integers(0, len(maps), (20000, 2))
    ]
    for outer, inner in [(a, b) for a in short for b in short] + sample:
        (k1, c1), (k2, c2) = rule(outer.tail), rule(inner.tail)
        mixed = (k1 > 1 and c2 != 0) or (k2 > 1 and c1 != 0)
        if mixed:
            with pytest.raises(CompositionUnrepresentableError):
                compose_maps(outer, inner)
            continue
        comp = compose_maps(outer, inner)
        assert isinstance(comp.tail, Shift) == (k1 * k2 == 1)
        for n in range(1, 50):
            assert comp(n) == outer(inner(n)), (outer, inner, n)


def test_compose_maps_shift_shift():
    comp = compose_maps(SHIFT1, SelfMapN((), Shift(2)))
    assert isinstance(comp.tail, Shift) and comp.tail.c == 3
    assert comp.prefix_map == ()
    assert all(comp(n) == n + 3 for n in range(1, 30))


def test_compose_maps_divide_divide():
    comp = compose_maps(DIVIDE2, SelfMapN((), Divide(3)))
    assert isinstance(comp.tail, Divide) and comp.tail.k == 6
    for n in range(1, 120):
        assert comp(n) == -(-n // 6)


def test_compose_maps_identity_tails():
    outer = SelfMapN((5,), Shift(0))
    comp = compose_maps(outer, DIVIDE2)
    assert isinstance(comp.tail, Divide) and comp.tail.k == 2
    for n in range(1, 60):
        assert comp(n) == outer(DIVIDE2(n))

    inner = SelfMapN((4,), Shift(0))
    comp = compose_maps(DIVIDE2, inner)
    for n in range(1, 60):
        assert comp(n) == DIVIDE2(inner(n))


def test_compose_maps_unrepresentable():
    with pytest.raises(CompositionUnrepresentableError):
        compose_maps(SHIFT1, DIVIDE2)
    with pytest.raises(CompositionUnrepresentableError):
        compose_maps(DIVIDE2, SHIFT1)


def test_compose_maps_random_agree_pointwise():
    rng = np.random.default_rng(15)
    maps = random_maps(rng, 30)
    for outer, inner in zip(maps[::2], maps[1::2]):
        try:
            comp = compose_maps(outer, inner)
        except CompositionUnrepresentableError:
            continue
        for n in range(1, 120):
            assert comp(n) == outer(inner(n))


def test_composite_sections_multiply():
    # C_{outer after inner} = C_inner C_outer; finite sections agree on
    # every row whose images stay inside the truncation.
    n = 30
    cases = [
        (SHIFT1, SelfMapN((), Shift(2))),
        (DIVIDE2, SelfMapN((), Divide(3))),
        (SelfMapN((5,), Shift(0)), DIVIDE2),
    ]
    for outer, inner in cases:
        comp = compose_maps(outer, inner)
        e_out = finite_section_composition(CompositionOperatorSpec(outer, 2), n)
        e_in = finite_section_composition(CompositionOperatorSpec(inner, 2), n)
        e_comp = finite_section_composition(CompositionOperatorSpec(comp, 2), n)
        product = (e_in * e_out).entries
        qualifying = [
            i for i in range(1, n + 1) if inner(i) <= n and comp(i) <= n
        ]
        assert len(qualifying) >= n // 2
        for i in qualifying:
            assert np.array_equal(product[i - 1], e_comp.entries[i - 1])
