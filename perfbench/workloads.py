"""Seeded request generator with an independent expected-outcome oracle.

Each workload is a sequence of rounds.  A round is a fixed list of slots
(request form, mode and size class); the seed picks every number inside a
slot and the order of the slots.  Because each round has the same cost
structure, a run that serves whole rounds measures the same mix on every
seed, and the latency percentiles fall inside tiers of similar requests
rather than on the edge between a cheap and an expensive class.

Expected outcomes come from how each input is built, never from calling
``tdzcert``: disk verdicts from the chosen roots, ``compose_lp`` verdicts
from a brute-force scan of the map, ``linf``/``mult`` and Hardy verdicts
from the chosen values and symbol shapes.  Inputs whose outcome would sit
close to a numerical threshold are redrawn, so a mismatch always means
the program answered wrongly.
"""

from __future__ import annotations

import cmath
import json
import math
import random

import numpy as np

# The library's default eps_norm, which every request runs under.
EPS_NORM = 1e-6


def _pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _polar(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def _item(doc: dict, expect: dict) -> dict:
    """One request: the JSON text the CLI reads and what it must answer.

    Both are kept as text: strings are invisible to the garbage collector,
    so the benchmark's own data does not lengthen the collections that
    run inside timed requests.
    """
    return {"text": json.dumps(doc), "expect": json.dumps(expect)}


# ---------------------------------------------------------------- disk


def _exterior_radius(d: int) -> float:
    """Smallest root radius that keeps min|p| / max|p| >= 1e-3 on the circle.

    For roots r_i outside the disk, min|p| / max|p| >= prod (|r_i| - 1) /
    (|r_i| + 1), so each factor must reach (1e-3)^(1/d).  The same bound
    keeps a circle root well conditioned next to the others.
    """
    if d < 1:
        return 1.2
    f = 1e-3 ** (1.0 / d)
    return max(1.2, (1.0 + f) / (1.0 - f))


def _coeffs_from_roots(roots, lead: complex) -> list:
    highest_first = np.poly(np.asarray(roots, dtype=complex)) * lead
    return [_pair(c) for c in highest_first[::-1]]


def _witness_ratio(coeffs: list, z0: complex, depth: int) -> float:
    """Grid estimate of ||p f_depth|| / ||p f_1|| for the peak witnesses
    f_n = ((1 + conj(z0) z) / 2)^n, on 4096 points of the circle."""
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)
    c = np.array([complex(*x) for x in coeffs])
    p = np.abs(np.polyval(c[::-1], z))
    g = np.abs(1.0 + np.conj(z0) * z) / 2.0
    return float(np.max(p * g**depth) / np.max(p * g))


def disk_item(rng: random.Random, cls: str, mode: str, degree: int, depth: int = 50) -> dict:
    """A disk request of class ``tdz``, ``regular`` or ``singular``."""
    while True:
        lead = _polar(rng, 0.5, 2.0)
        if cls == "tdz":
            theta = rng.uniform(0.0, 2.0 * math.pi)
            z0 = cmath.exp(1j * theta)
            r = _exterior_radius(degree - 1)
            roots = [z0] + [_polar(rng, r, 1.5 * r) for _ in range(degree - 1)]
        elif cls == "regular":
            r = _exterior_radius(degree)
            roots = [_polar(rng, r, 1.5 * r) for _ in range(degree)]
        else:
            r = 1.0 / _exterior_radius(degree)
            roots = [_polar(rng, 0.3 * r, r) for _ in range(degree)]
        coeffs = _coeffs_from_roots(roots, lead)
        passes = None
        if cls == "tdz" and mode == "certify":
            # The harness passes when ||p f_depth|| < max(eps_norm, half of
            # ||p f_1||); product norms never increase (|f_n| shrinks
            # pointwise), so the ratio decides.  Redraw near the edge.
            ratio = _witness_ratio(coeffs, z0, depth)
            if 0.45 < ratio < 0.55:
                continue
            passes = ratio <= 0.45
        break
    doc = {"algebra": "disk", "coeffs": coeffs, "mode": mode}
    if mode == "certify":
        doc["tolerances"] = {"n_witness": depth}
    cert_type = {"tdz": "witness_sequence", "regular": "regularity_bound", "singular": None}[cls]
    eq = {
        "verdict.zd": False,
        "verdict.tdz": cls == "tdz",
        "verdict.regular": cls == "regular",
        "verdict.certificate.type": cert_type,
        "verdict.warnings": None,
    }
    exit_code = 0
    if mode == "certify":
        if cls == "tdz":
            eq["report.passes"] = passes
            eq["report.samples.#"] = depth
            exit_code = 0 if passes else 3
        elif cls == "regular":
            eq["report.passes"] = True
        else:
            eq["report"] = None
    return _item(doc, {"exit": exit_code, "eq": eq})


def _degree(rng: random.Random, bucket: int, buckets: int) -> int:
    """A degree in 1..16 from the ``bucket``-th of ``buckets`` equal ranges."""
    lo = 1 + (16 * bucket) // buckets
    hi = (16 * (bucket + 1)) // buckets
    return rng.randint(lo, hi)


def disk_round(rng: random.Random, r: int) -> list:
    items = []
    # Deep certificates: cost grows steeply with depth and degree, so the
    # degree ranges rotate across rounds instead of being drawn freely.
    for k, depth in enumerate((50, 40, 30)):
        items.append(disk_item(rng, "tdz", "certify", _degree(rng, (r + k) % 3, 3), depth))
    for b in range(5):  # the 90th-percentile tier
        items.append(disk_item(rng, "tdz", "certify", _degree(rng, b, 5), 20))
    for b in range(4):
        items.append(disk_item(rng, "tdz", "certify", _degree(rng, b, 4), 10))
    for b in range(7):
        d = _degree(rng, b, 7)
        for cls in ("tdz", "regular", "singular"):
            items.append(disk_item(rng, cls, "analyze", d))
        for cls in ("regular", "singular"):
            items.append(disk_item(rng, cls, "certify", d))
    for cls in ("tdz", "regular", "singular"):
        items.append(disk_item(rng, cls, "analyze", rng.randint(1, 16)))
    return items


# ------------------------------------------------------- linf and mult


def _values(rng: random.Random, n: int) -> list:
    return [_polar(rng, 0.2, 2.0) for _ in range(n)]


def _sup_below(moduli, level: float) -> float:
    return max([m for m in moduli if m < level], default=0.0)


def _tail_witness_norm(prefix_moduli, c_mod: float, n: int) -> float:
    """sup of |f| over E_n = {|f| < 1/n} for f = prefix, then c/m."""
    cut = max(len(prefix_moduli), math.floor(c_mod * n))
    return max(_sup_below(prefix_moduli, 1.0 / n), c_mod / (cut + 1))


def symbol(rng: random.Random, form: str, zero: bool, depth: int = 50, c_range=(0.5, 3.0)):
    """An L-infinity element and its expected verdict and certificate outcome.

    ``form`` is ``vector`` (finite atoms), ``periodic`` or ``decay``
    (c/n tail); ``zero`` places an exact zero on an atom.  Returns the
    JSON body ``{"space", "fn"}``, the expected verdict fields, and the
    expected report fields of a certify run at witness depth ``depth``.
    """
    while True:
        if form == "vector":
            vals = _values(rng, rng.randint(2 if zero else 1, 8))
            if zero:  # at most one zero: the zero element itself is refused
                vals[rng.randrange(len(vals))] = 0j
            body = {
                "space": {"finite_atoms": [rng.uniform(0.1, 3.0) for _ in vals]},
                "fn": {"vector": [_pair(v) for v in vals]},
            }
            moduli, c_mod = [abs(v) for v in vals], None
        elif form == "periodic":
            prefix = _values(rng, rng.randint(1 if zero else 0, 6))
            cycle = _values(rng, rng.randint(1, 4))
            if zero:
                target = prefix if prefix and rng.random() < 0.5 else cycle
                target[rng.randrange(len(target))] = 0j
            body = {"space": "counting_n", "fn": {"prefix": [_pair(v) for v in prefix], "cycle": [_pair(v) for v in cycle]}}
            moduli, c_mod = [abs(v) for v in prefix + cycle], None
        else:
            prefix = _values(rng, rng.randint(1 if zero else 0, 6))
            if zero:
                prefix[rng.randrange(len(prefix))] = 0j
            c = _polar(rng, *c_range)
            body = {"space": "counting_n", "fn": {"prefix": [_pair(v) for v in prefix], "decay_c": _pair(c)}}
            moduli, c_mod = [abs(v) for v in prefix], abs(complex(*_pair(c)))
        tdz = zero or c_mod is not None
        passes = True
        if tdz:
            # Witness product norms: sup of |f| over {|f| < 1/n}.
            if c_mod is None:
                first, last = _sup_below(moduli, 1.0), _sup_below(moduli, 1.0 / depth)
            else:
                first = _tail_witness_norm(moduli, c_mod, 1)
                last = _tail_witness_norm(moduli, c_mod, depth)
            bar = max(EPS_NORM, 0.5 * first)
            if 0.9 * bar <= last <= 1.1 * bar:
                continue
            passes = last < bar
        break
    if zero:
        zero_class = "point_spectrum"
    elif c_mod is not None:
        zero_class = "continuous_spectrum"
    else:
        zero_class = "not_in_spectrum"
    eq = {
        "verdict.zd": zero,
        "verdict.tdz": tdz,
        "verdict.regular": not tdz,
        "verdict.zero_class": zero_class,
        "verdict.certificate.type": "witness_sequence" if tdz else "regularity_bound",
        "verdict.annihilator.type": "annihilator" if zero else None,
    }
    certify_eq = {"report.passes": passes, "annihilator_report.passes": True if zero else None}
    return body, eq, certify_eq


def linf_item(rng: random.Random, form: str, zero: bool, mode: str, depth: int = 50, c_range=(0.5, 3.0)) -> dict:
    body, eq, certify_eq = symbol(rng, form, zero, depth, c_range)
    doc = {"algebra": "linf", **body, "mode": mode}
    return _with_mode(doc, eq, certify_eq, mode, depth)


def _p_value(rng: random.Random):
    return rng.choice([1, 1.5, 2, 3.5, "inf"])


def mult_item(rng: random.Random, form: str, zero: bool, mode: str, depth: int = 50, c_range=(0.5, 3.0)) -> dict:
    body, eq, certify_eq = symbol(rng, form, zero, depth, c_range)
    doc = {"operator": "mult", "p": _p_value(rng), "h": body, "mode": mode}
    return _with_mode(doc, eq, certify_eq, mode, depth)


def _with_mode(doc: dict, eq: dict, certify_eq: dict, mode: str, depth: int) -> dict:
    exit_code = 0
    if mode == "certify":
        if depth != 50:
            doc["tolerances"] = {"n_witness": depth}
        eq = {**eq, **certify_eq}
        if not certify_eq["report.passes"]:
            exit_code = 3
    return _item(doc, {"exit": exit_code, "eq": eq})


def _value_at(body: dict, m: int) -> complex:
    """h(m), 1-based, computed as the representation defines it."""
    fn = body["fn"]
    if "vector" in fn:
        return complex(*fn["vector"][m - 1])
    prefix = fn.get("prefix", [])
    if m <= len(prefix):
        return complex(*prefix[m - 1])
    if "cycle" in fn:
        cycle = fn["cycle"]
        return complex(*cycle[(m - len(prefix) - 1) % len(cycle)])
    return complex(*fn["decay_c"]) / m


def _ess_sup(body: dict) -> float:
    fn = body["fn"]
    moduli = [abs(complex(*x)) for key in ("vector", "prefix", "cycle") for x in fn.get(key, [])]
    if "decay_c" in fn:
        moduli.append(abs(complex(*fn["decay_c"])) / (len(fn.get("prefix", [])) + 1))
    return max(moduli)


def _top_gap(diag: list) -> float:
    """Relative gap between the two largest distinct |h(m)| on the section."""
    top = sorted({abs(v) for v in diag}, reverse=True)
    return 1.0 if len(top) < 2 else (top[0] - top[1]) / top[0]


def mult_section_item(rng: random.Random, n: int, form: str, gap: float | None = None) -> dict:
    """``mult`` in section mode at size ``n``.

    With ``gap`` set, the two largest |h(m)| on the section differ by that
    relative amount: power iteration for the section norm then converges
    slowly, and at 1e-4 not within its iteration cap.  Without it, the
    gap is kept above 15% (vectors get one value well above the rest).
    """
    while True:
        if gap is not None:
            top = rng.uniform(0.5, 2.0)
            phase = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            prefix = [_polar(rng, 0.1 * top, 0.9 * top) for _ in range(rng.randint(0, 5))]
            prefix.append((1.0 - gap) * top * phase)
            rng.shuffle(prefix)
            body = {"space": "counting_n", "fn": {"prefix": [_pair(v) for v in prefix], "cycle": [_pair(top * phase)]}}
            eq = {"verdict.zd": False, "verdict.tdz": False, "verdict.regular": True, "verdict.zero_class": "not_in_spectrum"}
        elif form == "vector":
            zero = rng.random() < 0.3
            vals = [_polar(rng, 0.2, 1.5) for _ in range(n)]
            vals[rng.randrange(n)] = _polar(rng, 1.8, 2.0)
            if zero:
                vals[rng.randrange(n)] = 0j
            body = {
                "space": {"finite_atoms": [rng.uniform(0.1, 3.0) for _ in vals]},
                "fn": {"vector": [_pair(v) for v in vals]},
            }
            eq = {
                "verdict.zd": zero,
                "verdict.tdz": zero,
                "verdict.regular": not zero,
                "verdict.zero_class": "point_spectrum" if zero else "not_in_spectrum",
            }
        else:
            body, eq, _ = symbol(rng, form, rng.random() < 0.3)
        diag = [_value_at(body, m) for m in range(1, n + 1)]
        if gap is not None or _top_gap(diag) >= 0.15:
            break
    doc = {"operator": "mult", "p": 2, "h": body, "mode": "section", "N": n}
    close = {"section_norm": max(abs(v) for v in diag), "ess_sup": _ess_sup(body)}
    return _item(doc, {"exit": 0, "eq": eq, "close": close, "diag": [_pair(v) for v in diag]})


# ---------------------------------------------------------- compose_lp


def _phi(prefix: list, tail: dict, n: int) -> int:
    if n <= len(prefix):
        return prefix[n - 1]
    if "shift" in tail:
        return n + tail["shift"]
    return -(-n // tail["divide"])


def _scan_map(prefix: list, tail: dict) -> dict:
    """Injectivity, surjectivity and fibre sizes by brute force over a window
    that reaches past the prefix, its images and the tail's reach."""
    k = tail.get("divide", 1)
    c = tail.get("shift", 0)
    top = max(prefix, default=0)
    last_value = len(prefix) + abs(c) + top + 2  # every value that can be missed
    window = last_value * k + 2 * len(prefix) + 2 * k + abs(c) + 16
    fibres: dict[int, int] = {}
    for n in range(1, window + 1):
        v = _phi(prefix, tail, n)
        fibres[v] = fibres.get(v, 0) + 1
    injective = all(count == 1 for count in fibres.values())
    surjective = all(fibres.get(m, 0) > 0 for m in range(1, last_value + 1))
    widest = max(fibres.get(m, 0) for m in range(1, last_value + 1))
    return {
        "injective": injective,
        "surjective": surjective,
        "widest": max(widest, k),
    }


def lp_map(rng: random.Random, kind: str) -> tuple[list, dict]:
    """A self-map of the naturals: ``bijective``, ``shift`` or ``divide``."""
    if kind == "bijective":
        prefix = list(range(1, rng.randint(0, 8) + 1))
        rng.shuffle(prefix)
        return prefix, rng.choice([{"shift": 0}, {"divide": 1}])
    length = rng.randint(0, 8)
    if kind == "shift":
        c = rng.randint(-3, 3)
        while length + 1 + c < 1:
            length += 1
        prefix = [rng.randint(1, length + 6) for _ in range(length)]
        return prefix, {"shift": c}
    prefix = [rng.randint(1, length + 4) for _ in range(length)]
    return prefix, {"divide": rng.randint(2, 5)}


def _lp_expect(prefix: list, tail: dict, p) -> dict:
    scan = _scan_map(prefix, tail)
    inj, surj = scan["injective"], scan["surjective"]
    pe = math.inf if p == "inf" else float(p)
    norm = 1.0 if math.isinf(pe) else scan["widest"] ** (1.0 / pe)
    eq = {
        "verdict.left_zd": not surj,
        "verdict.right_zd": not inj,
        "verdict.tdz": not (inj and surj),
        "verdict.regular": inj and surj,
        "map.injective": inj,
        "map.surjective": surj,
    }
    return {"eq": eq, "close": {"norm": norm}, "widest": scan["widest"]}


def lp_item(rng: random.Random, kind: str, mode: str) -> dict:
    prefix, tail = lp_map(rng, kind)
    p = _p_value(rng)
    exp = _lp_expect(prefix, tail, p)
    eq = dict(exp["eq"])
    if mode == "certify":
        eq["report.passes"] = True
        if not eq["map.injective"] and not eq["map.surjective"]:
            eq["extra_reports.0.passes"] = True
    doc = {"operator": "compose_lp", "p": p, "phi": {"prefix": prefix, "tail": tail}, "mode": mode}
    return _item(doc, {"exit": 0, "eq": eq, "close": exp["close"]})


def lp_section_item(rng: random.Random, n: int, kind: str) -> dict:
    prefix, tail = lp_map(rng, kind)
    exp = _lp_expect(prefix, tail, 2)
    eq = dict(exp["eq"])
    rows = [_phi(prefix, tail, i) for i in range(1, n + 1)]
    # The section keeps only the fibres' members up to n, so its norm can
    # fall short of the operator's when a wide fibre reaches past n.
    inside = max(rows.count(m) for m in range(1, n + 1))
    eq["adjoint_rn.identity_holds"] = True
    eq["adjoint_rn.norms_agree"] = inside == exp["widest"]
    close = {**exp["close"], "adjoint_rn.section_norm": math.sqrt(inside)}
    doc = {"operator": "compose_lp", "p": 2, "phi": {"prefix": prefix, "tail": tail}, "mode": "section", "N": n}
    return _item(doc, {"exit": 0, "eq": eq, "close": close, "rows": rows})


# ------------------------------------------------------- compose_hardy


def _general_symbol(rng: random.Random) -> list:
    """Coefficients of a degree 1-3 symbol; sum |c_i| <= 0.9 keeps it in the disk."""
    weights = [rng.random() + 0.05 for _ in range(rng.randint(2, 4))]
    scale = rng.uniform(0.5, 0.9) / sum(weights)
    return [_pair(_polar(rng, w * scale, w * scale)) for w in weights]


def _flat_symbol(rng: random.Random, order: int, k: int) -> tuple[list, bool]:
    """a z^k with |a| < 1, and whether its order-N section is full rank.

    Column j of the section holds a^j in row k j.  For k >= 2 the columns
    past N/k are zero, so the section is rank deficient; for k = 1 the
    singular values are |a|^j and the rank probe reports full rank iff
    |a|^(N-1) >= eps_norm.
    """
    while True:
        a = _polar(rng, 0.3, 0.95)
        if k >= 2:
            return [[0.0, 0.0]] * k + [_pair(a)], False
        log_ratio = (order - 1) * math.log10(abs(a))
        if abs(log_ratio + 6.0) >= 1.0:
            return [[0.0, 0.0], _pair(a)], log_ratio > -6.0


def hardy_item(rng: random.Random, shape: str, mode: str, order: int) -> dict:
    """``compose_hardy`` with a symbol of the named shape."""
    full_rank = None
    if shape == "constant":
        coeffs = [_pair(_polar(rng, 0.0, 0.9))]
        eq = {"verdict.left_zd": True, "verdict.right_zd": True, "verdict.tdz": True, "verdict.regular": False}
        reports = 2
    elif shape == "identity":
        coeffs = [[0.0, 0.0], [1.0, 0.0]]
        eq = {"verdict.left_zd": False, "verdict.right_zd": False, "verdict.tdz": False, "verdict.regular": True}
        reports = 1
    elif shape == "monomial":
        k = rng.randint(2, 4)
        coeffs = [[0.0, 0.0]] * k + [[1.0, 0.0]]
        eq = {"verdict.left_zd": False, "verdict.right_zd": True, "verdict.tdz": True, "verdict.regular": False}
        reports = 1
    else:
        if shape == "flat":
            coeffs, full_rank = _flat_symbol(rng, order, rng.choice([1, 1, 2, 3]))
        else:
            coeffs = _general_symbol(rng)
        eq = {"verdict.left_zd": False, "verdict.right_zd": None, "verdict.tdz": None, "verdict.regular": None}
        eq["verdict.rank_probe.order"] = order
        if full_rank is not None:
            eq["verdict.rank_probe.full_rank"] = full_rank
        reports = 0
    doc = {"operator": "compose_hardy", "symbol": {"coeffs": coeffs}, "order": order, "mode": mode}
    if mode == "certify":
        eq["report.passes"] = True if reports else None
        if reports == 2:
            eq["extra_reports.0.passes"] = True
    return _item(doc, {"exit": 0, "eq": eq})


def hardy_section_item(rng: random.Random, n: int) -> dict:
    """Section of a general symbol: column 1 holds the symbol's coefficients."""
    coeffs = _general_symbol(rng)
    doc = {"operator": "compose_hardy", "symbol": {"coeffs": coeffs}, "order": 8, "mode": "section", "N": n}
    column = (coeffs + [[0.0, 0.0]] * n)[:n]
    return _item(doc, {"exit": 0, "eq": {}, "column1": column})


# -------------------------------------------------------------- rounds


def sections_round(rng: random.Random, r: int) -> list:
    forms = ("vector", "periodic", "decay")
    kinds = ("shift", "divide", "bijective")

    def section(n: int, k: int) -> dict:
        if k % 2 == 0:
            return mult_section_item(rng, n, forms[k // 2 % 3])
        return lp_section_item(rng, n, kinds[k // 2 % 3])

    items = [section(400, 0), section(400, 1)]
    # Gap 1e-4 just above the direct-SVD size: the section norm's power
    # iteration does not converge (a known failure, kept on purpose).
    items.append(mult_section_item(rng, rng.randint(65, 80), "periodic", gap=rng.uniform(0.8e-4, 1.2e-4)))
    items += [section(300, k) for k in range(5)]  # the 90th-percentile tier
    items += [section(200, k) for k in range(4)]
    for gap in (1e-3, 1e-2, 1e-1):
        items.append(mult_section_item(rng, rng.randint(96, 128), "periodic", gap=rng.uniform(gap, 1.3 * gap)))
    items += [section(96, k) for k in range(3)]
    # The median tier: one size, so its cost does not depend on the seed.
    items += [section(48, k) for k in range(16)]
    items += [section(rng.randint(16, 40), k) for k in range(16)]
    return items


def mixed_round(rng: random.Random, r: int) -> list:
    items = [
        # Deep c/n witnesses: O(|c| depth^2) work in the measure layer, so
        # |c| stays in a narrow range.
        linf_item(rng, "decay", False, "certify", depth=1000, c_range=(1.7, 1.8)),
        mult_item(rng, "decay", rng.random() < 0.5, "certify", depth=700, c_range=(1.7, 1.8)),
        linf_item(rng, "decay", True, "certify", depth=500, c_range=(1.7, 1.8)),
        mult_item(rng, "decay", False, "certify", depth=200, c_range=(1.7, 1.8)),
        linf_item(rng, "decay", False, "certify", depth=100, c_range=(1.7, 1.8)),
        mult_item(rng, "decay", True, "certify", depth=50, c_range=(1.7, 1.8)),
    ]
    # Flat-modulus symbols, the 90th-percentile tier: every grid point ties
    # in the symbol's sup norm.  The cost of a z^k depends on the digits of
    # a, so most of the tier has a fixed symbol.
    for mode in ("analyze", "certify"):
        items.append(hardy_item(rng, "identity", mode, rng.choice((8, 16, 32, 64))))
        items.append(hardy_item(rng, "monomial", mode, rng.choice((8, 16, 32, 64))))
        items.append(hardy_item(rng, "monomial", mode, rng.choice((8, 16, 32, 64))))
        items.append(hardy_item(rng, "flat", mode, rng.choice((8, 16, 32, 64))))
    # Requests of a few milliseconds.  Orders of at least 16 keep every one
    # of them above the cheap requests below, so the median always falls
    # at the same depth inside the cheap block.
    for mode in ("analyze", "certify"):
        items.append(hardy_item(rng, "constant", mode, rng.choice((16, 32, 64))))
    for mode in ("analyze", "analyze", "certify"):
        items.append(hardy_item(rng, "general", mode, rng.choice((16, 32, 64))))
    items += [hardy_section_item(rng, rng.randint(16, 64)) for _ in range(2)]
    for form in ("vector", "periodic"):
        items.append(linf_item(rng, form, True, "certify"))
        items.append(mult_item(rng, form, True, "certify"))
    # Cheap interactive traffic, about a millisecond each; the median tier.
    for mode in ("analyze", "certify"):
        for form, zero in (("vector", False), ("vector", True), ("periodic", False), ("periodic", True), ("decay", True)):
            if mode == "analyze" or not zero:
                items.append(linf_item(rng, form, zero, mode))
                items.append(mult_item(rng, form, zero, mode))
    for form in ("vector", "periodic", "decay"):
        items.append(linf_item(rng, form, form == "decay", "analyze"))
        items.append(mult_item(rng, form, False, "analyze"))
    for mode in ("analyze", "certify"):
        for kind in ("bijective", "shift", "divide") * 4:
            items.append(lp_item(rng, kind, mode))
    return items


ROUNDS = {"disk-certify": disk_round, "sections": sections_round, "mixed-small": mixed_round}


def make_round(workload: str, seed: int, r: int) -> list:
    """Round ``r`` of ``workload`` for ``seed``: a shuffled list of items,
    each ``{"text": request JSON, "expect": expected outcome}``."""
    rng = random.Random(f"{workload}/{seed}/{r}")
    items = ROUNDS[workload](rng, r)
    rng.shuffle(items)
    return items


# --------------------------------------------------------------- check


def _lookup(doc, path: str):
    """Follow a dotted path; a missing key reads as None, ``#`` as a length."""
    cur = doc
    for part in path.split("."):
        if part == "#":
            return len(cur) if isinstance(cur, list) else None
        if isinstance(cur, list):
            idx = int(part)
            cur = cur[idx] if idx < len(cur) else None
        elif isinstance(cur, dict):
            cur = cur.get(part)
        else:
            return None
    return cur


def check(expect_text: str, code, out: str) -> str | None:
    """None when the response matches the expectation, else the reason."""
    expect = json.loads(expect_text)
    if code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    try:
        resp = json.loads(out)
    except ValueError:
        return "response is not JSON"
    for path, want in expect["eq"].items():
        got = _lookup(resp, path)
        if got != want or type(got) is not type(want):
            return f"{path} = {got!r}, expected {want!r}"
    for path, want in expect.get("close", {}).items():
        got = _lookup(resp, path)
        if not isinstance(got, float) or abs(got - want) > 1e-5 * max(1.0, abs(want)):
            return f"{path} = {got!r}, expected {want!r}"
    if "diag" in expect or "rows" in expect:
        entries = resp.get("section", {}).get("entries")
        n = len(expect.get("diag") or expect["rows"])
        if not isinstance(entries, list) or len(entries) != n:
            return "section has the wrong size"
        zero_row = [[0.0, 0.0]] * n
        for i, row in enumerate(entries):
            want = list(zero_row)
            if "diag" in expect:
                want[i] = expect["diag"][i]
            elif expect["rows"][i] <= n:
                want[expect["rows"][i] - 1] = [1.0, 0.0]
            if row != want:
                return f"section row {i + 1} differs"
    if "column1" in expect:
        entries = resp["section"]["entries"]
        col = [row[1] for row in entries]
        if len(col) != len(expect["column1"]) or any(
            abs(complex(*a) - complex(*b)) > 1e-12 for a, b in zip(col, expect["column1"])
        ):
            return "section column 1 differs from the symbol's coefficients"
    return None
