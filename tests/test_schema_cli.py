"""JSON schema round-trips and end-to-end command-line runs."""

import io
import json
import math

import numpy as np
import pytest

from tdzcert import (
    CirclePolynomial,
    CompositionOperatorSpec,
    CountingN,
    DecayingTail,
    Divide,
    EventuallyPeriodic,
    FiniteAtoms,
    FiniteVector,
    InputError,
    MeasurableFn,
    MultOperatorSpec,
    NumericError,
    OperatorMatrix,
    PolySymbol,
    SelfMapN,
    Shift,
    complex_from_json,
    complex_to_json,
    composition_matrix,
    finite_section_composition,
    parse_request,
    serialize_element,
    serialize_matrix,
)
from tdzcert import cli, schema
from tdzcert.cli import main, run_request


def run_cli(capsys, doc, *flags):
    code = main(["--stdin", *flags])
    return code


def cli_json(capsys, monkeypatch, doc, *flags):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = main(["--stdin", *flags])
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def test_complex_json_forms():
    assert complex_from_json(3) == 3 + 0j
    assert complex_from_json([1, 2]) == 1 + 2j
    assert complex_to_json(1 + 2j) == [1.0, 2.0]
    for bad in ("x", [1], [1, 2, 3], ["a", "b"], None):
        with pytest.raises(InputError):
            complex_from_json(bad)
    # An adjoint conjugates real entries to imaginary part -0.0; the
    # serialized matrix matches the per-entry form, signed zeros included.
    m = OperatorMatrix(np.array([[1, 2j, 0], [0.5, 3 - 1j, -4]])).adjoint()
    want = [[complex_to_json(z) for z in row] for row in m.entries]
    got = serialize_matrix(m)
    assert (got["rows"], got["cols"]) == (3, 2)
    assert json.dumps(got["entries"]) == json.dumps(want)
    assert "-0.0" in json.dumps(got["entries"])


def test_parse_disk_round_trip():
    doc = {"algebra": "disk", "coeffs": [[-0.5, 0], [0.5, 0]]}
    req = parse_request(doc)
    assert req.tag == "disk"
    assert isinstance(req.payload, CirclePolynomial)
    assert req.payload.coeffs == (-0.5, 0.5)
    again = serialize_element(req.payload)
    assert parse_request(again).payload == req.payload


def test_parse_linf_forms():
    doc = {
        "algebra": "linf",
        "space": {"finite_atoms": [1, 1, 1]},
        "fn": {"vector": [0, 2, 3]},
    }
    f = parse_request(doc).payload
    assert isinstance(f.space, FiniteAtoms)
    assert f.values.values == (0, 2, 3)

    doc = {
        "algebra": "linf",
        "space": "counting_n",
        "fn": {"prefix": [1], "cycle": [[0, 1]]},
    }
    f = parse_request(doc).payload
    assert isinstance(f.values, EventuallyPeriodic)
    assert f.values.cycle == (1j,)

    doc = {"algebra": "linf", "space": "counting_n", "fn": {"decay_c": [1, 0]}}
    f = parse_request(doc).payload
    assert isinstance(f.values, DecayingTail)
    assert f.values.c == 1

    for f in (
        MeasurableFn(FiniteAtoms([2.0, 3.0]), FiniteVector([1j, 2])),
        MeasurableFn(CountingN(), EventuallyPeriodic((5,), (1, 0))),
        MeasurableFn(CountingN(), DecayingTail((2,), 3j)),
    ):
        assert parse_request(serialize_element(f)).payload == f

    with pytest.raises(InputError):
        parse_request({"algebra": "linf", "space": "nowhere", "fn": {"vector": [1]}})
    with pytest.raises(InputError):
        parse_request(
            {"algebra": "linf", "space": "counting_n", "fn": {"mystery": 1}}
        )


def test_parse_operator_forms():
    doc = {
        "operator": "mult",
        "p": "inf",
        "h": {"space": "counting_n", "fn": {"decay_c": 1}},
    }
    spec = parse_request(doc).payload
    assert isinstance(spec, MultOperatorSpec)
    assert spec.p == math.inf
    assert parse_request(serialize_element(spec)).payload == spec

    doc = {
        "operator": "compose_lp",
        "p": 2,
        "phi": {"prefix": [1], "tail": {"shift": -1}},
    }
    spec = parse_request(doc).payload
    assert isinstance(spec, CompositionOperatorSpec)
    assert spec.phi == SelfMapN((1,), Shift(-1))
    assert parse_request(serialize_element(spec)).payload == spec

    doc = {"operator": "compose_lp", "phi": {"tail": {"divide": 2}}}
    spec = parse_request(doc).payload
    assert spec.phi == SelfMapN((), Divide(2)) and spec.p == 2.0

    doc = {"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]}}
    symbol, order = parse_request(doc).payload
    assert order == 8 and symbol.poly.coeffs == (0, 0.5)

    with pytest.raises(InputError):
        parse_request({"operator": "mult", "h": "not an object"})
    with pytest.raises(InputError):
        parse_request(
            {"operator": "compose_lp", "phi": {"prefix": [True], "tail": {"shift": 0}}}
        )
    with pytest.raises(InputError):
        parse_request({"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]}, "order": 0})
    with pytest.raises(InputError):
        parse_request({"operator": "mult", "p": "two", "h": {"space": "counting_n", "fn": {"decay_c": 1}}})


def test_parse_request_accepts_max_section():
    assert schema.MAX_SECTION == 2000
    req = parse_request({"operator": "compose_lp", "phi": {"tail": {"divide": 2}},
                         "mode": "section", "N": 2000})
    assert req.section_size == 2000
    req = parse_request({"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]},
                         "order": 2000})
    assert req.payload[1] == 2000


def assert_same_text(got, want):
    """Equality of two long texts, reported at the first difference
    (pytest's own diff of megabyte strings takes minutes)."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {i}: {got[i - 30:i + 30]!r} != {want[i - 30:i + 30]!r}")


def _matrix(shape, entries=()):
    e = np.zeros(shape, dtype=complex)
    for (i, j), z in entries:
        e[i, j] = z
    return OperatorMatrix(e)


_HARDY_SECTION = composition_matrix(
    PolySymbol(CirclePolynomial([0.1 + 0.2j, 0.4 - 0.1j, 0.3j])), 12
)


@pytest.mark.parametrize(
    "m",
    [
        _matrix((6, 6), [((1, 2), complex(-0.0, 0.0))]),
        _matrix((6, 6), [((4, 0), complex(0.0, -0.0))]),
        _matrix((6, 6), [((5, 5), complex(0.0, 2.5))]),
        _matrix((9, 9), [((0, 0), 5e-324), ((2, 8), complex(0.1, -1e300)),
                         ((8, 3), complex(-1 / 3, 0.1)), ((8, 4), 1e300)]),
        _matrix((5, 5)),
        _matrix((1, 1)),
        _matrix((1, 1), [((0, 0), -2.0)]),
        _matrix((1, 40), [((0, 17), 1.0)]),
        _matrix((40, 1), [((39, 0), 1j)]),
        OperatorMatrix(np.eye(50)[np.random.default_rng(5).permutation(50)]),
        finite_section_composition(CompositionOperatorSpec(SelfMapN([], Divide(2)), 2), 50),
        OperatorMatrix.diagonal([(-1) ** k / (k + 1) for k in range(50)]),
        # An adjoint's zeros are -0.0 in the imaginary part, so none is zero.
        OperatorMatrix.diagonal(range(1, 30)).adjoint(),
        _HARDY_SECTION,
        # 8 x 8 holds 64 entries: 7 nonzeros are below 1 in 8, 8 and 9 are not.
        _matrix((8, 8), [((k, k), 1.0 + k) for k in range(7)]),
        _matrix((8, 8), [((k, k), 1.0 + k) for k in range(8)]),
        _matrix((8, 8), [((k, k), 1.0 + k) for k in range(8)] + [((0, 7), -0.0)]),
    ],
)
def test_dumps_matches_json_dumps(m):
    def response(section):
        return {"a": 1, "section": section, "z": [1.5]}

    serialized = response(serialize_matrix(m))
    assert_same_text(schema.dumps(response(m)), json.dumps(serialized))
    assert_same_text(schema.dumps(response(m), pretty=True), json.dumps(serialized, indent=2))
    assert_same_text(schema.dumps(serialized), json.dumps(serialized))


def _section_docs(n):
    """Section requests of size n, each with the smallest n it accepts."""
    vector = [
        [0, 0] if m % 5 == 0 else [-0.0, 0.0] if m % 7 == 3
        else [(-1) ** m / m, (m % 3 - 1) * 0.25]
        for m in range(1, n + 1)
    ]
    mult = {"operator": "mult", "p": 2, "mode": "section", "N": n}
    lp = {"operator": "compose_lp", "p": 2, "mode": "section", "N": n}
    # A compose_lp section needs N >= prefix length + |c| or k + 1.
    return [
        ({**mult, "h": {"space": {"finite_atoms": [1.0] * n}, "fn": {"vector": vector}}}, 1),
        ({**mult, "h": {"space": "counting_n",
                        "fn": {"prefix": [[0.5, -0.25], 0, 3], "cycle": [[1, 1], 0, -2]}}}, 1),
        ({**mult, "h": {"space": "counting_n",
                        "fn": {"prefix": [2, [0, -1]], "decay_c": [0.3, 0.7]}}}, 1),
        ({**lp, "phi": {"prefix": [2], "tail": {"shift": 0}}}, 2),
        ({**lp, "phi": {"prefix": [3, 1, 1], "tail": {"shift": -1}}}, 5),
        ({**lp, "phi": {"prefix": [5], "tail": {"shift": 2}}}, 4),
        ({**lp, "phi": {"prefix": [2, 2], "tail": {"divide": 3}}}, 6),
        ({"operator": "compose_hardy", "mode": "section", "N": n,
          "symbol": {"coeffs": [[0.1, 0.2], [0.4, -0.1], [0.0, 0.3]]}}, 1),
    ]


@pytest.mark.parametrize("n", [1, 2, 48, 300])
def test_cli_section_output_matches_old_encoder(capsys, monkeypatch, n):
    for doc, smallest in _section_docs(n):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code = main(["--stdin"])
        captured = capsys.readouterr()
        if n < smallest:
            assert code == 2 and captured.out == ""
            assert captured.err.startswith("error: section too small")
            continue
        assert code == 0
        response, _ = run_request(parse_request(doc))
        assert isinstance(response["section"], OperatorMatrix)
        response = {
            k: serialize_matrix(v) if isinstance(v, OperatorMatrix) else v
            for k, v in response.items()
        }
        assert_same_text(captured.out, json.dumps(response) + "\n")


def test_parse_request_envelope():
    with pytest.raises(InputError):
        parse_request([1, 2])
    with pytest.raises(InputError):
        parse_request({"coeffs": [1]})
    with pytest.raises(InputError):
        parse_request({"algebra": "quaternions"})
    with pytest.raises(InputError):
        parse_request({"operator": "teleport"})
    with pytest.raises(InputError):
        parse_request({"algebra": "disk", "coeffs": [1], "mode": "dream"})
    with pytest.raises(InputError):
        parse_request({"algebra": "disk", "coeffs": [1], "mode": "section"})
    with pytest.raises(InputError):
        parse_request(
            {"algebra": "disk", "coeffs": [1], "tolerances": {"eps_typo": 1}}
        )
    req = parse_request(
        {"algebra": "disk", "coeffs": [1], "tolerances": {"eps_norm": 1e-3}}
    )
    assert req.tol.eps_norm == 1e-3


def test_cli_disk_certify(capsys, monkeypatch):
    doc = {"algebra": "disk", "coeffs": [[-0.5, 0], [0.5, 0]], "mode": "certify"}
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["tdz"] is True
    assert out["verdict"]["zd"] is False
    assert out["report"]["passes"] is True


def test_cli_compose_analyze(capsys, monkeypatch):
    doc = {
        "operator": "compose_lp",
        "p": 2,
        "phi": {"prefix": [], "tail": {"shift": 1}},
        "mode": "analyze",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    v = out["verdict"]
    assert v["left_zd"] is True and v["right_zd"] is False and v["tdz"] is True
    assert out["map"]["missed_value"] == 1
    assert out["norm"] == pytest.approx(1.0)


def test_cli_linf_analyze(capsys, monkeypatch):
    doc = {
        "algebra": "linf",
        "space": "counting_n",
        "fn": {"prefix": [], "decay_c": [1, 0]},
        "mode": "analyze",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    v = out["verdict"]
    assert v["zd"] is False and v["tdz"] is True
    assert v["zero_class"] == "continuous_spectrum"


def test_cli_linf_certify_zero_divisor(capsys, monkeypatch):
    doc = {
        "algebra": "linf",
        "space": {"finite_atoms": [1, 1, 1]},
        "fn": {"vector": [0, 2, 3]},
        "mode": "certify",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["zd"] is True
    assert out["report"]["passes"] is True
    assert out["annihilator_report"]["passes"] is True


def test_cli_mult_section(capsys, monkeypatch):
    doc = {
        "operator": "mult",
        "p": 2,
        "h": {"space": "counting_n", "fn": {"decay_c": 1}},
        "mode": "section",
        "N": 5,
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["section"]["rows"] == 5
    assert out["section"]["entries"][2][2] == [pytest.approx(1 / 3), 0.0]
    assert out["section_norm"] == pytest.approx(1.0)
    assert out["ess_sup"] == pytest.approx(1.0)


def test_cli_compose_section(capsys, monkeypatch):
    doc = {
        "operator": "compose_lp",
        "p": 2,
        "phi": {"prefix": [], "tail": {"divide": 2}},
        "mode": "section",
        "N": 8,
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    rn = out["adjoint_rn"]
    assert rn["block"] == 4 and rn["identity_holds"] is True
    assert rn["formula_norm"] == pytest.approx(math.sqrt(2))
    assert rn["norms_agree"] is True
    assert rn["tdz_routes_agree"] is False  # onto, not one-one
    assert rn["left_routes_agree"] is True


def test_cli_compose_certify_regular(capsys, monkeypatch):
    doc = {
        "operator": "compose_lp",
        "p": 2,
        "phi": {"prefix": [2, 1], "tail": {"shift": 0}},
        "mode": "certify",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["regular"] is True
    assert out["report"]["passes"] is True


def test_cli_compose_certify_annihilators(capsys, monkeypatch):
    doc = {
        "operator": "compose_lp",
        "p": 4,
        "phi": {"prefix": [3], "tail": {"shift": 1}},
        "mode": "certify",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["left_zd"] is True and out["verdict"]["right_zd"] is True
    assert out["report"]["passes"] is True
    assert out["extra_reports"][0]["passes"] is True


def test_cli_hardy_shapes(capsys, monkeypatch):
    doc = {"operator": "compose_hardy", "symbol": {"coeffs": [0.5]}, "order": 4,
           "mode": "certify"}
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    v = out["verdict"]
    assert v["left_zd"] and v["right_zd"] and v["tdz"]
    assert len(v["certificates"]) == 2
    assert out["report"]["passes"] and out["extra_reports"][0]["passes"]

    doc = {"operator": "compose_hardy", "symbol": {"coeffs": [0, 0, 1]}, "order": 6,
           "mode": "certify"}
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["right_zd"] is True and out["verdict"]["left_zd"] is False
    assert out["report"]["passes"] is True
    assert out.get("warnings")  # |z^2| touches the boundary

    doc = {"operator": "compose_hardy", "symbol": {"coeffs": [0, 1]}, "order": 5,
           "mode": "certify"}
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    assert out["verdict"]["regular"] is True
    assert out["report"]["passes"] is True

    doc = {"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.25, 0.25]},
           "order": 6, "mode": "analyze"}
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0
    probe = out["verdict"]["rank_probe"]
    assert out["verdict"]["left_zd"] is False
    assert probe["full_rank"] is True
    assert "finite-section evidence" in probe["note"]


def test_cli_exit_codes(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    assert main(["--stdin"]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err

    code, _, err = cli_json(capsys, monkeypatch, {"algebra": "octonions"})
    assert code == 2 and "octonions" in err

    doc = {"algebra": "disk", "coeffs": [1, 2], "mode": "section", "N": 4}
    code, _, err = cli_json(capsys, monkeypatch, doc)
    assert code == 2 and "section" in err

    assert main(["--input", "/no/such/file.json"]) == 2


def test_cli_honest_failure_is_exit_3(capsys, monkeypatch):
    # Three witnesses are too few for the peak family to decay below the
    # harness threshold, so certification honestly fails but still
    # reports the verdict.
    doc = {"algebra": "disk", "coeffs": [[-0.5, 0], [0.5, 0]], "mode": "certify"}
    code, out, _ = cli_json(capsys, monkeypatch, doc, "--n-witness", "3")
    assert code == 3
    assert out["verdict"]["tdz"] is True
    assert out["report"]["passes"] is False


def test_cli_gap_section_norm_is_exact(capsys, monkeypatch):
    # The two largest |h| differ by 1e-4 relative; the norm of the
    # diagonal section is its largest modulus, exactly.
    doc = {
        "operator": "mult",
        "p": 2,
        "h": {"space": "counting_n", "fn": {"prefix": [0.9999], "cycle": [1.0]}},
        "mode": "section",
        "N": 100,
    }
    code, out, err = cli_json(capsys, monkeypatch, doc)
    assert code == 0 and err == ""
    assert out["section_norm"] == 1.0


@pytest.mark.parametrize(
    "text",
    [
        '{"algebra": "disk", "coeffs": [NaN, 1]}',
        '{"algebra": "disk", "coeffs": [Infinity, 1]}',
        '{"algebra": "disk", "coeffs": [[1, 1e400]]}',
        '{"algebra": "disk", "coeffs": [1e308, 1e308], "mode": "certify"}',
        '{"algebra": "linf", "space": "counting_n",'
        ' "fn": {"prefix": [NaN], "decay_c": 1}, "mode": "certify"}',
        '{"algebra": "linf", "space": {"finite_atoms": [NaN]}, "fn": {"vector": [1]}}',
        '{"algebra": "disk", "coeffs": [1, 2], "tolerances": {"eps_norm": Infinity}}',
        '{"algebra": "disk", "coeffs": [1, 2], "tolerances": {"n_witness": 4.5}}',
        '{"operator": "compose_lp", "phi": {"tail": {"shift": NaN}}}',
        '{"operator": "compose_lp", "phi": {"tail": {"shift": 1.5}}}',
        '{"operator": "compose_lp", "phi": {"tail": {"divide": 2.5}}}',
        '{"operator": "compose_hardy", "symbol": {"coeffs": [1e308, 1e308]}}',
        # JSON true/false is not a number, although Python counts it as 1/0.
        '{"operator": "compose_lp", "phi": {"tail": {"shift": 0}},'
        ' "mode": "section", "N": true}',
        '{"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]}, "order": true}',
        '{"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]},'
        ' "mode": "section", "N": true}',
        '{"operator": "compose_lp", "phi": {"tail": {"shift": true}}}',
        '{"operator": "compose_lp", "phi": {"tail": {"divide": true}}}',
        '{"operator": "compose_lp", "p": true, "phi": {"tail": {"divide": 2}}}',
        '{"algebra": "disk", "coeffs": [true]}',
        '{"algebra": "disk", "coeffs": [[1, false]]}',
        '{"algebra": "disk", "coeffs": [1, 2], "tolerances": {"eps_norm": true}}',
        '{"algebra": "disk", "coeffs": [1, 2], "tolerances": {"eps_norm": "x"}}',
        '{"algebra": "linf", "space": {"finite_atoms": [true]}, "fn": {"vector": [1]}}',
        '{"algebra": "linf", "space": {"finite_atoms": 5}, "fn": {"vector": [1]}}',
        # Sections and Hardy orders are capped at schema.MAX_SECTION.
        '{"operator": "mult", "h": {"space": "counting_n", "fn": {"decay_c": 1}},'
        ' "mode": "section", "N": 2001}',
        '{"operator": "compose_lp", "phi": {"tail": {"divide": 2}},'
        ' "mode": "section", "N": 2001}',
        '{"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]},'
        ' "mode": "section", "N": 2001}',
        '{"operator": "compose_hardy", "symbol": {"coeffs": [0, 0.5]}, "order": 2001}',
    ],
)
def test_cli_non_finite_input_is_exit_2(capsys, monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["--stdin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cli_harness_failure_is_exit_3(capsys, monkeypatch):
    # For a c/n tail with |c| = 1e308 the second witness starts after
    # |c| * 2 = inf atoms; the refusal ends the harness run.
    doc = {"algebra": "linf", "space": "counting_n",
           "fn": {"prefix": [1e308], "decay_c": 1e308},
           "mode": "certify", "tolerances": {"n_witness": 3}}
    code, out, err = cli_json(capsys, monkeypatch, doc)
    assert code == 3 and out is None
    assert err.startswith("error: witness generator failed") and "atoms" in err

    def broken(req):
        raise NumericError("non-finite norm at witness index 1")

    monkeypatch.setattr(cli, "run_request", broken)
    code, out, err = cli_json(capsys, monkeypatch, {"algebra": "disk", "coeffs": [1]})
    assert code == 3 and out is None
    assert err.startswith("error: non-finite norm")


def test_cli_input_file_and_pretty(tmp_path, capsys):
    path = tmp_path / "req.json"
    doc = {"algebra": "disk", "coeffs": [[-1, 0], [1, 0]], "mode": "analyze"}
    path.write_text(json.dumps(doc))
    code = main(["--input", str(path), "--pretty"])
    captured = capsys.readouterr()
    assert code == 0
    out = json.loads(captured.out)
    assert out["verdict"]["tdz"] is True
    assert captured.out.count("\n") > 3  # indented output


def test_cli_tolerance_flag(capsys, monkeypatch):
    doc = {
        "algebra": "linf",
        "space": "counting_n",
        "fn": {"decay_c": 1},
        "mode": "certify",
    }
    code, out, _ = cli_json(capsys, monkeypatch, doc, "--n-witness", "5")
    assert code == 0
    assert len(out["report"]["samples"]) == 5

    # E_200 of 1e4/n starts after 2e6 atoms; none of them is listed.
    doc = dict(doc, fn={"prefix": [], "decay_c": 1e4}, tolerances={"n_witness": 200})
    code, out, _ = cli_json(capsys, monkeypatch, doc)
    assert code == 0 and out["report"]["passes"]


def test_analyze_certify_verdicts_agree(capsys, monkeypatch):
    docs = [
        {"algebra": "disk", "coeffs": [[-0.5, 0], [0.5, 0]]},
        {"algebra": "linf", "space": "counting_n", "fn": {"decay_c": 1}},
        {"operator": "mult", "p": 2,
         "h": {"space": "counting_n", "fn": {"prefix": [0], "cycle": [1]}}},
        {"operator": "compose_lp", "p": 2, "phi": {"tail": {"divide": 2}}},
    ]
    for doc in docs:
        _, analyzed, _ = cli_json(capsys, monkeypatch, {**doc, "mode": "analyze"})
        _, certified, _ = cli_json(capsys, monkeypatch, {**doc, "mode": "certify"})
        for key in ("zd", "left_zd", "right_zd", "tdz", "regular"):
            assert analyzed["verdict"].get(key) == certified["verdict"].get(key)
