"""Matrix section plumbing: norms, adjoints, and the star inequality."""

import numpy as np
import pytest

from tdzcert import (
    CompositionOperatorSpec,
    Divide,
    InputError,
    NumericError,
    OperatorMatrix,
    SelfMapN,
    finite_section_composition,
    operator_norm,
    star_tdz_inequality_check,
)


def test_matrix_validation():
    with pytest.raises(InputError):
        OperatorMatrix(np.ones(3))
    with pytest.raises(InputError):
        OperatorMatrix([[np.inf, 0], [0, 0]])
    m = OperatorMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5  # read-only view


def test_matrix_algebra():
    a = OperatorMatrix([[0, 1], [0, 0]])
    ident = OperatorMatrix.identity(2)
    assert np.allclose((a * ident).entries, a.entries)
    assert np.allclose(a.adjoint().entries, [[0, 0], [1, 0]])
    assert np.allclose((a - a).entries, 0)
    with pytest.raises(InputError):
        a * OperatorMatrix(np.ones((3, 3)))
    d = OperatorMatrix.diagonal([1, 2j])
    assert d.entries[1, 1] == 2j


def test_operator_norm_small_cases():
    assert operator_norm(OperatorMatrix.identity(3)) == pytest.approx(1.0)
    assert operator_norm(OperatorMatrix.diagonal([0, 1, 1, 1, 1])) == pytest.approx(1.0)
    # 2x2 oracle: singular values of [[0,2],[0,0]] are {2, 0}.
    assert operator_norm(OperatorMatrix([[0, 2], [0, 0]])) == pytest.approx(2.0)


def test_operator_norm_power_iteration_matches_svd():
    rng = np.random.default_rng(7)
    # Many nonzeros per row and per column: this takes the dense SVD path.
    m = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    want = np.linalg.svd(m, compute_uv=False)[0]
    got = operator_norm(OperatorMatrix(m))
    assert got == pytest.approx(want, rel=1e-6)


def test_operator_norm_survives_kernel_aligned_start():
    # A row summing to zero (a difference functional): at most one
    # nonzero per column, so the row-norm path must find sqrt(2).
    m = np.zeros((80, 80))
    m[0, 2] = 1.0
    m[0, 5] = -1.0
    assert operator_norm(OperatorMatrix(m)) == pytest.approx(np.sqrt(2), rel=1e-6)


@pytest.mark.parametrize(
    "entries",
    [
        # 400 x 400 random complex diagonal: one nonzero per row.
        np.diag(
            np.random.default_rng(1).standard_normal(400)
            + 1j * np.random.default_rng(2).standard_normal(400)
        ),
        # Divide-tail section phi(n) = ceil(n/3): columns hold 3 ones.
        finite_section_composition(
            CompositionOperatorSpec(SelfMapN((), Divide(3)), 2), 120
        ).entries,
        # Its adjoint: one nonzero per column.
        finite_section_composition(
            CompositionOperatorSpec(SelfMapN((), Divide(3)), 2), 120
        ).entries.T,
        # Huge entries must not overflow on the way to the norm.
        np.diag([1e200, -3e200, 2e200]),
        np.zeros((70, 70)),
    ],
    ids=["diagonal-400", "divide-section", "divide-adjoint", "huge-diagonal", "zero"],
)
def test_operator_norm_structured_matches_svd(entries):
    want = np.linalg.svd(entries, compute_uv=False)[0]
    assert operator_norm(OperatorMatrix(entries)) == pytest.approx(want, rel=1e-12)


def test_operator_norm_rectangular():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 9))
    want = np.linalg.svd(m, compute_uv=False)[0]
    assert operator_norm(OperatorMatrix(m)) == pytest.approx(want, rel=1e-9)


def test_adjoint_norm_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = OperatorMatrix(
            rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        )
        assert operator_norm(m) == pytest.approx(
            operator_norm(m.adjoint()), abs=1e-6
        )


def test_star_inequality_identity_and_zero():
    ident = OperatorMatrix.identity(2)
    w = OperatorMatrix.diagonal([1, 0])
    report = star_tdz_inequality_check(ident, [w])
    assert report.passes
    assert report.samples[0].product_norm == pytest.approx(1.0)

    t = OperatorMatrix.diagonal([0, 1])
    report = star_tdz_inequality_check(t, [OperatorMatrix.diagonal([1, 0])])
    assert report.passes
    assert report.samples[0].product_norm == pytest.approx(0.0, abs=1e-12)


def test_star_inequality_random_witnesses():
    rng = np.random.default_rng(5)
    t = OperatorMatrix(
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    )
    for _ in range(10):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w = OperatorMatrix(raw / np.linalg.svd(raw, compute_uv=False)[0])
        report = star_tdz_inequality_check(t, [w])
        assert report.passes


def test_star_inequality_input_checks():
    t = OperatorMatrix.identity(2)
    with pytest.raises(InputError):
        star_tdz_inequality_check(t, [OperatorMatrix.identity(3)])
    with pytest.raises(InputError):
        star_tdz_inequality_check(t, [OperatorMatrix.diagonal([0.5, 0])])
