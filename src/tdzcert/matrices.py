"""Dense complex matrices: finite sections of operators, and their norms.

Only the largest singular value is ever needed (operator norm on the
section); no further spectral decomposition is provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certificates import DEFAULT_TOL, Tolerances
from .errors import InputError

__all__ = [
    "OperatorMatrix",
    "StarInequalityReport",
    "StarInequalitySample",
    "operator_norm",
    "star_tdz_inequality_check",
]

@dataclass(frozen=True)
class OperatorMatrix:
    """Immutable dense complex matrix with shape bookkeeping."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex)
        if arr.ndim != 2:
            raise InputError("operator matrix must be two-dimensional")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise InputError("operator matrix entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T)

    def __mul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise InputError(
                f"shape mismatch: ({self.rows}x{self.cols}) @ "
                f"({other.rows}x{other.cols})"
            )
        return OperatorMatrix(self.entries @ other.entries)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        if self.entries.shape != other.entries.shape:
            raise InputError("shape mismatch in matrix subtraction")
        return OperatorMatrix(self.entries - other.entries)

    @staticmethod
    def identity(n: int) -> "OperatorMatrix":
        return OperatorMatrix(np.eye(n, dtype=complex))

    @staticmethod
    def diagonal(values) -> "OperatorMatrix":
        return OperatorMatrix(np.diag(np.asarray(values, dtype=complex)))


def operator_norm(m: OperatorMatrix) -> float:
    """Largest singular value of ``m``.

    A matrix with at most one nonzero per row has orthogonal columns, so
    its norm is exactly its largest column norm; with at most one nonzero
    per column the same holds for row norms.  That covers diagonals,
    composition sections, coordinate injections and difference
    functionals.  Every other matrix takes a dense SVD.
    """
    a = np.abs(m.entries)
    if a.size == 0 or not a.any():
        return 0.0
    nonzero = a != 0
    if nonzero.sum(axis=1).max() <= 1:
        axis = 0
    elif nonzero.sum(axis=0).max() <= 1:
        axis = 1
    else:
        return float(np.linalg.svd(m.entries, compute_uv=False)[0])
    # Scaling by the largest modulus keeps the squares from overflowing,
    # and returns that modulus itself when its line holds nothing else.
    scale = a.max()
    return float(scale * np.linalg.norm(a / scale, axis=axis).max())


@dataclass(frozen=True)
class StarInequalitySample:
    witness_norm: float
    product_norm: float
    gram_product_norm: float
    inequality_holds: bool
    adjoint_symmetric: bool


@dataclass(frozen=True)
class StarInequalityReport:
    passes: bool
    samples: tuple[StarInequalitySample, ...]

    def to_dict(self) -> dict:
        return {
            "passes": self.passes,
            "samples": [
                {
                    "witness_norm": s.witness_norm,
                    "product_norm": s.product_norm,
                    "gram_product_norm": s.gram_product_norm,
                    "inequality_holds": s.inequality_holds,
                    "adjoint_symmetric": s.adjoint_symmetric,
                }
                for s in self.samples
            ],
        }


def star_tdz_inequality_check(
    t: OperatorMatrix,
    witnesses: list[OperatorMatrix],
    tol: Tolerances = DEFAULT_TOL,
) -> StarInequalityReport:
    """Check ``|T Tn|^2 <= |T*T Tn| |Tn| + eps`` and adjoint norm symmetry.

    The first inequality is the Cauchy-Schwarz step that transfers TDZ
    witnesses between ``T`` and the Gram operator ``T*T``; the second is
    the norm identity ``|(T Tn)*| = |T Tn|`` that swaps witness sides
    under adjoints.  Each witness must have operator norm 1 within
    ``eps_norm``.
    """
    tstar = t.adjoint()
    samples = []
    for tn in witnesses:
        if t.cols != tn.rows:
            raise InputError(
                f"witness shape ({tn.rows}x{tn.cols}) not conformable with "
                f"({t.rows}x{t.cols})"
            )
        wn = operator_norm(tn)
        if abs(wn - 1.0) > tol.eps_norm:
            raise InputError(f"witness norm {wn} is not 1 within eps_norm")
        ttn = t * tn
        prod = operator_norm(ttn)
        gram_prod = operator_norm(tstar * ttn)
        ineq = prod**2 <= gram_prod * wn + tol.eps_norm
        adj = abs(operator_norm(ttn.adjoint()) - prod) <= tol.eps_norm
        samples.append(
            StarInequalitySample(
                witness_norm=wn,
                product_norm=prod,
                gram_product_norm=gram_prod,
                inequality_holds=ineq,
                adjoint_symmetric=adj,
            )
        )
    return StarInequalityReport(
        passes=all(s.inequality_holds and s.adjoint_symmetric for s in samples),
        samples=tuple(samples),
    )
