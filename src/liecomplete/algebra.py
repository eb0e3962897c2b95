"""Lie algebras as structure constants, plus two concrete group models.

The algebra is a plain coefficient object: ``c[i, j, k]`` is the coefficient
of basis vector ``k`` in ``[e_i, e_j]``.  Group elements are numpy arrays —
1-D vectors for the abelian model (the group is (R^d, +)), square matrices for
the matrix model.  Everything here is exact linear algebra; curve-level
constructions live in :mod:`liecomplete.lift` and friends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

JACOBI_TOL = 1e-12
MODEL_COMMUTATOR_TOL = 1e-10
SINGULAR_DET_TOL = 1e-12


class AlgebraError(ValueError):
    pass


class SingularElementError(ValueError):
    pass


def _default_names(d: int) -> tuple:
    return tuple(f"X{i + 1}" for i in range(d))


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional real Lie algebra given by structure constants."""

    c: np.ndarray  # shape (d, d, d)
    basis_names: tuple = ()

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise AlgebraError("structure constants must have shape (d, d, d)")
        object.__setattr__(self, "c", c)
        d = c.shape[0]
        names = self.basis_names or _default_names(d)
        if len(names) != d:
            raise AlgebraError("basis_names length must match dimension")
        object.__setattr__(self, "basis_names", tuple(names))
        # antisymmetry must hold exactly as stored, not just within tolerance
        if not np.array_equal(c, -np.swapaxes(c, 0, 1)):
            raise AlgebraError("structure constants are not antisymmetric")
        jac = self.jacobi_residual()
        if jac >= JACOBI_TOL:
            raise AlgebraError(f"Jacobi identity violated (residual {jac:.3e})")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def jacobi_residual(self) -> float:
        c = self.c
        # sum over cyclic permutations of [[e_i,e_j],e_k]
        t = np.einsum("ijm,mkl->ijkl", c, c)
        total = t + np.einsum("ijkl->jkil", t) + np.einsum("ijkl->kijl", t)
        return float(np.max(np.abs(total))) if self.dim else 0.0

    def bracket(self, u: Sequence[float], v: Sequence[float]) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape != (self.dim,) or v.shape != (self.dim,):
            raise AlgebraError("bracket arguments must be d-vectors")
        return np.einsum("i,j,ijk->k", u, v, self.c)

    @staticmethod
    def abelian(d: int, basis_names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return LieAlgebra(np.zeros((d, d, d)), tuple(basis_names or _default_names(d)))


def structure_constants_from_matrix_basis(basis: np.ndarray) -> np.ndarray:
    """Project pairwise commutators of ``basis`` back onto the basis.

    Raises if the commutators do not close on span(basis) within
    ``MODEL_COMMUTATOR_TOL``.  The result is exactly antisymmetric.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    flat = basis.reshape(d, -1).T  # (n*n, d)
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeff, res, rank, _ = np.linalg.lstsq(flat, comm.ravel(), rcond=None)
            recon = (coeff[:, None, None] * basis).sum(axis=0)
            if np.max(np.abs(recon - comm)) > MODEL_COMMUTATOR_TOL:
                raise AlgebraError(
                    f"matrix basis does not close under commutators (pair {i},{j})"
                )
            c[i, j] = coeff
            c[j, i] = -coeff
    return c


@dataclass(frozen=True)
class AbelianGroup:
    """(R^d, +) with the zero bracket; elements are 1-D float arrays."""

    dim: int
    kind: str = field(default="abelian", init=False)

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def element(self, data) -> np.ndarray:
        g = np.asarray(data, dtype=float)
        if g.shape != (self.dim,):
            raise AlgebraError(f"abelian element must be a {self.dim}-vector")
        return g

    def mul(self, a, b) -> np.ndarray:
        return self.element(a) + self.element(b)

    def inv(self, a) -> np.ndarray:
        return -self.element(a)

    def exp_segment(self, X, t: float = 1.0) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim,):
            raise AlgebraError("exp_segment argument must be a d-vector")
        return t * X

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.element(a) - self.element(b)))

    def to_jsonable(self, g) -> list:
        return [float(v) for v in self.element(g)]


@dataclass(frozen=True)
class MatrixGroup:
    """Matrix group generated by exponentials of a represented basis."""

    basis: np.ndarray  # shape (d, n, n)
    kind: str = field(default="matrix", init=False)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise AlgebraError("matrix basis must have shape (d, n, n)")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def identity(self) -> np.ndarray:
        return np.eye(self.n)

    def element(self, data) -> np.ndarray:
        g = np.asarray(data, dtype=float)
        if g.shape != (self.n, self.n):
            raise AlgebraError(f"matrix element must be {self.n}x{self.n}")
        if abs(np.linalg.det(g)) <= SINGULAR_DET_TOL:
            raise SingularElementError("matrix element is numerically singular")
        return g

    def mul(self, a, b) -> np.ndarray:
        return np.asarray(a, dtype=float) @ np.asarray(b, dtype=float)

    def inv(self, a) -> np.ndarray:
        a = self.element(a)
        return np.linalg.inv(a)

    def algebra_element(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.dim,):
            raise AlgebraError("coefficient vector must be a d-vector")
        return np.einsum("i,ijk->jk", X, self.basis)

    def exp_segment(self, X, t: float = 1.0) -> np.ndarray:
        # imported here: scipy.linalg is most of the package's import time
        # and only matrix-model exponentials need it
        import scipy.linalg

        return scipy.linalg.expm(t * self.algebra_element(X))

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    def to_jsonable(self, g) -> list:
        return [[float(v) for v in row] for row in np.asarray(g, dtype=float)]


def validate_group_model(algebra: LieAlgebra, group) -> float:
    """Cross-check a group model against the algebra's structure constants.

    For the matrix model the basis commutators must reproduce the constants
    within ``MODEL_COMMUTATOR_TOL``; for the abelian model the constants must
    vanish.  Returns the worst residual.
    """
    if group.dim != algebra.dim:
        raise AlgebraError("group model dimension does not match the algebra")
    if group.kind == "abelian":
        res = float(np.max(np.abs(algebra.c))) if algebra.dim else 0.0
        if res > 0.0:
            raise AlgebraError("abelian group model requires zero structure constants")
        return res
    worst = 0.0
    basis = group.basis
    for i in range(algebra.dim):
        for j in range(algebra.dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            recon = np.einsum("k,kab->ab", algebra.c[i, j], basis)
            worst = max(worst, float(np.max(np.abs(comm - recon))))
    if worst > MODEL_COMMUTATOR_TOL:
        raise AlgebraError(
            f"matrix model commutators do not match structure constants (residual {worst:.3e})"
        )
    return worst
