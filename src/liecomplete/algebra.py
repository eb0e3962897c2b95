"""Lie algebras as structure constants, plus two concrete group models.

The algebra is a plain coefficient object: ``c[i, j, k]`` is the coefficient
of basis vector ``k`` in ``[e_i, e_j]``.  Each group model carries its own
algebra: zero constants for the abelian model, the constants of the basis
commutators for the matrix model.  Group elements are numpy arrays — 1-D
vectors for the abelian model (the group is (R^d, +)), square matrices for
the matrix model — and ``exp_segment``, ``mul`` and ``products`` also take
stacks of them along a leading axis.  Everything here is exact linear
algebra, up to the matrix exponential's Padé approximant; curve-level
constructions live in :mod:`liecomplete.lift` and friends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

JACOBI_TOL = 1e-12
MODEL_COMMUTATOR_TOL = 1e-10
SINGULAR_DET_TOL = 1e-12


class AlgebraError(ValueError):
    pass


class SingularElementError(AlgebraError):
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

    def bracket(self, u, v) -> np.ndarray:
        """[u, v] of two d-vectors, or row by row of two (m, d) stacks."""
        u = _last_axes(u, (self.dim,), "bracket argument")
        v = _last_axes(v, (self.dim,), "bracket argument")
        return np.einsum("...i,...j,ijk->...k", u, v, self.c)

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
            c[j, i] = -coeff + 0.0   # a zero coefficient stays +0.0 on both sides
    return c


def _last_axes(a, shape: tuple, what: str) -> np.ndarray:
    """``a`` as a float array whose trailing axes are ``shape``."""
    a = np.asarray(a, dtype=float)
    if a.shape[-len(shape):] != shape:
        raise AlgebraError(f"{what} must have trailing shape {shape}, got {a.shape}")
    return a


# Higham, "The scaling and squaring method for the matrix exponential
# revisited" (SIMAX 2005): the degree-m diagonal Padé approximant of exp
# meets double precision for 1-norms up to theta_m (Table 2.3); its
# coefficients b_j = (2m - j)! / (j! (m - j)!) are scaled so that b_m = 1.
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_B = {m: [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
               for j in range(m + 1)] for m in _PADE_THETA}


def _pade(A: np.ndarray, b: list) -> np.ndarray:
    """The diagonal Padé approximant with coefficients ``b`` at every slice of ``A``."""
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    if len(b) == 14:   # degree 13: Higham's scheme with the powers A^2, A^4, A^6
        A4 = A2 @ A2
        A6 = A4 @ A2
        u = A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2) + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
        v = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    else:
        powers = [eye, A2]   # the even powers of A up to A^(m - 1)
        while len(powers) < len(b) // 2:
            powers.append(powers[-1] @ A2)
        u = sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    u = A @ u
    return np.linalg.solve(v - u, v + u)


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of every ``(n, n)`` slice of ``A`` by scaling and squaring (Higham 2005).

    Every slice takes its Padé degree and its number of squarings from its
    own 1-norm, and each degree is one stacked evaluation, so a slice's bits
    do not depend on the rest of the stack.  A slice whose off-diagonal part
    is zero is exp of its diagonal.  A triangular slice gets the exact
    exponentials of its diagonal before and after every squaring (Al-Mohy
    and Higham, SIMAX 2009, Code Fragment 2.1), so that scaling does not
    square up the rounding of its diagonal: a translation by 1e100 stays
    ``[[1, 1e100], [0, 1]]`` instead of decaying to zero.
    """
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    out = np.empty_like(A)
    diag = np.diagonal(A, axis1=1, axis2=2)
    diagonal = ~A[:, ~np.eye(n, dtype=bool)].any(axis=1)
    out[diagonal] = np.exp(diag[diagonal])[:, :, None] * np.eye(n)
    norm = np.abs(A).sum(axis=1).max(axis=1)
    if not np.isfinite(norm).all():
        raise AlgebraError("matrix exponential of a matrix whose 1-norm is not finite")
    thetas = list(_PADE_THETA.values())
    degree = np.array(list(_PADE_THETA))[np.minimum(np.searchsorted(thetas, norm), len(thetas) - 1)]
    squarings = np.zeros(len(A), dtype=int)
    big = ~diagonal & (norm > thetas[-1])
    squarings[big] = np.ceil(np.log2(norm[big] / thetas[-1]))
    for m, b in _PADE_B.items():
        k = np.flatnonzero(~diagonal & (degree == m))
        if k.size:
            out[k] = _pade(np.ldexp(A[k], -squarings[k, None, None]), b)
    triangular = big & ~(np.triu(A, 1).any(axis=(1, 2)) & np.tril(A, -1).any(axis=(1, 2)))
    out_diag = np.einsum("kii->ki", out)   # a writable view
    for i in range(squarings.max(initial=0)):
        k = np.flatnonzero(triangular & (squarings > i))
        out_diag[k] = np.exp(np.ldexp(diag[k], i - squarings[k, None]))
        k = np.flatnonzero(squarings > i)
        out[k] = out[k] @ out[k]
    out_diag[triangular] = np.exp(diag[triangular])
    return out.reshape(shape)


@dataclass(frozen=True)
class AbelianGroup:
    """(R^d, +) with the zero bracket; elements are 1-D float arrays."""

    dim: int
    basis_names: tuple = ()
    kind: str = field(default="abelian", init=False)

    @cached_property
    def algebra(self) -> LieAlgebra:
        return LieAlgebra.abelian(self.dim, self.basis_names)

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def element(self, data) -> np.ndarray:
        g = np.asarray(data, dtype=float)
        if g.shape != (self.dim,):
            raise AlgebraError(f"abelian element must be a {self.dim}-vector")
        return g

    def mul(self, a, b) -> np.ndarray:
        """a + b for elements or stacks of them."""
        shape = (self.dim,)
        return _last_axes(a, shape, "abelian element") + _last_axes(b, shape, "abelian element")

    def exp_segment(self, X, t=1.0) -> np.ndarray:
        """t * X of a d-vector or of each row of an (m, d) stack; ``t`` may give one value per row."""
        return np.asarray(t, dtype=float)[..., None] * _last_axes(X, (self.dim,), "algebra vector")

    def products(self, start, steps) -> np.ndarray:
        """``(m + 1, d)`` running sums of ``start`` and each step of the stack ``steps``."""
        return np.add.accumulate(np.vstack([start, steps]))

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(self.element(a) - self.element(b)))

    def to_jsonable(self, g) -> list:
        return [float(v) for v in self.element(g)]


@dataclass(frozen=True)
class MatrixGroup:
    """Matrix group generated by exponentials of a represented basis."""

    basis: np.ndarray  # shape (d, n, n)
    basis_names: tuple = ()
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

    @cached_property
    def algebra(self) -> LieAlgebra:
        """Constants of the basis commutators; raises if they do not close."""
        return LieAlgebra(structure_constants_from_matrix_basis(self.basis), self.basis_names)

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
        """a @ b for elements or stacks of them."""
        shape = (self.n, self.n)
        return _last_axes(a, shape, "matrix element") @ _last_axes(b, shape, "matrix element")

    def exp_segment(self, X, t=1.0) -> np.ndarray:
        """exp(t * X) of a d-vector, or one matrix per row of an (m, d) stack.

        ``t`` is a scalar or one value per row.  The whole stack goes through
        one stacked scaling-and-squaring Padé evaluation (:func:`_expm`),
        which gives each slice the bits of its own single call.  Raises
        ``AlgebraError`` when a result is not finite.
        """
        X = _last_axes(X, (self.dim,), "algebra vector")
        A = np.einsum("...i,ijk->...jk", X, self.basis)
        with np.errstate(over="ignore", invalid="ignore"):
            E = _expm(np.asarray(t, dtype=float)[..., None, None] * A)
        if not np.isfinite(E).all():
            raise AlgebraError("matrix exponential is not finite")
        return E

    def products(self, start, steps) -> np.ndarray:
        """``(m + 1, n, n)`` running products of ``start`` and each matrix of ``steps``, in order."""
        out = [start]
        for step in steps:
            out.append(out[-1] @ step)
        return np.array(out)

    def distance(self, a, b) -> float:
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    def to_jsonable(self, g) -> list:
        return [[float(v) for v in row] for row in np.asarray(g, dtype=float)]

