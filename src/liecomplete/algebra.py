"""Lie algebras as structure constants, plus two concrete group models.

The algebra is a plain coefficient object: ``c[i][j][k]`` is the coefficient
of basis vector ``k`` in ``[e_i, e_j]``, held as nested tuples.  Each group
model carries its own algebra: zero constants for the abelian model, the
constants of the basis commutators for the matrix model.  Abelian elements
are tuples of floats (the group is (R^d, +)); matrix elements are square
numpy arrays.  The matrix model's ``exp_segment`` and ``mul`` also take
stacks, arrays with a leading axis; the abelian model's take one element
each.  ``products`` gives the points along a stack of log-displacements
given by its columns (as columns too, in the abelian model).  Only the
matrix model, its exponential and ``LieAlgebra.bracket`` import numpy,
inside the functions that use it, so abelian work never loads it.
Everything here is exact linear algebra, up to the matrix exponential's Padé
approximant; curve-level constructions live in :mod:`liecomplete.lift` and
friends.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, product
from operator import add
from typing import Optional, Sequence

from ._record import NOT_A_NUMBER, InputError, Record, array, floats, number

JACOBI_TOL = 1e-12
MODEL_COMMUTATOR_TOL = 1e-10
SINGULAR_DET_TOL = 1e-12


class AlgebraError(InputError):
    pass


class SingularElementError(AlgebraError):
    pass


def _default_names(d: int) -> tuple:
    return tuple(f"X{i + 1}" for i in range(d))


class LieAlgebra(Record):
    """Finite-dimensional real Lie algebra given by structure constants.

    ``c[i][j][k]`` is stored as d x d x d nested tuples of floats.
    """

    __slots__ = ("c", "basis_names")

    def __init__(self, c, basis_names: Sequence[str] = ()):
        try:
            c = tuple(tuple(tuple(map(float, row)) for row in plane) for plane in c)
        except NOT_A_NUMBER:
            c = None
        d = len(c or ())
        if c is None or any(len(plane) != d or any(len(row) != d for row in plane) for plane in c):
            raise AlgebraError("structure constants must have shape (d, d, d)")
        names = basis_names or _default_names(d)
        if len(names) != d:
            raise AlgebraError("basis_names length must match dimension")
        super().__init__(c, tuple(names))
        # antisymmetry must hold exactly as stored, not just within tolerance
        if any(c[i][j][k] != -c[j][i][k] for i, j, k in product(range(d), repeat=3)):
            raise AlgebraError("structure constants are not antisymmetric")
        jac = self.jacobi_residual()
        if jac >= JACOBI_TOL:
            raise AlgebraError(f"Jacobi identity violated (residual {jac:.3e})")

    @property
    def dim(self) -> int:
        return len(self.c)

    def jacobi_residual(self) -> float:
        c, r = self.c, range(self.dim)
        nonzero = {(i, j): [(m, x) for m, x in enumerate(c[i][j]) if x] for i, j in product(r, r)}
        # t[i, j, k]: the coefficients of [[e_i, e_j], e_k]
        t = {(i, j, k): [sum(x * c[m][k][l] for m, x in nonzero[i, j]) for l in r]
             for i, j, k in product(r, repeat=3)}
        # the largest coefficient of a sum over cyclic permutations of [[e_i, e_j], e_k]
        return max((abs(a + b + e) for i, j, k in product(r, repeat=3)
                    for a, b, e in zip(t[i, j, k], t[j, k, i], t[k, i, j])), default=0.0)

    def bracket(self, u, v):
        """[u, v] of two d-vectors, or row by row of two (m, d) stacks, as an array."""
        import numpy as np
        u = _last_axes(u, (self.dim,), "bracket argument")
        v = _last_axes(v, (self.dim,), "bracket argument")
        return np.einsum("...i,...j,ijk->...k", u, v, np.array(self.c))

    @staticmethod
    def abelian(d: int, basis_names: Optional[Sequence[str]] = None) -> "LieAlgebra":
        return LieAlgebra((((0.0,) * d,) * d,) * d, tuple(basis_names or _default_names(d)))


def structure_constants_from_matrix_basis(basis):
    """Project pairwise commutators of ``basis`` back onto the basis.

    Raises if the commutators do not close on span(basis) within
    ``MODEL_COMMUTATOR_TOL``.  The result is a ``(d, d, d)`` array and
    exactly antisymmetric.
    """
    import numpy as np
    basis = array(basis, AlgebraError, "matrix basis must have shape (d, n, n)")
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


def _last_axes(a, shape: tuple, what: str):
    """``a`` as a float array whose trailing axes are ``shape``; an empty list is an empty stack."""
    a = array(a, AlgebraError, f"{what} must hold numbers")
    if a.shape == (0,):
        a = a.reshape((0,) + shape)
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


def _pade(A, b: list):
    """The diagonal Padé approximant with coefficients ``b`` at every slice of ``A``."""
    import numpy as np
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


def _expm(A):
    """exp of every ``(n, n)`` slice of ``A`` by scaling and squaring (Higham 2005).

    Every slice takes its Padé degree and its number of squarings from its
    own 1-norm, and each degree is one stacked evaluation, so a slice's bits
    do not depend on the rest of the stack.  A 1-norm that overflows is read
    as ``m * 2**e``, where ``e`` is the exponent of the slice's largest entry
    and ``m`` the 1-norm of the slice times ``2**-e``, which cannot overflow.
    A slice whose off-diagonal part is zero is exp of its diagonal.  A
    triangular slice gets the exact exponentials of its diagonal before and
    after every squaring (Al-Mohy and Higham, SIMAX 2009, Code Fragment 2.1),
    so that scaling does not square up the rounding of its diagonal: a
    translation by 1e100 stays ``[[1, 1e100], [0, 1]]`` instead of decaying
    to zero.  Any other slice with such a norm still squares up the rounding
    of its Padé value: ``[[-1e300, 1e300], [1e300, -1e300]]``, whose
    exponential is ``[[0.5, 0.5], [0.5, 0.5]]``, comes out not finite.
    """
    import numpy as np
    shape, n = A.shape, A.shape[-1]
    A = A.reshape(-1, n, n)
    if not np.isfinite(A).all():
        raise AlgebraError("matrix exponential of a matrix that is not finite")
    out = np.empty_like(A)
    diag = np.diagonal(A, axis1=1, axis2=2)
    diagonal = ~A[:, ~np.eye(n, dtype=bool)].any(axis=1)
    out[diagonal] = np.exp(diag[diagonal])[:, :, None] * np.eye(n)
    with np.errstate(over="ignore"):
        norm = np.abs(A).sum(axis=1).max(axis=1)
    e = np.where(np.isinf(norm), np.frexp(np.abs(A).max(axis=(1, 2)))[1], 0)
    thetas = list(_PADE_THETA.values())
    degree = np.array(list(_PADE_THETA))[np.minimum(np.searchsorted(thetas, norm), len(thetas) - 1)]
    squarings = np.zeros(len(A), dtype=int)
    big = ~diagonal & (norm > thetas[-1])
    m = np.abs(np.ldexp(A[big], -e[big, None, None])).sum(axis=1).max(axis=1)
    squarings[big] = np.ceil(np.log2(m / thetas[-1])) + e[big]
    for deg, b in _PADE_B.items():
        k = np.flatnonzero(~diagonal & (degree == deg))
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


class AbelianGroup(Record):
    """(R^d, +) with the zero bracket; elements are tuples of d floats."""

    __slots__ = ("dim", "basis_names", "__dict__")
    _defaults = {"basis_names": ()}
    kind = "abelian"

    @cached_property
    def algebra(self) -> LieAlgebra:
        return LieAlgebra.abelian(self.dim, self.basis_names)

    def identity(self) -> tuple:
        return (0.0,) * self.dim

    def element(self, data) -> tuple:
        return tuple(floats(data, AlgebraError, f"abelian element must be a {self.dim}-vector", self.dim))

    def mul(self, a, b) -> tuple:
        """a + b of two elements."""
        return tuple(map(add, self.element(a), self.element(b)))

    def exp_segment(self, X, t=1.0) -> tuple:
        """t * X of a d-vector."""
        t = number(t, AlgebraError, "exp_segment takes one time")
        return tuple(t * v for v in self.element(X))

    def products(self, start, cols) -> list:
        """``start`` and its running sums with each vector of a stack, left to right, as columns.

        ``cols`` holds the d columns of the stack's m vectors; the result
        holds the d columns of the m + 1 points ``start + X_1 + ... + X_k``.
        Raises ``AlgebraError`` if one is not finite.  A coordinate that
        overflows stays inf or NaN in every later sum, so the last sum decides.
        """
        start = self.element(start)
        out = [list(accumulate(col, initial=s)) for s, col in zip(start, cols, strict=True)]
        if not all(math.isfinite(col[-1]) for col in out):
            raise AlgebraError("the group points are not finite")
        return out

    def distance(self, a, b) -> float:
        return math.dist(self.element(a), self.element(b))

    def to_jsonable(self, g) -> list:
        return list(self.element(g))


class MatrixGroup(Record):
    """Matrix group generated by exponentials of a represented basis, a (d, n, n) array."""

    __slots__ = ("basis", "basis_names", "__dict__")
    kind = "matrix"

    def __init__(self, basis, basis_names: Sequence[str] = ()):
        message = "matrix basis must have shape (d, n, n)"
        basis = array(basis, AlgebraError, message)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise AlgebraError(message)
        super().__init__(basis, tuple(basis_names))

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

    def identity(self):
        import numpy as np
        return np.eye(self.n)

    def element(self, data):
        import numpy as np
        message = f"matrix element must be {self.n}x{self.n}"
        g = array(data, AlgebraError, message)
        if g.shape != (self.n, self.n):
            raise AlgebraError(message)
        if abs(np.linalg.det(g)) <= SINGULAR_DET_TOL:
            raise SingularElementError("matrix element is numerically singular")
        return g

    def mul(self, a, b):
        """a @ b for elements or stacks of them."""
        shape = (self.n, self.n)
        return _last_axes(a, shape, "matrix element") @ _last_axes(b, shape, "matrix element")

    def exp_segment(self, X, t=1.0):
        """exp(t * X) of a d-vector, or one matrix per row of an (m, d) stack.

        ``t`` is a scalar or one value per row.  The whole stack goes through
        one stacked scaling-and-squaring Padé evaluation (:func:`_expm`),
        which gives each slice the bits of its own single call.  Raises
        ``AlgebraError`` when a result is not finite.
        """
        import numpy as np
        X = _last_axes(X, (self.dim,), "algebra vector")
        t = array(t, AlgebraError, "exp_segment takes one time or one per row")
        if t.ndim and t.shape != X.shape[:-1]:
            raise AlgebraError("exp_segment takes one time or one per row")
        A = np.einsum("...i,ijk->...jk", X, self.basis)
        with np.errstate(over="ignore", invalid="ignore"):
            E = _expm(t[..., None, None] * A)
        if not np.isfinite(E).all():
            raise AlgebraError("matrix exponential is not finite")
        return E

    def products(self, start, cols):
        """``start`` and its running products with ``exp`` of each vector of a stack, in order.

        ``cols`` holds the d columns of the stack's m vectors; the result is
        the ``(m + 1, n, n)`` points ``start @ exp(X_1) @ ... @ exp(X_k)``,
        with one stacked :meth:`exp_segment` for all vectors.
        Raises ``AlgebraError`` unless every point is finite and invertible:
        a point that rounds to a singular matrix (say, exp(1e300 D)) has
        left the range of floating point just as an overflowed one has.
        """
        import numpy as np
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.array(list(accumulate(self.exp_segment(list(zip(*cols))), np.matmul, initial=start)))
        if not (np.isfinite(out).all() and np.linalg.slogdet(out)[0].all()):
            raise AlgebraError("the group points are not finite and invertible")
        return out

    def distance(self, a, b) -> float:
        import numpy as np
        return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)))

    def to_jsonable(self, g) -> list:
        return [[float(v) for v in row] for row in g]
