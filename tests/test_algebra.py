"""Structure constants, brackets, and the two group models."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from liecomplete.algebra import (
    AbelianGroup,
    AlgebraError,
    LieAlgebra,
    MatrixGroup,
    SingularElementError,
    _PADE_THETA,
    structure_constants_from_matrix_basis,
)
from liecomplete.scenarios import build


# aff(1) with basis X (translation), Y (dilation) and [Y, X] = X, represented
# by the 2x2 matrices [[0,1],[0,0]] and [[1,0],[0,0]]
AFF_BASIS = np.array([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])


@pytest.fixture
def aff():
    c = structure_constants_from_matrix_basis(AFF_BASIS)
    return LieAlgebra(c, ("X", "Y"))


def test_aff_structure_constants(aff):
    # [Y, X] = X: hand matrix commutator of the representation
    assert aff.c[1][0] == (1.0, 0.0)
    assert aff.c[0][1] == (-1.0, 0.0)


def test_bracket_aff(aff):
    assert np.allclose(aff.bracket((0.0, 1.0), (1.0, 0.0)), (1.0, 0.0))


def test_bracket_abelian_is_zero():
    alg = LieAlgebra.abelian(2)
    assert np.allclose(alg.bracket((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))


@settings(max_examples=50, deadline=None)
@given(
    u=st.tuples(*[st.floats(-5, 5) for _ in range(2)]),
    v=st.tuples(*[st.floats(-5, 5) for _ in range(2)]),
)
def test_bracket_antisymmetric(u, v):
    c = structure_constants_from_matrix_basis(AFF_BASIS)
    alg = LieAlgebra(c)
    assert np.allclose(alg.bracket(u, v), -alg.bracket(v, u))


def test_bracket_dimension_mismatch(aff):
    with pytest.raises(AlgebraError):
        aff.bracket((1.0, 0.0, 0.0), (0.0, 1.0))


def test_antisymmetry_enforced_exactly():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing the mirrored entry
    with pytest.raises(AlgebraError, match="antisymmetric"):
        LieAlgebra(c)


def test_jacobi_enforced():
    # [e1,e2]=e2, [e1,e3]=e3, [e2,e3]=e1 fails Jacobi: the cyclic sum is -2*e1
    c = np.zeros((3, 3, 3))
    c[0, 1, 1] = 1.0
    c[1, 0, 1] = -1.0
    c[0, 2, 2] = 1.0
    c[2, 0, 2] = -1.0
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    with pytest.raises(AlgebraError, match="Jacobi"):
        LieAlgebra(c)


def test_basis_names_default_and_explicit(aff):
    assert aff.basis_names == ("X", "Y")
    assert LieAlgebra.abelian(3).basis_names == ("X1", "X2", "X3")
    with pytest.raises(AlgebraError, match="basis_names length"):
        LieAlgebra(np.zeros((2, 2, 2)), ("X",))


@pytest.mark.parametrize("c", [np.zeros((2, 2)), np.zeros((2, 2, 3)), [[["a"]]], 5.0],
                         ids=["two-axes", "not-square", "not-numbers", "not-a-grid"])
def test_malformed_structure_constants(c):
    with pytest.raises(AlgebraError, match="shape \\(d, d, d\\)"):
        LieAlgebra(c)


@pytest.mark.parametrize("basis", [np.zeros((2, 2)), np.zeros((1, 2, 3)),
                                   [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0]]]],
                         ids=["two-axes", "not-square", "ragged"])
def test_matrix_basis_shape_checked(basis):
    with pytest.raises(AlgebraError, match="shape \\(d, n, n\\)"):
        MatrixGroup(basis)


def test_commutators_must_close():
    # sl2-like pair whose commutator leaves the span
    basis = np.array([[[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(AlgebraError, match="close"):
        structure_constants_from_matrix_basis(basis)


# ---------------------------------------------------------------------------
# abelian model


def test_abelian_ops():
    G = AbelianGroup(2)
    assert np.allclose(G.mul((1.0, 2.0), (3.0, 4.0)), (4.0, 6.0))
    assert np.allclose(G.exp_segment((1.0, -2.0), -1.0), (-1.0, 2.0))
    assert np.allclose(G.exp_segment((1.0, 0.0), 2.0), (2.0, 0.0))
    assert np.allclose(G.exp_segment((3.0, -1.0), 0.0), G.identity())
    X = np.array([1.0, 2.0])
    assert np.allclose(G.mul(G.exp_segment(X), G.exp_segment(-X)), G.identity())


def test_abelian_elements_and_stacks_hold_d_numbers():
    G = AbelianGroup(2)
    for g in ((1.0,), (1.0, 2.0, 3.0), ("a", 1.0), (None, 1.0), (10 ** 400, 1.0), 5.0):
        with pytest.raises(AlgebraError, match="2-vector"):
            G.element(g)
    with pytest.raises(AlgebraError, match="2-vector"):
        G.mul(5.0, (0.0, 0.0))
    with pytest.raises(AlgebraError, match="2-vector"):
        G.exp_segment(5.0)
    for stack in ([(1.0,)], [(1.0, 2.0), (1.0,)], [("a", 1.0)], [(None, 1.0)], [(10 ** 400, 1.0)]):
        with pytest.raises(AlgebraError, match="2-vectors"):
            G.exp_segment(stack)
    with pytest.raises(AlgebraError, match="one time or one per row"):
        G.exp_segment([(1.0, 0.0)] * 2, [1.0])


# ---------------------------------------------------------------------------
# matrix model


def test_matrix_mul_hand_product():
    G = MatrixGroup(AFF_BASIS)
    a = np.array([[2.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 3.0], [0.0, 1.0]])
    assert np.allclose(G.mul(a, b), [[2.0, 6.0], [0.0, 1.0]])


def test_matrix_inverse_round_trip():
    G = MatrixGroup(AFF_BASIS)
    X = np.array([0.7, -0.3])
    assert np.allclose(G.mul(G.exp_segment(X), G.exp_segment(-X)), np.eye(2), atol=1e-12)


def test_nilpotent_exponential():
    # exp of t*[[0,1],[0,0]] terminates: [[1,t],[0,1]]
    G = MatrixGroup(np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    for t in (0.0, 0.5, -2.0, 7.0):
        assert np.allclose(G.exp_segment((1.0,), t), [[1.0, t], [0.0, 1.0]], atol=1e-14)


def test_exp_segment_zero_is_identity():
    G = MatrixGroup(AFF_BASIS)
    assert np.allclose(G.exp_segment((0.4, 1.3), 0.0), np.eye(2))


def test_matrix_exp_segment_takes_one_time_or_one_per_row():
    G = MatrixGroup(AFF_BASIS)
    stack = [(0.4, 1.3)] * 3
    for t in ([1.0, 2.0], [1.0] * 4, [[1.0, 2.0, 3.0]], [1.0]):
        with pytest.raises(AlgebraError, match="one time or one per row"):
            G.exp_segment(stack, t)
    with pytest.raises(AlgebraError, match="one time or one per row"):
        G.exp_segment((0.4, 1.3), [1.0, 2.0])
    assert np.array_equal(G.exp_segment(stack, [2.0] * 3), G.exp_segment(stack, 2.0))


@settings(max_examples=50, deadline=None)
@given(
    X=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    s=st.floats(-3, 3),
    t=st.floats(-3, 3),
)
def test_one_parameter_subgroup_law(X, s, t):
    G = MatrixGroup(AFF_BASIS)
    lhs = G.exp_segment(X, s + t)
    rhs = G.mul(G.exp_segment(X, s), G.exp_segment(X, t))
    # entries grow like e^{|X| |s+t|}, so compare relative to their scale
    assert np.max(np.abs(lhs - rhs)) < 1e-11 * max(1.0, float(np.max(np.abs(lhs))))


def test_singular_element_rejected():
    G = MatrixGroup(AFF_BASIS)
    with pytest.raises(SingularElementError):
        G.element([[0.0, 0.0], [0.0, 0.0]])


def test_element_shape_checked():
    G = MatrixGroup(AFF_BASIS)
    with pytest.raises(AlgebraError):
        G.element([1.0, 0.0])


def _bytes(a) -> bytes:
    """The bits of an element or a stack of them: tuples and lists of tuples for the abelian model."""
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("G", [AbelianGroup(2), MatrixGroup(AFF_BASIS)], ids=["abelian", "matrix"])
def test_stacks_give_the_bits_of_single_calls(G):
    rng = np.random.default_rng(0)
    X, t = rng.normal(size=(5, 2)), rng.uniform(-1.0, 1.0, size=5)
    g = G.exp_segment(rng.normal(size=2))
    steps = G.exp_segment(X, t)
    for i in range(5):
        assert _bytes(steps[i]) == _bytes(G.exp_segment(X[i], t[i]))
    # products: the points after each row of log-displacements, one multiplication each;
    # it takes the rows' columns, and the abelian model gives the points' columns too
    Xt = X * t[:, None]
    steps = G.exp_segment(Xt)
    prefix = G.products(g, Xt.T.tolist())
    if G.kind == "abelian":
        prefix = list(zip(*prefix))
    assert _bytes(prefix[0]) == _bytes(g)
    for i in range(5):
        assert _bytes(steps[i]) == _bytes(G.exp_segment(Xt[i]))
        assert _bytes(prefix[i + 1]) == _bytes(G.mul(prefix[i], steps[i]))
    assert _bytes(G.mul(prefix[:-1], steps)) == _bytes(prefix[1:])
    wrong = np.zeros(3) if G.kind == "abelian" else np.eye(3)
    for a, b in ((g, wrong), (np.stack([wrong, wrong]), g)):
        with pytest.raises(AlgebraError):
            G.mul(a, b)
    with pytest.raises(AlgebraError):
        G.exp_segment(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# the matrix exponential


def _gl(n):
    """The matrix model of gl(n): exp_segment of a row is exp of that row as an n x n matrix."""
    return MatrixGroup(np.eye(n * n).reshape(n * n, n, n))


def _norm1(A):
    return np.abs(A).sum(axis=-2).max(axis=-1)


# 1-norm intervals of the Padé degrees 3, 5, 7, 9 and 13, then of 1-4 and 5-6 squarings
_THETA = list(_PADE_THETA.values())
NORM_BANDS = (list(zip([0.0] + _THETA, _THETA + [16.0 * _THETA[-1]]))
              + [(16.0 * _THETA[-1], 64.0 * _THETA[-1])])


def _band_stack(rng, n):
    """One matrix per norm band, full, upper and lower triangular in turn, then zero and diagonal."""
    shapes = (lambda M: M, np.triu, np.tril)
    mats = []
    for i, (lo, hi) in enumerate(NORM_BANDS * 3):
        M = shapes[i // len(NORM_BANDS)](rng.uniform(-1.0, 1.0, (n, n)))
        mats.append(M * ((lo + rng.uniform(0.01, 0.99) * (hi - lo)) / _norm1(M)))
    return np.array(mats + [np.zeros((n, n)), np.diag(rng.normal(size=n))])


def test_affine_exponential_matches_the_closed_form():
    # exp([[a, b], [0, 0]]) = [[e^a, b (e^a - 1) / a], [0, 1]], which is exp_segment((b, a))
    grid = np.concatenate([np.linspace(-50.0, 50.0, 201), [-1e-8, 1e-8, -1e-4, 1e-4, 0.01, -0.01]])
    a, b = (v.ravel() for v in np.meshgrid(grid, grid))
    E = MatrixGroup(AFF_BASIS).exp_segment(np.column_stack([b, a]))
    ref = np.zeros_like(E)
    ref[:, 0, 0] = np.exp(a)
    ref[:, 0, 1] = np.where(a == 0.0, b, b * np.expm1(a) / np.where(a == 0.0, 1.0, a))
    ref[:, 1, 1] = 1.0
    err = np.abs(E - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
    assert err.max() <= 1e-12, (a[np.argmax(err)], b[np.argmax(err)], err.max())


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_exponential_matches_scipy(n, seed):
    A = _band_stack(np.random.default_rng(seed), n)
    norms = _norm1(A[: 3 * len(NORM_BANDS)]).reshape(3, -1)
    assert all(lo < x <= hi for row in norms for x, (lo, hi) in zip(row, NORM_BANDS))
    E = _gl(n).exp_segment(A.reshape(len(A), n * n))
    S = scipy.linalg.expm(A)
    err = np.abs(E - S).max(axis=(1, 2)) / np.abs(S).max(axis=(1, 2))
    # forward error grows with the norm; both methods are backward stable
    assert np.all(err <= 1e-12 * np.maximum(1.0, _norm1(A))), err


def test_a_stack_of_every_band_gives_the_bits_of_single_calls():
    n = 3
    A = _band_stack(np.random.default_rng(7), n)
    X = A.reshape(len(A), n * n)
    t = np.random.default_rng(8).uniform(0.5, 1.0, len(A))
    G = _gl(n)
    stacked = G.exp_segment(X, t)
    for i in range(len(A)):
        assert stacked[i].tobytes() == G.exp_segment(X[i], t[i]).tobytes(), i
    assert G.exp_segment(X[::-1], t[::-1]).tobytes() == stacked[::-1].tobytes()


def test_empty_stack():
    G = MatrixGroup(AFF_BASIS)
    assert G.exp_segment(np.empty((0, 2))).shape == (0, 2, 2)
    assert G.exp_segment(np.empty((0, 2)), np.empty(0)).shape == (0, 2, 2)


@pytest.mark.parametrize("X", [(0.0, 800.0), (1e300, 1e300), (np.nan, 0.0), (0.0, np.inf)],
                         ids=["overflow", "overflow-squared", "nan", "inf"])
def test_a_non_finite_exponential_is_an_error(X):
    G = MatrixGroup(AFF_BASIS)
    with pytest.raises(AlgebraError):
        G.exp_segment(X)
    with pytest.raises(AlgebraError):
        G.exp_segment([(0.1, 0.2), X])


def test_a_one_norm_that_overflows_is_scaled_first():
    # exp(A) = I + (1 - e^-a) / a * A = [[e^-a, 0], [1 - e^-a, 1]] for A = [[-a, 0], [a, 0]],
    # whose entries are finite but whose 1-norm 2a overflows from a = 2**1023 on
    G = _gl(2)
    for a in (1.0, 1e300, 1e308, 1.7e308):
        E = G.exp_segment((-a, 0.0, a, 0.0))
        ref = [[math.exp(-a), 0.0], [-math.expm1(-a), 1.0]]
        assert np.abs(E - ref).max() <= 1e-15, (a, E)   # [[0, 0], [1, 1]] from a = 1e300 on
    # next to a slice of ordinary norm, which keeps the bits of its own call
    X = [(0.1, 0.2, 0.3, 0.4), (-1e308, 0.0, 1e308, 0.0)]
    assert G.exp_segment(X)[0].tobytes() == G.exp_segment(X[0]).tobytes()
    for bad in ((-math.inf, 0.0, 1e308, 0.0), (math.nan, 0.0, 1e308, 0.0)):
        with pytest.raises(AlgebraError):
            G.exp_segment(bad)


def test_large_translations_keep_an_exact_diagonal():
    # a triangular slice's diagonal is exp of its own at every squaring, so
    # hundreds of squarings do not decay it
    G = MatrixGroup(AFF_BASIS)
    for x in (1e10, 1e100, 1e300):
        E = G.exp_segment((x, 0.0))
        assert E[0, 0] == E[1, 1] == 1.0 and E[1, 0] == 0.0
        assert abs(E[0, 1] - x) <= 1e-14 * x


# ---------------------------------------------------------------------------
# the algebra each group model carries


def test_matrix_model_algebra_has_affine_lines_constants():
    # [T, D] = T, as affine_line's constants were written by hand, with the
    # same sign on every zero
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0
    c[1, 0, 0] = -1.0
    group = build("affine").action.group
    assert np.array(MatrixGroup(group.basis).algebra.c).tobytes() == c.tobytes()
    assert group.algebra.basis_names == ("T", "D")


def test_abelian_model_algebra_is_abelian():
    G = AbelianGroup(3, ("a", "b", "c"))
    assert G.algebra.c == (((0.0,) * 3,) * 3,) * 3
    assert G.algebra.basis_names == ("a", "b", "c")
    assert AbelianGroup(2).algebra.basis_names == ("X1", "X2")
