"""Isotropy, leaf identification, and holonomy-style loop reconstruction.

These are the pointwise and loop-level reports built on top of lifting:

* :func:`isotropy` — SVD of the evaluation map of the algebra at a point;
  the nullspace is the isotropy subalgebra, its complement dimension the
  orbit dimension.
* :func:`same_leaf` — decides whether two graph-foliation points are on the
  same leaf by lifting a user-supplied witness path.  A failed witness is
  evidence, not proof, which the verdict vocabulary reflects.
* :func:`loop_to_group` — reconstructs the group element that a closed orbit
  loop returns to, by least-squares decomposing the loop velocity in a frame
  of fundamental fields and integrating the resulting group equation.  The
  sampled elements witness members of the return subgroup; whether that
  subgroup is closed is not decided here.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ._record import InputError, Record, array, floats, positive_int
from .flow import COMPLETE, IntegratorConfig
from .lift import ExpSeg, GPath, lift_path

__all__ = [
    "IsotropyReport",
    "LeafRecord",
    "HolonomyElement",
    "MalformedWitnessError",
    "FrameConditionError",
    "LoopOutsideOrbitError",
    "LoopGeometryError",
    "IDENTIFIED",
    "NOT_IDENTIFIED",
    "WITNESS_ESCAPED",
    "isotropy",
    "same_leaf",
    "loop_to_group",
]

IDENTIFIED = "identified"
NOT_IDENTIFIED = "not_identified_by_witness"
WITNESS_ESCAPED = "witness_escaped"

ISOTROPY_TOL = 1e-8   # relative singular-value cutoff of the isotropy's null directions
SAME_LEAF_TOL = 1e-6
WITNESS_ENDPOINT_TOL = 1e-10
FRAME_CONDITION_LIMIT = 1e6
ORBIT_RESIDUAL_REL = 1e-8

_CLOSURE_NOTE = (
    "elements are sampled loop returns; whether the return subgroup is closed "
    "is not decided"
)


class MalformedWitnessError(InputError):
    pass


class FrameConditionError(InputError):
    pass


class LoopOutsideOrbitError(InputError):
    pass


class LoopGeometryError(InputError):
    pass


class IsotropyReport(Record):
    """The isotropy subalgebra at a point, from the SVD of the evaluation map.

    ``singular_values`` are descending, padded with zeros to length d; the
    rows of the array ``nullspace`` form an orthonormal basis of the
    isotropy; singular values below ``cutoff`` count as null.
    """
    __slots__ = ("point", "singular_values", "nullspace", "orbit_dim", "cutoff")


def isotropy(action, x) -> IsotropyReport:
    """SVD-based isotropy subalgebra at ``x`` (must lie in the domain).

    Directions with singular value below ``ISOTROPY_TOL * sigma_max`` count
    as null; if every singular value is below ``ISOTROPY_TOL`` the cutoff is
    absolute.
    """
    import numpy as np
    x = action.require_inside(x)
    d = action.dim_algebra
    # evaluation map g -> T_x M has the basis fields as columns
    B = np.array(action.field_matrix(x)).T
    U, s, Vt = np.linalg.svd(B, full_matrices=True)
    sigmas = np.zeros(d)
    sigmas[: len(s)] = s
    sigma_max = sigmas[0] if sigmas.size and sigmas[0] > ISOTROPY_TOL else 1.0
    cutoff = ISOTROPY_TOL * sigma_max
    null_rows = Vt[sigmas < cutoff]
    rank = int(np.sum(sigmas >= cutoff))
    return IsotropyReport(tuple(x), tuple(float(v) for v in sigmas), null_rows, rank, float(cutoff))


class LeafRecord(Record):
    """Whether two graph points ``a = (g, x)`` and ``b`` were found on one leaf, and the witness lift."""
    __slots__ = ("a", "b", "verdict", "residual", "witness_winding", "lift")


def same_leaf(action, a, b, witness: GPath) -> LeafRecord:
    """Decide leaf membership of ``a = (g, x)`` and ``b = (g', x')`` via a witness.

    The witness must run from ``g`` to ``g'`` in the group (checked to
    ``1e-10``).  Its lift from ``x`` (``x`` itself for an empty witness), at
    the default ``IntegratorConfig()``, either reaches ``x'`` within
    ``SAME_LEAF_TOL`` (identified), ends elsewhere (not identified *by this
    witness*), or escapes.
    """
    g_a, x_a = a
    g_b, x_b = b
    group = action.group
    g_a = group.element(g_a)
    g_b = group.element(g_b)
    if group.distance(witness.start, g_a) > WITNESS_ENDPOINT_TOL:
        raise MalformedWitnessError("witness does not start at a's group element")
    if group.distance(witness.endpoint(), g_b) > WITNESS_ENDPOINT_TOL:
        raise MalformedWitnessError("witness does not end at b's group element")

    x_a, x_b = action._point(x_a), action._point(x_b)
    ends = ((g_a, tuple(x_a)), (g_b, tuple(x_b)))
    result = lift_path(action, witness, x_a)
    if result.status != COMPLETE:
        verdict, residual = WITNESS_ESCAPED, math.inf
    else:
        residual = math.dist(result.endpoint_m, x_b)
        verdict = IDENTIFIED if residual < SAME_LEAF_TOL else NOT_IDENTIFIED
    return LeafRecord(*ends, verdict, residual, result.winding, result)


class HolonomyElement(Record):
    """The group element a manifold loop returns to, with its re-lift residual."""
    __slots__ = ("element", "round_trip_residual", "loop_points", "closed", "path", "note")
    _defaults = {"note": _CLOSURE_NOTE}


_GL2_OFFSET = 0.5 / math.sqrt(3.0)
_MAGNUS4 = math.sqrt(3.0) / 12.0


def _sub_chord_segments(action, frame, pts, substeps: int) -> list:
    """One Magnus segment per sub-chord of the loop polyline ``pts``, in loop order.

    The two Gauss nodes of every sub-chord are built as one ``(N, n)`` array.
    One loop checks each node's margin, with the generated margin after one
    finiteness pass over the array, and appends its fields, from the checked
    evaluator of ``GAction.field_matrix``, to one flat list, reshaped once to
    ``(N, d, n)``.  The node matrices ``M`` (``n x k``, columns the frame's
    fields) are then solved as one stack.  A rank-one stack (``n == 1``, a
    one-dimensional orbit, or ``k == 1``, a one-field frame) has one singular
    value ``sigma = |M|`` per node and the solution ``(M / sigma)^T (c / sigma)``;
    any other stack takes one stacked SVD for the condition numbers and the
    least-squares solutions.  The first failing node of the first failing
    check (domain, then condition, then residual) names the error.
    """
    import numpy as np
    n_chords = pts.shape[0] - 1
    dt = 1.0 / (n_chords * substeps)
    # node fractions along a chord: (lo, hi) of sub-chord 0, then of sub-chord 1, ...
    mid = (np.arange(substeps) + 0.5) / substeps
    fracs = np.column_stack([mid - _GL2_OFFSET / substeps, mid + _GL2_OFFSET / substeps]).ravel()
    p0 = pts[:-1, None, :]
    step = pts[1:, None, :] - p0
    nodes = (p0 + fracs[:, None] * step).reshape(-1, pts.shape[1])
    # chord velocity on the loop clock, once per node
    cdot = np.repeat(step[:, 0, :] * n_chords, 2 * substeps, axis=0)

    margin, fields_at = action._margin, action._fields_at
    flat: list = []
    for point, finite in zip(nodes.tolist(), np.isfinite(nodes).all(axis=1).tolist()):
        if not finite or margin(point) <= 0.0:
            raise LoopGeometryError(f"loop leaves the domain near {point}")
        flat += fields_at(point)
    F = np.array(flat).reshape(len(nodes), frame.shape[1], nodes.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        St = np.swapaxes(frame @ F, 1, 2)    # (N, n, k): columns are frame fields
    if not np.isfinite(St).all():   # a frame that is not finite, or overflows, has no solve
        raise FrameConditionError("frame fields are not finite on the loop")
    # the least-squares solution of least norm: a frame with more fields than the
    # orbit's dimension ({T, D} on the affine line) has a line of exact solutions
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if min(St.shape[1:]) == 1:
            # the one singular value |M|, scaled by the largest entry so that squares
            # neither overflow nor underflow; an all-zero node gives nan, which fails below
            peak = np.abs(St).max(axis=(1, 2))
            sv = (peak * np.sqrt(np.square(St / peak[:, None, None]).sum(axis=(1, 2))))[:, None]
            s = sv[:, :, None]
            f = ((np.swapaxes(St, 1, 2) / s) @ (cdot[:, :, None] / s))[:, :, 0]
        else:
            U, sv, Vt = np.linalg.svd(St, full_matrices=False)
            uc = (np.swapaxes(U, 1, 2) @ cdot[:, :, None])[:, :, 0]
            f = (np.swapaxes(Vt, 1, 2) @ (uc / sv)[:, :, None])[:, :, 0]
        bad = ~(sv[:, -1] > 0.0) | (sv[:, 0] / sv[:, -1] > FRAME_CONDITION_LIMIT)
    if bad.any():
        s0, s1 = sv[np.argmax(bad)][[0, -1]]
        cond = s0 / s1 if s1 > 0.0 else math.inf
        raise FrameConditionError(f"frame is ill-conditioned on the loop (cond {cond:.2e})")
    res = np.linalg.norm((St @ f[:, :, None])[:, :, 0] - cdot, axis=1)
    bad = res > ORBIT_RESIDUAL_REL * np.linalg.norm(cdot, axis=1) + 1e-14
    if bad.any():
        raise LoopOutsideOrbitError(
            f"loop velocity leaves the frame span (residual {res[np.argmax(bad)]:.3e})"
        )

    X = f @ frame                          # algebra velocity at every node
    X_lo, X_hi = X[0::2], X[1::2]
    rates = 0.5 * (X_lo + X_hi) + (_MAGNUS4 * dt) * action.algebra.bracket(X_lo, X_hi)
    return [ExpSeg(tuple(rate), dt) for rate in rates.tolist()]   # rate for time dt


def loop_to_group(
    action,
    frame: Sequence[Sequence[float]],
    m_loop: Sequence[Sequence[float]],
    x0,
    cfg: Optional[IntegratorConfig] = None,
    closed: bool = True,
    substeps: int = 4,
) -> HolonomyElement:
    """Group element over a manifold loop that stays inside one orbit.

    ``frame`` is a list of algebra coefficient vectors whose fundamental
    fields span the orbit tangent along the loop.  Each chord is cut into
    ``substeps`` sub-chords of equal width.  At the two Gauss nodes of every
    sub-chord the loop velocity is decomposed in the frame, as the
    least-squares solution of least norm (condition number and residual are
    checked), all nodes as one stack: in closed form when each node's matrix
    is a single row or column (a one-dimensional orbit or a one-field
    frame), by one stacked SVD otherwise.  Each sub-chord then becomes one
    exponential segment with the 4th-order Magnus exponent of ``g' = g X``:

        Omega = dt * (X_lo + X_hi) / 2 + (sqrt(3) / 12) * dt**2 * [X_lo, X_hi]

    The bracket vanishes for abelian algebras and for frames of one field.
    The produced group path is re-lifted from ``x0`` to measure the
    round-trip residual.

    ``substeps`` stays 4 by default although the rule is 4th order: for
    a single frame field the Gauss average was 4th order already, so only
    narrower sub-chords shrink its error.  With the dilation frame on
    ``affine_line`` walks of 64-256 points, one sub-chord per chord misses a
    1e-7 relative accuracy on most walks and two come within 15 % of it.
    """
    import numpy as np
    cfg = cfg or IntegratorConfig()
    positive_int(substeps, InputError, "substeps")
    message = "frame must be a list of algebra d-vectors"
    frame = array(frame, FrameConditionError, message)
    if frame.ndim != 2 or frame.shape[1] != action.dim_algebra:
        raise FrameConditionError(message)
    message = "loop and x0 must hold manifold points of numbers"
    pts = array(m_loop, LoopGeometryError, message)
    x0 = np.array(floats(x0, LoopGeometryError, message, action.dim_manifold))
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != action.dim_manifold:
        raise LoopGeometryError("loop must be a list of at least two manifold points")
    if np.max(np.abs(pts[0] - x0)) > 1e-9:
        raise LoopGeometryError("loop must start at x0")
    if closed and np.max(np.abs(pts[-1] - pts[0])) > 1e-9:
        raise LoopGeometryError("loop is not closed; pass closed=False for open curves")

    group = action.group
    segs = _sub_chord_segments(action, frame, pts, substeps)
    path = GPath(group, group.identity(), segs)
    relift = lift_path(action, path, x0, cfg)
    if relift.status == COMPLETE:
        residual = float(
            np.linalg.norm(np.asarray(relift.endpoint_m) - pts[-1])
        )
    else:
        residual = math.inf
    return HolonomyElement(
        element=path.endpoint(),
        round_trip_residual=residual,
        loop_points=pts.shape[0],
        closed=closed,
        path=path,
    )
