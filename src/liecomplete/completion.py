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
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .flow import COMPLETE, ESCAPED, IntegratorConfig
from .lift import ExpSeg, GPath, LiftResult, lift_path

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

SAME_LEAF_TOL = 1e-6
WITNESS_ENDPOINT_TOL = 1e-10
FRAME_CONDITION_LIMIT = 1e6
ORBIT_RESIDUAL_REL = 1e-8

_CLOSURE_NOTE = (
    "elements are sampled loop returns; whether the return subgroup is closed "
    "is not decided"
)


class MalformedWitnessError(ValueError):
    pass


class FrameConditionError(ValueError):
    pass


class LoopOutsideOrbitError(ValueError):
    pass


class LoopGeometryError(ValueError):
    pass


@dataclass
class IsotropyReport:
    point: tuple
    singular_values: tuple          # descending, padded with zeros to length d
    nullspace: np.ndarray           # rows form an orthonormal basis of the isotropy
    orbit_dim: int

    @property
    def isotropy_dim(self) -> int:
        return self.nullspace.shape[0]


def isotropy(action, x, tol: float = 1e-8) -> IsotropyReport:
    """SVD-based isotropy subalgebra at ``x`` (must lie in the domain).

    Directions with singular value below ``tol * sigma_max`` count as null;
    if every singular value is below ``tol`` the cutoff is absolute.
    """
    x = [float(v) for v in x]
    action.require_inside(x)
    d = action.dim_algebra
    # evaluation map g -> T_x M has the basis fields as columns
    B = action.field_matrix(x).T
    U, s, Vt = np.linalg.svd(B, full_matrices=True)
    sigmas = np.zeros(d)
    sigmas[: len(s)] = s
    sigma_max = sigmas[0] if sigmas.size and sigmas[0] > tol else 1.0
    cutoff = tol * sigma_max
    null_rows = Vt[sigmas < cutoff]
    rank = int(np.sum(sigmas >= cutoff))
    return IsotropyReport(tuple(x), tuple(float(v) for v in sigmas), null_rows, rank)


@dataclass
class LeafRecord:
    a: tuple                         # (g, x)
    b: tuple
    verdict: str
    residual: float
    witness_winding: Optional[float] = None
    lift: Optional[LiftResult] = None


def same_leaf(
    action,
    a,
    b,
    witness: GPath,
    cfg: Optional[IntegratorConfig] = None,
    tol: float = SAME_LEAF_TOL,
) -> LeafRecord:
    """Decide leaf membership of ``a = (g, x)`` and ``b = (g', x')`` via a witness.

    The witness must run from ``g`` to ``g'`` in the group (checked to
    ``1e-10``).  Its lift from ``x`` either reaches ``x'`` (identified), ends
    elsewhere (not identified *by this witness*), or escapes.
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

    x_a = [float(v) for v in x_a]
    x_b = [float(v) for v in x_b]
    if not witness.segments:
        # empty witness: only the trivial identification a == b is asserted
        residual = max(abs(p - q) for p, q in zip(x_a, x_b)) if x_a else 0.0
        verdict = IDENTIFIED if residual < tol else NOT_IDENTIFIED
        return LeafRecord((g_a, tuple(x_a)), (g_b, tuple(x_b)), verdict, residual)

    result = lift_path(action, witness, x_a, cfg)
    if result.status != COMPLETE:
        return LeafRecord(
            (g_a, tuple(x_a)),
            (g_b, tuple(x_b)),
            WITNESS_ESCAPED,
            math.inf,
            witness_winding=result.winding,
            lift=result,
        )
    residual = float(
        np.linalg.norm(np.asarray(result.endpoint_m) - np.asarray(x_b))
    )
    verdict = IDENTIFIED if residual < tol else NOT_IDENTIFIED
    return LeafRecord(
        (g_a, tuple(x_a)),
        (g_b, tuple(x_b)),
        verdict,
        residual,
        witness_winding=result.winding,
        lift=result,
    )


@dataclass
class HolonomyElement:
    element: object                  # group element the loop returns to
    round_trip_residual: float
    loop_points: int
    closed: bool
    path: GPath
    note: str = field(default=_CLOSURE_NOTE)


_GL2_OFFSET = 0.5 / math.sqrt(3.0)


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
    fields span the orbit tangent along the loop.  At two-point Gauss nodes of
    every sub-chord the loop velocity is least-squares decomposed in the frame
    (condition number and residual are checked); the group equation with the
    resulting piecewise velocity is then integrated in closed form per
    sub-chord, and the produced group path is re-lifted from ``x0`` to measure
    the round-trip residual.
    """
    cfg = cfg or IntegratorConfig()
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    frame = np.asarray(frame, dtype=float)
    if frame.ndim != 2 or frame.shape[1] != action.dim_algebra:
        raise FrameConditionError("frame must be a list of algebra d-vectors")
    pts = np.asarray(m_loop, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != action.dim_manifold:
        raise LoopGeometryError("loop must be a list of at least two manifold points")
    x0 = np.asarray([float(v) for v in x0])
    if np.max(np.abs(pts[0] - x0)) > 1e-9:
        raise LoopGeometryError("loop must start at x0")
    if closed and np.max(np.abs(pts[-1] - pts[0])) > 1e-9:
        raise LoopGeometryError("loop is not closed; pass closed=False for open curves")

    group = action.group
    n_chords = pts.shape[0] - 1
    dt = 1.0 / (n_chords * substeps)

    def velocity_at(point, cdot):
        if action.margin(point) <= 0.0:
            raise LoopGeometryError(f"loop leaves the domain near {list(point)}")
        S = frame @ action.field_matrix(point)       # (k, n): rows are frame fields
        St = S.T
        U, sv, Vt = np.linalg.svd(St, full_matrices=False)
        if sv[-1] <= 0.0 or sv[0] / sv[-1] > FRAME_CONDITION_LIMIT:
            raise FrameConditionError(
                f"frame is ill-conditioned on the loop (cond {sv[0] / max(sv[-1], 1e-300):.2e})"
            )
        # full column rank (checked above): the least-squares solution from the same SVD
        f = Vt.T @ ((U.T @ cdot) / sv)
        res = float(np.linalg.norm(St @ f - cdot))
        speed = float(np.linalg.norm(cdot))
        if res > ORBIT_RESIDUAL_REL * speed + 1e-14:
            raise LoopOutsideOrbitError(
                f"loop velocity leaves the frame span (residual {res:.3e})"
            )
        return f @ frame                              # algebra coefficients (d,)

    segs: list = []
    for j in range(n_chords):
        p0, p1 = pts[j], pts[j + 1]
        cdot = (p1 - p0) * (n_chords)                 # chord velocity on the loop clock
        for s in range(substeps):
            mid = (s + 0.5) / substeps
            fr_lo = mid - _GL2_OFFSET / substeps
            fr_hi = mid + _GL2_OFFSET / substeps
            X_lo = velocity_at(p0 + fr_lo * (p1 - p0), cdot)
            X_hi = velocity_at(p0 + fr_hi * (p1 - p0), cdot)
            X_bar = 0.5 * (X_lo + X_hi)
            segs.append(ExpSeg(tuple(X_bar), dt))   # rate X_bar for time dt

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
