"""Projective sl(2) on the line: lift verdicts and escape times against Möbius maps.

The action file ``projective_sl2.json`` gives the basis e, h, f of sl(2) as
2x2 matrices and their fields ``-1``, ``-2x`` and ``x^2`` on R.  Along a lift
of the group path g(t) from x0, the vector (x(t), 1) is proportional to
g(t)^-1 (x0, 1), so x(t) is a Möbius image of x0, and the lift escapes to
infinity at the first t where the second component of g(t)^-1 (x0, 1)
reaches 0.  For a path of ``ExpSeg`` segments that component is a product of
``scipy.linalg.expm`` factors applied to (x0, 1): the reference uses neither
the package's exponential nor its integrator.  It finds the first zero by a
scan for a sign change refined by Brent's method.
"""

import os
import random

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq

from liecomplete.cli import _action_from_file, main
from liecomplete.flow import COMPLETE, ESCAPED
from liecomplete.lift import ExpSeg, GPath, lift_path

ACTION_FILE = os.path.join(os.path.dirname(__file__), "projective_sl2.json")
BASIS = np.array([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]], [[0.0, 0.0], [1.0, 0.0]]])
SCAN_SAMPLES = 64         # per segment, for the sign change of the Möbius denominator
ESCAPE_TIME_TOL = 1e-8    # the largest gap seen is 1.6e-10
ENDPOINT_TOL = 1e-6       # relative, past 1; the largest seen is 2.2e-8, near a pole


@pytest.fixture(scope="module")
def projective():
    return _action_from_file(ACTION_FILE, {}).action


def test_the_fixture_is_a_homomorphism(capsys):
    assert main(["check", "--scenario-file", ACTION_FILE]) == 0
    out = capsys.readouterr().out
    assert "check: PASS" in out
    residual = float(out.split("bracket homomorphism residual:")[1].split()[0])
    assert residual < 1e-14


def _moebius_escape(segs, x0):
    """``(t, x)``: the path time at which the second component of g(t)^-1 (x0, 1) first
    reaches 0 and None, or None and the Möbius image of x0 at the path's end."""
    total = sum(dur for _, dur in segs)
    w, t_base = np.array([x0, 1.0]), 0.0
    for X, dur in segs:
        A = np.tensordot(X, BASIS, axes=1) * dur

        def denominator(frac):
            return (expm(-frac * A) @ w)[1]

        # v'' = -det(A) v, so zeros are simple and, where det(A) > 0, pi / sqrt(det(A))
        # apart: no sample interval holds two, and each zero is a sign change
        assert np.linalg.det(A) < (np.pi * SCAN_SAMPLES) ** 2
        fracs = np.linspace(0.0, 1.0, SCAN_SAMPLES + 1)
        vals = (expm(-fracs[:, None, None] * A) @ w)[:, 1]
        for lo, hi, v_lo, v_hi in zip(fracs, fracs[1:], vals, vals[1:]):
            if v_hi == 0.0 or (v_lo > 0.0) != (v_hi > 0.0):
                frac = brentq(denominator, lo, hi, xtol=1e-15)
                return t_base + frac * dur / total, None
        w = expm(-A) @ w
        t_base += dur / total
    return None, w[0] / w[1]


def _paths(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        segs = [(tuple(rng.gauss(0.0, 1.5) for _ in range(3)), rng.uniform(0.2, 1.0))
                for _ in range(3)]
        yield segs, rng.uniform(-2.0, 2.0)


def test_lifts_escape_where_the_moebius_map_does(projective):
    verdicts, gap, end_err = [], 0.0, 0.0
    for segs, x0 in _paths(100, 20):
        path = GPath(projective.group, np.eye(2), [ExpSeg(X, dur) for X, dur in segs])
        lifted = lift_path(projective, path, (x0,))
        t_ref, x_ref = _moebius_escape(segs, x0)
        verdicts.append((lifted.status, ESCAPED if t_ref is not None else COMPLETE))
        if verdicts[-1] == (ESCAPED, ESCAPED):
            gap = max(gap, abs(lifted.escape_time - t_ref))
        elif verdicts[-1] == (COMPLETE, COMPLETE):
            end_err = max(end_err, abs(lifted.endpoint_m[0] - x_ref) / max(1.0, abs(x_ref)))
    assert all(got == ref for got, ref in verdicts), verdicts
    escapes = sum(ref == ESCAPED for _, ref in verdicts)
    assert 20 <= escapes <= 80   # both verdicts are well represented (33 escapes)
    assert gap < ESCAPE_TIME_TOL
    assert end_err < ENDPOINT_TOL
