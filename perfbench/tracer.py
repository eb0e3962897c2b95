"""Per-layer spans recorded from outside the package.

Nothing in the package is instrumented.  :func:`install` rebinds public
names (module attributes and two class attributes) to wrappers that record a
span around each call, and :meth:`Tracer.restore` puts the originals back.
A hook point the package no longer has is listed in ``Tracer.missing``, and
the metrics it feeds in ``Tracer.absent``, so they are reported as absent.

Spans are aggregated per layer name as they close, with a stack for the
parent link: calls, inclusive time, time in child spans, descendant count and
direct-child count.  Self time is inclusive time minus child time, corrected
by a calibrated span cost: the part of an empty span's cost that falls
inside the span (``inner``) is taken off the layer itself, and the rest
(``outer``) is taken off its parent once per direct child.
"""

from __future__ import annotations

import time
from statistics import median

_CALLS, _TOTAL, _CHILD, _DESC, _DIRECT = range(5)


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.counts: dict = {}
        self.missing: list = []
        self.absent: list = []
        self._stack = [[0.0, 0, 0]]   # [child time, descendants, direct children]
        self._hooks: list = []
        self.inner = 0.0
        self.outer = 0.0
        self.wrap_cost = 0.0

    def reset(self):
        """Forget recorded spans and counts; wrappers already made keep working."""
        self.stats.clear()
        self.counts.clear()

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0, 0, 0]
                st[_CALLS] += 1
                st[_TOTAL] += dt
                st[_CHILD] += frame[0]
                st[_DESC] += frame[1]
                st[_DIRECT] += frame[2]
                parent = stack[-1]
                parent[0] += dt
                parent[1] += frame[1] + 1
                parent[2] += 1

        return wrapper

    # -- rebinding ------------------------------------------------------------

    def patch(self, owners, attr: str, wrapper_of, provides: tuple) -> bool:
        """Rebind ``attr`` in every owner that holds the same object, to one wrapper.

        A function imported by several modules is one hook point; owners that
        lack the name are skipped.  When no owner has it, the hook is listed
        as missing and the metric-name prefixes in ``provides`` as absent.
        """
        found = [(o, getattr(o, attr, None)) for o in owners]
        orig = next((f for _, f in found if f is not None), None)
        if orig is None:
            self.missing.append(attr)
            self.absent.extend(provides)
            return False
        wrapped = wrapper_of(orig)
        for owner, f in found:
            if f is orig:
                self._hooks.append((owner, attr, f))
                setattr(owner, attr, wrapped)
        return True

    def restore(self):
        for owner, attr, orig in reversed(self._hooks):
            setattr(owner, attr, orig)
        self._hooks = []

    # -- calibration ------------------------------------------------------------

    def calibrate(self, n: int = 50_000, repeats: int = 5):
        """Measure what an empty span and a span-wrapper creation cost."""

        def noop(_x):
            return None

        clock = time.perf_counter
        inner, outer, wrap = [], [], []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe.span("empty", noop)
            t0 = clock()
            for _ in range(n):
                pass
            t1 = clock()
            for _ in range(n):
                noop(0)
            t2 = clock()
            for _ in range(n):
                wrapped(0)
            t3 = clock()
            for _ in range(n):
                probe.span("empty", noop)
            t4 = clock()
            loop = t1 - t0
            direct = (t2 - t1 - loop) / n
            recorded = probe.stats["empty"][_TOTAL] / n - direct
            inner.append(recorded)
            outer.append((t3 - t2 - (t2 - t1)) / n - recorded)
            wrap.append((t4 - t3 - loop) / n)
        self.inner, self.outer, self.wrap_cost = median(inner), median(outer), median(wrap)

    @property
    def span_cost(self) -> float:
        return self.inner + self.outer

    # -- results ----------------------------------------------------------------

    def present(self, metrics: dict) -> dict:
        """``metrics`` without those fed by a missing hook point."""
        return {k: v for k, v in metrics.items()
                if not any(k.startswith(prefix) for prefix in self.absent)}

    def layer(self, name: str):
        """(calls, self seconds, inclusive seconds), span cost taken off; None if absent."""
        st = self.stats.get(name)
        if st is None:
            return None
        self_s = st[_TOTAL] - st[_CHILD] - st[_CALLS] * self.inner - st[_DIRECT] * self.outer
        incl_s = st[_TOTAL] - st[_CALLS] * self.inner - st[_DESC] * self.span_cost
        return st[_CALLS], self_s, incl_s


# ---------------------------------------------------------------------------
# hook points


def install(tracer: Tracer, pkg) -> Tracer:
    """Rebind every hook point of ``pkg`` (a :class:`workloads.Pkg`) to a span wrapper."""
    t = tracer
    span = t.span

    def integrate_hook(orig):
        # the argument wrappers are made inside the flow.integrate span; their
        # creation cost is counted here and taken off that layer's self time
        def integrate(rhs, y0, duration, cfg, margin, on_step=None):
            rhs = span("manifold.rhs", rhs)
            margin = span("manifold.margin", margin)
            if on_step is not None:
                on_step = span("lift.on_step", on_step)
            t.count("flow.arg_wraps", 2 if on_step is None else 3)
            out = orig(rhs, y0, duration, cfg, margin, on_step)
            t.count("flow.steps_attempted", out[3])
            return out

        return span("flow.integrate", integrate)

    def lift_path_hook(orig):
        spanned = span("lift.lift_path", orig)

        def lift_path(action, path, *args, **kwargs):
            t.count("lift.segments", path.n_segments)
            return spanned(action, path, *args, **kwargs)

        return lift_path

    def named(name):
        return lambda orig: span(name, orig)

    lift, cli, completion, scenarios = pkg.lift, pkg.cli, pkg.completion, pkg.scenarios
    t.patch([lift], "integrate_autonomous", integrate_hook,
            ("flow.", "manifold.rhs.", "manifold.margin.", "lift.on_step."))
    t.patch([lift, completion, cli, scenarios], "lift_path", lift_path_hook,
            ("lift.lift_path.", "lift.segments", "lift.us_per_segment"))
    t.patch([lift.GPath], "__init__", named("lift.gpath"), ("lift.gpath.",))
    t.patch([pkg.algebra.MatrixGroup], "exp_segment", named("algebra.exp_segment"),
            ("algebra.exp_segment.",))
    t.patch([pkg.manifold], "compile_scalars", named("expr.compile_scalars"),
            ("expr.compile_scalars.",))
    t.patch([scenarios, cli], "build", named("scenarios.build"), ("scenarios.build.",))
    t.patch([scenarios, cli], "circle_loop_path", named("scenarios.circle_loop_path"),
            ("scenarios.circle_loop_path.",))
    t.patch([completion, cli], "loop_to_group", named("completion.loop_to_group"),
            ("completion.loop_to_group.",))
    t.patch([pkg.manifold, cli], "check_homomorphism", named("manifold.check_homomorphism"),
            ("manifold.check_homomorphism.",))
    t.patch([cli], "main", named("cli.main"), ("cli.main.", "cli.bytes_written"))
    return t
