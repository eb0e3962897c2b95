"""The benchmark's tracer still finds every name it rebinds in the package.

``perfbench/tracer.py`` times layers by rebinding public names such as
``GPath.__init__`` and ``MatrixGroup.exp_segment``; a name that moves or goes
away silently drops its per-layer metrics, so it is caught here.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_perfbench_finds_every_hook_point(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracer import Tracer, install
    from workloads import Pkg

    tracer = install(Tracer(), Pkg())
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
