"""The library names that the benchmark's tracer patches.

perfbench/tracing.py traces wittenlab's layers by replacing names in the
namespaces that call them (ssf.det2, ssf.MollifiedBSFamily,
witten.pushnitski and the rest), and sizes each dense matrix from its
.entries.  A renamed or moved function leaves the benchmark's per-layer
metrics empty, and no other test would fail.  Here the tracer runs over a
small index pipeline and over the three traced names the index no longer
calls: ssf.ssf_mollified and witten.delta_r directly, and ssf.pushnitski
through ssf_2d_curve.
Every layer it traces must show up, and the dense matrix and det2, which
no sweep reaches, must count 0 calls.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import wittenlab
from wittenlab import builtin_profile

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_the_tracer_reaches_every_layer_of_the_index_and_counts_no_dense_call(tracing):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, wittenlab):
        report = wittenlab.witten.witten_index(
            builtin_profile("gaussian", 1.0, 1.0), (2, 4, 8), N=200, nu_max=6.0, threads=1
        )
        # the index shares ssf_mollified's sweep but does not call it, and takes
        # Delta_r from its 1-D curves, so none of these runs in it
        wittenlab.ssf.ssf_mollified(
            builtin_profile("gaussian", 1.0, 1.0), 4, np.linspace(-6.0, 6.0, 61), 200
        )
        wittenlab.ssf.ssf_2d_curve(report.reference_c0)
        wittenlab.witten.delta_r(
            wittenlab.SSFCurve([1.0, 2.0], [0.3, 0.3], wittenlab.SSFKind.TWO_DIM), -1.0
        )
    names = {span.name for span in tracer.spans}
    assert {
        "witten.witten_index",
        "ssf.ssf_mollified",
        "discretize.build_grid",
        "discretize.ensure_oscillation_resolved",
        "discretize.family_init",
        "determinants.phase_curve",
        "kernels.eta_n_im",
        "ssf.pushnitski",
        "witten.delta_r",
    } <= names
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["discretize.matrix.calls"] == 0
    assert metrics["determinants.det2.calls"] == 0
    # instrument restores every name it replaced
    assert wittenlab.ssf.det2 is wittenlab.determinants.det2
    assert wittenlab.ssf.MollifiedBSFamily is wittenlab.discretize.MollifiedBSFamily
