"""The traced benchmark run (perfbench/run.py --trace 1) sees the
program's internal calls only through module attributes that
perfbench/spans.py patches by name.  This test installs those patches,
runs the calls that reach each patch point, and fails as soon as a
name it patches stops being called."""

import importlib.util
import pathlib

from gibbslab import models, sampler, stats, transfer
from gibbslab.gibbs import gibbs_measure
from gibbslab.verify import default_observable

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _patch_points():
    return (transfer.build, transfer.dominant_eigendata, stats.affine_combine,
            stats.block_chain, sampler.block_chain, stats.PressureFamily._solve)


def test_traced_run_patch_points_are_called():
    spans = _load_spans()
    model = models.builtin("ising")
    psi = default_observable(model)
    T = transfer.build(model.space, model.potential)
    mu = gibbs_measure(T, transfer.dominant_eigendata(T))
    originals = _patch_points()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        fam = stats.PressureFamily(model.space, model.potential, psi)
        fam.pressure(0.5)
        stats.asymptotic_variance(mu, psi)
        chains = tracer.calls["gibbs.block_chain"]
        sampler.empirical_birkhoff(mu, psi, 16, 50, seed=1)
    finally:
        undo()
    for name in ("transfer.build", "transfer.eigen", "potential.affine"):
        assert tracer.calls[name] >= 1, name
    assert chains >= 1 and tracer.calls["gibbs.block_chain"] > chains
    assert tracer.counters["stats.family_solves"] == 2
    assert tracer.counters["transfer.eigen_iters"] >= 2
    assert _patch_points() == originals
