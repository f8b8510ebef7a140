"""Snapshot of the public API's settings.

SURFACE lists, for each function and class exported by `gibbslab`
(plus verify_model and perturbed_nu), its parameter names with their
defaults, and for each exported dataclass its fields.  A parameter or
field with a default is a setting a caller may vary; a new one is a
deliberate edit to this table and to SETTINGS."""

import dataclasses
import inspect

import gibbslab
from gibbslab import verify
from gibbslab.errors import GibbsLabError

SURFACE = {
    "EigenData": ("lambda_", "pressure", "h", "nu", "min_h", "ess_radius_bound",
                  "residual_h", "residual_nu", "iterations", "matrix"),
    "FiniteMemoryFunction": ("space", "memory", "values", "alpha=0.5"),
    "GibbsMeasure": ("space", "block_length", "stationary", "successors", "pressure=None"),
    "LatticeDistribution": ("n", "offset", "span", "indices", "probs"),
    "PressureFamily": ("space", "phi", "psi", "tol=1e-13"),
    "RateFunctionPoint": ("t", "s_star", "rate", "cumulant_at_s_star"),
    "ShiftSpace": ("symbols", "transitions", "mixing_time"),
    "TransferSystem": ("space", "potential", "block_length", "matrix"),
    "affine_combine": ("f", "g", "s"),
    "asymptotic_variance": ("mu", "psi"),
    "birkhoff_sum": ("f", "word", "n"),
    "build": ("space", "phi"),
    "canonical_extension": ("space", "word", "horizon"),
    "clt_diagnostics": ("dist", "mean", "xi2"),
    "cohomology_check": ("mu", "psi"),
    "connecting_word": ("space", "i", "j", "m"),
    "constants_report": ("space", "phi", "alpha", "eigendata"),
    "correlation": ("mu", "f", "g", "n"),
    "dominant_eigendata": ("T", "tol=1e-12", "start=None"),
    "entropy": ("mu",),
    "enumerate_words": ("space", "n"),
    "exact_birkhoff_distribution": ("mu", "psi", "n"),
    "expectation": ("mu", "psi"),
    "gibbs_measure": ("T", "eigendata"),
    "gibbs_ratio_scan": ("mu", "phi", "n_max"),
    "holder_seminorm": ("f", "alpha"),
    "ldp_empirical": ("dists", "interval", "rate_oracle", "gibbs_mean"),
    "local_limit_check": ("dist", "mean", "xi2"),
    "markov_measure": ("space", "block_length", "transition", "stationary=None"),
    "normalized_operator": ("T", "eigendata"),
    "pressure_derivative_check": ("space", "phi", "psi"),
    "pressure_via_partition": ("space", "phi", "n"),
    "rate_function": ("space", "phi", "psi", "t", "family=None"),
    "recode": ("space", "block_length"),
    "total_variation": ("f",),
    "validate": ("alphabet_size", "transitions", "symbols=None"),
    "var_n": ("f", "n"),
    "variational_defect": ("mu", "phi", "pressure"),
    "wasserstein_distance": ("mu1", "mu2", "alpha", "n_max"),
    "wasserstein_lp": ("mu1", "mu2", "alpha", "n"),
    "verify.verify_model": ("model", "n_max=8", "inject_chain=None", "inject_nu=None",
                            "eigen_tol=1e-13"),
    "verify.perturbed_nu": ("model", "tol=1e-13"),
}
SETTINGS = 13  # entries of SURFACE with a default


def _entries(obj):
    if dataclasses.is_dataclass(obj):
        pairs = [(f.name, f.default) for f in dataclasses.fields(obj) if f.init]
    else:
        pairs = [(p.name, p.default) for p in inspect.signature(obj).parameters.values()]
    unset = (inspect.Parameter.empty, dataclasses.MISSING)
    return tuple(n if d in unset else f"{n}={d!r}" for n, d in pairs)


def _surface():
    exported = [(n, getattr(gibbslab, n)) for n in sorted(vars(gibbslab)) if not n.startswith("_")]
    exported += [("verify.verify_model", verify.verify_model),
                 ("verify.perturbed_nu", verify.perturbed_nu)]
    return {
        name: _entries(obj) for name, obj in exported
        if callable(obj) and not (inspect.isclass(obj) and issubclass(obj, GibbsLabError))
    }


def test_public_signatures_match_the_snapshot():
    assert _surface() == SURFACE


def test_settings_count():
    assert sum("=" in p for entry in SURFACE.values() for p in entry) == SETTINGS
