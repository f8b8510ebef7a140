"""End-to-end consistency on a 3-symbol constrained shift with a
memory-3 potential: exercises genuine higher-block recoding (2-blocks,
5 states), block lifts with L > l, and cross-route identities that the
closed-form 2-state models cannot probe."""

import math

import numpy as np
import pytest

from gibbslab import stats, transfer, verify
from gibbslab.gibbs import (
    _levels,
    expectation,
    gibbs_measure,
    gibbs_ratio_scan,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.models import ModelFile
from gibbslab.potential import FiniteMemoryFunction, birkhoff_sum, total_variation
from gibbslab.sampler import empirical_birkhoff, sample_path
from gibbslab.shift_space import enumerate_words, validate

from oracles import encode, transport_lp


@pytest.fixture(scope="module")
def model():
    # symbols 1, 2, 3; forbid 2 -> 2 and 3 -> 1
    space = validate(3, [[1, 1, 1], [1, 0, 1], [0, 1, 1]], symbols=(1, 2, 3))
    rng = np.random.default_rng(11)
    words = enumerate_words(space, 3)
    vals = {w: round(float(rng.uniform(-0.8, 0.8)), 6) for w in words}
    phi = FiniteMemoryFunction(space, 3, vals)
    psi = FiniteMemoryFunction(space, 1, {(1,): 1.0, (2,): 0.0, (3,): -1.0})
    return ModelFile(name="three-symbol", space=space, potential=phi,
                     alpha=0.5, observable=psi)


@pytest.fixture(scope="module")
def solved(model):
    T = transfer.build(model.space, model.potential)
    E = transfer.dominant_eigendata(T, tol=1e-13)
    return T, E, gibbs_measure(T, E)


def test_block_structure(model, solved):
    T, E, mu = solved
    assert T.block_length == 2
    assert len(T.states) == int(model.space.transitions.sum()) == 7
    assert E.gap_ratio < 1.0
    assert E.residual_h <= 1e-12 * E.lambda_
    assert E.residual_nu <= 1e-12 * E.lambda_


def test_partition_pressure_brackets_eigenvalue(model, solved):
    _, E, _ = solved
    V = total_variation(model.potential)
    for n in (4, 8, 11):
        pn = transfer.pressure_via_partition(model.space, model.potential, n)
        assert abs(pn - E.pressure) <= (2 * V + math.log(7)) / n


def test_cylinder_consistency_and_shift_invariance(model, solved):
    _, _, mu = solved
    for n in range(1, 9):
        total = sum(mu.cylinder_measure(w) for w in enumerate_words(model.space, n))
        assert total == pytest.approx(1.0, abs=1e-11)
    for w in enumerate_words(model.space, 4):
        lifted = sum(
            mu.cylinder_measure((a,) + w)
            for a in model.space.symbols
            if model.space.allows(a, w[0])
        )
        assert lifted == pytest.approx(mu.cylinder_measure(w), abs=1e-13)


def test_levels_are_the_cylinder_measures(model, solved):
    """Block length 2, so length 1 is a short level summed over the
    blocks it starts; the lengths above it follow the block moves.  A
    recursion started at length j gives the same level, and expectation
    reads the same floats at the observable's memory."""
    _, _, mu = solved
    assert mu.block_length == 2
    for j, (codes, masses, _) in zip(range(1, 8), _levels(mu)):
        words = enumerate_words(mu.space, j)
        assert codes.tolist() == [encode(mu.space, w) for w in words]
        assert masses.tolist() == [mu.cylinder_measure(w) for w in words]
        assert next(_levels(mu, j))[1].tolist() == masses.tolist()
    for f in (model.observable, model.potential):
        by_word = sum(v * mu.cylinder_measure(w) for w, v in sorted(f.values.items()))
        assert expectation(mu, f) == by_word


def test_five_characterizations(model):
    rep = verify.verify_model(model)
    assert rep.passed, [c for c in rep.checks if not c["pass"]]


def test_scan_within_distortion_band(model, solved):
    _, _, mu = solved
    scan = gibbs_ratio_scan(mu, model.potential, 8)
    assert scan.pass_band
    assert scan.min_ratio > 0


def test_dp_moments_vs_correlation_engine(model, solved):
    _, _, mu = solved
    psi = model.observable
    n = 10
    dist = stats.exact_birkhoff_distribution(mu, psi, n)
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
    from gibbslab.gibbs import expectation

    assert dist.mean() == pytest.approx(n * expectation(mu, psi), abs=1e-9)
    finite_var = sum(
        (n - abs(k)) * stats.correlation(mu, psi, psi, abs(k))
        for k in range(-n + 1, n)
    )
    assert dist.variance() == pytest.approx(finite_var, abs=1e-9)


def test_dp_atoms_vs_cylinder_sums(model, solved, golden):
    """Every atom of the exact law against a brute-force sum of cylinder
    measures.  On the three-symbol model several block states share a
    lattice index; golden-mean's memory-2 observable makes block_chain
    lift its one-block chain to 2-blocks."""
    cases = [(solved[2], model.observable), (golden.mu, golden.psi)]
    for mu, psi in cases:
        for n in range(1, 7):
            dist = stats.exact_birkhoff_distribution(mu, psi, n)
            exact = dict(zip(dist.indices.tolist(), dist.probs.tolist()))
            brute = {}
            for w in enumerate_words(mu.space, n + psi.memory - 1):
                x = round((birkhoff_sum(psi, w, n) - n * dist.offset) / dist.span)
                brute[x] = brute.get(x, 0.0) + mu.cylinder_measure(w)
            for x in exact.keys() | brute.keys():
                assert exact.get(x, 0.0) == pytest.approx(brute.get(x, 0.0), abs=1e-13)


def test_variance_fd_and_rate_consistency(model):
    rep = stats.pressure_derivative_check(model.space, model.potential, model.observable)
    assert rep["first_error"] <= 1e-6
    assert rep["second_error"] <= 1e-4
    fam = stats.PressureFamily(model.space, model.potential, model.observable,
                               tol=1e-13)
    mean = fam.mean(0.0)
    pt = stats.rate_function(model.space, model.potential, model.observable,
                             mean + 0.15, family=fam)
    assert pt.rate > 0
    assert fam.mean(pt.s_star) == pytest.approx(mean + 0.15, abs=1e-9)
    # Legendre consistency: I(t) + Lambda(s*) = s* t
    assert pt.rate + pt.cumulant_at_s_star == pytest.approx(
        pt.s_star * (mean + 0.15), abs=1e-12
    )


def test_observable_with_memory_above_block_length(model, solved):
    _, _, mu = solved
    words = enumerate_words(model.space, 3)
    psi3 = FiniteMemoryFunction(model.space, 3, {w: float(w[0] == w[2]) for w in words})
    xi2 = stats.asymptotic_variance(mu, psi3)
    assert xi2 > 0
    dist = stats.exact_birkhoff_distribution(mu, psi3, 8)
    from gibbslab.gibbs import expectation

    assert dist.mean() == pytest.approx(8 * expectation(mu, psi3), abs=1e-9)


def test_sampler_statistics(model, solved):
    _, _, mu = solved
    path = sample_path(mu, 50_000, 77)
    assert model.space.is_admissible(path)
    assert not any(a == 2 and b == 2 for a, b in zip(path, path[1:]))
    exact = stats.exact_birkhoff_distribution(mu, model.observable, 64)
    _, summary = empirical_birkhoff(mu, model.observable, 64, 20_000, 77, exact=exact)
    assert summary["ks"] <= 0.02
    xi2 = stats.asymptotic_variance(mu, model.observable)
    assert abs(summary["var_over_n"] - exact.variance() / 64) <= 0.05 * xi2


def test_wasserstein_lp_on_constrained_shift(model, solved):
    _, _, mu = solved
    bumped = FiniteMemoryFunction(
        model.space, 3,
        {w: v + 0.1 * (w[0] == 1) for w, v in model.potential.values.items()},
    )
    Tb = transfer.build(model.space, bumped)
    Eb = transfer.dominant_eigendata(Tb, tol=1e-13)
    mub = gibbs_measure(Tb, Eb)
    value, tail = wasserstein_distance(mu, mub, 0.5, 4)
    lp = wasserstein_lp(mu, mub, 0.5, 4)
    assert value <= lp + 1e-12
    assert abs(value - lp) <= tail
    assert lp == pytest.approx(transport_lp(mu, mub, 0.5, 4), rel=0.0, abs=1e-10)
