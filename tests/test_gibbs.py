import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import models, sampler, stats, transfer
from gibbslab.errors import SizeGuard, SolveFailure, Undefined, ValidationError
from gibbslab.gibbs import (
    GibbsMeasure,
    _levels,
    block_chain,
    entropy,
    expectation,
    gibbs_measure,
    gibbs_ratio_scan,
    markov_measure,
    variational_defect,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.potential import FiniteMemoryFunction
from gibbslab.shift_space import enumerate_words, validate
from gibbslab.verify import jacobian_max_error

from oracles import dense_table, encode, random_full_shift, transport_lp

PHI_G = (1.0 + math.sqrt(5.0)) / 2.0


def solved_bernoulli(p):
    m = models.bernoulli(p)
    T = transfer.build(m.space, m.potential)
    E = transfer.dominant_eigendata(T, tol=1e-13)
    return m, gibbs_measure(T, E)


def test_cylinder_bernoulli(bernoulli):
    mu = bernoulli.mu
    assert mu.cylinder_measure((1, 2, 1, 1)) == pytest.approx(0.1029, abs=1e-12)
    # product-measure oracle on every 4-word
    for w in itertools.product((1, 2), repeat=4):
        expect = math.prod(0.7 if s == 1 else 0.3 for s in w)
        assert mu.cylinder_measure(w) == pytest.approx(expect, abs=1e-13)


def test_cylinder_golden_forbidden(golden):
    assert golden.mu.cylinder_measure((1, 1)) == 0.0
    assert golden.mu.cylinder_measure((0, 1, 1, 0)) == 0.0


def test_cylinder_ising_two_word(ising):
    # pi(+) * Q(+ -> +) with Q(same) = e^beta / (2 cosh beta)
    expect = 0.5 * math.exp(1.0) / (2.0 * math.cosh(1.0))
    assert ising.mu.cylinder_measure((1, 1)) == pytest.approx(expect, abs=1e-12)


def test_cylinder_short_words_sum_over_completions():
    space_model = models.ising(1.0, 0.0)
    phi3 = FiniteMemoryFunction(
        space_model.space,
        3,
        {w: 0.3 * w[0] * w[1] - 0.1 * w[1] * w[2]
         for w in enumerate_words(space_model.space, 3)},
    )
    T = transfer.build(space_model.space, phi3)
    E = transfer.dominant_eigendata(T, tol=1e-13)
    mu = gibbs_measure(T, E)
    assert mu.block_length == 2
    total = sum(mu.cylinder_measure((s,)) for s in space_model.space.symbols)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert mu.cylinder_measure((1,)) == pytest.approx(
        mu.cylinder_measure((1, 1)) + mu.cylinder_measure((1, -1)), abs=1e-12
    )


def test_kolmogorov_consistency(builtin_triple):
    for s in builtin_triple.values():
        for n in range(1, 11):
            total = sum(s.mu.cylinder_measure(w) for w in enumerate_words(s.space, n))
            assert total == pytest.approx(1.0, abs=1e-11)


def test_shift_invariance(builtin_triple):
    for s in builtin_triple.values():
        for n in range(1, 10):
            for w in enumerate_words(s.space, n):
                lifted = sum(
                    s.mu.cylinder_measure((a,) + w)
                    for a in s.space.symbols
                    if s.space.allows(a, w[0])
                )
                assert lifted == pytest.approx(s.mu.cylinder_measure(w), abs=1e-12)


def test_jacobian_bernoulli(bernoulli):
    # expansion factor 1/p_{x0} = exp(P - phi)
    assert bernoulli.mu.jacobian((1, 2)) == pytest.approx(1.0 / 0.7, abs=1e-12)
    assert bernoulli.mu.jacobian((2, 1)) == pytest.approx(1.0 / 0.3, abs=1e-12)
    assert bernoulli.mu.jacobian((1, 2, 1, 1)) == pytest.approx(1.0 / 0.7, abs=1e-12)


def test_jacobian_ising(ising):
    expect = 2.0 * math.cosh(1.0) / math.e  # exp(P - phi(+1,+1))
    assert ising.mu.jacobian((1, 1, -1)) == pytest.approx(expect, abs=1e-12)
    # ratio-of-cylinders oracle
    oracle = ising.mu.cylinder_measure((1, -1)) / ising.mu.cylinder_measure((1, 1, -1))
    assert ising.mu.jacobian((1, 1, -1)) == pytest.approx(oracle, abs=1e-14)


def test_jacobian_needs_measure(golden):
    with pytest.raises(Undefined):
        golden.mu.jacobian((1, 1))
    with pytest.raises(ValidationError):
        golden.mu.jacobian((1,))


def test_jacobian_identity_every_builtin(builtin_triple):
    # exp(P - phi) corrected by the eigenfunction ratio h(next)/h(first);
    # h is constant for both full-shift models, so the correction only
    # matters on the golden mean shift
    for s in builtin_triple.values():
        assert jacobian_max_error(s.mu, s.phi, s.E) <= 1e-10


def test_golden_jacobian_values(golden):
    # raw expansion factors of the maximal-entropy chain: phi_g, 1, phi_g**2
    mu = golden.mu
    assert mu.jacobian((0, 0, 0)) == pytest.approx(PHI_G, abs=1e-12)
    assert mu.jacobian((0, 1, 0)) == pytest.approx(1.0, abs=1e-12)
    assert mu.jacobian((1, 0, 0)) == pytest.approx(PHI_G**2, abs=1e-12)


def test_entropy_values(builtin_triple):
    assert entropy(builtin_triple["bernoulli"].mu) == pytest.approx(0.6109, abs=5e-4)
    assert entropy(builtin_triple["golden-mean"].mu) == pytest.approx(
        math.log(PHI_G), abs=1e-12
    )


def test_entropy_deterministic_chain(bernoulli):
    perm = markov_measure(
        bernoulli.space, 1,
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        stationary=np.array([0.5, 0.5]),
    )
    assert entropy(perm) == 0.0


def test_expectation(builtin_triple):
    bern = builtin_triple["bernoulli"]
    assert expectation(bern.mu, bern.phi) == pytest.approx(-0.6109, abs=5e-4)
    const = FiniteMemoryFunction.constant(bern.space, 2.5)
    assert expectation(bern.mu, const) == pytest.approx(2.5, abs=1e-13)
    isg = builtin_triple["ising"]
    assert expectation(isg.mu, isg.psi) == pytest.approx(0.0, abs=1e-13)


def test_variational_defect_gibbs_is_zero(builtin_triple):
    for s in builtin_triple.values():
        assert abs(variational_defect(s.mu, s.phi, s.E.pressure)) <= 1e-10


def test_variational_defect_fair_coin(bernoulli):
    fair = markov_measure(bernoulli.space, 1, np.full((2, 2), 0.5))
    defect = variational_defect(fair, bernoulli.phi, bernoulli.E.pressure)
    # -(log 2 + (log 0.21)/2): the relative-entropy gap of the fair coin,
    # equal to the binary divergence D(1/2 || 0.7)
    assert defect == pytest.approx(-(math.log(2.0) + 0.5 * math.log(0.21)), abs=1e-12)
    kl = 0.5 * math.log(0.5 / 0.7) + 0.5 * math.log(0.5 / 0.3)
    assert defect == pytest.approx(kl, abs=1e-12)
    assert defect == pytest.approx(0.0871766935723889, abs=1e-13)


def test_variational_defect_positive_off_equilibrium(builtin_triple):
    for s in builtin_triple.values():
        Q = np.array(s.mu.transition)
        k = Q.shape[0]
        bump = np.where(Q > 0, Q + 0.05, 0.0)
        bump /= bump.sum(axis=1, keepdims=True)
        if np.abs(bump - Q).max() < 1e-12:
            continue
        cand = markov_measure(s.space, s.mu.block_length, bump)
        assert variational_defect(cand, s.phi, s.E.pressure) > 1e-6


def test_scan_bernoulli_exact(bernoulli):
    scan = gibbs_ratio_scan(bernoulli.mu, bernoulli.phi, 10)
    assert scan.min_ratio == pytest.approx(1.0, abs=1e-12)
    assert scan.max_ratio == pytest.approx(1.0, abs=1e-12)
    assert scan.passed and scan.pass_band


def test_scan_ising_band(ising):
    scan = gibbs_ratio_scan(ising.mu, ising.phi, 10)
    # exact worst-case band cosh(beta) * e**(-+beta): the boundary spin
    # of the cylinder is free, the center is the half-lambda weight
    assert scan.min_ratio == pytest.approx(math.cosh(1.0) / math.e, abs=1e-10)
    assert scan.max_ratio == pytest.approx(math.cosh(1.0) * math.e, abs=1e-10)
    assert scan.c1 == pytest.approx(math.exp(-8.0), abs=1e-12)
    assert scan.c2 == pytest.approx(math.exp(8.0), rel=1e-12)
    assert scan.passed and scan.pass_band


def test_scan_golden_band_constant(golden):
    scan = gibbs_ratio_scan(golden.mu, golden.phi, 10)
    # V(phi) = 0 collapses the literal band to [1, 1]; the eigenvector
    # weights keep the true ratios at phi_g * nu(first) * h(last)
    assert not scan.pass_band
    assert scan.band_constant and scan.passed
    nu = (1.0 / PHI_G, 1.0 / PHI_G**2)
    h = (PHI_G, 1.0)
    h = tuple(x / (nu[0] * h[0] + nu[1] * h[1]) for x in h)
    ratios = [PHI_G * nu[i] * h[j] for i in (0, 1) for j in (0, 1)]
    assert scan.min_ratio == pytest.approx(min(ratios), abs=1e-12)
    assert scan.max_ratio == pytest.approx(max(ratios), abs=1e-12)


def test_wasserstein_zero_for_equal():
    _, mu = solved_bernoulli(0.7)
    value, tail = wasserstein_distance(mu, mu, 0.5, 6)
    assert value == 0.0
    assert tail == 0.5**6


@pytest.mark.parametrize("n", [0, -2])
def test_level_sums_need_a_level(n):
    """With no level the tail bound alpha**n would pass the metric's
    diameter 1, and the LP value would read 0."""
    _, mu = solved_bernoulli(0.7)
    _, nu = solved_bernoulli(0.4)
    for call in (wasserstein_distance, wasserstein_lp):
        with pytest.raises(ValidationError, match="level count must be at least 1"):
            call(mu, nu, 0.5, n)


def test_wasserstein_lp_oracle_agreement(golden):
    m = models.golden_mean(0.5)
    T = transfer.build(m.space, m.potential)
    golden_half = gibbs_measure(T, transfer.dominant_eigendata(T, tol=1e-13))
    pairs = [
        (solved_bernoulli(0.7)[1], solved_bernoulli(0.8)[1]),
        # a constrained shift: the word 11 has no mass on either side
        (golden.mu, golden_half),
    ]
    for mu1, mu2 in pairs:
        value, tail = wasserstein_distance(mu1, mu2, 0.5, 4)
        lp = wasserstein_lp(mu1, mu2, 0.5, 4)
        assert value <= lp + 1e-12
        assert abs(value - lp) <= tail
        assert lp == pytest.approx(transport_lp(mu1, mu2, 0.5, 4), rel=0.0, abs=1e-10)


def test_wasserstein_lipschitz_grid():
    _, base = solved_bernoulli(0.7)
    base_model = models.bernoulli(0.7)
    ratios = []
    for eps in (0.01, 0.02, 0.05):
        pert_model, pert = solved_bernoulli(0.7 + eps)
        dphi = max(
            abs(pert_model.potential.values[w] - base_model.potential.values[w])
            for w in base_model.potential.values
        )
        value, _ = wasserstein_distance(base, pert, 0.5, 8)
        ratios.append(value / dphi)
    assert max(ratios) <= 1.0
    assert max(ratios) / min(ratios) <= 1.25


def test_wasserstein_pseudometric():
    _, m7 = solved_bernoulli(0.7)
    _, m8 = solved_bernoulli(0.8)
    _, m9 = solved_bernoulli(0.9)
    d78, t78 = wasserstein_distance(m7, m8, 0.5, 6)
    d87, _ = wasserstein_distance(m8, m7, 0.5, 6)
    assert d78 == pytest.approx(d87, abs=1e-14)
    d79, t79 = wasserstein_distance(m7, m9, 0.5, 6)
    d89, t89 = wasserstein_distance(m8, m9, 0.5, 6)
    assert d79 <= d78 + d89 + t78 + t89 + t79


def test_markov_measure_solves_stationary(bernoulli):
    fair = markov_measure(bernoulli.space, 1, np.full((2, 2), 0.5))
    assert fair.stationary == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)
    # a period-2 chain on the full 3-shift: powers of Q never settle
    space = validate(3, np.ones((3, 3), dtype=int), symbols=(1, 2, 3))
    Q = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    periodic = markov_measure(space, 1, Q)
    assert periodic.stationary == pytest.approx(np.array([0.5, 0.25, 0.25]), abs=1e-12)
    # Q = I has no unique stationary vector
    with pytest.raises(SolveFailure):
        markov_measure(space, 1, np.eye(3))


def test_chain_stores_its_successor_table_only():
    """On the full 4-shift with a memory-6 potential (k = 1024 states of
    5-blocks), gibbs_measure allocates less than one k x k float array
    and makes no dense transition until it is read; read, transition is
    the dense normalized operator M nu / (lambda nu), bit for bit."""
    phi = random_full_shift(100, 6)
    T = transfer.build(phi.space, phi)
    E = transfer.dominant_eigendata(T, tol=1e-12)
    k = T.state_count
    tracemalloc.start()
    try:
        mu = gibbs_measure(T, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 1024 and peak < k * k * 8
    assert "transition" not in vars(mu)
    dense = T.matrix * E.nu[None, :] / (E.lambda_ * E.nu[:, None])
    assert np.array_equal(mu.transition, dense)
    assert "transition" in vars(mu) and not mu.transition.flags.writeable


def test_states_are_the_enumerated_blocks(golden):
    """A chain's states are the admissible blocks in enumerate_words
    order, derived from (space, block_length); a chain rebuilt from the
    dense form of its lift to 2-blocks has the lift's successor table
    and gives the same cylinder measures."""
    pi, Q = block_chain(golden.mu, 2)
    assert Q.shape == (3, 2)
    lifted = markov_measure(golden.space, 2, dense_table(golden.space, 2, Q), pi)
    assert lifted.successors.tolist() == Q.tolist()
    assert lifted.states == ((0, 0), (0, 1), (1, 0))
    assert golden.mu.states == ((0,), (1,))
    for w in enumerate_words(golden.space, 5):
        assert lifted.cylinder_measure(w) == pytest.approx(
            golden.mu.cylinder_measure(w), rel=1e-12, abs=0.0)


def test_states_argument_is_gone(bernoulli, golden):
    """Passed in its old place, a states tuple lands on the transition
    matrix and fails its shape check; with the stationary vector too it
    is one argument too many; and GibbsMeasure takes no states."""
    Q = np.full((2, 2), 0.5)
    with pytest.raises(ValidationError, match="shapes do not match"):
        markov_measure(bernoulli.space, 1, ((1,), (2,)), Q)
    pi, QL = block_chain(golden.mu, 2)
    states = enumerate_words(golden.space, 2)
    with pytest.raises(ValidationError, match="shapes do not match"):
        markov_measure(golden.space, 2, states, QL)
    with pytest.raises(TypeError):
        markov_measure(golden.space, 2, states, QL, pi)
    with pytest.raises(TypeError):
        GibbsMeasure(space=bernoulli.space, block_length=1, states=((1,), (2,)),
                     stationary=np.array([0.5, 0.5]), transition=Q)


def test_malformed_shapes_are_named_before_any_solve(bernoulli, monkeypatch):
    """On the full 2-shift: a 1 x 2 Q, a ragged Q, a stationary list
    passed straight to GibbsMeasure and a dense 4 x 4 Q passed as the
    successor table of the 2-blocks are ValidationErrors naming the
    expected shape, and no stationary solve runs."""
    def no_solve(*args):
        raise AssertionError("solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    space = bernoulli.space
    with pytest.raises(ValidationError, match=r"transition .* shape \(2, 2\), got \(1, 2\)"):
        markov_measure(space, 1, [[0.5, 0.5]])
    with pytest.raises(ValidationError, match=r"transition .* shape \(2, 2\), got ragged"):
        markov_measure(space, 1, [[0.5, 0.5], [1.0]])
    with pytest.raises(ValidationError, match=r"stationary .* shape \(2,\), got list"):
        GibbsMeasure(space, 1, stationary=[0.5, 0.5], successors=np.full((2, 2), 0.5))
    with pytest.raises(ValidationError, match=r"successors .* shape \(4, 2\), got \(4, 4\)"):
        GibbsMeasure(space, 2, np.full(4, 0.25), np.full((4, 4), 0.25))


def test_chain_is_validated_once_at_construction(bernoulli, golden):
    """A negative or non-finite entry, or transition mass between blocks
    that are no move of the block graph, is a ValidationError when the
    chain is built, not a measure with negative or inconsistent
    cylinders."""
    space = bernoulli.space
    # its stationary vector is [3, -2], so mu([1, 2]) would be -0.6
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        markov_measure(space, 1, [[1.2, -0.2], [0.3, 0.7]])
    # NaN > 1e-9 is False, so a NaN row passes a row-sum check
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        markov_measure(space, 1, [[np.nan, np.nan], [0.5, 0.5]], [0.5, 0.5])
    for pi in ([np.nan, 1.0], [1.5, -0.5]):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            markov_measure(space, 1, np.full((2, 2), 0.5), pi)
    # an infinite entry is nonnegative, but its sum is not 1
    with pytest.raises(ValidationError, match="stationary vector must sum to 1"):
        markov_measure(space, 1, np.full((2, 2), 0.5), [np.inf, 0.0])
    with pytest.raises(ValidationError, match="transition rows must sum to 1"):
        markov_measure(space, 1, [[np.inf, 0.5], [0.5, 0.5]], [0.5, 0.5])
    # the full 2-shift's 2-blocks: (1, 2) -> (1, 1) is no move
    with pytest.raises(ValidationError, match="off the block graph's moves"):
        markov_measure(space, 2, np.full((4, 4), 0.25))
    # golden-mean forbids 1 -> 1, which would give mu([1, 1]) = 0.25
    with pytest.raises(ValidationError, match="off the block graph's moves"):
        markov_measure(golden.space, 1, np.full((2, 2), 0.5))
    # zeros on allowed moves are a valid chain; (2, 2) is transient, and
    # the stationary solve's -6e-17 there is rounding, read as 0
    chain = markov_measure(space, 2, [[0.5, 0.5, 0, 0], [0, 0, 1.0, 0],
                                      [1.0, 0, 0, 0], [0, 0, 0.5, 0.5]])
    assert chain.stationary[3] == 0.0
    assert chain.stationary == pytest.approx([0.5, 0.25, 0.25, 0.0], abs=1e-15)
    assert chain.cylinder_measure((2, 2)) == 0.0


def test_block_chain_lift_matches_cylinders(golden):
    """Lifting a chain to longer blocks: pi_L is the cylinder measure,
    each row of the k_L x N successor table with mass is cyl(u + s) /
    cyl(u) over the symbols s, and each zero-mass row is the native row
    of the block's final block, not an absorbing identity row."""
    space = validate(3, np.ones((3, 3), dtype=int), symbols=(1, 2, 3))
    Q = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    sparse = markov_measure(space, 1, Q)
    for mu, L, zero_rows in [(golden.mu, golden.psi.memory, 0), (sparse, 2, 2)]:
        pi, QL = block_chain(mu, L)
        assert L == mu.block_length + 1
        states = enumerate_words(mu.space, L)
        assert pi.tolist() == [mu.cylinder_measure(u) for u in states]
        ell, symbols = mu.block_length, mu.space.symbols
        assert QL.shape == (len(states), len(symbols))
        for i, u in enumerate(states):
            if pi[i] == 0.0:
                final = mu.states.index(u[-ell:])
                ahead = [(u + (s,))[-ell:] for s in symbols]
                expected = [mu.transition[final, mu.states.index(v)] if v in mu.states
                            else 0.0 for v in ahead]
            else:
                expected = [mu.cylinder_measure(u + (s,)) / pi[i] for s in symbols]
            # the raw ratios carry the eigensolve residual (8e-14 on
            # golden-mean), which block_chain's row renormalisation removes
            assert QL[i] == pytest.approx(expected, abs=1e-12)
        assert int((pi == 0.0).sum()) == zero_rows


def zero_transition_chain():
    """A chain on the full 3-shift with Q[1, 1] = 0, so the 2-block
    (1, 1) has no mass."""
    space = validate(3, np.ones((3, 3), dtype=int), symbols=(1, 2, 3))
    Q = np.array([[0.0, 0.5, 0.5], [0.25, 0.25, 0.5], [1 / 3, 1 / 3, 1 / 3]])
    return markov_measure(space, 1, Q)


def test_asymptotic_variance_through_a_zero_mass_block():
    """psi = 1 on (1, 2) lifts the chain to 2-blocks.  An absorbing
    (1, 1) would be a second recurrent class, making the fundamental
    matrix singular; with its native row the variance rate is the
    increment of the exact variances."""
    mu = zero_transition_chain()
    psi = FiniteMemoryFunction.indicator(mu.space, (1, 2))
    xi2 = stats.asymptotic_variance(mu, psi)
    v80, v81 = (stats.exact_birkhoff_distribution(mu, psi, n).variance() for n in (80, 81))
    assert xi2 == pytest.approx(v81 - v80, abs=1e-12)


def test_levels_are_the_cylinder_measures():
    mu = zero_transition_chain()
    for j, (codes, masses, _) in zip(range(1, 8), _levels(mu)):
        words = enumerate_words(mu.space, j)
        assert codes.tolist() == [encode(mu.space, w) for w in words]
        assert masses.tolist() == [mu.cylinder_measure(w) for w in words]


def test_levels_respect_the_enumeration_cap(monkeypatch):
    """The level sums hold every word of a length at once, so
    GIBBSLAB_ENUM_CAP bounds alphabet**length for them."""
    _, mu1 = solved_bernoulli(0.7)
    _, mu2 = solved_bernoulli(0.8)
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "16")
    assert len(block_chain(mu1, 2)[0]) == 4
    wasserstein_distance(mu1, mu2, 0.5, 4)
    with pytest.raises(SizeGuard):
        wasserstein_distance(mu1, mu2, 0.5, 5)


def _lifting_calls():
    """Each caller of block_chain, on the 1-block Bernoulli chain with
    observables of memory 3 (and a memory-4 potential for the scan):
    every one lifts the chain to 8 states of 3-blocks."""
    m, mu = solved_bernoulli(0.7)
    psi = FiniteMemoryFunction(
        m.space, 3, {w: float(i % 3) for i, w in enumerate(enumerate_words(m.space, 3))})
    phi = FiniteMemoryFunction(
        m.space, 4, {w: 0.1 * i for i, w in enumerate(enumerate_words(m.space, 4))})
    return {
        "asymptotic_variance": lambda: stats.asymptotic_variance(mu, psi),
        "correlation": lambda: stats.correlation(mu, psi, psi, 2),
        "cohomology_check": lambda: stats.cohomology_check(mu, psi),
        "exact_birkhoff_distribution": lambda: stats.exact_birkhoff_distribution(mu, psi, 4),
        "gibbs_ratio_scan": lambda: gibbs_ratio_scan(mu, phi, 4),
        "empirical_birkhoff": lambda: sampler.empirical_birkhoff(mu, psi, 4, 10, 1),
    }


@pytest.mark.parametrize("name", ["asymptotic_variance", "correlation", "cohomology_check",
                                  "exact_birkhoff_distribution", "gibbs_ratio_scan",
                                  "empirical_birkhoff"])
def test_every_lift_is_capped_before_it_is_built(name, monkeypatch):
    """The k x N lift is bounded by the word enumeration that builds it,
    and a dense k x k array made of it by its k**2 entries: under a cap
    of 63 (which admits the 8 or 16 words of the value tables) the
    8-state lift runs for every caller but the resolvent solve, whose
    8 x 8 array is a SizeGuard naming it; under 64 every one runs."""
    call = _lifting_calls()[name]
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "63")
    if name == "asymptotic_variance":
        with pytest.raises(SizeGuard, match="8x8 resolvent chain exceeds"):
            call()
    else:
        call()
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "64")
    call()


@given(st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_scan_random_potentials_within_distortion_band(values):
    # the quantitative heart of the cylinder characterization: every
    # memory-2 potential on the full 2-shift stays inside [e^-2V, e^2V]
    m = models.bernoulli(0.7)  # reuse the space only
    words = enumerate_words(m.space, 2)
    phi = FiniteMemoryFunction(m.space, 2, dict(zip(words, [round(v, 6) for v in values])))
    T = transfer.build(m.space, phi)
    E = transfer.dominant_eigendata(T, tol=1e-12)
    mu = gibbs_measure(T, E)
    scan = gibbs_ratio_scan(mu, phi, 6)
    assert scan.pass_band


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=30, deadline=None)
def test_scan_random_golden_potentials(a, b, c):
    mg = models.golden_mean(0.0)
    phi = FiniteMemoryFunction(
        mg.space, 2,
        {(0, 0): round(a, 6), (0, 1): round(b, 6), (1, 0): round(c, 6)},
    )
    T = transfer.build(mg.space, phi)
    E = transfer.dominant_eigendata(T, tol=1e-12)
    mu = gibbs_measure(T, E)
    scan = gibbs_ratio_scan(mu, phi, 6)
    from gibbslab.potential import total_variation as tv

    # constrained shift: eigenvector weights may exceed the literal
    # band, but the per-length bands must stabilize for the true chain
    assert scan.passed
    assert scan.band_constant


def test_scan_rejects_non_gibbs_chain(bernoulli):
    from gibbslab.gibbs import GibbsMeasure

    fair = GibbsMeasure(
        space=bernoulli.space, block_length=1,
        stationary=np.array([0.5, 0.5]), successors=np.full((2, 2), 0.5),
        pressure=bernoulli.E.pressure,
    )
    scan = gibbs_ratio_scan(fair, bernoulli.phi, 10)
    assert not scan.pass_band
    assert not scan.band_constant
    assert not scan.passed
