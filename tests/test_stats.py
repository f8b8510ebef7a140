import decimal
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from gibbslab import models, sampler, stats, transfer
from gibbslab.errors import (
    DegenerateVariance,
    NoConvergence,
    NotLattice,
    OutOfRange,
    SizeGuard,
    SolveFailure,
    ValidationError,
)
from gibbslab.gibbs import expectation, gibbs_measure, gibbs_ratio_scan, markov_measure
from gibbslab.potential import FiniteMemoryFunction, affine_combine
from gibbslab.shift_space import enumerate_words, validate
from gibbslab.verify import jacobian_max_error

from oracles import dense_tilt, random_full_shift


def test_correlation_ising_tanh(ising):
    for n in (0, 1, 3, 7):
        expect = math.tanh(1.0) ** n if n else 1.0
        assert stats.correlation(ising.mu, ising.psi, ising.psi, n) == pytest.approx(
            expect, abs=1e-12
        )


def test_correlation_constant_is_zero(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 4.2)
    for n in (0, 1, 5):
        assert stats.correlation(bernoulli.mu, const, bernoulli.psi, n) == pytest.approx(
            0.0, abs=1e-12
        )


def test_correlation_bernoulli_independent(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    assert stats.correlation(bernoulli.mu, ind, ind, 0) == pytest.approx(0.21, abs=1e-12)
    for n in range(1, 6):
        assert stats.correlation(bernoulli.mu, ind, ind, n) == pytest.approx(0.0, abs=1e-13)


def test_correlation_geometric_envelope(builtin_triple):
    # |C_n| <= C * gamma**n with C fitted at n = 1
    for s in builtin_triple.values():
        gamma = s.E.gap_ratio
        c1 = abs(stats.correlation(s.mu, s.psi, s.psi, 1))
        if gamma == 0.0:
            assert c1 <= 1e-13
            continue
        C = c1 / gamma
        for n in range(2, 41):
            cn = abs(stats.correlation(s.mu, s.psi, s.psi, n))
            assert cn <= C * gamma**n + 1e-12


def test_variance_bernoulli(bernoulli):
    assert stats.asymptotic_variance(bernoulli.mu, bernoulli.psi) == pytest.approx(
        0.21, abs=1e-9
    )


def test_variance_ising(ising):
    assert stats.asymptotic_variance(ising.mu, ising.psi) == pytest.approx(
        math.e**2, abs=1e-9
    )


def test_variance_constant_zero(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 1.7)
    assert stats.asymptotic_variance(bernoulli.mu, const) == 0.0


def test_variance_green_kubo_oracle(builtin_triple):
    # independent truncated Green-Kubo sum straight from correlations
    for s in builtin_triple.values():
        xi2 = stats.asymptotic_variance(s.mu, s.psi)
        gk = stats.correlation(s.mu, s.psi, s.psi, 0)
        for k in range(1, 200):
            term = stats.correlation(s.mu, s.psi, s.psi, k)
            gk += 2.0 * term
            if abs(term) < 1e-16:
                break
        assert xi2 == pytest.approx(gk, abs=1e-9)


def test_refinement_bound_below_tol_raises(ising, monkeypatch):
    """The certificate compares VARIANCE_TOL with the refinement bound
    itself: a tol below it raises SolveFailure naming it, a tol equal
    to it returns the resolvent answer unchanged."""
    want = stats.asymptotic_variance(ising.mu, ising.psi)
    monkeypatch.setattr(stats, "VARIANCE_TOL", 1e-300)
    with pytest.raises(SolveFailure, match="refinement bound") as exc:
        stats.asymptotic_variance(ising.mu, ising.psi)
    bound = float(re.search(r"bound (\S+) exceeds", str(exc.value)).group(1))
    assert 0.0 < bound <= 1e-14
    monkeypatch.setattr(stats, "VARIANCE_TOL", bound / 2)
    with pytest.raises(SolveFailure, match=re.escape(repr(bound))):
        stats.asymptotic_variance(ising.mu, ising.psi)
    monkeypatch.setattr(stats, "VARIANCE_TOL", bound)
    assert stats.asymptotic_variance(ising.mu, ising.psi) == want


def test_family_variance_builds_no_chain(builtin_triple, monkeypatch):
    """PressureFamily.variance reads the tilt's eigendata: with
    block_chain raising, it still returns."""
    def no_chain(*args):
        raise AssertionError("block_chain called")

    monkeypatch.setattr(stats, "block_chain", no_chain)
    for s in builtin_triple.values():
        fam = stats.PressureFamily(s.space, s.phi, s.psi)
        for t in (-0.5, 0.0, 0.5):
            assert fam.variance(t) > 0.0
    with pytest.raises(AssertionError, match="block_chain called"):
        stats.asymptotic_variance(s.mu, s.psi)


def test_cohomology_constant(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 3.0)
    out = stats.cohomology_check(bernoulli.mu, const)
    assert out["degenerate"]
    witness = np.array(sorted(out["witness"].values()))
    assert np.allclose(witness, witness[0], atol=1e-12)


def test_cohomology_detects_constructed_coboundary(bernoulli):
    v = {(1,): 1.0, (2,): 0.0}
    vals = {
        (a, b): v[(a,)] - v[(b,)] + 3.0
        for a in (1, 2)
        for b in (1, 2)
    }
    psi = FiniteMemoryFunction(bernoulli.space, 2, vals)
    out = stats.cohomology_check(bernoulli.mu, psi)
    assert out["degenerate"]
    # witness recovers v up to an additive constant on 2-block states
    w = out["witness"]
    diffs = {u: w[u] - v[(u[0],)] for u in w}
    vals_list = list(diffs.values())
    assert max(vals_list) - min(vals_list) <= 1e-10
    assert stats.asymptotic_variance(bernoulli.mu, psi) == pytest.approx(0.0, abs=1e-12)


def test_cohomology_rejects_spin(ising):
    out = stats.cohomology_check(ising.mu, ising.psi)
    assert not out["degenerate"]
    assert out["max_cycle_defect"] > 0.1


def test_cumulant_zero_is_exact(bernoulli):
    fam = stats.PressureFamily(bernoulli.space, bernoulli.phi, bernoulli.psi)
    assert fam.cumulant(0.0) == 0.0


def test_cumulant_bernoulli_closed_form(bernoulli):
    p = 0.7
    fam = stats.PressureFamily(bernoulli.space, bernoulli.phi, bernoulli.psi, tol=1e-13)
    for s in np.arange(-3.0, 3.01, 0.5):
        closed = math.log(p * math.exp(s * (1 - p)) + (1 - p) * math.exp(-s * p))
        assert fam.cumulant(float(s)) == pytest.approx(closed, abs=1e-12)


def test_cumulant_ising_closed_form(ising):
    # dominant eigenvalue of the tilted 2x2 transfer matrix:
    # e^b cosh s + sqrt(e^2b sinh^2 s + e^-2b); even in s, so the
    # cumulant is symmetric with mean zero
    b = 1.0
    fam = stats.PressureFamily(ising.space, ising.phi, ising.psi, tol=1e-13)
    for s in np.arange(-2.0, 2.01, 0.25):
        lam = math.exp(b) * math.cosh(s) + math.sqrt(
            math.exp(2 * b) * math.sinh(s) ** 2 + math.exp(-2 * b)
        )
        closed = math.log(lam) - math.log(2.0 * math.cosh(b))
        assert fam.cumulant(float(s)) == pytest.approx(closed, abs=1e-12)
        assert fam.cumulant(float(s)) == pytest.approx(fam.cumulant(float(-s)), abs=1e-12)


def test_golden_pressure_curve_closed_form(golden):
    fam = stats.PressureFamily(golden.space, golden.phi, golden.psi, tol=1e-13)
    for k in range(-12, 13):
        a = 0.25 * k
        closed = math.log((math.exp(a) + math.sqrt(math.exp(2 * a) + 4.0)) / 2.0)
        assert fam.pressure(a) == pytest.approx(closed, abs=1e-11)


def test_rate_function_minimum_at_mean(builtin_triple):
    for s in builtin_triple.values():
        mean = expectation(s.mu, s.psi)
        pt = stats.rate_function(s.space, s.phi, s.psi, mean)
        assert abs(pt.rate) <= 1e-10
        assert abs(pt.s_star) <= 1e-6


def test_rate_function_bernoulli_divergence_oracle(bernoulli):
    # I(t) for the centered indicator is the binary divergence
    # D(t + p || p)
    p = 0.7
    fam = stats.PressureFamily(bernoulli.space, bernoulli.phi, bernoulli.psi, tol=1e-13)
    for t in (-0.4, -0.2, 0.1, 0.2):
        q = t + p
        oracle = q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
        pt = stats.rate_function(bernoulli.space, bernoulli.phi, bernoulli.psi, t, family=fam)
        assert pt.rate == pytest.approx(oracle, abs=1e-9)
    pt = stats.rate_function(bernoulli.space, bernoulli.phi, bernoulli.psi, 0.2, family=fam)
    assert pt.rate == pytest.approx(0.1163217565860046, abs=1e-10)


def test_rate_function_ising_zero_at_zero(ising):
    pt = stats.rate_function(ising.space, ising.phi, ising.psi, 0.0)
    assert pt.rate == 0.0
    assert pt.s_star == pytest.approx(0.0, abs=1e-9)


def test_rate_function_ising_boundary_rate(ising):
    # rate of the all-up event: I(t) -> log(2 cosh b) - b as t -> 1
    target = math.log(2.0 * math.cosh(1.0)) - 1.0
    pt = stats.rate_function(ising.space, ising.phi, ising.psi, 0.999)
    assert pt.rate == pytest.approx(target, abs=5e-3)


def test_rate_function_out_of_range(bernoulli):
    with pytest.raises(OutOfRange):
        stats.rate_function(bernoulli.space, bernoulli.phi, bernoulli.psi, 0.5)


def _three_symbol():
    """The three-symbol model: a constrained 3-shift, a memory-3 phi."""
    space = validate(3, [[1, 1, 1], [1, 0, 1], [0, 1, 1]], symbols=(1, 2, 3))
    rng = np.random.default_rng(11)
    phi = FiniteMemoryFunction(space, 3, {
        w: round(float(rng.uniform(-0.8, 0.8)), 6) for w in enumerate_words(space, 3)})
    psi = FiniteMemoryFunction(space, 1, {(1,): 1.0, (2,): 0.0, (3,): -1.0})
    return space, phi, psi


@pytest.fixture(scope="module")
def rate_curves(builtin_triple):
    """Every in-range point of the rate-curve default grid, solved as
    `gibbslab rate-curve` solves it, on the built-ins and the
    three-symbol model: (name, family, point, tilts the point added)."""
    triples = {name: (s.space, s.phi, s.psi) for name, s in builtin_triple.items()}
    triples["three-symbol"] = _three_symbol()
    points = []
    for name, args in triples.items():
        fam = stats.PressureFamily(*args, tol=transfer.DEFAULT_TOL)
        for j in range(21):
            before = len(fam._cache)
            try:
                pt = stats.rate_function(*args, -0.5 + 0.05 * j, family=fam)
            except OutOfRange:
                continue
            points.append((name, fam, pt, len(fam._cache) - before))
    return points


def test_rate_points_take_few_tilted_solves(rate_curves):
    """Bisection alone took 30-44 solves a point; its false-position
    endgame takes at most 20."""
    assert len(rate_curves) == 69
    assert max(added for *_, added in rate_curves) <= 20


def test_rate_points_match_dense_eigendecompositions(rate_curves):
    """Lambda'(s*) from a dense eigendecomposition of M(s*) meets t, and
    the rate agrees with the dense pressures, at every point.  At the
    edge of bernoulli's mean range, t = 0.3, the true s* is +infinity, so
    only Lambda'(s*) is checked there, to 1e-12, and s* is not pinned."""
    edge = 0
    for name, fam, pt, _ in rate_curves:
        p0, _ = dense_tilt(fam._T.matrix, fam._Psi)
        p, slope = dense_tilt(fam._tilt(pt.s_star), fam._Psi)
        assert abs(slope - pt.t) <= 1e-10
        assert abs(pt.rate - (pt.s_star * pt.t - (p - p0))) <= 1e-10 * max(1.0, abs(pt.s_star))
        if name == "bernoulli" and abs(pt.t - 0.3) < 1e-9:
            edge += 1
            assert abs(slope - pt.t) <= 1e-12
    assert edge == 1


def test_rate_function_convexity(builtin_triple):
    for s in builtin_triple.values():
        fam = stats.PressureFamily(s.space, s.phi, s.psi, tol=1e-13)
        mean = fam.mean(0.0)
        grid = [mean + d for d in (-0.2, -0.1, 0.0, 0.1, 0.2)]
        vals = [
            stats.rate_function(s.space, s.phi, s.psi, t, family=fam).rate
            for t in grid
        ]
        for i in range(1, 4):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_cumulant_derivative_consistency(builtin_triple):
    for s in builtin_triple.values():
        fam = stats.PressureFamily(s.space, s.phi, s.psi, tol=1e-13)
        assert fam.mean(0.0) == pytest.approx(expectation(s.mu, s.psi), abs=1e-8)


def test_pressure_derivative_check(builtin_triple):
    for s in builtin_triple.values():
        rep = stats.pressure_derivative_check(s.space, s.phi, s.psi)
        assert rep["first_error"] <= 1e-6
        assert rep["second_error"] <= 1e-4


def test_pressure_derivative_constant_direction(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 2.0)
    rep = stats.pressure_derivative_check(bernoulli.space, bernoulli.phi, const)
    assert rep["fd_first"] == pytest.approx(2.0, abs=1e-9)
    assert rep["analytic_first"] == pytest.approx(2.0, abs=1e-12)
    assert rep["fd_second"] == pytest.approx(0.0, abs=1e-6)
    assert rep["analytic_second"] == pytest.approx(0.0, abs=1e-12)


def _tilted_pair():
    """Constrained 3-shift, seeded memory-1 phi and psi the indicator of
    the 3-word (1, 2, 3), so psi's memory exceeds phi's."""
    space = validate(3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]], symbols=(1, 2, 3))
    rng = np.random.default_rng(7)
    phi = FiniteMemoryFunction(space, 1, {(a,): float(rng.normal()) for a in (1, 2, 3)})
    return space, phi, FiniteMemoryFunction.indicator(space, (1, 2, 3))


def test_family_matches_rebuilt_tilts():
    space, phi, psi = _tilted_pair()
    fam = stats.PressureFamily(space, phi, psi)
    for s in (-2.0, 0.0, 0.5, 3.0):
        T = transfer.build(space, affine_combine(phi, psi, s))
        E = transfer.dominant_eigendata(T, tol=1e-13)
        assert fam.pressure(s) == pytest.approx(E.pressure, abs=1e-12)
        assert fam.mean(s) == pytest.approx(
            expectation(gibbs_measure(T, E), psi), abs=1e-12)


def test_family_builds_once(monkeypatch):
    calls = []
    build = transfer.build

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(transfer, "build", counted)
    space, phi, psi = _tilted_pair()
    fam = stats.PressureFamily(space, phi, psi)
    for s in np.linspace(-3.0, 3.0, 25):
        fam.pressure(s), fam.cumulant(s), fam.mean(s)
    assert len(calls) == 1


def test_gap_is_solved_only_when_read(ising, monkeypatch):
    """A family's pressures and rate points run no dense eigenvalue
    solve; an eigendata's gap ratio runs one, on its first read."""
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    fam = stats.PressureFamily(ising.space, ising.phi, ising.psi)
    for s in np.linspace(-2.0, 2.0, 9):
        fam.pressure(s)
    stats.rate_function(ising.space, ising.phi, ising.psi, 0.3, family=fam)
    assert calls == []
    E = transfer.dominant_eigendata(ising.T, tol=1e-13)
    assert E.gap_ratio == E.gap_ratio == pytest.approx(math.tanh(1.0), abs=1e-10)
    assert len(calls) == 1


def _cold(fam, s):
    """A cold solve of the family's M(s), with its tilted mean."""
    T = replace(fam._T, matrix=fam._tilt(s))
    E = transfer.dominant_eigendata(T, tol=fam.tol)
    return E, float(E.h @ (T.matrix * fam._Psi) @ E.nu / E.lambda_)


def test_warm_started_family_matches_cold_solves(ising, golden):
    """A fresh family over the pressure-curve default grid, in either
    order, agrees at every tilt with a cold solve of the same matrix, on
    Ising, golden-mean and the three-symbol model."""
    grid = [-3.0 + 0.25 * j for j in range(25)]
    for args in ((ising.space, ising.phi, ising.psi),
                 (golden.space, golden.phi, golden.psi), _three_symbol()):
        for order in (grid, grid[::-1]):
            fam = stats.PressureFamily(*args)
            for s in order:
                P, mean = fam.pressure(s), fam.mean(s)
                E, cold_mean = _cold(fam, s)
                assert abs(P - E.pressure) <= 1e-12 * max(1.0, abs(P))
                assert abs(mean - cold_mean) <= 1e-10


def test_warm_starts_halve_rate_curve_iterations(ising, solves):
    fam = stats.PressureFamily(ising.space, ising.phi, ising.psi, tol=1e-12)
    for j in range(21):  # the rate-curve default grid
        try:
            stats.rate_function(ising.space, ising.phi, ising.psi, -0.5 + 0.05 * j,
                                family=fam)
        except OutOfRange:
            pass
    warm = sum(E.iterations for _, E in solves)  # the family's, one per tilt
    cold = sum(_cold(fam, s)[0].iterations for s in fam._cache)
    assert len(fam._cache) > 100 and warm <= cold / 2


def test_underflowed_tilt_is_no_start():
    """At s = -40, exp(s psi) underflows to 0 on the moves out of symbol
    1, so that tilt's nu has a zero entry and cannot start s = -50."""
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    phi = FiniteMemoryFunction(space, 1, {(1,): 0.0, (2,): 0.0})
    psi = FiniteMemoryFunction(space, 1, {(1,): 30.0, (2,): 0.0})
    fam = stats.PressureFamily(space, phi, psi)
    assert fam.pressure(-40.0) == 0.0
    *_, nu = fam._cache[-40.0]
    assert nu.min() == 0.0
    assert fam.pressure(-50.0) == 0.0


PRESSURE_GRID = [-3.0 + 0.25 * j for j in range(25)]  # the pressure-curve default grid


def test_dense_started_family_is_order_free(solves):
    """A three-symbol family (k = 7) starts each tilt from M(s)'s own
    Perron pair: solved ascending or reversed it gives the same bits of
    (P, Lambda') at every tilt, and every tilt certifies within 2
    iterations."""
    got = []
    for order in (PRESSURE_GRID, PRESSURE_GRID[::-1]):
        fam = stats.PressureFamily(*_three_symbol())
        got.append({s: (fam.pressure(s), fam.mean(s)) for s in order})
    assert len(fam._T.matrix) == 7
    assert got[0] == got[1]
    assert len(solves) == 2 * 25 and max(E.iterations for _, E in solves) <= 2


def _no_eig(*args):
    raise AssertionError("np.linalg.eig called")


def test_two_state_and_large_families_run_no_eig(ising, monkeypatch):
    """k = 2 (closed-form start) and k > DENSE_START_MAX (interpolated
    start) make no dense eigensolve."""
    monkeypatch.setattr(np.linalg, "eig", _no_eig)
    phi = random_full_shift(100, 4)
    large = (phi.space, phi, FiniteMemoryFunction.indicator(phi.space, (1,)))
    for args in ((ising.space, ising.phi, ising.psi), large):
        fam = stats.PressureFamily(*args)
        for s in PRESSURE_GRID:
            fam.pressure(s)
    assert len(fam._T.matrix) == 64 > stats.DENSE_START_MAX


def test_tilt_without_a_dense_start_is_predicted(monkeypatch):
    """On the full 3-shift with psi = 30 on symbol 1, M(-40) has an
    underflowed zero row, so its dense nu has a zero entry: that tilt
    starts from the solved s = 0 instead, and certifies P = log 2."""
    starts = []
    solve = transfer.dominant_eigendata

    def recorded(T, **kwargs):
        starts.append(kwargs["start"])
        return solve(T, **kwargs)

    monkeypatch.setattr(transfer, "dominant_eigendata", recorded)
    space = validate(3, np.ones((3, 3), dtype=int), symbols=(1, 2, 3))
    phi = FiniteMemoryFunction.constant(space, 0.0)
    psi = FiniteMemoryFunction(space, 1, {(1,): 30.0, (2,): 0.0, (3,): 0.0})
    fam = stats.PressureFamily(space, phi, psi)
    assert stats._dense_pair(fam._tilt(-40.0)) is None
    assert fam.pressure(-40.0) == pytest.approx(math.log(2.0), abs=1e-13)
    assert all(a is b for a, b in zip(starts[1], fam._cache[0.0][3:]))


TWO_STATE_FAMILIES = {
    "bernoulli": lambda: models.builtin("bernoulli"),
    "ising": lambda: models.builtin("ising"),
    "golden-mean": lambda: models.builtin("golden-mean"),
    "golden-mean-a-8": lambda: models.golden_mean(-8.0),
    "ising-b4-h0.01": lambda: models.ising(4.0, 0.01),
}


def _reference_pressure(M):
    """log lambda of a 2 x 2 matrix, exact from its float entries to 60
    digits: lambda = (a + d)/2 + sqrt(((a - d)/2)**2 + bc)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        (a, b), (c, d) = ([decimal.Decimal(x) for x in row] for row in M.tolist())
        half = (a - d) / 2
        return ((a + d) / 2 + (half * half + b * c).sqrt()).ln()


@pytest.mark.parametrize("name", list(TWO_STATE_FAMILIES))
def test_two_state_family_pressure_is_exact(name, solves):
    """A k = 2 family starts each tilt of the pressure-curve grid from
    M(s)'s closed-form Perron pair: every tilt certifies at iteration 1,
    and P is within 1e-15 max(1, |P|) of a 60-digit reference on the
    same M(s), gaps near 1 (golden-mean a = -8) included."""
    m = TWO_STATE_FAMILIES[name]()
    fam = stats.PressureFamily(m.space, m.potential, m.observable)
    for s in PRESSURE_GRID:
        P, want = fam.pressure(s), _reference_pressure(fam._tilt(s))
        assert abs(decimal.Decimal(P) - want) <= 1e-15 * max(1.0, abs(P))
    assert len(fam._T.matrix) == 2
    assert len(solves) == 25 and {E.iterations for _, E in solves} == {1}


def test_two_state_tilt_without_a_pair_is_predicted():
    """On the full 2-shift with psi = 30 on symbol 1, M(-40)'s moves out
    of symbol 1 underflow to b = 0, and M(40)'s overflow to inf: neither
    has a closed-form pair, and each starts from the solved s = 0."""
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    phi = FiniteMemoryFunction.constant(space, 0.0)
    psi = FiniteMemoryFunction(space, 1, {(1,): 30.0, (2,): 0.0})
    fam = stats.PressureFamily(space, phi, psi)
    for s in (-40.0, 40.0):
        M = fam._tilt(s)
        assert transfer._two_state_pair(M) is None
        assert all(a is b for a, b in zip(fam._start(s, M), fam._cache[0.0][3:]))


def _broken_eig(a):
    raise np.linalg.LinAlgError("eig did not converge")


def test_failed_dense_solve_falls_back(monkeypatch):
    """Where eig raises, each tilt takes the interpolated start and
    certifies the dense-started values to tol."""
    dense = stats.PressureFamily(*_three_symbol())
    want = [dense.pressure(s) for s in PRESSURE_GRID]
    monkeypatch.setattr(np.linalg, "eig", _broken_eig)
    fam = stats.PressureFamily(*_three_symbol())
    for s, p in zip(PRESSURE_GRID, want):
        assert abs(fam.pressure(s) - p) <= 1e-12 * max(1.0, abs(p))


def _arrays(x):
    """The numpy arrays in x, through tuples and object attributes."""
    if isinstance(x, np.ndarray):
        yield x
    elif isinstance(x, tuple):
        for y in x:
            yield from _arrays(y)
    elif hasattr(x, "__dict__"):
        for y in vars(x).values():
            yield from _arrays(y)


def test_family_keeps_no_tilted_matrix():
    """After a pressure curve on a k = 64 model, each tilt's cache entry
    holds (P, Lambda', lambda, h, nu): no array of more than k entries,
    so no tilted k x k matrix is kept."""
    space = validate(4, np.ones((4, 4), dtype=int), symbols=(1, 2, 3, 4))
    rng = np.random.default_rng([100, 4])
    phi = FiniteMemoryFunction(space, 4, {
        w: float(rng.uniform(-1.0, 1.0)) for w in enumerate_words(space, 4)})
    fam = stats.PressureFamily(space, phi, FiniteMemoryFunction.indicator(space, (1,)))
    k = len(fam._T.matrix)
    for s in [-3.0 + 0.25 * j for j in range(25)]:  # the pressure-curve default grid
        fam.pressure(s), fam.cumulant(s), fam.mean(s)
    assert k == 64 and len(fam._cache) == 25
    assert max(a.size for v in fam._cache.values() for a in _arrays(v)) == k


def test_failed_tilt_is_solved_once(monkeypatch):
    """A k = 64 family, which keeps the interpolated start, cannot
    certify its tilt at s = -1 within a 3-step cap: that solve runs out
    the cap, and the second rate point re-raises the cached failure
    without iterating again."""
    phi = random_full_shift(100, 4)
    psi = FiniteMemoryFunction.indicator(phi.space, (1,))
    fam = stats.PressureFamily(phi.space, phi, psi, tol=1e-12)
    assert len(fam._T.matrix) == 64 > stats.DENSE_START_MAX
    monkeypatch.setattr(transfer, "MAX_ITER", 3)
    failed = []
    solve = transfer.dominant_eigendata

    def counted(T, **kwargs):
        try:
            return solve(T, **kwargs)
        except NoConvergence as exc:
            failed.append(exc)
            raise

    monkeypatch.setattr(transfer, "dominant_eigendata", counted)
    for _ in range(2):
        with pytest.raises(OutOfRange, match="near-degenerate"):
            stats.rate_function(phi.space, phi, psi, 0.1, family=fam)
    assert len(failed) == 1 and str(failed[0]).endswith("after 3 iterations")


def test_lattice_parameters():
    a, b = stats.lattice_parameters([0.0, 1.0, 3.0])
    assert (a, b) == (0.0, 1.0)
    a, b = stats.lattice_parameters([-0.7, 0.3])
    assert a == pytest.approx(-0.7)
    assert b == pytest.approx(1.0)
    a, b = stats.lattice_parameters([2.5, 2.5])
    assert (a, b) == (2.5, 1.0)
    with pytest.raises(NotLattice):
        stats.lattice_parameters([0.0, 1.0, math.sqrt(2.0)])


def test_distribution_bernoulli_binomial_oracle(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    dist = stats.exact_birkhoff_distribution(bernoulli.mu, ind, 4)
    assert dist.offset == 0.0 and dist.span == 1.0
    table = dict(zip(dist.indices.tolist(), dist.probs.tolist()))
    assert table[3] == pytest.approx(4 * 0.7**3 * 0.3, abs=1e-13)
    for k in range(5):
        binom = math.comb(4, k) * 0.7**k * 0.3 ** (4 - k)
        assert table[k] == pytest.approx(binom, abs=1e-13)


def test_distribution_constant_point_mass(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, -1.5)
    dist = stats.exact_birkhoff_distribution(bernoulli.mu, const, 7)
    assert len(dist.probs) == 1
    assert dist.values[0] == pytest.approx(-10.5, abs=1e-12)
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-14)


def test_distribution_ising_two_step(ising):
    dist = stats.exact_birkhoff_distribution(ising.mu, ising.psi, 2)
    table = dict(zip(dist.values.tolist(), dist.probs.tolist()))
    expect = 0.5 * math.exp(1.0) / (2.0 * math.cosh(1.0))
    assert table[2.0] == pytest.approx(expect, abs=1e-13)
    assert table[-2.0] == pytest.approx(expect, abs=1e-13)


def test_distribution_mass_and_support(builtin_triple):
    for s in builtin_triple.values():
        dist = stats.exact_birkhoff_distribution(s.mu, s.psi, 64)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        lo = 64 * min(s.psi.values.values())
        hi = 64 * max(s.psi.values.values())
        assert dist.values.min() >= lo - 1e-9
        assert dist.values.max() <= hi + 1e-9
        assert (dist.probs >= 0).all()


def test_distribution_moments_match_correlations(builtin_triple):
    for s in builtin_triple.values():
        n = 12
        dist = stats.exact_birkhoff_distribution(s.mu, s.psi, n)
        mean = expectation(s.mu, s.psi)
        assert dist.mean() == pytest.approx(n * mean, abs=1e-9)
        finite_var = sum(
            (n - abs(k)) * stats.correlation(s.mu, s.psi, s.psi, abs(k))
            for k in range(-n + 1, n)
        )
        assert dist.variance() == pytest.approx(finite_var, abs=1e-9)


def test_distribution_size_guard(ising, monkeypatch):
    monkeypatch.setattr(stats, "DP_CELL_CAP", 100)
    with pytest.raises(SizeGuard):
        stats.exact_birkhoff_distribution(ising.mu, ising.psi, 64)


def test_dp_mass_message_is_plain(bernoulli):
    """Rows off by 1e-10 pass the chain's 1e-9 row check but leak DP
    mass; the error names n, the bound and a plain float."""
    Q = np.array([[0.6, 0.4 + 1e-10], [0.5, 0.5]])
    chain = markov_measure(bernoulli.space, 1, Q)
    with pytest.raises(SolveFailure, match=r"DP mass at n = 8 drifted to 1\.0000000\d*, "
                                           r"more than 1e-12 from 1") as err:
        stats.exact_birkhoff_distribution(chain, bernoulli.psi, 8)
    assert "np." not in str(err.value)


def test_clt_diagnostics_degenerate(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 1.0)
    dist = stats.exact_birkhoff_distribution(bernoulli.mu, const, 1)
    with pytest.raises(DegenerateVariance):
        stats.clt_diagnostics(dist, 1.0, 0.0)
    with pytest.raises(DegenerateVariance):
        stats.local_limit_check(dist, 1.0, 0.0)


def test_clt_ks_decays(ising):
    xi2 = stats.asymptotic_variance(ising.mu, ising.psi)
    d64 = stats.exact_birkhoff_distribution(ising.mu, ising.psi, 64)
    d256 = stats.exact_birkhoff_distribution(ising.mu, ising.psi, 256)
    k64 = stats.clt_diagnostics(d64, 0.0, xi2)["ks"]
    k256 = stats.clt_diagnostics(d256, 0.0, xi2)["ks"]
    assert k256 < k64
    assert k256 <= (k64 * math.sqrt(64) / math.sqrt(256)) * 1.1


def test_bernoulli_be_constant_stable(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    xi2 = stats.asymptotic_variance(bernoulli.mu, ind)
    out = {}
    for n in (256, 1024):
        d = stats.exact_birkhoff_distribution(bernoulli.mu, ind, n)
        out[n] = stats.clt_diagnostics(d, 0.7, xi2)["be_constant"]
    assert abs(out[1024] - out[256]) <= 0.1 * out[256]


def test_local_limit_bernoulli(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    xi2 = stats.asymptotic_variance(bernoulli.mu, ind)
    d = stats.exact_birkhoff_distribution(bernoulli.mu, ind, 1024)
    assert stats.local_limit_check(d, 0.7, xi2) <= 0.05


def test_ldp_zero_probability_golden(golden):
    # indicator of symbol 1: two consecutive 1s are forbidden, so
    # S_n = n is impossible for n >= 2
    ind = FiniteMemoryFunction.indicator(golden.space, (1,))
    dists = [stats.exact_birkhoff_distribution(golden.mu, ind, n) for n in (2, 4, 8)]
    rows = stats.ldp_empirical(dists, (1.0, 1.0), lambda t: 1.0, 0.25)
    assert all(r["zero_probability"] for r in rows)


def test_mean_range_is_the_extreme_cycle_means(builtin_triple):
    """The built-ins' observables range over [-0.7, 0.3], [-1, 1] and
    [0, 1], the three-symbol model's over [-1, 1]; for a memory-3
    observable on that shift (7 states of 2-blocks) each end is the
    extreme mean of phi around a periodic word of period at most 7."""
    ranges = {"bernoulli": (-0.7, 0.3), "ising": (-1.0, 1.0), "golden-mean": (0.0, 1.0)}
    for name, s in builtin_triple.items():
        assert stats._mean_range(s.space, s.psi) == pytest.approx(ranges[name], abs=1e-15)
    space = validate(3, [[1, 1, 1], [1, 0, 1], [0, 1, 1]], symbols=(1, 2, 3))
    psi = FiniteMemoryFunction(space, 1, {(1,): 1.0, (2,): 0.0, (3,): -1.0})
    assert stats._mean_range(space, psi) == (-1.0, 1.0)
    rng = np.random.default_rng(11)
    phi = FiniteMemoryFunction(space, 3, {w: round(float(rng.uniform(-0.8, 0.8)), 6)
                                          for w in enumerate_words(space, 3)})
    means = []
    for p in range(1, 8):
        for w in itertools.product(space.symbols, repeat=p):
            ring = (w * 3)[: p + 2]
            if space.is_admissible(ring):
                means.append(sum(phi.values[ring[i : i + 3]] for i in range(p)) / p)
    assert stats._mean_range(space, phi) == pytest.approx((min(means), max(means)), abs=1e-12)


def test_ldp_interval_containing_mean(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    dists = [stats.exact_birkhoff_distribution(bernoulli.mu, ind, n) for n in (50, 100, 200)]
    rows = stats.ldp_empirical(dists, (0.6, 0.8), lambda t: 0.0, 0.7)
    rates = [r["empirical_rate"] for r in rows]
    assert rows[0]["inf_rate"] == 0.0
    assert rates[2] < rates[1] < rates[0]
    assert rates[2] < 0.01


def _off_space(case):
    """(chain, eigendata, function on another shift space).  full-3:
    a full 3-shift chain and psi on the shift that forbids 0 -> 1,
    whose missing word would read its neighbour's value; bernoulli: the
    Bernoulli chain and golden-mean psi, whose codes run past its table."""
    if case == "full-3":
        full = validate(3, np.ones((3, 3), dtype=int), symbols=(0, 1, 2))
        sft = validate(3, [[1, 0, 1], [1, 1, 1], [1, 1, 1]], symbols=(0, 1, 2))
        phi = FiniteMemoryFunction.constant(full, 0.0, memory=2)
        f = FiniteMemoryFunction(sft, 2, {w: 3.0 * w[0] + w[1] for w in enumerate_words(sft, 2)})
    else:
        m = models.bernoulli(0.7)
        full, phi, f = m.space, m.potential, models.golden_mean(0.0).observable
    T = transfer.build(full, phi)
    E = transfer.dominant_eigendata(T, tol=1e-13)
    return gibbs_measure(T, E), E, f


OFF_SPACE_CALLS = {
    "expectation": lambda mu, E, f: expectation(mu, f),
    "asymptotic_variance": lambda mu, E, f: stats.asymptotic_variance(mu, f),
    "correlation": lambda mu, E, f: stats.correlation(mu, f, f, 0),
    "cohomology_check": lambda mu, E, f: stats.cohomology_check(mu, f),
    "exact_law": lambda mu, E, f: stats.exact_birkhoff_distribution(mu, f, 4),
    "empirical_birkhoff": lambda mu, E, f: sampler.empirical_birkhoff(mu, f, 4, 10, 0),
    "gibbs_ratio_scan": lambda mu, E, f: gibbs_ratio_scan(mu, f, 3),
    "jacobian_max_error": lambda mu, E, f: jacobian_max_error(mu, f, E),
}


@pytest.mark.parametrize("call", sorted(OFF_SPACE_CALLS))
@pytest.mark.parametrize("case", ["full-3", "bernoulli"])
def test_function_on_another_space_is_refused(case, call):
    mu, E, f = _off_space(case)
    with pytest.raises(ValidationError, match="not defined on this shift space"):
        OFF_SPACE_CALLS[call](mu, E, f)
