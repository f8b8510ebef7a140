"""The exact recursions against their brute-force references in
tests/oracles.py: the cylinder Gibbs scan and the partition pressure
against every word and continuation, and the closed-form ultrametric
transport against the transportation LP.  The block graph's moves and
value gathers, the power loop, the sampler step and path and the
cached variations, the Jacobian identity, cylinder measures, affine
combinations and the coboundary check against their earlier forms, bit
for bit; the exact law of S_n against its dense-product form, to
rounding; the asymptotic variance against its Green-Kubo series and
the tilted variance against the tilt's Gibbs chain and a dense
eigendecomposition, within a tolerance that follows from the solve's."""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from gibbslab import cone, gibbs, models, sampler, stats, transfer
from gibbslab.errors import GibbsLabError, SizeGuard, SolveFailure, Undefined
from gibbslab.gibbs import (
    GibbsMeasure,
    gibbs_measure,
    gibbs_ratio_scan,
    markov_measure,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.potential import FiniteMemoryFunction, affine_combine, or_inf, var_n
from gibbslab.shift_space import block_moves, enumerate_words, recode, validate, word_count
from gibbslab.verify import jacobian_max_error, uniform_chain

from oracles import (
    chain_variance,
    dense_curvature,
    dense_law,
    dense_table,
    encode,
    enumerated_partition,
    enumerated_scan,
    family_solve,
    float_path,
    float_sampler,
    green_kubo_variance,
    grouped_var_n,
    per_move_jacobian_error,
    per_word_affine,
    power_loop,
    random_full_shift,
    scanned_cohomology,
    transport_lp,
    tuple_cylinder,
    tuple_moves,
    tuple_words,
)


def solve(space, phi):
    T = transfer.build(space, phi)
    return gibbs_measure(T, transfer.dominant_eigendata(T, tol=1e-12))


def three_symbol_potential():
    """The rng-11 memory-3 potential of tests/test_three_symbol_model.py."""
    space = validate(3, [[1, 1, 1], [1, 0, 1], [0, 1, 1]], symbols=(1, 2, 3))
    rng = np.random.default_rng(11)
    words = enumerate_words(space, 3)
    return FiniteMemoryFunction(
        space, 3, {w: round(float(rng.uniform(-0.8, 0.8)), 6) for w in words}
    )


def symbol_chain(space, Q, pressure):
    """Block-length-1 stationary chain with transitions Q, pressure
    attached."""
    chain = markov_measure(space, 1, Q)
    return dataclasses.replace(chain, pressure=pressure)


@functools.cache
def case(name):
    """(chain, potential, largest length compared)."""
    if name in ("bernoulli", "ising", "golden-mean"):
        m = models.builtin(name)
        return solve(m.space, m.potential), m.potential, 8
    if name == "golden-mean-a-8":
        m = models.golden_mean(-8.0)
        return solve(m.space, m.potential), m.potential, 8
    if name == "ising-b4-h0.01":
        m = models.ising(4.0, 0.01)
        return solve(m.space, m.potential), m.potential, 8
    if name == "three-symbol":
        phi = three_symbol_potential()
        return solve(phi.space, phi), phi, 8
    if name == "full-4-shift-k16":
        space = validate(4, np.ones((4, 4), dtype=int), symbols=(1, 2, 3, 4))
        rng = np.random.default_rng(5)
        words = enumerate_words(space, 3)
        phi = FiniteMemoryFunction(
            space, 3, {w: round(float(rng.uniform(-1.0, 1.0)), 6) for w in words}
        )
        return solve(space, phi), phi, 5
    if name == "fair-chain":
        # the non-Gibbs chain of test_scan_rejects_non_gibbs_chain
        m = models.bernoulli(0.7)
        P = solve(m.space, m.potential).pressure
        fair = GibbsMeasure(
            space=m.space, block_length=1,
            stationary=np.array([0.5, 0.5]), successors=np.full((2, 2), 0.5),
            pressure=P,
        )
        return fair, m.potential, 8
    if name == "three-symbol-uniform-chain":
        # block length 1 against a memory-3 potential: the scan lifts the
        # chain to 2-blocks (L > block_length)
        phi = three_symbol_potential()
        A = phi.space.transitions.astype(float)
        Q = A / A.sum(axis=1, keepdims=True)
        return symbol_chain(phi.space, Q, solve(phi.space, phi).pressure), phi, 8
    if name == "full-3-shift-sparse-chain":
        # zero transitions on allowed moves; lifted to 2-blocks, two of
        # which carry no mass
        space = validate(3, np.ones((3, 3), dtype=int), symbols=(1, 2, 3))
        rng = np.random.default_rng(17)
        words = enumerate_words(space, 3)
        phi = FiniteMemoryFunction(
            space, 3, {w: round(float(rng.uniform(-1.0, 1.0)), 6) for w in words}
        )
        Q = np.array([[0.0, 0.5, 0.5], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        return symbol_chain(space, Q, solve(space, phi).pressure), phi, 7
    raise KeyError(name)


CASES = ["bernoulli", "ising", "golden-mean", "three-symbol", "golden-mean-a-8",
         "ising-b4-h0.01", "full-4-shift-k16", "fair-chain",
         "three-symbol-uniform-chain", "full-3-shift-sparse-chain"]


@pytest.mark.parametrize("name", CASES)
def test_scan_matches_enumeration(name):
    mu, phi, top = case(name)
    for n_max in range(1, top + 1):
        scan = gibbs_ratio_scan(mu, phi, n_max)
        per_length, passed, pass_band, band_constant = enumerated_scan(mu, phi, n_max)
        assert [n for n, _, _ in scan.per_length] == list(range(1, n_max + 1))
        for (_, lo, hi), (_, ref_lo, ref_hi) in zip(scan.per_length, per_length):
            assert lo == pytest.approx(ref_lo, rel=1e-12, abs=0.0)
            assert hi == pytest.approx(ref_hi, rel=1e-12, abs=0.0)
        assert (scan.passed, scan.pass_band, scan.band_constant) == (
            passed, pass_band, band_constant)


def test_scan_lift_case_drifts():
    """The lift case really lifts, and its chain is not the Gibbs chain
    of the potential: the per-length bands drift."""
    mu, phi, top = case("three-symbol-uniform-chain")
    assert mu.block_length < phi.memory - 1
    assert not gibbs_ratio_scan(mu, phi, top).band_constant


@pytest.mark.parametrize("name", CASES)
def test_partition_matches_enumeration(name):
    mu, phi, top = case(name)
    for n in range(1, top + 1):
        got = transfer.pressure_via_partition(phi.space, phi, n)
        # bernoulli's pressure is 0, so its partition values are ~1e-17
        assert got == pytest.approx(enumerated_partition(phi.space, phi, n),
                                    rel=1e-12, abs=1e-15)


def transport_pairs():
    b7, b8 = (models.bernoulli(p) for p in (0.7, 0.8))
    ising = models.ising()
    g0, g5 = (models.golden_mean(a) for a in (0.0, 0.5))
    phi = three_symbol_potential()
    bumped = FiniteMemoryFunction(
        phi.space, 3, {w: v + 0.1 * (w[0] == 1) for w, v in phi.values.items()}
    )
    return {
        "bernoulli-0.7-0.8": (solve(b7.space, b7.potential), solve(b8.space, b8.potential)),
        "ising-uniform": (solve(ising.space, ising.potential), uniform_chain(ising)),
        "golden-mean-0-0.5": (solve(g0.space, g0.potential), solve(g5.space, g5.potential)),
        "three-symbol-bumped": (solve(phi.space, phi), solve(phi.space, bumped)),
    }


@pytest.mark.parametrize("name", ["bernoulli-0.7-0.8", "ising-uniform",
                                  "golden-mean-0-0.5", "three-symbol-bumped"])
def test_closed_form_transport_matches_lp(name):
    mu1, mu2 = transport_pairs()[name]
    for n in range(1, 6):
        assert wasserstein_lp(mu1, mu2, 0.5, n) == pytest.approx(
            transport_lp(mu1, mu2, 0.5, n), rel=0.0, abs=1e-10)


def test_transport_with_tiny_marginals():
    """golden-mean a = -8 puts ~e^-8 mass on 00; the transportation LP
    declared those marginals infeasible for n = 4..8, the closed form
    has a value inside the level-sum bracket at every n."""
    m = models.golden_mean(-8.0)
    mu, other = solve(m.space, m.potential), uniform_chain(m)
    for n in range(1, 9):
        w = wasserstein_lp(mu, other, 0.5, n)
        value, tail = wasserstein_distance(mu, other, 0.5, n)
        assert math.isfinite(w)
        assert value <= w <= value + tail


def outcome(solver, T, tol, start=None):
    """Every EigenData field but the matrix, or the failure's type and
    message."""
    try:
        E = solver(T, tol=tol, start=start)
    except GibbsLabError as exc:
        return type(exc).__name__, str(exc)
    return (E.lambda_, E.pressure, E.h.tobytes(), E.nu.tobytes(), E.min_h,
            E.ess_radius_bound, E.residual_h, E.residual_nu, E.iterations)


# iteration caps at, just before and just past the power-of-two saves
# of the repeat stop, and one far from them
CAPS = (1, 3, 5, 63, 64, 65, 2000)

# each 2 x 2 loop and its oracle: dominant_eigendata runs the two-state
# loop, and the array loop, which runs every larger matrix, is called
# directly, its products those of numpy's BLAS
LOOPS = {
    "two-state": (transfer.dominant_eigendata, power_loop),
    "array": (transfer._array_loop, functools.partial(power_loop, dot=np.matmul)),
}


@pytest.mark.parametrize("name", ["bernoulli", "ising", "golden-mean"])
def test_power_loop_matches_its_oracle_on_tilts(name, monkeypatch):
    """Each built-in and 13 tilts of its family, M(s) = M * exp(s Psi),
    cold, warm-started from the tilt below and restarted from its own
    eigendata (certified at iteration 1), at tol 1e-12 and 1e-13, under
    the default iteration cap and each of CAPS."""
    matches_on_tilts(name, "two-state", monkeypatch)


@pytest.mark.parametrize("name", ["bernoulli", "ising", "golden-mean"])
def test_array_loop_matches_its_oracle_on_tilts(name, monkeypatch):
    """The same cases through the array loop."""
    matches_on_tilts(name, "array", monkeypatch)


def matches_on_tilts(name, loop, monkeypatch):
    solver, oracle = LOOPS[loop]
    m = models.builtin(name)
    T = transfer.build(m.space, affine_combine(m.potential, m.observable, 0.0))
    I, J, words = tuple_moves(m.space, T.states)
    Psi = np.zeros_like(T.matrix)
    Psi[I, J] = [m.observable(w) for w in words]
    tilts = [dataclasses.replace(T, matrix=T.matrix * np.exp(s * Psi))
             for s in np.linspace(-3.0, 3.0, 13)]
    solved = {tol: [solver(Ts, tol=tol, start=None) for Ts in tilts]
              for tol in (1e-12, 1e-13)}
    Tb = transfer.build(m.space, m.potential)
    for cap in (transfer.MAX_ITER, *CAPS):
        monkeypatch.setattr(transfer, "MAX_ITER", cap)
        for tol, eigen in solved.items():
            assert outcome(solver, Tb, tol) == outcome(oracle, Tb, tol)
            start = None
            for Ts, E in zip(tilts, eigen):
                for st in (None, start, (E.h, E.nu)):
                    got = outcome(solver, Ts, tol, st)
                    assert got == outcome(oracle, Ts, tol, st), (cap, tol, st is None)
                assert got[-1] == 1
                start = E.h, E.nu


@pytest.mark.parametrize("memory", [3, 4, 5, 6])
def test_power_loop_matches_its_oracle_at_size(memory):
    """Random potentials on the full 4-shift, k = 16, 64, 256, 1024."""
    phi = random_full_shift(memory, memory)
    T = transfer.build(phi.space, phi)
    assert T.state_count == 4 ** (memory - 1)
    assert outcome(transfer.dominant_eigendata, T, 1e-12) == outcome(power_loop, T, 1e-12)


# golden-mean a = -0.25 and a = -1.75 at tol 1e-300: the state each loop
# repeats, and the period; numpy's 2 x 2 products round once where the
# two-state loop rounds twice, so the array loop's second orbit differs,
# and so do both orbits of the memory-3 lift (k = 3), which
# dominant_eigendata sends to the array loop
REPEATS = {
    "two-state": ("from iteration 64 (period 1)", "from iteration 256 (period 2)"),
    "array": ("from iteration 64 (period 1)", "from iteration 256 (period 6)"),
    "memory-3 lift": ("from iteration 64 (period 6)", "from iteration 256 (period 2)"),
}


def test_power_loop_matches_its_oracle_on_a_stall(monkeypatch):
    """golden-mean a = -8 certifies at 1e-12 after 56,491 iterations and
    fails at its first repeated state at 1e-13, with the same message,
    and fails at each of CAPS.  The failures around it match too: states
    that repeat (REPEATS), and iterates that overflow."""
    matches_on_a_stall("two-state", monkeypatch)


def test_array_loop_matches_its_oracle_on_a_stall(monkeypatch):
    """The same cases through the array loop; and golden-mean a = -0.25
    and a = -1.75 lifted to memory 3, k = 3 states, at tol 1e-300, whose
    repeats dominant_eigendata finds where the oracle does."""
    for a, repeat in zip((-0.25, -1.75), REPEATS["memory-3 lift"]):
        g = models.golden_mean(a)
        phi = affine_combine(g.potential, FiniteMemoryFunction.indicator(g.space, (0, 0, 0)), 0.0)
        T = transfer.build(g.space, phi)
        assert T.state_count == 3
        got = outcome(transfer.dominant_eigendata, T, 1e-300)
        assert got == outcome(power_loop, T, 1e-300)
        assert got[1].endswith(repeat)
    matches_on_a_stall("array", monkeypatch)


def matches_on_a_stall(loop, monkeypatch):
    solver, oracle = LOOPS[loop]
    m = models.golden_mean(-8.0)
    T = transfer.build(m.space, m.potential)
    got = outcome(solver, T, 1e-12)
    assert got == outcome(oracle, T, 1e-12)
    assert got[-1] == 56_491
    got = outcome(solver, T, 1e-13)
    assert got == outcome(oracle, T, 1e-13)
    assert got == ("NoConvergence",
                   "eigendata: residuals 1.7e-13 (h) and 2.4e-13 (nu) above "
                   "1e-13*lambda repeat from iteration 65536 (period 2)")
    for a, repeat in zip((-0.25, -1.75), REPEATS[loop]):
        g = models.golden_mean(a)
        Tg = transfer.build(g.space, g.potential)
        got = outcome(solver, Tg, 1e-300)
        assert got == outcome(oracle, Tg, 1e-300)
        assert got[1].endswith(repeat)
    # lambda ~ 0.9 * 10**308 with a start far from nu: h's entry on the
    # slow state grows until M.T h overflows at iteration 6, or 60
    for delta, at in [(0.1, 6), (0.01, 60)]:
        Tf = dataclasses.replace(T, matrix=1e308 * np.array([[1.0, 1e-4], [1e-4, 1 - delta]]))
        start = np.ones(2), np.array([1e-8, 1 - 1e-8])
        got = outcome(solver, Tf, 1e-12, start)
        assert got == outcome(oracle, Tf, 1e-12, start)
        assert got[1].endswith(f"(nu) at iteration {at}")
    for cap in CAPS:
        monkeypatch.setattr(transfer, "MAX_ITER", cap)
        got = outcome(solver, T, 1e-12)
        assert got == outcome(oracle, T, 1e-12)
        assert got == ("NoConvergence",
                       f"eigendata residuals above 1e-12*lambda after {cap} iterations")


def test_integer_thresholds_keep_the_tie_rule():
    """w >= threshold exactly when w * 2**-53 >= c, at and around each
    threshold, for weights on the 2**-53 grid, between its points, at 1,
    above 1 and NaN."""
    ulp = 2.0**-53
    cum = np.array([0.0, ulp, 3 * ulp, 2.0**-54, 1e-300, 0.25, 0.5 + ulp,
                    1.0 - ulp, 1.0 - 2 * ulp, 1.0, 1.0 + 2 * ulp, np.nan])
    # the last column and every column reaching its weight are 2**53,
    # so close the weights with one above them all
    t = sampler._thresholds(np.append(cum, np.inf))[:-1]
    for c, ti in zip(cum, t.tolist()):
        for w in (ti - 2, ti - 1, ti, ti + 1):
            if 0 <= w < 2**53:
                assert (w >= ti) == (w * ulp >= c), (c, w)
    assert sampler._thresholds(np.array([[0.5, 0.9], [1.0, 1.0]]))[:, -1].tolist() == [
        2**53, 2**53]


def sampled_chains():
    """(chain, observable): the built-ins, golden-mean's zero-mass move
    1 -> 1, and a chain with zero transitions on allowed moves, lifted to
    3-blocks of which some carry no mass."""
    chains = [(case(name)[0], models.builtin(name).observable)
              for name in ("bernoulli", "ising", "golden-mean")]
    mu, phi, _ = case("full-3-shift-sparse-chain")
    return chains + [(mu, phi)]


@pytest.mark.parametrize("trials", [1, 4095, 4097, 10_000])
def test_sampler_matches_its_oracle(trials):
    for mu, psi in sampled_chains():
        for n in (1, 2, 256) if trials < 10_000 else (256,):
            got, _ = sampler.empirical_birkhoff(mu, psi, n, trials, 2024)
            assert got.tobytes() == float_sampler(mu, psi, n, trials, 2024).tobytes()


def test_sampler_at_its_state_limit(monkeypatch):
    """2**10 lifted states sample as before, and so do 2**10 + 1: the
    sampler's tables are k x N, so the cap on a dense k x k array, which
    the oracle's table still needs raised, no longer bounds it."""
    mu, _, _ = case("bernoulli")
    space = mu.space
    rng = np.random.default_rng(10)
    psi = FiniteMemoryFunction(
        space, 10, {w: float(rng.integers(-3, 4)) for w in enumerate_words(space, 10)})
    got, _ = sampler.empirical_birkhoff(mu, psi, 3, 50, 9)
    assert got.tobytes() == float_sampler(mu, psi, 3, 50, 9).tobytes()
    # 1025 admissible 5-words
    space = validate(5, [[1, 1, 1, 1, 1], [1, 1, 0, 1, 1], [1, 1, 0, 0, 1],
                         [0, 1, 1, 1, 1], [0, 1, 0, 1, 1]])
    mu = solve(space, FiniteMemoryFunction.constant(space, 0.0))
    psi = FiniteMemoryFunction(
        space, 5, {w: float(rng.integers(-3, 4)) for w in enumerate_words(space, 5)})
    assert len(psi.values) == 2**10 + 1
    got, _ = sampler.empirical_birkhoff(mu, psi, 3, 50, 9)
    with pytest.raises(SizeGuard, match="1025x1025 reference chain"):
        float_sampler(mu, psi, 3, 50, 9)
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", str(2**21))
    assert got.tobytes() == float_sampler(mu, psi, 3, 50, 9).tobytes()


def test_lifts_past_the_dense_limit(monkeypatch):
    """A memory-9 observable lifts the three-symbol chain to 2065 states
    of 9-blocks, past the 1024 states whose dense k x k array the
    default cap admits.  On the k x N lift the sampler, the exact law
    and the coboundary check run under that cap, and agree with their
    dense oracles, run with the cap raised."""
    mu = case("three-symbol")[0]
    psi = integer_observable(mu.space, 9, 9)
    assert len(psi.values) == 2065
    n, N = 6, mu.space.alphabet_size
    got = sampler.empirical_birkhoff(mu, psi, n, 300, 5)[0]
    law = stats.exact_birkhoff_distribution(mu, psi, n)
    coboundary = stats.cohomology_check(mu, psi)
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", str(2**23))
    assert got.tobytes() == float_sampler(mu, psi, n, 300, 5).tobytes()
    want = dense_law(mu, psi, n)
    assert (law.n, law.offset, law.span) == (want.n, want.offset, want.span)
    assert law.indices.tolist() == want.indices.tolist()
    rel = np.abs(law.probs - want.probs) / np.maximum(law.probs, want.probs).clip(1e-300)
    assert rel.max() <= 2 * n * N * 2.0**-53
    assert repr(coboundary) == repr(scanned_cohomology(mu, psi))


@pytest.mark.parametrize("memory", [1, 2, 3, 4, 5])
def test_constants_report_reads_the_variations_once(memory, monkeypatch):
    """Every constants_report value equals the one formed from var_n
    grouped afresh for each term, on the full 2-shift and on golden-mean."""
    for space in (models.bernoulli().space, models.golden_mean().space):
        rng = np.random.default_rng(memory)
        words = enumerate_words(space, memory)
        phi = FiniteMemoryFunction(
            space, memory, {w: round(float(rng.uniform(-2.0, 2.0)), 6) for w in words})
        E = transfer.dominant_eigendata(transfer.build(space, phi))
        got = transfer.constants_report(space, phi, 0.5, E)

        def total(f):
            return sum(grouped_var_n(f, n) for n in range(f.memory))

        assert [var_n(phi, n) for n in range(memory + 2)] == [
            grouped_var_n(phi, n) for n in range(memory + 2)]
        halpha = max(grouped_var_n(phi, n) / 0.5**n for n in range(memory))
        b0 = or_inf(math.exp, 2.0 * halpha * 0.5 / (1.0 - 0.5))
        M = space.mixing_time
        monkeypatch.setattr(cone, "var_n", grouped_var_n)
        monkeypatch.setattr(cone, "total_variation", total)
        want = dict(got, var_total=total(phi), holder_seminorm=halpha, B0_geometric=b0,
                    K=or_inf(pow, E.lambda_, M) * or_inf(math.exp, M * phi.sup_norm) * b0,
                    B_m={m: or_inf(math.exp, sum(2.0 * grouped_var_n(phi, k)
                                                 for k in range(m + 1, memory)))
                         for m in range(memory + 1)})
        cc = cone.cone_constants(space, phi)
        want.update(cone_delta_prime=cc.delta_prime, cone_n0=cc.n0,
                    cone_kappa_at_2delta=cc.kappa(2.0 * cc.delta_prime)
                    if cc.delta_prime > 0 else 0.0)
        monkeypatch.undo()
        assert got == want


def cycle_with_loop(n=64):
    """An n-cycle with a self-loop at its first symbol: few admissible
    words of each length, but codes that outgrow 64 bits by length 11."""
    A = np.roll(np.eye(n, dtype=int), 1, axis=1)
    A[0, 0] = 1
    return validate(n, A)


def graph_cases():
    """(name, space, L): the built-ins, the three-symbol shift and its
    2-block recoding (tuple symbols), golden-mean to L = 8, the full
    4-shift and random 4-symbol shifts up to k = 1024, the 64-cycle."""
    three = three_symbol_potential().space
    cases = [(f"{n}-L{L}", models.builtin(n).space, L)
             for n in ("bernoulli", "ising") for L in (1, 2, 3)]
    cases += [(f"golden-mean-L{L}", models.golden_mean().space, L) for L in range(1, 9)]
    cases += [(f"three-symbol-L{L}", three, L) for L in range(1, 6)]
    cases += [(f"three-symbol-recoded-L{L}", recode(three, 2), L) for L in (1, 2, 3)]
    cases += [("full-4-shift-L5", validate(4, np.ones((4, 4), dtype=int)), 5)]
    rng = np.random.default_rng(4)
    while len(cases) < 40:
        try:
            space = validate(4, rng.integers(0, 2, (4, 4)))
        except GibbsLabError:
            continue
        L = 1  # the gathers read (L + 1)-word tables: 4**(L + 1) within the cap
        while L < 9 and word_count(space, L + 1) <= 1024:
            L += 1
        cases.append((f"random-4-shift-{len(cases)}-L{L}", space, L))
    cases += [(f"64-cycle-L{L}", cycle_with_loop(), L) for L in (1, 2)]
    return cases


def assert_moves_match(space, L):
    """The words of enumerate_words and I, J and the words of block_moves
    equal their tuple forms, gather inverts table, and every gather
    equals the per-word value."""
    blocks, I, J, words = moves = block_moves(space, L)
    states = tuple_words(space, L)
    tI, tJ, twords = tuple_moves(space, states)
    assert enumerate_words(space, L) == states
    assert enumerate_words(space, L + 1) == list(twords)
    assert blocks.tolist() == [encode(space, u) for u in states]
    assert I.tolist() == tI.tolist()
    assert J.tolist() == tJ.tolist()
    assert words.tolist() == [encode(space, w) for w in twords]
    v = np.arange(1.0, len(I) + 1)
    assert moves.gather(moves.table(v, space.alphabet_size)).tolist() == v.tolist()
    rng = np.random.default_rng(L)
    for m in range(1, L + 2):
        f = FiniteMemoryFunction(
            space, m, {w: float(rng.uniform(-1.0, 1.0)) for w in enumerate_words(space, m)})
        assert f.on(words, L + 1).tolist() == [f(w) for w in twords]
        if m <= L:
            assert f.on(blocks, L).tolist() == [f(u) for u in states]


@pytest.mark.parametrize("space, L", [c[1:] for c in graph_cases()],
                         ids=[c[0] for c in graph_cases()])
def test_block_moves_match_tuple_moves(space, L):
    assert_moves_match(space, L)


def test_codes_past_64_bits_are_a_size_guard(monkeypatch):
    """With the enumeration cap out of the way, the 64-cycle's 10-words
    still have codes below 2**63 and build as before; its 11-words would
    not, so they are a SizeGuard, not wrong words or moves."""
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", str(2**70))
    space = cycle_with_loop()
    assert_moves_match(space, 9)
    assert word_count(space, 11) == 119
    T = transfer.build(space, FiniteMemoryFunction.constant(space, 0.0, memory=10))
    assert T.state_count == 100
    with pytest.raises(SizeGuard, match="codes of 64\\*\\*11 words exceed 64 bits"):
        FiniteMemoryFunction.constant(space, 0.0, memory=11)
    with pytest.raises(SizeGuard, match="64 bits"):
        block_moves(space, 10)
    with pytest.raises(SizeGuard, match="64 bits"):
        enumerate_words(space, 11)


@pytest.mark.parametrize("name", ["bernoulli", "ising", "golden-mean", "three-symbol",
                                  "full-4-shift-k16", "full-3-shift-sparse-chain"])
def test_sample_path_matches_its_oracle(name):
    """Integer thresholds give the float rule's paths, on golden-mean's
    zero-mass move 1 -> 1 and for n below the block length (2 on
    three-symbol and the 4-shift) too."""
    mu = case(name)[0]
    for seed in (0, 2024, 2**64 - 1):
        for stream in (0, 1, 7):
            for n in (1, 2, 3, 257):
                assert sampler.sample_path(mu, n, seed, stream) == float_path(
                    mu, n, seed, stream), (seed, stream, n)


def integer_observable(space, memory, seed, top=2):
    rng = np.random.default_rng(seed)
    return FiniteMemoryFunction(
        space, memory, {w: float(rng.integers(0, top + 1)) for w in enumerate_words(space, memory)})


LAW_CASES = ["bernoulli", "ising", "golden-mean", "golden-mean-psi-m2", "three-symbol",
             "full-4-shift-m3", "full-4-shift-m4", "full-4-shift-m5", "8-cycle-chord-L3"]


@functools.cache
def law_case(name):
    """(chain, observable): the built-ins, golden-mean with a memory-2
    observable (its chain lifted to 2-blocks), three-symbol on 3-blocks
    (16 of its 21 (overlap, symbol) rows are states), the full 4-shift
    with memory-m observables (k = 4**m) and an 8-cycle with one chord
    lifted to 3-blocks."""
    if name in ("bernoulli", "ising", "golden-mean"):
        return case(name)[0], models.builtin(name).observable
    if name == "golden-mean-psi-m2":
        mu = case("golden-mean")[0]
        return mu, integer_observable(mu.space, 2, 2)
    if name == "three-symbol":
        mu = case("three-symbol")[0]
        return mu, integer_observable(mu.space, 3, 3)
    if name.startswith("full-4-shift-m"):
        memory = int(name[-1])
        phi = random_full_shift(memory, memory)
        return solve(phi.space, phi), integer_observable(phi.space, memory, memory, top=1)
    if name == "8-cycle-chord-L3":
        A = np.roll(np.eye(8, dtype=int), 1, axis=1)
        A[0, 2] = 1
        space = validate(8, A)
        phi = FiniteMemoryFunction(
            space, 2, {w: float(np.sin(3 * w[0] + w[1])) for w in enumerate_words(space, 2)})
        return solve(space, phi), integer_observable(space, 4, 8)
    raise KeyError(name)


def law_outcome(law, mu, psi, n):
    try:
        return law(mu, psi, n)
    except SolveFailure as exc:
        return exc


@pytest.mark.parametrize("name", LAW_CASES)
def test_law_matches_its_dense_oracle(name):
    """Same lattice, support and mass-check outcome as the dense
    product, and every atom within 2*n*N half-ulps of it (each atom is a
    sum of nonnegative products, summed in another order)."""
    mu, psi = law_case(name)
    N = mu.space.alphabet_size
    for n in (1, 2, 3, 64, 257):
        got, want = law_outcome(stats.exact_birkhoff_distribution, mu, psi, n), law_outcome(
            dense_law, mu, psi, n)
        assert type(got) is type(want), (n, got, want)
        if isinstance(want, SolveFailure):
            continue
        assert (got.n, got.offset, got.span) == (want.n, want.offset, want.span)
        assert got.indices.tolist() == want.indices.tolist()
        assert ((got.probs > 0.0) == (want.probs > 0.0)).all()
        rel = np.abs(got.probs - want.probs) / np.maximum(got.probs, want.probs).clip(1e-300)
        assert rel.max() <= 2 * n * N * 2.0**-53, (n, rel.max())


@pytest.mark.parametrize("name", LAW_CASES)
def test_law_layout_is_no_larger_than_dense(name):
    """The overlap layout does at most k*k multiply-adds per column,
    and falls back to the one dense group where the overlaps would not
    be fewer: at L = 1 and on the sparse 8-cycle."""
    mu, psi = law_case(name)
    L, _, Q, _ = stats._block_data(mu, psi)
    k = len(Q)
    W, src, dst = stats._overlap_layout(mu.space, Q, L)
    S, R, _ = W.shape
    assert S * R * R <= k * k
    assert (S == 1) == (L == 1 or name == "8-cycle-chord-L3")
    assert len(set(src.tolist())) == len(set(dst.tolist())) == k


def jacobian_error_or_failure(check, mu, phi, E):
    try:
        return check(mu, phi, E)
    except SolveFailure as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["bernoulli", "ising", "golden-mean", "three-symbol",
                                  "full-4-shift-m4", "full-3-shift-sparse-chain"])
def test_jacobian_error_matches_its_per_move_oracle(name):
    """The same float as mu.jacobian per move: on the built-ins (golden-
    mean's zero entry Q[1, 1] is no move), three-symbol and the full
    4-shift at memory 4; on a chain with zero-mass moves, the same
    SolveFailure naming the same first word."""
    if name == "full-4-shift-m4":
        phi = random_full_shift(4, 4)
        mu = solve(phi.space, phi)
    elif name == "full-3-shift-sparse-chain":
        space = case(name)[0].space
        rng = np.random.default_rng(2)
        phi = FiniteMemoryFunction(
            space, 2, {w: float(rng.uniform(-1.0, 1.0)) for w in enumerate_words(space, 2)})
        mu = case(name)[0]
    else:
        mu, phi, _ = case(name)
    E = transfer.dominant_eigendata(transfer.build(mu.space, phi), tol=1e-12)
    got = jacobian_error_or_failure(jacobian_max_error, mu, phi, E)
    assert got == jacobian_error_or_failure(per_move_jacobian_error, mu, phi, E)
    if name == "full-3-shift-sparse-chain":
        assert got == "jacobian_identity: word (1, 1) has measure zero"
    else:
        assert got <= 1e-10


def lifted_golden_chain():
    """golden-mean's chain lifted to 2-blocks and built there."""
    mu = case("golden-mean")[0]
    pi, Q = gibbs.block_chain(mu, 2)
    return markov_measure(mu.space, 2, dense_table(mu.space, 2, Q), pi)


CYLINDER_CHAINS = {
    "bernoulli": lambda: case("bernoulli")[0],
    "ising": lambda: case("ising")[0],
    "golden-mean": lambda: case("golden-mean")[0],
    "three-symbol": lambda: case("three-symbol")[0],
    "golden-mean-lifted": lifted_golden_chain,
    "full-4-shift-m3": lambda: law_case("full-4-shift-m3")[0],
    "full-4-shift-m4": lambda: law_case("full-4-shift-m4")[0],
    "full-3-shift-sparse-chain": lambda: case("full-3-shift-sparse-chain")[0],
}


@pytest.mark.parametrize("name", list(CYLINDER_CHAINS))
def test_cylinder_measure_matches_tuple_walk(name):
    """Every word up to two symbols past the block length over the
    alphabet and one unknown symbol, the empty word included: the same
    float as the walk over tuple blocks, and the same Jacobian or the
    same Undefined."""
    mu = CYLINDER_CHAINS[name]()
    ell = mu.block_length
    letters = mu.space.symbols + ("?",)
    for n in range(ell + 3):
        for w in itertools.product(letters, repeat=n):
            want = tuple_cylinder(mu, w)
            assert mu.cylinder_measure(w).hex() == want.hex(), w
            if n <= ell:
                continue
            if want == 0.0:
                with pytest.raises(Undefined):
                    mu.jacobian(w)
            else:
                assert mu.jacobian(w).hex() == (tuple_cylinder(mu, w[1:]) / want).hex(), w


def affine_pairs():
    """(f, g) of equal and of different memories: each built-in's
    potential and observable both ways round (ising's potential has
    memory 2, its spin memory 1), three-symbol's potential with a
    memory-1 observable, and random memory-3..6 potentials on the full
    4-shift with a memory-2 observable."""
    pairs = {}
    for name in ("bernoulli", "ising", "golden-mean"):
        m = models.builtin(name)
        pairs[name] = m.potential, m.observable
        pairs[f"{name}-swapped"] = m.observable, m.potential
    phi = three_symbol_potential()
    pairs["three-symbol"] = phi, integer_observable(phi.space, 1, 3)
    for memory in (3, 4, 5, 6):
        phi = random_full_shift(memory, memory)
        pairs[f"full-4-shift-m{memory}"] = phi, integer_observable(phi.space, 2, memory, top=3)
    return pairs


@pytest.mark.parametrize("name", ["bernoulli", "bernoulli-swapped", "ising",
                                  "ising-swapped", "golden-mean", "golden-mean-swapped",
                                  "three-symbol", "full-4-shift-m3", "full-4-shift-m4",
                                  "full-4-shift-m5", "full-4-shift-m6"])
def test_affine_combine_matches_per_word(name):
    f, g = affine_pairs()[name]
    for s in (0.0, 0.37, -2.5):
        got = affine_combine(f, g, s)
        assert got.memory == max(f.memory, g.memory)
        assert [(w, float.hex(v)) for w, v in got.values.items()] == [
            (w, float.hex(v)) for w, v in per_word_affine(f, g, s).items()]


COHOMOLOGY_CASES = {
    "bernoulli": lambda: (case("bernoulli")[0], models.bernoulli().observable),
    "ising": lambda: (case("ising")[0], models.ising().observable),
    "ising-potential": lambda: (case("ising")[0], models.ising().potential),
    "golden-mean": lambda: (case("golden-mean")[0], models.golden_mean().observable),
    "golden-mean-a-8": lambda: (case("golden-mean-a-8")[0], models.golden_mean().observable),
    "three-symbol": lambda: law_case("three-symbol"),
    "full-4-shift-m3": lambda: law_case("full-4-shift-m3"),
    "full-4-shift-m4": lambda: law_case("full-4-shift-m4"),
    "fair-chain": lambda: (case("fair-chain")[0], models.bernoulli().observable),
    "full-3-shift-sparse-chain": lambda: case("full-3-shift-sparse-chain")[:2],
}


@pytest.mark.parametrize("name", list(COHOMOLOGY_CASES))
def test_cohomology_check_matches_row_scan(name):
    """Edges from the moves with Q > 0 are the row scan's edges in the
    same order, so the depth-first tree, the defect and the witness,
    with its key order, are the same."""
    mu, psi = COHOMOLOGY_CASES[name]()
    got, want = stats.cohomology_check(mu, psi), scanned_cohomology(mu, psi)
    assert repr(got) == repr(want)


def test_cohomology_coboundary_on_a_constrained_shift():
    """psi(a, b) = v(a) - v(b) + 3 on the admissible 2-words of the
    three-symbol shift is a coboundary plus a constant: degenerate, with
    a witness equal to v of each 2-block's first symbol up to one
    constant, and the row scan's answer."""
    mu = case("three-symbol")[0]
    v = {1: 0.7, 2: -1.3, 3: 2.1}
    psi = FiniteMemoryFunction(
        mu.space, 2, {(a, b): v[a] - v[b] + 3.0 for a, b in enumerate_words(mu.space, 2)})
    out = stats.cohomology_check(mu, psi)
    assert out["degenerate"]
    assert list(out["witness"]) == enumerate_words(mu.space, 2)
    diffs = [U - v[u[0]] for u, U in out["witness"].items()]
    assert max(diffs) - min(diffs) <= 1e-10
    assert repr(out) == repr(scanned_cohomology(mu, psi))


def test_cohomology_rejects_an_indicator_on_golden_mean():
    """The indicator of 0 on golden-mean is no coboundary plus a
    constant (its means on the fixed point 0 and the cycle 01 differ)."""
    mu = case("golden-mean")[0]
    psi = FiniteMemoryFunction.indicator(mu.space, (0,))
    out = stats.cohomology_check(mu, psi)
    assert not out["degenerate"] and out["witness"] is None
    assert out["max_cycle_defect"] > 0.1
    assert repr(out) == repr(scanned_cohomology(mu, psi))


@pytest.mark.parametrize("name", ["golden-mean-a-8", "ising-b4-h0.01"])
def test_variance_matches_its_green_kubo_oracle_on_stiff_chains(name):
    """The resolvent answer against the Green-Kubo series, which needs
    77,046 and 1,726 lags on these chains, beyond the 200- and 400-term
    correlation sums of test_variance_green_kubo_oracle and C05."""
    psi = {"golden-mean-a-8": models.golden_mean(-8.0),
           "ising-b4-h0.01": models.ising(4.0, 0.01)}[name].observable
    mu = case(name)[0]
    assert stats.asymptotic_variance(mu, psi) == pytest.approx(
        green_kubo_variance(mu, psi), rel=1e-10, abs=0.0)


def tilted_case(name):
    """(space, phi, psi) of a tilted family."""
    if name in ("bernoulli", "ising", "golden-mean"):
        m = models.builtin(name)
        return m.space, m.potential, m.observable
    if name == "golden-mean-a-8":
        m = models.golden_mean(-8.0)
        return m.space, m.potential, m.observable
    if name == "three-symbol":
        phi = three_symbol_potential()
        return phi.space, phi, FiniteMemoryFunction(
            phi.space, 1, {(1,): 1.0, (2,): 0.0, (3,): -1.0})
    memory = int(name[1:])  # "m3" to "m5": k = 16, 64, 256
    phi = random_full_shift(memory, memory)
    return phi.space, phi, FiniteMemoryFunction.indicator(phi.space, (1,))


@pytest.mark.parametrize("name", ["bernoulli", "ising", "golden-mean", "three-symbol",
                                  "golden-mean-a-8", "m3", "m4", "m5"])
def test_tilted_variance_matches_the_chain_route(name, solves):
    """PressureFamily.variance against the asymptotic variance of each
    tilt's Gibbs chain.  Both read the same (lambda, h, nu), certified
    to residuals tol * lambda, so each is off by about tol / (1 - gap
    ratio) relative; they must agree within 10 times that."""
    space, phi, psi = tilted_case(name)
    fam = stats.PressureFamily(space, phi, psi, tol=1e-12)
    for s in (-0.5, 0.0, 0.5):
        T, E = family_solve(fam, solves, s)
        assert fam.variance(s) == pytest.approx(
            chain_variance(T, E, psi), rel=10 * fam.tol / (1.0 - E.gap_ratio), abs=0.0)


def test_stiff_tilted_variance_matches_a_dense_reference(solves):
    """Ising beta = 4, h = 0.01 at s = -1, whose curvature is 1.1e-7:
    started from the closed-form Perron pair, the tilt's Q has rows
    that sum to 1, and both the family and the tilt's Gibbs chain are
    within 1e-8 relative of the dense 2 x 2 reference."""
    m = models.ising(4.0, 0.01)
    fam = stats.PressureFamily(m.space, m.potential, m.observable, tol=1e-12)
    T, E = family_solve(fam, solves, -1.0)
    Ts = transfer.build(m.space, affine_combine(m.potential, m.observable, -1.0))
    I, J, words = tuple_moves(m.space, Ts.states)
    Psi = np.zeros_like(Ts.matrix)
    Psi[I, J] = [m.observable(w) for w in words]
    want = dense_curvature(Ts.matrix, Psi)
    assert fam.variance(-1.0) == pytest.approx(want, rel=1e-8)
    assert chain_variance(T, E, m.observable) == pytest.approx(want, rel=1e-8)
