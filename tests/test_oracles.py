"""The exact recursions against their brute-force references in
tests/oracles.py: the cylinder Gibbs scan and the partition pressure
against every word and continuation, and the closed-form ultrametric
transport against the transportation LP."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from gibbslab import models, transfer
from gibbslab.gibbs import (
    GibbsMeasure,
    gibbs_measure,
    gibbs_ratio_scan,
    markov_measure,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.potential import FiniteMemoryFunction
from gibbslab.shift_space import enumerate_words, validate
from gibbslab.verify import uniform_chain

from oracles import enumerated_partition, enumerated_scan, transport_lp


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
    chain = markov_measure(space, 1, [(s,) for s in space.symbols], Q)
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
            space=m.space, block_length=1, states=((1,), (2,)),
            stationary=np.array([0.5, 0.5]), transition=np.full((2, 2), 0.5),
            pressure=P, potential=m.potential,
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
