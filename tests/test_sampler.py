import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbslab.sampler as sampler_mod
from gibbslab import stats
from gibbslab.errors import ValidationError
from gibbslab.potential import FiniteMemoryFunction
from gibbslab.sampler import (
    _GUIDE_BITS,
    _SHIFT,
    SampleConfig,
    _guide_table,
    _search,
    _thresholds,
    empirical_birkhoff,
    sample_path,
)

# chi-squared upper quantiles at the 1e-4 level, frozen:
# df=3 -> 21.108, df=2 -> 18.421 (one df per admissible 2-word minus one)
CHI2_CUTOFF = {3: 21.108, 2: 18.421}


def test_config_validation():
    with pytest.raises(ValidationError):
        SampleConfig(seed=-1, n=5)
    with pytest.raises(ValidationError):
        SampleConfig(seed=2**64, n=5)
    with pytest.raises(ValidationError):
        SampleConfig(seed=0, n=0)


def test_path_deterministic(builtin_triple):
    for s in builtin_triple.values():
        p1 = sample_path(s.mu, 500, 12345)
        p2 = sample_path(s.mu, 500, 12345)
        assert p1 == p2
        assert len(p1) == 500
        assert sample_path(s.mu, 500, 12346) != p1
        assert sample_path(s.mu, 500, 12345, stream=1) != p1


def test_path_admissible(builtin_triple):
    for s in builtin_triple.values():
        path = sample_path(s.mu, 2000, 99)
        assert s.space.is_admissible(path)


def test_golden_path_avoids_forbidden_word(golden):
    path = sample_path(golden.mu, 100_000, 4242)
    assert not any(a == 1 and b == 1 for a, b in zip(path, path[1:]))


def test_bernoulli_symbol_frequency(bernoulli):
    n = 100_000
    path = sample_path(bernoulli.mu, n, 31337)
    freq = sum(1 for s in path if s == 1) / n
    assert abs(freq - 0.7) <= 4.0 * math.sqrt(0.21 / n)


def test_empirical_birkhoff_deterministic_and_batch_independent(ising, monkeypatch):
    s1, sum1 = empirical_birkhoff(ising.mu, ising.psi, 64, 500, 777)
    s2, sum2 = empirical_birkhoff(ising.mu, ising.psi, 64, 500, 777)
    assert np.array_equal(s1, s2)
    assert sum1 == sum2
    monkeypatch.setattr(sampler_mod, "_BATCH", 7)
    s3, _ = empirical_birkhoff(ising.mu, ising.psi, 64, 500, 777)
    assert np.array_equal(s1, s3)


def test_empirical_constant_observable(bernoulli):
    const = FiniteMemoryFunction.constant(bernoulli.space, 1.5)
    samples, _ = empirical_birkhoff(bernoulli.mu, const, 10, 50, 5)
    assert np.allclose(samples, 15.0)


def test_ising_empirical_variance_matches_xi2(ising):
    xi2 = stats.asymptotic_variance(ising.mu, ising.psi)
    _, summary = empirical_birkhoff(ising.mu, ising.psi, 256, 100_000, 777)
    assert abs(summary["var_over_n"] - xi2) <= 0.05 * xi2
    # |mean/n - E[psi]| <= 4 xi / sqrt(n * trials)
    assert abs(summary["mean"] / 256 - 0.0) <= 4.0 * math.sqrt(xi2) / math.sqrt(256 * 100_000)


def test_bernoulli_ks_against_exact_law(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    exact = stats.exact_birkhoff_distribution(bernoulli.mu, ind, 256)
    _, summary = empirical_birkhoff(bernoulli.mu, ind, 256, 100_000, 20240, exact=exact)
    assert summary["ks"] <= 0.01


def test_chi_squared_two_cylinders(builtin_triple):
    for s in builtin_triple.values():
        path = sample_path(s.mu, 100_000, 2024)
        counts = {}
        for i in range(0, len(path) - 1, 2):
            pair = (path[i], path[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
        npairs = sum(counts.values())
        stat = 0.0
        cells = 0
        for a in s.space.symbols:
            for b in s.space.symbols:
                p = s.mu.cylinder_measure((a, b))
                if p == 0.0:
                    assert counts.get((a, b), 0) == 0
                    continue
                cells += 1
                expect = npairs * p
                stat += (counts.get((a, b), 0) - expect) ** 2 / expect
        assert stat <= CHI2_CUTOFF[cells - 1]


def test_trial_zero_matches_path_sum(ising):
    # trial 0 consumes the same counter block as the single-path stream
    n = 64
    path = sample_path(ising.mu, n, 31)
    total = sum(path)
    samples, _ = empirical_birkhoff(ising.mu, ising.psi, n, 3, 31)
    assert samples[0] == pytest.approx(float(total), abs=1e-12)


def test_sample_path_rejects_a_stream_that_is_no_counter(golden):
    """A negative stream died in numpy's counter check and a fractional
    one sampled from a fractional counter."""
    for stream in (-1, 1.5, 2**256):
        with pytest.raises(ValidationError, match="stream"):
            sample_path(golden.mu, 10, 1, stream=stream)
    assert sample_path(golden.mu, 10, 1, stream=np.int64(1)) == sample_path(golden.mu, 10, 1, 1)


def test_sampler_settings_must_be_integers(bernoulli):
    """A float seed sampled seed 1's path (Philox truncated the key 1.9),
    and a float n or trials died in numpy with a bare TypeError; numpy
    integers are integers."""
    mu, psi = bernoulli.mu, bernoulli.psi
    with pytest.raises(ValidationError, match="seed must be an integer"):
        sample_path(mu, 40, 1.9)
    with pytest.raises(ValidationError, match="n must be an integer"):
        sample_path(mu, 40.0, 1)
    with pytest.raises(ValidationError, match="n must be an integer"):
        empirical_birkhoff(mu, psi, 2.5, 3, 1)
    with pytest.raises(ValidationError, match="trials must be an integer"):
        empirical_birkhoff(mu, psi, 3, 2.5, 1)
    assert sample_path(mu, np.int64(40), np.uint64(1)) == sample_path(mu, 40, 1)
    got, _ = empirical_birkhoff(mu, psi, np.int32(5), np.int64(3), np.uint64(1))
    want, _ = empirical_birkhoff(mu, psi, 5, 3, 1)
    assert got.tobytes() == want.tobytes()


def searched_states(th, w):
    """_search's next state of each word w from each row of the int64
    thresholds th, through their guide table."""
    table = _guide_table(th)
    m, k = th.shape
    return [(_search(table, np.full(w.shape, s << _GUIDE_BITS), w) - s * k).tolist()
            for s in range(m)]


def edge_words(th):
    """0, 2**53 - 1, each bucket's first and last word, and each
    threshold -1, 0 and +1, inside [0, 2**53)."""
    firsts = np.arange(1 << _GUIDE_BITS) << _SHIFT
    near = th.ravel()[:, None] + np.array([-1, 0, 1])
    w = np.concatenate(([0, 2**53 - 1], firsts, firsts + (2**_SHIFT - 1), near.ravel()))
    return np.unique(w[(w >= 0) & (w < 2**53)])


@pytest.mark.parametrize("rows", [
    [[0.3, 0.0, 0.7, 0.0],  # a zero-mass move repeats the threshold of 0.3
     [0.0, 0.0, 1.0, 0.0],  # all the mass on one state
     [0.5, 0.25, 0.125, 0.125],  # thresholds on bucket starts
     [0.25, 0.75, 0.0, 0.0],  # the cumulative sum reaches 1 early
     [np.nan, 0.5, 0.5, 0.0],
     [0.1, 0.2, 0.3, 0.4]],
    "golden-mean",  # its move 1 -> 1 carries no mass
], ids=["crafted", "golden-mean"])
def test_guide_search_inverts_the_rows_at_their_edges(rows, golden):
    """The next state is min(#{c <= w * 2**-53}, k - 1) for the
    cumulative weights c of the row, at every edge word of the table."""
    if rows == "golden-mean":
        rows = golden.mu.transition
    cum = np.cumsum(np.array(rows, dtype=float), axis=1)
    k = cum.shape[1]
    th = _thresholds(cum).astype(np.int64)
    w = edge_words(th)
    u = w * 2.0**-53
    want = [np.minimum((c[:, None] <= u).sum(axis=0), k - 1).tolist() for c in cum]
    assert searched_states(th, w) == want


ON_EDGES = [0, 1, 2**_SHIFT - 1, 2**_SHIFT, 2**_SHIFT + 1, 3 * 2**_SHIFT, 2**52, 2**53 - 1]


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda k: st.lists(
    st.lists(st.sampled_from(ON_EDGES) | st.integers(0, 2**53), min_size=k - 1, max_size=k - 1),
    min_size=1, max_size=4)), st.lists(st.integers(0, 2**53 - 1), max_size=20))
def test_guide_search_counts_repeated_thresholds(rows, words):
    """Rows of sorted thresholds drawn from a few edge values, so that
    they repeat, each closed by the 2**53 sentinel: the next state is
    #{th <= w}, at random words and at each threshold -1, 0 and +1."""
    th = np.array([sorted(r) + [2**53] for r in rows], dtype=np.int64)
    w = np.unique(np.concatenate((edge_words(th), np.array(words, dtype=np.int64))))
    want = [(t[:, None] <= w).sum(axis=0).tolist() for t in th]
    assert searched_states(th, w) == want
