import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab.errors import TooShort, ValidationError
from gibbslab.potential import (
    FiniteMemoryFunction,
    affine_combine,
    birkhoff_sum,
    holder_seminorm,
    total_variation,
    var_n,
)
from gibbslab.shift_space import enumerate_words, validate
from gibbslab import models

FULL2 = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
GOLDEN = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))

BERN = models.bernoulli(0.7).potential
ISING = models.ising(1.0, 0.0).potential


def random_table(space, memory, draw_values):
    words = enumerate_words(space, memory)
    return FiniteMemoryFunction(space, memory, dict(zip(words, draw_values)))


def test_table_must_cover_admissible_words():
    with pytest.raises(ValidationError):
        FiniteMemoryFunction(FULL2, 1, {(1,): 0.0})
    with pytest.raises(ValidationError):
        FiniteMemoryFunction(GOLDEN, 2, {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
    with pytest.raises(ValidationError):
        FiniteMemoryFunction(FULL2, 1, {(1,): float("nan"), (2,): 0.0})


def test_var_bernoulli():
    assert var_n(BERN, 0) == pytest.approx(math.log(7.0 / 3.0), abs=1e-15)
    assert var_n(BERN, 1) == 0.0
    assert var_n(BERN, 5) == 0.0


def test_var_ising():
    # var_0 = var_1 = 2|beta| + |h|
    assert var_n(ISING, 0) == pytest.approx(2.0, abs=1e-15)
    assert var_n(ISING, 1) == pytest.approx(2.0, abs=1e-15)
    assert var_n(ISING, 2) == 0.0


def test_total_variation():
    assert total_variation(BERN) == pytest.approx(math.log(7.0 / 3.0), abs=1e-15)
    assert total_variation(ISING) == pytest.approx(4.0, abs=1e-15)
    assert total_variation(FiniteMemoryFunction.constant(FULL2, 2.5)) == 0.0


def test_holder_seminorm():
    assert holder_seminorm(BERN, 0.5) == pytest.approx(math.log(7.0 / 3.0), abs=1e-15)
    # max(2, 2/alpha) = (2|beta| + |h|)/alpha at alpha = 1/2
    assert holder_seminorm(ISING, 0.5) == pytest.approx(4.0, abs=1e-15)
    assert holder_seminorm(FiniteMemoryFunction.constant(FULL2, 1.0), 0.5) == 0.0
    with pytest.raises(ValidationError):
        holder_seminorm(BERN, 1.5)


def test_birkhoff_bernoulli_word():
    s = birkhoff_sum(BERN, (1, 2, 1, 1), 4)
    assert s == pytest.approx(math.log(0.7 * 0.3 * 0.7 * 0.7), abs=1e-12)
    assert math.exp(s) == pytest.approx(0.1029, abs=1e-12)


def test_birkhoff_constant():
    c = FiniteMemoryFunction.constant(FULL2, -1.25)
    assert birkhoff_sum(c, (1, 2, 1, 2, 1), 5) == pytest.approx(-6.25, abs=1e-15)


def test_birkhoff_ising():
    assert birkhoff_sum(ISING, (1, 1, -1), 2) == pytest.approx(0.0, abs=1e-15)


def test_birkhoff_too_short():
    with pytest.raises(TooShort):
        birkhoff_sum(ISING, (1, 1), 2)


@given(st.integers(1, 6), st.integers(0, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_birkhoff_additivity(a, b, data):
    space = ISING.space
    word = [1]
    for _ in range(a + b + ISING.memory - 2):
        word.append(data.draw(st.sampled_from(space.successors(word[-1]))))
    word = tuple(word)
    total = birkhoff_sum(ISING, word, a + b)
    left = birkhoff_sum(ISING, word, a)
    right = birkhoff_sum(ISING, word[a:], b)
    assert total == pytest.approx(left + right, abs=1e-12)


def test_affine_combine_zero_and_double():
    f0 = affine_combine(BERN, BERN, 0.0)
    assert all(f0.values[w] == BERN.values[w[: BERN.memory]] for w in f0.values)
    f2 = affine_combine(BERN, BERN, 1.0)
    assert all(
        f2.values[w] == pytest.approx(2.0 * BERN.values[w[: BERN.memory]], abs=1e-15)
        for w in f2.values
    )


def test_affine_combine_ising_doubles_beta():
    double = affine_combine(ISING, ISING, 1.0)
    target = models.ising(2.0, 0.0).potential
    assert double.values == pytest.approx(target.values)


def test_affine_combine_lifts_memory():
    spin = models.ising(1.0, 0.0).observable  # memory 1
    combo = affine_combine(ISING, spin, 0.5)
    assert combo.memory == 2
    assert combo.values[(1, -1)] == pytest.approx(-1.0 + 0.5, abs=1e-15)


def test_affine_requires_same_space():
    with pytest.raises(ValidationError):
        affine_combine(BERN, models.golden_mean().potential, 1.0)


@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_total_variation_triangle(fv, gv, s):
    f = random_table(FULL2, 2, fv)
    g = random_table(FULL2, 2, gv)
    combo = affine_combine(f, g, s)
    assert total_variation(combo) <= (
        total_variation(f) + abs(s) * total_variation(g) + 1e-9
    )


@given(st.lists(st.floats(-5, 5), min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_var_monotone_and_holder_consistency(values):
    f = random_table(GOLDEN, 3, values)
    vs = [var_n(f, n) for n in range(5)]
    assert all(vs[i] >= vs[i + 1] - 1e-12 for i in range(4))
    assert vs[3] == vs[4] == 0.0
    h = holder_seminorm(f, 0.5)
    assert all(vs[n] <= h * 0.5**n + 1e-9 for n in range(5))
