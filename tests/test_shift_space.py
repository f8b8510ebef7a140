import collections
import itertools

import numpy as np
import pytest

from gibbslab import cli, gibbs, models, shift_space, stats, transfer
from gibbslab.errors import NoPath, NotPrimitive, RowColumnEmpty, SizeGuard, ValidationError
from gibbslab.shift_space import (
    block_moves,
    canonical_extension,
    connecting_word,
    enumerate_words,
    recode,
    validate,
    word_count,
)
from gibbslab.verify import uniform_chain, verify_model

FULL2 = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
GOLDEN = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))


def brute_force_mixing_time(A, limit=60):
    A = np.asarray(A)
    P = np.eye(A.shape[0], dtype=np.int64)
    for m in range(1, limit + 1):
        P = (P @ A > 0).astype(np.int64)
        if P.all():
            return m
    return None


def test_full_shift_mixing_time():
    assert FULL2.mixing_time == 1


def test_golden_mixing_time_matches_brute_force():
    assert GOLDEN.mixing_time == 2
    assert brute_force_mixing_time([[1, 1], [1, 0]]) == 2


def test_identity_matrix_rejected():
    with pytest.raises(NotPrimitive):
        validate(2, [[1, 0], [0, 1]])


def test_zero_row_rejected():
    with pytest.raises(RowColumnEmpty):
        validate(2, [[0, 0], [1, 1]])
    with pytest.raises(RowColumnEmpty):
        validate(2, [[1, 0], [1, 0]])


def test_bad_entries_rejected():
    with pytest.raises(ValidationError):
        validate(2, [[1, 2], [1, 1]])
    with pytest.raises(ValidationError):
        validate(3, [[1, 1], [1, 1]])


def test_random_primitive_matrices_match_brute_force():
    """Each draw without an empty row or column is NotPrimitive exactly
    when no power up to the Wielandt bound is positive, and has the
    least positive power as its mixing time otherwise."""
    rng = np.random.default_rng(7)
    seen = {True: 0, False: 0}
    while seen[True] < 25:
        n = int(rng.integers(2, 5))
        A = (rng.random((n, n)) < 0.55).astype(int)
        wielandt = (n - 1) ** 2 + 1
        try:
            mixing_time = validate(n, A).mixing_time
        except RowColumnEmpty:
            continue
        except NotPrimitive:
            mixing_time = None
        seen[mixing_time is not None] += 1
        assert mixing_time == brute_force_mixing_time(A, wielandt)
    assert seen[False] >= 5


def test_uint8_path_counts_do_not_wrap():
    """Row 0 of the square of this 257-symbol matrix counts 256 paths
    to each column, which a uint8 product wraps to 0: the mixing time
    is still 2, and the 2-word from 1 back to 1 is still found."""
    A = np.ones((257, 257), dtype=int)
    A[0, 0] = 0
    space = validate(257, A)
    assert space.mixing_time == brute_force_mixing_time(A, 3) == 2
    assert connecting_word(space, 1, 1, 2) == (1, 2)


def test_periodic_powers_fail_at_their_first_repeat():
    """A 300-symbol shift of period 2 is not primitive, and validation
    says so at power 6, where the powers repeat the one saved at power
    4, not after the Wielandt bound's 89,402."""
    A = np.zeros((300, 300), dtype=int)
    A[:150, 150:] = A[150:, :150] = 1
    with pytest.raises(NotPrimitive, match="power 6 repeats that of power 4$"):
        validate(300, A)


def test_enumerate_full_shift():
    words = enumerate_words(FULL2, 3)
    assert len(words) == 8
    assert words == sorted(words)
    assert words[0] == (1, 1, 1)


def test_enumerate_golden_counts_against_filter_oracle():
    # oracle: all {0,1}^n tuples without adjacent 1s
    for n in range(1, 9):
        oracle = [
            w
            for w in itertools.product((0, 1), repeat=n)
            if not any(w[i] == 1 and w[i + 1] == 1 for i in range(n - 1))
        ]
        assert enumerate_words(GOLDEN, n) == oracle
    assert len(enumerate_words(GOLDEN, 3)) == 5
    assert len(enumerate_words(GOLDEN, 1)) == 2


def test_word_count_identity():
    for space in (FULL2, GOLDEN):
        for n in range(1, 13):
            assert len(enumerate_words(space, n)) == word_count(space, n)


def test_word_count_is_exact_past_int64():
    for n in range(62, 66):
        assert word_count(FULL2, n) == 2**n
    a, b = 2, 3  # golden-mean counts of 1- and 2-words
    for _ in range(99):
        a, b = b, a + b
    assert word_count(GOLDEN, 100) == a


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "10")
    with pytest.raises(SizeGuard):
        enumerate_words(FULL2, 4)
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "1000000")
    assert len(enumerate_words(FULL2, 4)) == 16


def test_connecting_word_examples():
    assert connecting_word(FULL2, 1, 2, 1) == (1,)
    assert connecting_word(GOLDEN, 1, 1, 2) == (1, 0)
    with pytest.raises(NoPath):
        connecting_word(GOLDEN, 1, 1, 1)


def test_connecting_word_properties():
    for space in (FULL2, GOLDEN):
        for i in space.symbols:
            for j in space.symbols:
                for m in range(space.mixing_time, 7):
                    w = connecting_word(space, i, j, m)
                    assert len(w) == m
                    assert w[0] == i
                    assert space.is_admissible(w + (j,))


def test_canonical_extension_examples():
    assert canonical_extension(GOLDEN, (1,), 3) == (1, 0, 0, 0)
    assert canonical_extension(FULL2, (2,), 2) == (2, 1, 1)
    assert canonical_extension(GOLDEN, (0, 1), 2) == (0, 1, 0, 0)
    with pytest.raises(ValidationError):
        canonical_extension(GOLDEN, (1, 1), 1)


def test_recode_identity():
    assert recode(GOLDEN, 1) is GOLDEN


def test_recode_golden_two_blocks():
    # oracle: states are admissible 2-words; transitions are admissible
    # 3-words (overlap rule), of which the golden mean shift has 5
    r = recode(GOLDEN, 2)
    assert r.symbols == ((0, 0), (0, 1), (1, 0))
    assert int(r.transitions.sum()) == len(enumerate_words(GOLDEN, 3)) == 5
    assert r.mixing_time == brute_force_mixing_time(r.transitions)


def test_recode_caps_its_dense_matrix():
    """2**11 blocks pass the word cap but not the k**2 one; 2**10 pass both."""
    with pytest.raises(SizeGuard, match="2048x2048 recoded transition matrix"):
        recode(FULL2, 11)
    r = recode(FULL2, 10)
    assert len(r.symbols) == 1024 and r.mixing_time == 10


def test_recode_full_shift_two_blocks():
    r = recode(FULL2, 2)
    assert len(r.symbols) == 4
    assert int(r.transitions.sum()) == 8


def test_recode_word_count_correspondence():
    # j-words of the l-block presentation are (j + l - 1)-words downstairs
    for space in (FULL2, GOLDEN):
        for ell in (2, 3):
            r = recode(space, ell)
            for j in range(1, 8):
                assert word_count(r, j) == word_count(space, j + ell - 1)


def test_successors_sorted():
    assert GOLDEN.successors(0) == (0, 1)
    assert GOLDEN.successors(1) == (0,)


def test_block_graph_is_kept_read_only():
    space = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))
    moves = block_moves(space, 3)
    assert block_moves(space, 3) is moves
    for a in moves:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_kept_graph_still_checks_length_and_cap(monkeypatch):
    """A kept graph is no way round the cap: lowering it below N**L
    raises the SizeGuard that a space with nothing kept raises."""
    kept = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))
    fresh = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))
    block_moves(kept, 4)
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "15")
    messages = []
    for space in (kept, fresh):
        with pytest.raises(SizeGuard) as exc:
            block_moves(space, 4)
        messages.append(str(exc.value))
    assert messages == ["2**4 exceeds enumeration cap 15"] * 2
    with pytest.raises(ValidationError, match="at least 1"):
        block_moves(kept, 0)


@pytest.fixture
def derivations(monkeypatch):
    """How often each block graph is built during the test, keyed by its
    size and its (L + 1)-word codes."""
    counts = collections.Counter()
    make = shift_space.BlockMoves

    def counted(blocks, I, J, words):
        counts[len(blocks), words.tobytes()] += 1
        return make(blocks, I, J, words)

    monkeypatch.setattr(shift_space, "BlockMoves", counted)
    return counts


def test_each_block_graph_is_derived_once(derivations):
    """verify with an injected chain, and clt's variance and three exact
    laws, build each (space, L) graph once, however many readers it has."""
    m = models.ising(1.0, 0.0)
    verify_model(m, inject_chain=uniform_chain(m))
    assert derivations and set(derivations.values()) == {1}
    derivations.clear()
    g = models.golden_mean(0.0)
    T = transfer.build(g.space, g.potential)
    mu = gibbs.gibbs_measure(T, transfer.dominant_eigendata(T, tol=1e-13))
    stats.asymptotic_variance(mu, g.observable)
    for n in (16, 32, 64):
        stats.exact_birkhoff_distribution(mu, g.observable, n)
    assert len(derivations) == 2 and set(derivations.values()) == {1}


@pytest.fixture
def made(monkeypatch):
    """How often the codes of the n-words are derived during the test,
    keyed by n: counted at `_extend`, through which word_codes and
    block_moves make every code past the 1-words."""
    counts = collections.Counter()
    extend = shift_space._extend

    def counted(space, codes, n):
        counts[n + 1] += 1
        return extend(space, codes, n)

    monkeypatch.setattr(shift_space, "_extend", counted)
    return counts


def test_memory_word_codes_are_derived_once(made):
    """A model's functions, their affine combinations in a rate curve and
    verify with an injected chain derive the codes of the 2-words once
    per space: every reader takes them from the kept 1-block graph."""
    g = models.golden_mean(0.0)
    fam = stats.PressureFamily(g.space, g.potential, g.observable)
    for t in (0.1, 0.2, 0.3):
        stats.rate_function(g.space, g.potential, g.observable, t, family=fam)
    assert made == {2: 1}
    made.clear()
    m = models.ising(1.0, 0.0)
    verify_model(m, inject_chain=uniform_chain(m))
    assert made == {2: 1}


def test_block_graph_reads_its_blocks_off_the_shorter_graph(made, tmp_path, capsys):
    """ldp on golden-mean keeps graphs at L = 1 and 2: the 2-block graph
    takes its blocks from the 1-block graph's move words, so the codes
    of the 2-words are derived once, and each graph's blocks are the
    word codes."""
    assert cli.main(["ldp", "--builtin", "golden-mean", "--a-level", "0.1",
                     "--b-level", "0.3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert made[2] == 1
    space = validate(2, [[1, 1], [1, 0]], symbols=(0, 1))
    short, long = block_moves(space, 1), block_moves(space, 2)
    assert long.blocks is short.words
    assert np.array_equal(long.blocks, shift_space.word_codes(space, 2))


@pytest.mark.parametrize("name", ["golden-mean", "ising", "bernoulli"])
def test_kept_codes_are_the_word_codes(name):
    space = models.builtin(name).space
    for m in range(1, 5):
        codes = shift_space.kept_codes(space, m)
        assert np.array_equal(codes, shift_space.word_codes(space, m)) and codes.dtype == np.int64
        assert codes is shift_space.kept_codes(space, m)
