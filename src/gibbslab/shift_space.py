"""Subshifts of finite type: validation, word enumeration, recoding.

A shift space is described by a finite alphabet of symbol labels and a
0/1 transition matrix A, where A[i, j] = 1 allows label j to follow
label i.  All outputs involving words are in lexicographic label order,
so repeated runs are bit-stable.
"""

import itertools
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NoPath, NotPrimitive, RowColumnEmpty, SizeGuard, ValidationError

DEFAULT_ENUM_CAP = 2**20
ENUM_CAP_ENV = "GIBBSLAB_ENUM_CAP"


def check_cap(count, what):
    """SizeGuard when count (words enumerated, matrix entries or grid
    points) exceeds the cap; the environment variable overrides the
    default."""
    raw = os.environ.get(ENUM_CAP_ENV)
    try:
        cap = DEFAULT_ENUM_CAP if raw is None else int(raw)
    except ValueError:
        raise ValidationError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError(f"{ENUM_CAP_ENV} must be positive")
    if count > cap:
        raise SizeGuard(f"{what} exceeds enumeration cap {cap}")


@dataclass(frozen=True, eq=False)
class ShiftSpace:
    """A topologically mixing subshift of finite type.

    Attributes
    ----------
    symbols : tuple
        Strictly increasing symbol labels (ints, or tuples for
        higher-block presentations).
    transitions : ndarray
        0/1 matrix indexed by symbol position; rows are source symbols.
    mixing_time : int
        Least M with all entries of transitions**M positive.
    """

    symbols: tuple
    transitions: np.ndarray
    mixing_time: int
    _index: dict = field(init=False, repr=False, compare=False)
    # L -> the BlockMoves of the L-blocks, filled by block_moves
    _graphs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {s: k for k, s in enumerate(self.symbols)})
        self.transitions.setflags(write=False)

    @property
    def alphabet_size(self):
        return len(self.symbols)

    def index(self, symbol):
        try:
            return self._index[symbol]
        except KeyError:
            raise ValidationError(f"unknown symbol {symbol!r}")

    def positions(self, word):
        """The positions of the word's symbols, or None when one is not
        in the alphabet."""
        idx = self._index
        try:
            return [idx[s] for s in word]
        except KeyError:
            return None

    def allows(self, i, j):
        """Whether label j may follow label i."""
        return bool(self.transitions[self.index(i), self.index(j)])

    def is_admissible(self, word):
        p = self.positions(word)
        if not p:
            return False
        A = self.transitions
        return all(A[a, b] for a, b in zip(p, p[1:]))

    def successors(self, symbol):
        """Labels allowed after `symbol`, in increasing order."""
        row = self.transitions[self.index(symbol)]
        return tuple(self.symbols[j] for j in np.flatnonzero(row))

    def same_as(self, other):
        return self is other or (
            self.symbols == other.symbols
            and np.array_equal(self.transitions, other.transitions)
        )


def validate(alphabet_size, transitions, symbols=None):
    """Check a transition matrix and return the shift space it defines.

    The matrix must be 0/1 with no empty row or column, and primitive:
    some power up to the Wielandt bound (N-1)**2 + 1 must be strictly
    positive.  The minimal such power is the mixing time.

    Raises
    ------
    RowColumnEmpty, NotPrimitive, ValidationError
    """
    try:
        A = np.asarray(transitions)
    except ValueError:
        raise ValidationError("transitions must be a rectangular matrix")
    n = int(alphabet_size)
    if n < 2:
        raise ValidationError("alphabet size must be at least 2")
    if A.shape != (n, n):
        raise ValidationError(f"transitions must be {n}x{n}, got {A.shape}")
    if not np.isin(A, (0, 1)).all():
        raise ValidationError("transitions entries must be 0 or 1")
    A = A.astype(np.uint8)
    if (A.sum(axis=1) == 0).any() or (A.sum(axis=0) == 0).any():
        raise RowColumnEmpty("every symbol needs an allowed successor and predecessor")

    if symbols is None:
        symbols = tuple(range(1, n + 1))
    else:
        symbols = tuple(symbols)
        if len(symbols) != n or len(set(symbols)) != n:
            raise ValidationError("symbols must be distinct and match the alphabet size")
        if list(symbols) != sorted(symbols):
            raise ValidationError("symbols must be strictly increasing")

    M = _mixing_time(A)
    return ShiftSpace(symbols=symbols, transitions=A, mixing_time=M)


def _mixing_time(A):
    """Least m with A**m strictly positive.  The 0/1 patterns of the
    powers are eventually periodic, so the pattern saved at each
    power-of-two m is compared with every later one; a repeat before a
    positive power means none comes, and NotPrimitive names where the
    powers repeat.  Past the Wielandt bound (N-1)**2 + 1 no positive
    power comes either."""
    wielandt = (A.shape[0] - 1) ** 2 + 1
    powers = _reachability(A)
    next(powers)
    for m, P in enumerate(powers, 1):
        if P.all():
            return m
        if m & (m - 1) == 0:
            saved = m, P
        elif np.array_equal(P, saved[1]):
            raise NotPrimitive(
                f"no power is strictly positive: the pattern of power {m} "
                f"repeats that of power {saved[0]}")
        if m == wielandt:
            raise NotPrimitive(f"no power up to {wielandt} is strictly positive")


def _reachability(A):
    """The 0/1 patterns of the powers of A, from A**0 = I on, as boolean
    arrays: entry [s, t] of the r-th says that a path of r moves leads
    from s to t.  Each is a float32 product of 0/1 arrays, whose sums of
    nonnegative terms are positive exactly when one term is, whatever
    their size.  BLAS forms it ~30x faster than bool @ bool on the
    1024 states of a recoded full 2-shift (one BLAS thread)."""
    B = A.astype(np.float32)
    P = np.eye(len(B), dtype=bool)
    while True:
        yield P
        P = P.astype(np.float32) @ B > 0


def _check_length(space, n):
    """ValidationError for n < 1, SizeGuard for N**n past the cap."""
    if n < 1:
        raise ValidationError("word length must be at least 1")
    check_cap(space.alphabet_size**n, f"{space.alphabet_size}**{n}")


def word_codes(space, n):
    """Codes of the admissible n-words in increasing (lexicographic)
    order: the base-N numbers of their symbol positions.  They need
    N**n < 2**63; past that, and past the enumeration cap, a SizeGuard."""
    _check_length(space, n)
    codes = np.arange(space.alphabet_size, dtype=np.int64)
    for m in range(1, n):
        codes = _extend(space, codes, m)[1]
    return codes


def _extend(space, codes, n):
    """(index of the word, code of the extension) of every admissible
    one-symbol extension of these n-word codes, by word and then symbol."""
    N = space.alphabet_size
    if N ** (n + 1) >= 2**63:
        raise SizeGuard(f"codes of {N}**{n + 1} words exceed 64 bits")
    I, s = np.nonzero(space.transitions[codes % N])
    return I, codes[I] * N + s


def enumerate_words(space, n):
    """All admissible words of length n, lexicographically ordered: the
    words of `word_codes`, under its guards.  The count equals the sum
    of entries of A**(n-1)."""
    return spell(space, word_codes(space, n), n)


def spell(space, codes, n):
    """The n-words with these codes, as tuples of symbols."""
    N, symbols = space.alphabet_size, space.symbols
    digits = codes[:, None] // N ** np.arange(n - 1, -1, -1) % N
    return [tuple(map(symbols.__getitem__, row)) for row in digits.tolist()]


class BlockMoves(NamedTuple):
    """The admissible L-blocks and every move u -> u[1:] + (s,) between
    them, in order of u and then of s: blocks and words are the codes
    of the L-blocks and of the (L + 1)-words u + (s,), and I -> J the
    moves as indices into blocks."""

    blocks: np.ndarray
    I: np.ndarray
    J: np.ndarray
    words: np.ndarray

    def dense(self, values, what):
        """The k x k float array, k = len(blocks), with values on the moves
        I -> J and zeros elsewhere: every dense array on the block graph
        is made here, its k*k entries capped as "{k}x{k} {what}"."""
        k = len(self.blocks)
        check_cap(k * k, f"{k}x{k} {what}")
        out = np.zeros((k, k))
        out[self.I, self.J] = values
        return out

    def table(self, values, N):
        """The k x N array, N the alphabet size, with values at [u, s]
        on each move u -> u[1:] + (s,) and zeros elsewhere."""
        out = np.zeros((len(self.blocks), N), np.asarray(values).dtype)
        out[self.I, self.words % N] = values
        return out

    def gather(self, table):
        """The entries of a k x N table on the moves, in move order: the
        inverse of `table`."""
        return table[self.I, self.words % table.shape[1]]


def block_moves(space, L):
    """The BlockMoves of space's L-blocks: arrays over the blocks and
    their moves, nothing k x k until `dense` is asked for it.  Each
    L-block graph is derived once per space and kept on it, its arrays
    read-only, its blocks read off the kept (L - 1)-block graph's move
    words where there is one; the length and the enumeration cap are
    checked on every call."""
    _check_length(space, L)
    moves = space._graphs.get(L)
    if moves is None:
        shorter = space._graphs.get(L - 1)
        blocks = word_codes(space, L) if shorter is None else shorter.words
        I, words = _extend(space, blocks, L)
        J = np.searchsorted(blocks, words % space.alphabet_size**L)
        moves = BlockMoves(blocks, I, J, words)
        for a in moves:
            a.setflags(write=False)
        space._graphs[L] = moves
    return moves


def kept_codes(space, n):
    """The codes of `word_codes(space, n)`, under its guards, read off a
    graph the space keeps (see `block_moves`): the move words of its
    (n - 1)-block graph, or for n = 1 the blocks of its 1-block graph."""
    _check_length(space, n)
    return block_moves(space, n - 1).words if n > 1 else block_moves(space, 1).blocks


def word_count(space, n):
    """Number of admissible n-words, via powers of the transition matrix,
    exact in Python integers (the count passes 2^63 at n = 64 on the
    full 2-shift)."""
    if n < 1:
        raise ValidationError("word length must be at least 1")
    P = np.linalg.matrix_power(space.transitions.astype(object), n - 1)
    return int(P.sum())


def connecting_word(space, i, j, m):
    """Lexicographically smallest admissible m-word starting at i whose
    concatenation with j is admissible.

    Always exists for m >= mixing_time; raises NoPath otherwise when no
    path exists.
    """
    if m < 1:
        raise ValidationError("connecting length must be at least 1")
    A = space.transitions
    reach = list(itertools.islice(_reachability(A), m + 1))
    ji = space.index(j)
    if not reach[m][space.index(i), ji]:
        raise NoPath(f"no admissible word of length {m} from {i!r} to {j!r}")
    word = (i,)
    cur = space.index(i)
    for k in range(1, m):
        # m - k edges remain from position k to j
        for s in np.flatnonzero(A[cur]):
            if reach[m - k][s, ji]:
                word += (space.symbols[s],)
                cur = s
                break
    return word


def canonical_extension(space, word, horizon):
    """Extend a word by `horizon` symbols, choosing at each step the
    smallest admissible successor.  Deterministic cylinder representative."""
    if not space.is_admissible(word):
        raise ValidationError(f"word {word!r} is not admissible")
    out = tuple(word)
    for _ in range(horizon):
        out += (space.successors(out[-1])[0],)
    return out


def recode(space, block_length):
    """Higher-block presentation: symbols become admissible block_length-words.

    Blocks u -> v are allowed when they overlap in block_length - 1
    symbols and the combined (block_length + 1)-word is admissible.
    block_length = 1 returns the space unchanged.
    """
    if block_length < 1:
        raise ValidationError("block length must be at least 1")
    if block_length == 1:
        return space
    B = block_moves(space, block_length).dense(1.0, "recoded transition matrix")
    return validate(len(B), B, symbols=tuple(enumerate_words(space, block_length)))
