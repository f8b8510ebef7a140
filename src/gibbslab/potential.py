"""Finite-memory potentials and observables as value tables.

A memory-m function assigns a real value to every admissible m-word and
is constant on the corresponding cylinders, so var_n vanishes for
n >= m and every norm below is an exact finite computation.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import TooShort, ValidationError
from .shift_space import enumerate_words, spell, word_codes

DEFAULT_ALPHA = 0.5


@dataclass(frozen=True, eq=False)
class FiniteMemoryFunction:
    """Value table of a potential/observable on admissible memory-words.

    values must cover exactly the admissible words of length `memory`;
    missing or extraneous entries are validation errors (no silent
    defaults).  alpha is the metric parameter used for Holder norms.
    """

    space: object
    memory: int
    values: dict
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.memory < 1:
            raise ValidationError("memory must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must lie in (0, 1)")
        words = enumerate_words(self.space, self.memory)
        admissible = set(words)
        missing = [w for w in words if w not in self.values]
        if missing:
            raise ValidationError(f"missing values for admissible words: {missing[:5]}")
        extra = [w for w in self.values if w not in admissible]
        if extra:
            raise ValidationError(f"values given for inadmissible words: {extra[:5]}")
        for w, v in self.values.items():
            if not math.isfinite(v):
                raise ValidationError(f"non-finite value at {w!r}")

    @classmethod
    def constant(cls, space, c, memory=1, alpha=DEFAULT_ALPHA):
        words = enumerate_words(space, memory)
        return cls(space, memory, {w: float(c) for w in words}, alpha)

    @classmethod
    def indicator(cls, space, word, alpha=DEFAULT_ALPHA):
        """1 on the cylinder of `word`, 0 elsewhere; memory = len(word)."""
        word = tuple(word)
        words = enumerate_words(space, len(word))
        return cls(space, len(word), {w: float(w == word) for w in words}, alpha)

    def __call__(self, word):
        """Evaluate on the first `memory` symbols of an admissible word."""
        if len(word) < self.memory:
            raise TooShort(f"need {self.memory} symbols, got {len(word)}")
        key = tuple(word[: self.memory])
        try:
            return self.values[key]
        except KeyError:
            raise ValidationError(f"word {key!r} is not admissible")

    @property
    def sup_norm(self):
        return max(abs(v) for v in self.values.values())

    @cached_property
    def _table(self):
        """The memory-words' codes, increasing, and the values in that
        order, which is the sorted order of the words."""
        values = [v for _, v in sorted(self.values.items())]
        return word_codes(self.space, self.memory), np.array(values)

    def on(self, codes, n):
        """The values at the first `memory` symbols of the admissible
        n-words (n >= memory) with these codes."""
        keys, vals = self._table
        return vals[np.searchsorted(keys, codes // self.space.alphabet_size ** (n - self.memory))]

    @cached_property
    def variations(self):
        """(var_0, ..., var_{memory-1}): for each n, the largest spread
        of values over memory-words sharing their first n symbols."""
        (keys, vals), N, m = self._table, self.space.alphabet_size, self.memory
        starts = [np.unique(keys // N ** (m - n), return_index=True)[1] for n in range(m)]
        return tuple((np.maximum.reduceat(vals, s) - np.minimum.reduceat(vals, s)).max().item()
                     for s in starts)


def var_n(f, n):
    """Oscillation over pairs of memory-words agreeing in the first
    min(n, memory) coordinates; zero for n >= memory."""
    if n < 0:
        raise ValidationError("n must be nonnegative")
    if n >= f.memory:
        return 0.0
    return f.variations[n]


def total_variation(f):
    """V(f) = sum of var_n over n < memory (all later terms vanish)."""
    return sum(f.variations)


def holder_seminorm(f, alpha):
    """max over n < memory of alpha**(-n) * var_n(f)."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")
    return max(v / alpha**n for n, v in enumerate(f.variations))


def or_inf(f, *args):
    """f(*args), or +inf where its float result overflows: a derived
    bound too large to represent is reported as infinite, not raised."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def birkhoff_sum(f, word, n):
    """Sum of f over the first n shifts; needs n + memory - 1 symbols."""
    if len(word) < n + f.memory - 1:
        raise TooShort(
            f"need {n + f.memory - 1} symbols for a length-{n} sum, got {len(word)}"
        )
    return sum(f(word[k : k + f.memory]) for k in range(n))


def affine_combine(f, g, s):
    """f + s*g on the common memory max(m_f, m_g).

    A memory-m table lifts to any larger memory by ignoring trailing
    coordinates, so the combination is exact; both tables are read at
    the codes of the m-words.
    """
    if not f.space.same_as(g.space):
        raise ValidationError("operands must live on the same shift space")
    m = max(f.memory, g.memory)
    codes = word_codes(f.space, m)
    vals = (f.on(codes, m) + s * g.on(codes, m)).tolist()
    return FiniteMemoryFunction(f.space, m, dict(zip(spell(f.space, codes, m), vals)), f.alpha)
