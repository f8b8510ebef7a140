"""Brute-force references for the exact recursions in gibbslab.

Each function enumerates what the library computes by a recursion or a
closed form: every admissible word and continuation for the cylinder
Gibbs scan and the partition pressure, and the dense transportation LP
(scipy's HiGHS) for the ultrametric transport value.  They are
exponential in the word length and only meant for small n.
"""

import math

import numpy as np

from gibbslab.potential import total_variation
from gibbslab.shift_space import enumerate_words


def continuation_sums(space, phi, w):
    """S_n phi, n = len(w), over each admissible (m-1)-symbol
    continuation of w."""
    n, m = len(w), phi.memory
    words = [w]
    for _ in range(m - 1):
        words = [x + (s,) for x in words for s in space.successors(x[-1])]
    return [sum(phi.values[x[k : k + m]] for k in range(n)) for x in words]


def enumerated_scan(mu, phi, n_max, tol=1e-12):
    """(per_length, passed, pass_band, band_constant) of the Gibbs
    scan, by visiting every word of positive measure and each of its
    continuations."""
    P = mu.pressure
    per_length = []
    for n in range(1, n_max + 1):
        lo, hi = math.inf, -math.inf
        for w in enumerate_words(mu.space, n):
            muw = mu.cylinder_measure(w)
            if muw == 0.0:
                continue
            for s in continuation_sums(mu.space, phi, w):
                ratio = muw / math.exp(-n * P + s)
                lo, hi = min(lo, ratio), max(hi, ratio)
        per_length.append((n, lo, hi))
    lo_all = min(lo for _, lo, _ in per_length)
    hi_all = max(hi for _, _, hi in per_length)
    V = total_variation(phi)
    n_stab = min(2 * mu.block_length + mu.space.mixing_time, n_max)
    stable = per_length[n_stab - 1 :]
    spread = max(
        max(abs(lo - stable[-1][1]), abs(hi - stable[-1][2])) for _, lo, hi in stable
    )
    pass_band = lo_all >= math.exp(-2.0 * V) - tol and hi_all <= math.exp(2.0 * V) + tol
    band_constant = spread <= 1e-10 * max(1.0, hi_all)
    return per_length, pass_band or band_constant, pass_band, band_constant


def enumerated_partition(space, phi, n):
    """(1/n) log of the sum over admissible n-words of exp of the
    largest S_n phi over the word's continuations."""
    sums = [max(continuation_sums(space, phi, w)) for w in enumerate_words(space, n)]
    best = max(sums)
    return (best + math.log(sum(math.exp(s - best) for s in sums))) / n


def transport_lp(mu1, mu2, alpha, n):
    """Optimal transport between the n-cylinder marginals for the cost
    alpha**(first index of disagreement), zero on the diagonal, solved
    as a dense transportation LP."""
    from scipy import sparse
    from scipy.optimize import linprog

    words = enumerate_words(mu1.space, n)
    p = np.array([mu1.cylinder_measure(w) for w in words])
    q = np.array([mu2.cylinder_measure(w) for w in words])
    k = len(words)
    codes = np.array([[mu1.space.index(s) for s in w] for w in words])
    differ = codes[:, None, :] != codes[None, :, :]
    C = np.where(differ.any(axis=2), alpha ** differ.argmax(axis=2), 0.0)
    ones = np.ones((1, k))
    A_eq = sparse.vstack([sparse.kron(sparse.eye(k), ones),
                          sparse.kron(ones, sparse.eye(k))])
    res = linprog(
        C.ravel(), A_eq=A_eq, b_eq=np.concatenate([p, q]),
        bounds=(0, None), method="highs",
    )
    assert res.success, res.message
    return float(res.fun)
