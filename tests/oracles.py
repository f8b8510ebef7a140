"""Brute-force and earlier-form references for gibbslab.

The first four enumerate what the library computes by a recursion or a
closed form: every admissible word and continuation for the cylinder
Gibbs scan and the partition pressure, and the dense transportation LP
(scipy's HiGHS) for the ultrametric transport value.  They are
exponential in the word length and only meant for small n.  The
tilted pressure and its first two derivatives have dense references
too: log lambda, Lambda' and Lambda'' from a full eigendecomposition of
the tilted matrix.

The others are earlier forms of code that now computes the same bits
another way: the admissible words and the block graph's moves from
word tuples and a position dict, the power loop with a fresh array per
product and its residuals tested every iteration (at k = 2 with the
two-state loop's two-rounding products, or numpy's for the array
loop), the sampler step and the single path comparing float uniforms
with the cumulative rows, var_n grouping the words again on every
call, the Jacobian identity formed per move from cylinder measures,
the exact law of S_n stepped by the dense transition matrix and by
per-overlap products with each row gathered back after the step,
cylinder measures walked over tuple blocks, affine combinations formed
word by word, the coboundary check's edges found by scanning rows of Q, the
asymptotic variance as its Green-Kubo series, one vector-matrix
product per lag, the tilted variance as the asymptotic variance of the
tilt's Gibbs chain, and a float array's JSON text with every entry
formatted.

random_full_shift is the seeded random potential that several tests
solve, and dense_table the k x k array of a chain's successor table,
which every dense reference reads.
"""

import math
from bisect import bisect_right

import numpy as np
from numpy.random import Philox

from gibbslab import transfer
from gibbslab.errors import NoConvergence, SizeGuard, SolveFailure, Undefined, ValidationError
from gibbslab.gibbs import block_chain, gibbs_measure
from gibbslab.jsonio import _list
from gibbslab.potential import FiniteMemoryFunction, total_variation
from gibbslab.sampler import _BATCH, _WORDS_PER_COUNTER, SampleConfig
from gibbslab.shift_space import block_moves, enumerate_words, validate
from gibbslab.stats import (
    DP_CELL_CAP,
    LatticeDistribution,
    _block_data,
    asymptotic_variance,
    lattice_parameters,
)


def random_full_shift(seed, memory):
    """Uniform(-1, 1) potential, rounded to 6 decimals, on the full 4-shift."""
    space = validate(4, np.ones((4, 4), dtype=int), symbols=(1, 2, 3, 4))
    rng = np.random.default_rng(seed)
    words = enumerate_words(space, memory)
    return FiniteMemoryFunction(
        space, memory, {w: round(float(rng.uniform(-1.0, 1.0)), 6) for w in words}
    )


def dense_table(space, L, Q):
    """The k x k transition matrix of a k x N successor table Q on the
    L-blocks (as block_chain returns it), under the enumeration cap."""
    moves = block_moves(space, L)
    return moves.dense(Q[moves.I, moves.words % space.alphabet_size], "reference chain")


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


def dense_tilt(M, Psi):
    """log lambda and Lambda' = l1 (M * Psi) r1 / lambda of the tilted
    matrix M, over a full eigendecomposition M = V diag(w) V^-1."""
    w, V = np.linalg.eig(M)
    i = int(np.argmax(np.abs(w)))
    l1 = np.linalg.inv(V)[i]
    return float(np.log(w[i].real)), float((l1 @ (M * Psi) @ V[:, i] / w[i]).real)


def dense_curvature(M, Psi):
    """Lambda''(0) of s -> log lambda(M * exp(s Psi)), by second-order
    perturbation over a full eigendecomposition M = V diag(w) V^-1 with
    Psi centred by the tilted mean: with A = M * Psi_c, Lambda'' =
    (l1 (A * Psi_c) r1 + 2 sum_j (l1 A r_j)(l_j A r1) / (w1 - w_j)) / w1."""
    w, V = np.linalg.eig(M)
    order = np.argsort(-np.abs(w))
    w, V = w[order], V[:, order]
    L = np.linalg.inv(V)
    r1, l1, lam = V[:, 0], L[0], w[0]
    Psi_c = Psi - l1 @ (M * Psi) @ r1 / lam
    A = M * Psi_c
    d2 = l1 @ (A * Psi_c) @ r1
    for j in range(1, len(w)):
        d2 += 2.0 * (l1 @ A @ V[:, j]) * (L[j] @ A @ r1) / (lam - w[j])
    return float((d2 / lam).real)


def encode(space, word):
    """The base-N code of a word's symbol positions."""
    code = 0
    for s in word:
        code = code * space.alphabet_size + space.index(s)
    return code


def tuple_words(space, n):
    """enumerate_words as tuples extended one successor at a time."""
    words = [(s,) for s in space.symbols]
    for _ in range(n - 1):
        words = [w + (s,) for w in words for s in space.successors(w[-1])]
    return words


def tuple_moves(space, states):
    """Every move u -> u[1:] + (s,) between the admissible blocks
    `states`, in order of u and then of s, as index arrays I -> J and
    the words u + (s,)."""
    index = {w: i for i, w in enumerate(states)}
    I, J, words = zip(*[
        (i, index[u[1:] + (s,)], u + (s,))
        for i, u in enumerate(states)
        for s in space.successors(u[-1])
    ])
    return np.array(I), np.array(J), words


def power_loop(T, tol=transfer.DEFAULT_TOL, start=None, dot=None):
    """dominant_eigendata as one fresh array per product.  dot(A, x)
    forms each product: by default the two-rounding sums a*x0 + b*x1
    at k = 2, as the two-state loop does, and numpy's matmul above;
    dot=np.matmul gives the array loop's products at k = 2 too."""
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    M = T.matrix
    k = T.state_count
    if dot is None:
        dot = two_term_dot if k == 2 else np.matmul
    if start is None:
        h, nu = np.ones(k), np.full(k, 1.0 / k)
    else:
        h, nu = (_start_vector(v, k) for v in start)
    if not np.isfinite(M).all():
        raise NoConvergence("eigendata: the transfer matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        floor = M.sum(axis=1).min()
        if not math.isfinite(floor):
            raise NoConvergence(
                "eigendata: lambda is at least the smallest row sum of the transfer "
                f"matrix, which is {floor}, so lambda is not representable")
        Mnu, Mh = dot(M, nu), dot(M.T, h)
        for iters in range(1, transfer.MAX_ITER + 1):
            lam = Mnu.sum()
            nu = Mnu / lam
            h = Mh / dot(nu, Mh)
            Mnu, Mh = dot(M, nu), dot(M.T, h)
            res_h = np.abs(Mh - lam * h).max()
            res_nu = np.abs(Mnu - lam * nu).sum()
            if res_h <= tol * lam and res_nu <= tol * lam:
                break
            if not math.isfinite(res_h + res_nu):
                raise NoConvergence(
                    f"eigendata: lambda estimate {lam}, residuals {res_h} (h) and "
                    f"{res_nu} (nu) at iteration {iters}")
            if iters & (iters - 1) == 0:
                saved = iters, res_h, res_nu, Mnu, Mh
            elif (res_h == saved[1] and res_nu == saved[2]
                  and np.array_equal(Mnu, saved[3]) and np.array_equal(Mh, saved[4])):
                raise NoConvergence(
                    f"eigendata: residuals {res_h:.2g} (h) and {res_nu:.2g} (nu) above "
                    f"{tol:g}*lambda repeat from iteration {saved[0]} "
                    f"(period {iters - saved[0]})")
        else:
            raise NoConvergence(
                f"eigendata residuals above {tol:g}*lambda after {transfer.MAX_ITER} "
                "iterations"
            )
    h = h / dot(nu, h)
    alpha = T.potential.alpha
    return transfer.EigenData(
        lambda_=float(lam),
        pressure=float(np.log(lam)),
        h=h,
        nu=nu,
        min_h=float(h.min()),
        ess_radius_bound=float(alpha * lam),
        residual_h=float(np.abs(dot(M.T, h) - lam * h).max()),
        residual_nu=float(np.abs(dot(M, nu) - lam * nu).sum()),
        iterations=iters,
        matrix=M,
    )


def two_term_dot(A, x):
    """A x for a 2 x 2 matrix or a 2-vector A, each entry rounded once
    per product and once for the sum, as Python floats are."""
    if A.ndim == 1:
        return A[0] * x[0] + A[1] * x[1]
    return np.array([A[0, 0] * x[0] + A[0, 1] * x[1], A[1, 0] * x[0] + A[1, 1] * x[1]])


def _start_vector(v, k):
    a = np.asarray(v, dtype=float)
    if a.shape != (k,):
        raise ValidationError(f"start vector has shape {a.shape}, expected ({k},)")
    if not (np.isfinite(a).all() and (a > 0).all()):
        raise ValidationError("start vector entries must be finite and positive")
    return a


def last_positive(cum):
    """Each row's last state of positive weight: the first column at
    which its cumulative weights reach their total (the last column
    when that total is NaN)."""
    cum = np.atleast_2d(cum)
    reached = cum >= cum[:, -1:]
    return np.where(reached.any(axis=1), reached.argmax(axis=1), cum.shape[1] - 1)


def float_sampler(mu, psi, n, trials, seed):
    """The samples of empirical_birkhoff, each step counting the
    cumulative weights of the row that the float uniform reaches,
    clamped to the row's last state of positive weight."""
    cfg = SampleConfig(seed=seed, n=n, trials=trials)
    L = max(mu.block_length, psi.memory)
    pi, Q = block_chain(mu, L)
    Q = dense_table(mu.space, L, Q)
    pv = np.array([psi(u) for u in enumerate_words(mu.space, L)])
    cum_pi = np.cumsum(pi)
    cum_q = np.cumsum(Q, axis=1)
    top_pi, top_q = last_positive(cum_pi)[0], last_positive(cum_q)
    blocks_per_trial = -(-n // _WORDS_PER_COUNTER)
    words_per_trial = blocks_per_trial * _WORDS_PER_COUNTER
    samples = np.empty(trials)
    for start in range(0, trials, _BATCH):
        batch = min(_BATCH, trials - start)
        u = _uniforms(cfg.seed, start * blocks_per_trial, batch * words_per_trial)
        u = u.reshape(batch, words_per_trial)
        state = np.minimum((u[:, 0, None] >= cum_pi).sum(axis=1), top_pi)
        total = pv[state].copy()
        for t in range(1, n):
            state = np.minimum((u[:, t, None] >= cum_q[state]).sum(axis=1), top_q[state])
            total += pv[state]
        samples[start : start + batch] = total
    return samples


def float_path(mu, n, seed, stream=0):
    """sample_path, each draw counting the cumulative weights of the
    row that the float uniform reaches, clamped to the row's last state
    of positive weight."""
    cfg = SampleConfig(seed=seed, n=n)
    ell = mu.block_length
    steps = max(n - ell, 0)
    draws = 1 + steps
    blocks = -(-draws // _WORDS_PER_COUNTER)
    u = _uniforms(cfg.seed, stream * blocks, draws).tolist()
    cum_pi = np.cumsum(mu.stationary)
    cum_q = np.cumsum(mu.transition, axis=1)
    top_pi, top_q = int(last_positive(cum_pi)[0]), last_positive(cum_q).tolist()
    cum_pi, cum_rows = cum_pi.tolist(), cum_q.tolist()
    last = [s[-1] for s in mu.states]
    state = min(bisect_right(cum_pi, u[0]), top_pi)
    out = list(mu.states[state][:n])
    for t in range(steps):
        state = min(bisect_right(cum_rows[state], u[1 + t]), top_q[state])
        out.append(last[state])
    return tuple(out)


def _uniforms(seed, counter_start, count):
    bg = Philox(key=seed, counter=counter_start)
    raw = bg.random_raw(count)
    return (raw >> np.uint64(11)) * 2.0**-53


def grouped_var_n(f, n):
    """var_n by grouping the memory-words on their first n symbols."""
    if n >= f.memory:
        return 0.0
    groups = {}
    for w in sorted(f.values):
        key = w[:n]
        v = f.values[w]
        lo, hi = groups.get(key, (v, v))
        groups[key] = (min(lo, v), max(hi, v))
    return max(hi - lo for lo, hi in groups.values())


def per_move_jacobian_error(mu, phi, eigendata):
    """jacobian_max_error with mu.jacobian, two cylinder measures, per
    move."""
    h, n = eigendata.h, mu.block_length + 1
    _, I, J, codes = block_moves(mu.space, mu.block_length)
    worst = 0.0
    for i, j, w, p in zip(I, J, enumerate_words(mu.space, n), phi.on(codes, n).tolist()):
        target = math.exp(eigendata.pressure - p) * (h[j] / h[i])
        try:
            worst = max(worst, abs(mu.jacobian(w) / target - 1.0))
        except Undefined as exc:
            raise SolveFailure(f"jacobian_identity: {exc}")
    return worst


def dense_law(mu, psi, n):
    """exact_birkhoff_distribution with each step one dense product
    Q.T @ table over all states, the whole used table cleared."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    L, pi, Q, (pv,) = _block_data(mu, psi)
    Q = dense_table(mu.space, L, Q)
    a, b = lattice_parameters(pv)
    idx = np.array([round((v - a) / b) for v in pv], dtype=np.int64)
    span_idx = int(idx.max())
    width = n * span_idx + 1
    if n * width > DP_CELL_CAP:
        raise SizeGuard(f"DP table of {n * width} cells exceeds cap {DP_CELL_CAP}")
    k = len(pi)
    table = np.zeros((k, width))
    table[np.arange(k), idx] = pi
    groups = [(j, np.flatnonzero(idx == j)) for j in np.unique(idx)]
    for t in range(1, n):
        used = t * span_idx + 1
        step = Q.T @ table[:, :used]
        table[:, :used] = 0.0
        for j, rows in groups:
            table[rows, j : j + used] = step[rows]
    out = table.sum(axis=0)
    total = out.sum()
    if abs(total - 1.0) > 1e-12:
        raise SolveFailure(
            f"DP mass at n = {n} drifted to {float(total)!r}, more than 1e-12 from 1")
    support = np.flatnonzero(out > 0.0)
    lo, hi = int(support.min()), int(support.max())
    return LatticeDistribution(
        n=n,
        offset=a,
        span=b,
        indices=np.arange(lo, hi + 1),
        probs=out[lo : hi + 1].copy(),
    )


def _gather_layout(space, Q, L):
    """The successor table Q on L-blocks as a stack W of per-overlap
    blocks, with each state's row in the input (src) and output (dst).

    A move u = (c, w) -> v = (w, b) exists only on an (L - 1)-symbol
    overlap w, so with g numbering the overlaps, W[g, b, c] = Q[u, b],
    u sits at input row g*N + c and v at output row g*N + b; rows of no
    state stay zero.  When the S overlaps' S*N*N entries are no fewer
    than k*k (L = 1, sparse many-symbol shifts) the one group W[0], the
    dense Q's transpose over the states in their own order, is used."""
    N, k = space.alphabet_size, len(Q)
    _, I, J, words = moves = block_moves(space, L)
    overlaps, g = np.unique(words // N % N ** (L - 1), return_inverse=True)
    if len(overlaps) * N * N >= k * k:
        rows = np.arange(k)
        return moves.dense(moves.gather(Q), "transition matrix").T[None], rows, rows
    c, b = words // N**L, words % N
    W = np.zeros((len(overlaps), N, N))
    W[g, b, c] = moves.gather(Q)
    src, dst = np.empty(k, dtype=np.int64), np.empty(k, dtype=np.int64)
    src[I], dst[J] = g * N + c, g * N + b
    return W, src, dst


def gather_law(mu, psi, n):
    """exact_birkhoff_distribution with the table's rows in the input
    order of the overlap layout above, each step's output rows gathered
    back into it by one fancy index per lattice index."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    L, pi, Q, (pv,) = _block_data(mu, psi)
    a, b = lattice_parameters(pv)
    idx = np.array([round((v - a) / b) for v in pv], dtype=np.int64)
    span_idx = int(idx.max())
    width = n * span_idx + 1
    if n * width > DP_CELL_CAP:
        raise SizeGuard(f"DP table of {n * width} cells exceeds cap {DP_CELL_CAP}")
    W, src, dst = _gather_layout(mu.space, Q, L)
    S, R, _ = W.shape
    table = np.zeros((S * R, width))
    table[src, idx] = pi
    groups = [(j, src[idx == j], dst[idx == j]) for j in np.unique(idx)]
    for t in range(1, n):
        used = t * span_idx + 1
        step = np.matmul(W, table[:, :used].reshape(S, R, used)).reshape(S * R, used)
        # a state's row is only ever written from its own index j on, and
        # below j + used it is overwritten in full, so nothing is cleared
        for j, rows, moved in groups:
            table[rows, j : j + used] = step[moved]
    out = table[src].sum(axis=0)  # over the states in their own order
    total = out.sum()
    if abs(total - 1.0) > 1e-12:
        raise SolveFailure(
            f"DP mass at n = {n} drifted to {float(total)!r}, more than 1e-12 from 1")
    support = np.flatnonzero(out > 0.0)
    lo, hi = int(support.min()), int(support.max())
    return LatticeDistribution(
        n=n,
        offset=a,
        span=b,
        indices=np.arange(lo, hi + 1),
        probs=out[lo : hi + 1].copy(),
    )


def tuple_cylinder(mu, word):
    """cylinder_measure as a walk over the word's blocks as tuples,
    looked up in a dict of the states' positions."""
    word = tuple(word)
    n, ell = len(word), mu.block_length
    if n == 0:
        return 1.0
    states = mu.states
    if n < ell:
        return float(sum(mu.stationary[i] for i, s in enumerate(states) if s[:n] == word))
    index = {s: i for i, s in enumerate(states)}
    cur = index.get(word[:ell])
    if cur is None:
        return 0.0
    p = mu.stationary[cur]
    for t in range(1, n - ell + 1):
        nxt = index.get(word[t : t + ell])
        if nxt is None:
            return 0.0
        p *= mu.transition[cur, nxt]
        if p == 0.0:
            return 0.0
        cur = nxt
    return float(p)


def per_word_affine(f, g, s):
    """affine_combine's value table, f(w) + s * g(w) word by word."""
    m = max(f.memory, g.memory)
    return {w: f(w) + s * g(w) for w in enumerate_words(f.space, m)}


def scanned_cohomology(mu, psi, tol=1e-10):
    """cohomology_check with its edges found by scanning each row of Q
    for positive entries."""
    L, pi, Q, (pv,) = _block_data(mu, psi)
    Q = dense_table(mu.space, L, Q)
    states = enumerate_words(mu.space, L)
    c = pv - float(pi @ pv)
    k = len(states)
    adj = [[] for _ in range(k)]
    edges = []
    for i in range(k):
        for j in np.flatnonzero(Q[i] > 0):
            edges.append((i, int(j)))
            adj[i].append((int(j), -c[i]))
            adj[int(j)].append((i, +c[i]))
    U = np.full(k, np.nan)
    U[0] = 0.0
    stack = [0]
    while stack:
        i = stack.pop()
        for j, delta in adj[i]:
            if math.isnan(U[j]):
                U[j] = U[i] + delta
                stack.append(j)
    defect = max(abs(U[j] - (U[i] - c[i])) for i, j in edges)
    degenerate = bool(defect <= tol)
    witness = {states[i]: float(U[i]) for i in range(k)} if degenerate else None
    return {"degenerate": degenerate, "witness": witness, "max_cycle_defect": float(defect)}


def green_kubo_variance(mu, psi):
    """asymptotic_variance as the Green-Kubo series Var + 2 sum_k C_k,
    the f-weighted distribution stepped one lag at a time until a term
    falls below 1e-15 Var; 2 * 10**5 lags without that raise
    SolveFailure."""
    L, pi, Q, (pv,) = _block_data(mu, psi)
    Q = dense_table(mu.space, L, Q)
    c = pv - pi @ pv
    var0 = float(pi @ c**2)
    if var0 == 0.0:
        return 0.0
    gk = var0
    w = pi * c
    for _ in range(1, 200_000):
        w = w.dot(Q)
        term = float(w.dot(c))
        gk += 2.0 * term
        if abs(term) < 1e-15 * var0:
            return gk
    raise SolveFailure("Green-Kubo series did not decay (gap ratio near 1)")


def family_solve(fam, solves, s):
    """The (T, E) of a PressureFamily's own solve of tilt s, found among
    the `solves` fixture's record by its matrix M(s)."""
    fam.pressure(s)
    M = fam._tilt(s)
    return next((T, E) for T, E in solves if np.array_equal(T.matrix, M))


def chain_variance(T, eigendata, psi):
    """PressureFamily.variance at a solved tilt through its Gibbs chain:
    the asymptotic variance of psi under gibbs_measure(T, eigendata)."""
    return asymptotic_variance(gibbs_measure(T, eigendata), psi)


def every_entry_array(a, indent=0):
    """jsonio's dumps of a finite float64 array with every entry
    formatted, one join per row."""
    if a.ndim == 1:
        return _list([format(v, ".17g") for v in a.tolist()], indent)
    return _list([every_entry_array(row, indent + 1) for row in a], indent)
