"""Statistical diagnostics for Birkhoff sums under a Gibbs chain.

The route avoids complex transfer operators entirely: the asymptotic
variance is one resolvent solve with a refinement certificate,
normality and local-limit checks compare exact dynamic-programming
laws of S_n psi to the Gaussian, and the rate function is the Legendre
transform of the tilted-pressure curve Lambda(s) = P(phi + s psi) - P(phi),
whose first two derivatives are read off each tilt's eigendata.
"""

import bisect
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateVariance,
    NoConvergence,
    NotLattice,
    OutOfRange,
    SizeGuard,
    SolveFailure,
    ValidationError,
)
from . import transfer
from .gibbs import block_chain, require_space
from .potential import affine_combine
from .shift_space import block_moves, enumerate_words

DP_CELL_CAP = 10**8
VARIANCE_TOL = 1e-9  # bound on the resolvent refinement's effect on xi^2
S_MAX = 50.0  # the rate function's tilts stay within [-S_MAX, S_MAX]
# rate_function bisects while its bracket is wider than BISECT_WIDTH
# relative to its ends: a point settled there keeps the bisection's s*
# (at the edge of the mean range, where s* runs off to S_MAX, that is
# wherever the midpoints first meet t), and false position only polishes
# a root already located, where Lambda' is close to linear; 1e-3, 1e-2
# and 0.1 take 728, 576 and 473 tilts over the built-ins' and the
# three-symbol model's default rate curves (bisection alone: 2,318)
BISECT_WIDTH = 1e-2
FD_STEP = 1e-4  # pressure_derivative_check's finite-difference step
# PressureFamily starts every tilt of a family of 3..DENSE_START_MAX
# states from a dense eigensolve (and of 2 states from the closed-form
# pair, transfer._two_state_pair).  A 25-tilt pressure curve (2 vCPUs,
# one BLAS thread, min of 7) took with it / with the interpolated start
# 3.8 / 6.7 ms at k = 7 and 5.6-8.9 / 7.3-29.5 ms at k = 16, but
# 8.3-8.9 / 8.1 ms at k = 22, 9.6-10.3 / 7.9-9.3 ms at k = 24 and
# 15.6-15.8 / 6.6-12.0 ms at k = 32
DENSE_START_MAX = 16
LATTICE_TOL = 1e-9  # lattice_parameters' rounding tolerance, relative to the values


def _block_data(mu, *fns):
    """Common block presentation (L, pi, Q, values) carrying every observable
    as a vector over the L-blocks, Q the k x N successor table."""
    require_space(mu, *fns)
    L = max([mu.block_length] + [f.memory for f in fns])
    pi, Q = block_chain(mu, L)
    codes = block_moves(mu.space, L).blocks
    return L, pi, Q, [f.on(codes, L) for f in fns]


def correlation(mu, f, g, n):
    """Exact C_n(f, g) = E[f (g o shift^n)] - E[f] E[g] by pushing the
    f-weighted state distribution n steps along the chain's moves."""
    if n < 0:
        raise ValidationError("lag must be nonnegative")
    L, pi, Q, (fv, gv) = _block_data(mu, f, g)
    moves = block_moves(mu.space, L)
    I, J, q = moves.I, moves.J, moves.gather(Q)
    ef = float(pi @ fv)
    eg = float(pi @ gv)
    w = pi * fv
    for _ in range(n):
        w = np.bincount(J, w[I] * q, len(w))
    return float(w.dot(gv) - ef * eg)


def asymptotic_variance(mu, psi):
    """Variance rate of S_n psi by one resolvent solve on the dense
    k x k Q: with psi centered to c, A Z = Q c for A = I - Q + 1 pi, and
    xi^2 = E[c^2] + 2 E[c Z].  One step of iterative refinement, A dZ =
    Q c - A Z, certifies it: 2 sum |pi c dZ| must be at most
    VARIANCE_TOL.  dZ is not added to Z."""
    L, pi, Q, (pv,) = _block_data(mu, psi)
    moves = block_moves(mu.space, L)
    Q = moves.dense(moves.gather(Q), "resolvent chain")
    c = pv - pi @ pv
    var0 = float(pi @ c**2)
    if var0 == 0.0:
        return 0.0
    A = np.eye(len(pi)) - Q + pi  # pi in every row
    b = Q @ c
    Z = transfer._linear_solve(A, b, "resolvent")
    dZ = np.linalg.solve(A, b - A @ Z)
    bound = 2.0 * float(np.abs(pi * c * dZ).sum())
    if not bound <= VARIANCE_TOL:
        raise SolveFailure(f"resolvent refinement bound {bound!r} exceeds tol {VARIANCE_TOL!r}")
    return var0 + 2.0 * float(pi @ (c * Z))


def cohomology_check(mu, psi):
    """Structural test for xi^2 = 0: the centered observable must be a
    block coboundary, i.e. U(v) = U(u) - psi_hat(u) consistently over
    every edge of the recoded graph.  A spanning-tree assignment fixes
    U; the chords certify or refute.  The edges are the moves with
    Q > 0, in order of source and then target block."""
    L, pi, Q, (pv,) = _block_data(mu, psi)
    c = pv - float(pi @ pv)
    moves = block_moves(mu.space, L)
    keep = moves.gather(Q) > 0
    edges = list(zip(moves.I[keep].tolist(), moves.J[keep].tolist()))
    adj = [[] for _ in pi]
    for i, j in edges:
        adj[i].append((j, -c[i]))  # forward: U(j) = U(i) - c(i)
        adj[j].append((i, +c[i]))  # backward
    U = np.full(len(pi), np.nan)
    U[0] = 0.0
    stack = [0]
    while stack:
        i = stack.pop()
        for j, delta in adj[i]:
            if math.isnan(U[j]):
                U[j] = U[i] + delta
                stack.append(j)
    defect = max(abs(U[j] - (U[i] - c[i])) for i, j in edges)
    degenerate = bool(defect <= 1e-10)
    witness = dict(zip(enumerate_words(mu.space, L), U.tolist())) if degenerate else None
    return {"degenerate": degenerate, "witness": witness, "max_cycle_defect": float(defect)}


class PressureFamily:
    """Tilted family s -> P(phi + s psi) with cached numbers per tilt.

    phi, lifted to the common memory of phi and psi, is built once into
    a system with matrix M, and psi is stored once on its moves as Psi;
    tilt s solves M(s) = M exp(s Psi) entrywise on the same states.  Of
    each solved tilt only (P, Lambda', lambda, h, nu) is kept, Lambda'
    taken from M(s) right after the solve; the variance Lambda'' alone
    forms M(s) again.  No tilted system or Gibbs chain is kept.

    Each tilt's power loop is warm-started.  With k <= DENSE_START_MAX
    states it starts from the Perron pair of M(s) itself, in closed form
    at k = 2 (`transfer._two_state_pair`) and read off one dense
    eigensolve at k >= 3 (`_dense_pair`), so each value depends on s
    alone.  With k > DENSE_START_MAX, and where that pair is no start,
    it starts from the tilts already solved (the
    predictor step of a continuation method): between two of them, from
    the linear interpolation at s of the (h, nu) of the nearest below
    and the nearest above; outside their range, from the nearest one;
    with none solved, from the all-ones vector.  There the last digits
    depend on the order in which the tilts were solved (the same calls
    give the same digits).  Every value is certified to tol by the power
    loop, whatever its start.  A tilt whose solve fails is cached too,
    and re-raises its NoConvergence without iterating again."""

    def __init__(self, space, phi, psi, tol=1e-13):
        self.space = space
        self.phi = phi
        self.psi = psi
        self.tol = tol
        self._cache = {}  # s -> (P, Lambda', lambda, h, nu), or its NoConvergence
        self._solved = []  # sorted tilts whose (h, nu) can start a solve
        self._T = transfer.build(space, affine_combine(phi, psi, 0.0))
        ell = self._T.block_length
        moves = block_moves(space, ell)
        self._Psi = moves.dense(psi.on(moves.words, ell + 1), "transfer matrix")
        self._p0 = self._solve(0.0)[0]

    def _tilt(self, s):
        """M(s) = M exp(s Psi), entrywise."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self._T.matrix * np.exp(s * self._Psi)

    def _solve(self, s):
        if s not in self._cache:
            T = replace(self._T, matrix=self._tilt(s))
            try:
                E = transfer.dominant_eigendata(T, tol=self.tol, start=self._start(s, T.matrix))
            except NoConvergence as exc:
                self._cache[s] = exc
                raise
            slope = float(E.h @ (T.matrix * self._Psi) @ E.nu / E.lambda_)
            self._cache[s] = (E.pressure, slope, E.lambda_, E.h, E.nu)
            # a tilt whose matrix underflowed to zero rows is no start
            if (E.h > 0).all() and (E.nu > 0).all():
                bisect.insort(self._solved, s)
        hit = self._cache[s]
        if isinstance(hit, NoConvergence):
            raise hit
        return hit

    def _start(self, s, M):
        """(h, nu) to start tilt s, whose matrix is M, or None for the
        all-ones start (see the class docstring)."""
        k = len(M)
        pair = (transfer._two_state_pair(M) if k == 2
                else _dense_pair(M) if k <= DENSE_START_MAX else None)
        if pair is not None:
            return pair
        solved = self._solved
        if not solved:
            return None
        i = bisect.bisect(solved, s)
        if i in (0, len(solved)):
            return self._cache[solved[max(i - 1, 0)]][3:]
        a, b = solved[i - 1], solved[i]
        (*_, ha, na), (*_, hb, nb) = self._cache[a], self._cache[b]
        w = (s - a) / (b - a)
        return (1.0 - w) * ha + w * hb, (1.0 - w) * na + w * nb

    def pressure(self, s):
        return self._solve(s)[0]

    def cumulant(self, s):
        return self.pressure(s) - self._p0

    def mean(self, s):
        """Lambda'(s) = h^T (M(s) * Psi) nu / lambda, taken at the solve:
        the tilted Gibbs measure gives the move u -> w mass h(u) M(s)[u, w] nu(w) / lambda."""
        return self._solve(s)[1]

    def variance(self, s):
        """Lambda''(s), the tilted asymptotic variance, by second-order
        perturbation of lambda along Psi_c = Psi - Lambda'(s): with
        MP = M(s) * Psi_c and (lambda I - M(s) + nu h^T) x = MP nu,
        Lambda'' = (h^T (MP * Psi_c) nu + 2 h^T MP x) / lambda."""
        _, _, lam, h, nu = self._solve(s)
        M = self._tilt(s)
        Psi_c = self._Psi - self.mean(s)
        MP = M * Psi_c  # zero off the moves, as M(s) is
        A = lam * np.eye(len(h)) - M + np.outer(nu, h)
        x = transfer._linear_solve(A, MP @ nu, f"tilted variance (s = {s:g})")
        return float((h @ (MP * Psi_c) @ nu + 2.0 * h @ MP @ x) / lam)


def _dense_pair(M):
    """(h, nu) of M's Perron pair from one dense eigensolve of the stack
    (M.T, M): in each half the eigenvector of the eigenvalue of largest
    real part, as absolute values, nu scaled to sum 1.  None where eig
    fails or the pair is not finite and strictly positive."""
    with np.errstate(all="ignore"):
        try:
            w, v = np.linalg.eig(np.stack((M.T, M)))
        except np.linalg.LinAlgError:  # a non-finite M(s), or no convergence
            return None
        P = np.abs(v[[0, 1], :, w.real.argmax(axis=1)])
        P[1] /= P[1].sum()
    if not (0 < P.min() and P.max() < math.inf):
        return None
    return P[0], P[1]


@dataclass(frozen=True)
class RateFunctionPoint:
    t: float
    s_star: float
    rate: float
    cumulant_at_s_star: float


def rate_function(space, phi, psi, t, family=None):
    """Legendre point I(t) = s* t - Lambda(s*) where Lambda'(s*) = t.

    Lambda' is increasing (strictly unless psi is cohomologous to a
    constant), so an outward-expanding bracket followed by bisection
    converges globally.  The bracket grows lazily from [-1, 1] up to
    [-S_MAX, S_MAX]: extreme tilts can be spectrally degenerate (the
    tilted chain approaches a periodic orbit and the gap closes), so
    they are only solved when t really lies that far out in the range
    of the mean.

    The root is found in two phases, one tilted solve per step.  While
    the bracket is wider than BISECT_WIDTH relative to its ends, each
    step takes its midpoint.  Inside a narrower bracket each step takes
    the false-position point of (lo, Lambda'(lo) - t) and (hi,
    Lambda'(hi) - t), halving the residual of an end kept twice in a
    row (the Illinois rule of Dowell and Jarratt, BIT 11, 1971), and
    falls back to the midpoint when that point is not strictly inside
    the bracket or the residuals do not strictly straddle 0.
    """
    fam = family or PressureFamily(space, phi, psi)
    level = 1.0
    while True:
        lo, hi = -level, level
        try:
            mlo, mhi = fam.mean(lo), fam.mean(hi)
        except NoConvergence as exc:
            raise OutOfRange(
                f"cannot certify t={t:g}: tilted solve at |s|={level:g} is "
                f"near-degenerate ({exc})"
            )
        if mlo <= t <= mhi:
            break
        if level >= S_MAX:
            raise OutOfRange(
                f"t={t:g} outside attainable mean range [{mlo:g}, {mhi:g}]"
            )
        level = min(2.0 * level, S_MAX)
    scale = max(abs(mlo), abs(mhi), 1.0)
    flo, fhi = mlo - t, mhi - t
    kept = None  # the end that the last false-position step kept
    for _ in range(200):
        s, falsi = 0.5 * (lo + hi), False
        if hi - lo <= BISECT_WIDTH * max(1.0, abs(lo), abs(hi)) and flo < 0.0 < fhi:
            fp = lo - flo * (hi - lo) / (fhi - flo)
            if lo < fp < hi:
                s, falsi = fp, True
        ms = fam.mean(s)
        if abs(ms - t) <= 1e-12 * scale:
            break
        if ms < t:
            if falsi and kept == "hi":
                fhi *= 0.5  # kept twice in a row: the Illinois rule
            lo, flo, kept = s, ms - t, "hi" if falsi else None
        else:
            if falsi and kept == "lo":
                flo *= 0.5
            hi, fhi, kept = s, ms - t, "lo" if falsi else None
        if hi - lo <= 1e-13 * max(1.0, abs(s)):
            break
    lam_s = fam.cumulant(s)
    rate = s * t - lam_s
    if abs(rate) < 1e-14:
        rate = abs(rate)
    return RateFunctionPoint(t=float(t), s_star=float(s), rate=float(rate),
                             cumulant_at_s_star=float(lam_s))


def pressure_derivative_check(space, phi, psi, family=None):
    """Central finite differences of the tilted pressure at 0, with step
    FD_STEP, against the analytic mean and variance."""
    fam = family or PressureFamily(space, phi, psi)
    p_plus, p_minus, p0 = fam.pressure(FD_STEP), fam.pressure(-FD_STEP), fam.pressure(0.0)
    fd1 = (p_plus - p_minus) / (2.0 * FD_STEP)
    fd2 = (p_plus - 2.0 * p0 + p_minus) / FD_STEP**2
    mean = fam.mean(0.0)
    var = fam.variance(0.0)
    return {
        "step": FD_STEP,
        "fd_first": fd1,
        "analytic_first": mean,
        "first_error": abs(fd1 - mean),
        "fd_second": fd2,
        "analytic_second": var,
        "second_error": abs(fd2 - var),
    }


@dataclass(frozen=True)
class LatticeDistribution:
    """Exact law of S_n psi on the lattice n*offset + span*Z.

    probs[j] is the probability of the point value(j) = n*offset +
    span*indices[j]."""

    n: int
    offset: float
    span: float
    indices: np.ndarray
    probs: np.ndarray

    @property
    def values(self):
        return self.n * self.offset + self.span * self.indices

    def mean(self):
        return float(self.values @ self.probs)

    def variance(self):
        v = self.values
        m = self.mean()
        return float(self.probs @ (v - m) ** 2)


def lattice_parameters(values):
    """Offset and span of the smallest lattice containing `values`.

    The span is the real gcd of the differences (Euclid with rounding
    tolerance); raises NotLattice when the values are incommensurable.
    Constant observables get span 1 by convention.
    """
    vals = sorted(set(float(v) for v in values))
    a = vals[0]
    diffs = [v - a for v in vals[1:]]
    if not diffs:
        return a, 1.0
    g = diffs[0]
    scale = max(abs(v) for v in vals) + max(diffs)
    for d in diffs[1:]:
        g = _real_gcd(g, d, LATTICE_TOL * max(1.0, scale))
    # a true span sits far above the rounding floor; an incommensurable
    # Euclid residue lands at the tolerance scale
    if g < 1e3 * LATTICE_TOL * max(1.0, scale):
        raise NotLattice("observable values are not commensurable within tolerance")
    for v in vals:
        k = round((v - a) / g)
        if abs(v - (a + k * g)) > LATTICE_TOL * max(1.0, scale):
            raise NotLattice(f"value {v} is off-lattice for span {g}")
    return a, g


def _real_gcd(x, y, tol):
    x, y = abs(x), abs(y)
    while y > tol:
        x, y = y, x - y * math.floor(x / y)
    return x


def _overlap_layout(space, Q, L):
    """The successor table Q on L-blocks as a stack W of per-overlap
    blocks, with the table row of each state.

    A move u = (c, w) -> v = (w, b) exists only on an (L - 1)-symbol
    overlap w, so over all S = N**(L - 1) overlap codes w, W[w, b, c] =
    Q[u, b]; overlaps and (overlap, symbol) pairs of no state get zero
    entries.  The product reads row c*S + w as (w, c) and writes row
    w*N + b as (w, b), and both are L-block codes, of u and of v, so each
    state's row, input and output alike, is its code.  When the S*N*N
    entries are no fewer than k*k (L = 1, sparse many-symbol shifts) the
    one group W[0], the dense Q's transpose over the states in their own
    order, is used, and each state's row is its position."""
    N, k = space.alphabet_size, len(Q)
    moves = block_moves(space, L)
    S = N ** (L - 1)
    if S * N * N >= k * k:
        return moves.dense(moves.gather(Q), "transition matrix").T[None], np.arange(k)
    words = moves.words
    W = np.zeros((S, N, N))
    W[words // N % S, words % N, words // N**L] = moves.gather(Q)
    return W, moves.blocks


def exact_birkhoff_distribution(mu, psi, n):
    """Exact law of S_n psi by dynamic programming over
    (state, accumulated lattice index).

    table[u, x] is the probability of sitting in state u with the
    lattice indices summed so far, u's own included, equal to x, u's row
    given by `_overlap_layout`.  Each step is one batched product over
    the block graph's overlaps into a second table, which reads and
    writes the same row order, followed by a shift of the rows of each
    nonzero index j by j (see `_shifted_rows`); then the two tables
    swap."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    L, pi, Q, (pv,) = _block_data(mu, psi)
    a, b = lattice_parameters(pv)
    idx = np.array([round((v - a) / b) for v in pv], dtype=np.int64)
    span_idx = int(idx.max())
    width = n * span_idx + 1
    if n * width > DP_CELL_CAP:
        raise SizeGuard(f"DP table of {n * width} cells exceeds cap {DP_CELL_CAP}")
    W, rows = _overlap_layout(mu.space, Q, L)
    S, R, _ = W.shape
    table, spare = np.zeros((S * R, width)), np.zeros((S * R, width))
    table[rows, idx] = pi
    shifted = _shifted_rows(rows, idx, S * R)
    for t in range(1, n):
        used = t * span_idx + 1
        x = table.reshape(R, S, width)[:, :, :used].transpose(1, 0, 2)
        np.matmul(W, x, out=spare.reshape(S, R, width)[:, :, :used])
        # the product writes [0, used) of every row, and this table was
        # last written below used - span_idx: only the shift's gap is cleared
        for j, r in shifted:
            spare[r, j : j + used] = spare[r, :used]
            spare[r, :j] = 0.0
        table, spare = spare, table
    out = table[rows].sum(axis=0)  # over the states in their own order
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


def _shifted_rows(rows, idx, size):
    """(j, r) pairs whose table rows r hold every state of nonzero
    lattice index j.  r is a slice over a maximal run of rows of one
    index where there are at most two runs per index, and otherwise one
    index array per j: a slice copy is cheaper than a fancy index, but
    not than many of them (the full 4-shift with a memory-5 observable
    has 267 runs of one index).  A row of no state is zero in every
    column a step reads, so it joins the run before it."""
    shift = idx[np.maximum(np.searchsorted(rows, np.arange(size), side="right") - 1, 0)]
    edges = np.flatnonzero(np.diff(shift)) + 1
    runs = [(int(shift[r0]), slice(int(r0), int(r1)))
            for r0, r1 in zip(np.r_[0, edges], np.r_[edges, size]) if shift[r0]]
    indices = np.unique(idx[idx > 0])
    if len(runs) <= 2 * len(indices):
        return runs
    return [(int(j), rows[idx == j]) for j in indices]


def _norm_cdf(z):
    return np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z])


def clt_diagnostics(dist, mean, xi2):
    """Kolmogorov distance of the standardized exact law to the normal,
    evaluated on both sides of every atom, and its sqrt(n) multiple."""
    if xi2 <= 0.0:
        raise DegenerateVariance("asymptotic variance must be positive")
    n = dist.n
    z = (dist.values - n * mean) / math.sqrt(xi2 * n)
    cdf = np.cumsum(dist.probs)
    gauss = _norm_cdf(z)
    ks = float(np.max(np.maximum(np.abs(cdf - gauss),
                                 np.abs(np.concatenate(([0.0], cdf[:-1])) - gauss))))
    return {"n": n, "ks": ks, "be_constant": ks * math.sqrt(n)}


def local_limit_check(dist, mean, xi2):
    """Max pointwise gap in the lattice Gaussian approximation
    xi sqrt(n) P(S_n = v) ~ (b / sqrt(2 pi)) exp(-(v - n mean)^2 / (2 n xi^2))."""
    if xi2 <= 0.0:
        raise DegenerateVariance("asymptotic variance must be positive")
    n = dist.n
    xi = math.sqrt(xi2)
    keep = dist.probs > 0.0
    v = dist.values[keep]
    p = dist.probs[keep]
    gauss = dist.span / math.sqrt(2.0 * math.pi) * np.exp(
        -((v - n * mean) ** 2) / (2.0 * n * xi2)
    )
    return float(np.max(np.abs(xi * math.sqrt(n) * p - gauss)))


def _mean_range(space, psi):
    """(min, max) of psi's mean over the shift-invariant measures: the
    extreme mean weights of the cycles of psi's block graph, with psi on
    each move (Jenkinson, ETDS 39, 2019).  The maximum is Karp's maximum
    mean cycle (Discrete Math. 23, 1978), max over blocks v of min over
    n < k of (D_k(v) - D_n(v)) / (k - n), D_n(v) the heaviest n-move
    walk ending at v, by (max,+) steps; the minimum is the negated
    maximum of -psi.  On a mixing shift every D_n is finite.  D_k is
    found first, so that the D_n are stepped through again, not kept."""
    ell, (blocks, I, J, words) = transfer.block_graph(space, psi)
    k = len(blocks)

    def max_mean(w):
        last = np.zeros(k)
        for _ in range(k):
            last = transfer._tropical_step(last, I, J, w, np.fmax, k)
        D, best = np.zeros(k), np.full(k, np.inf)
        for n in range(k):
            best = np.minimum(best, (last - D) / (k - n))
            D = transfer._tropical_step(D, I, J, w, np.fmax, k)
        return float(best.max())

    w = psi.on(words, ell + 1)
    return -max_mean(-w), max_mean(w)


def ldp_empirical(dists, interval, rate_oracle, gibbs_mean):
    """Empirical decay rates -(1/n) log P(S_n/n in [a, b]) against the
    rate-function infimum over the closed interval.

    Boundary atoms count as inside.  Zero-probability events are
    recorded per n, not fatal.  Convexity with minimum at the Gibbs
    mean reduces the infimum to the clamped endpoint.
    """
    a, b = interval
    if a > b:
        raise ValidationError("interval must be ordered")
    t_star = min(max(gibbs_mean, a), b)
    inf_rate = 0.0 if t_star == gibbs_mean else rate_oracle(t_star)
    rows = []
    for dist in dists:
        n = dist.n
        lev = dist.values / n
        slack = 1e-12 * max(1.0, abs(a), abs(b))
        p = float(dist.probs[(lev >= a - slack) & (lev <= b + slack)].sum())
        if p == 0.0:
            rows.append({"n": n, "probability": 0.0, "empirical_rate": None,
                         "inf_rate": inf_rate, "gap": None, "zero_probability": True})
        else:
            rate = -math.log(p) / n
            rows.append({"n": n, "probability": p, "empirical_rate": rate,
                         "inf_rate": inf_rate, "gap": rate - inf_rate,
                         "zero_probability": False})
    return rows
