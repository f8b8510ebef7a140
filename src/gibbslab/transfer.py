"""Finite transfer matrix for a finite-memory potential.

A memory-m potential acts exactly on functions of the leading
l = max(m-1, 1) coordinates, so after higher-block recoding the
weighted preimage-sum operator is a finite positive matrix and the
dominant eigendata are computed without discretization error.

Matrix orientation: entry [u, w] weighs the recoded move u -> w, i.e.
rows are preimage blocks.  The operator acting on functions is the
transpose, so the eigenfunction h solves matrix.T @ h = lambda h and
the eigenmeasure nu solves matrix @ nu = lambda nu.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cone
from .errors import NoConvergence, SolveFailure, ValidationError
from .potential import holder_seminorm, or_inf, total_variation
from .shift_space import block_moves, check_cap, enumerate_words

DEFAULT_TOL = 1e-12
MAX_ITER = 2 * 10**5
BLOCK = 64  # most power iterations computed before their residuals are tested


@dataclass(frozen=True, eq=False)
class TransferSystem:
    space: object
    potential: object
    block_length: int
    states: tuple
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def state_count(self):
        return len(self.states)


@dataclass(frozen=True, eq=False)
class EigenData:
    """Dominant eigendata of a transfer system.

    h is normalized so nu(h) = 1 and nu sums to 1; min_h records min(h)
    for the min-h = 1 convention, and ess_radius_bound is alpha * lambda.
    matrix is the solved transfer matrix itself, not a copy.
    """

    lambda_: float
    pressure: float
    h: np.ndarray
    nu: np.ndarray
    min_h: float
    ess_radius_bound: float
    residual_h: float
    residual_nu: float
    iterations: int
    matrix: np.ndarray = field(repr=False)

    @cached_property
    def gap_ratio(self):
        """|second eigenvalue| / lambda, from one dense eigenvalue solve
        of matrix made on the first read and kept."""
        return float(np.sort(np.abs(np.linalg.eigvals(self.matrix)))[-2] / self.lambda_)


def block_graph(space, phi):
    """(l, *block_moves(space, l)) at phi's l = max(m-1, 1), capped for a dense k x k matrix."""
    ell = max(phi.memory - 1, 1)
    blocks, I, J, words = block_moves(space, ell)
    check_cap(len(blocks) ** 2, f"{len(blocks)}x{len(blocks)} transfer matrix")
    return ell, blocks, I, J, words


def build(space, phi):
    """Assemble the transfer matrix of phi on l-block states.

    Entry (u -> w) is exp(phi evaluated on the first m symbols of the
    (l+1)-word made of u's leading symbol followed by w); a value whose
    exp overflows is a ValidationError naming its word.
    """
    if not phi.space.same_as(space):
        raise ValidationError("potential is not defined on this shift space")
    ell, blocks, I, J, words = block_graph(space, phi)
    k = len(blocks)
    M = np.zeros((k, k))
    try:
        M[I, J] = [math.exp(v) for v in phi.on(words, ell + 1).tolist()]
    except OverflowError:
        # every memory-word starts a move, and moves run in word order
        w = max(sorted(phi.values), key=phi)
        raise ValidationError(f"exp(phi) overflows at word {w!r} (phi = {phi(w):g})")
    return TransferSystem(space, phi, ell, tuple(enumerate_words(space, ell)), M)


def dominant_eigendata(T, tol=DEFAULT_TOL, start=None):
    """Power iteration for (lambda, h, nu).

    The loop starts from start = (h, nu), a pair of finite positive
    vectors of length k with nu summing to 1, or from h = ones and
    nu = 1/k when start is None.  It stops when both residuals
    max|M.T h - lambda h| and the l1 residual of nu fall below
    tol * lambda, whatever the start, so a start changes the iteration
    count and the last digits of the answer, never its certificate.
    Primitivity guarantees convergence at the spectral-gap rate; the
    MAX_ITER cap signals a nearly degenerate gap, and a non-finite
    lambda estimate or residual fails at the iteration it appears.
    The loop's future depends only on the products (M nu, M.T h), so
    the pair saved at each power-of-two iteration is compared with
    every later pair whose residuals equal the saved ones; a repeat
    means no later iteration can meet the tolerance, and the solve
    fails there, naming the period (Brent's cycle detection).
    lambda is at least the smallest row sum of M, so a matrix whose
    smallest row sum overflows fails before the first iteration.

    The iterates are computed a block at a time and the block's
    residuals tested together; the rule above is applied to them in
    iteration order, so the solve stops at the same iteration with the
    same bits, and the iterates computed past it are discarded.  The
    first block is one iteration; each later one is as long as the
    previous block's residual decrease says is still needed, at most
    BLOCK, and ends at the next power of two, so the saved pair is
    always a block's last row.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    M, MT = T.matrix, T.matrix.T
    k = T.state_count
    # row i: the state (nu, h) of a block's (i+1)-th iteration and its
    # products (M nu, M.T h), with the lambda estimate in lams[i]; the
    # start and its products go in row 0
    buf = np.empty((BLOCK, 2, 2, k))
    lams = np.empty((BLOCK, 1, 1))
    R = np.empty((BLOCK, 2, k))
    nu, h = P = buf[0, 0]
    if start is None:
        nu[:], h[:] = 1.0 / k, 1.0
    else:
        shapes = [np.shape(v) for v in start]
        if shapes != [(k,), (k,)]:
            raise ValidationError(f"start vectors have shapes {shapes}, expected ({k},)")
        h[:], nu[:] = start
        if not (0 < P.min() and P.max() < math.inf):
            raise ValidationError("start vector entries must be finite and positive")
    if not np.isfinite(M).all():
        raise NoConvergence("eigendata: the transfer matrix has non-finite entries")
    # row i as (lambda, nu, h, M nu, M.T h) views, made when a block first reaches it
    rows = [(lams[0, 0, 0, ...], nu, h, *buf[0, 1])]
    Mnu, Mh = rows[0][3:]
    # overflow in a product shows up as a non-finite estimate, checked
    # below; a block's iterations past a non-finite one are discarded
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        floor = M.sum(axis=1).min()
        if not math.isfinite(floor):
            raise NoConvergence(
                "eigendata: lambda is at least the smallest row sum of the transfer "
                f"matrix, which is {floor}, so lambda is not representable")
        np.dot(M, nu, out=Mnu)
        np.dot(MT, h, out=Mh)
        last, want, excess, done = 0, 1, None, False
        while not done:
            if last == MAX_ITER:
                raise NoConvergence(
                    f"eigendata residuals above {tol:g}*lambda after {MAX_ITER} iterations")
            first, last = last + 1, min(last + want, 1 << last.bit_length(), MAX_ITER)
            n = last - first + 1
            while len(rows) < n:
                i = len(rows)
                rows.append((lams[i, 0, 0, ...], *buf[i, 0], *buf[i, 1]))
            # an iteration reads the products of the one before, which for
            # a block's first is the last block's last row, or the start
            for lam, nu, h, Mnu_next, Mh_next in rows[:n]:
                # nu is a probability vector, so this estimates lambda
                # (np.add.reduce is ndarray.sum without its Python wrapper)
                np.add.reduce(Mnu, out=lam)
                np.divide(Mnu, lam, out=nu)
                np.divide(Mh, nu.dot(Mh), out=h)
                Mnu, Mh = Mnu_next, Mh_next
                np.dot(M, nu, out=Mnu)
                np.dot(MT, h, out=Mh)
            block, res = buf[:n], R[:n]
            np.multiply(block[:, 0], lams[:n], out=res)
            np.subtract(block[:, 1], res, out=res)
            np.absolute(res, out=res)
            for iters, lam, res_h, res_nu in zip(
                    range(first, last + 1), lams[:n, 0, 0].tolist(),
                    np.maximum.reduce(res[:, 1], axis=1).tolist(),
                    np.add.reduce(res[:, 0], axis=1).tolist()):
                if res_h <= tol * lam and res_nu <= tol * lam:
                    done = True
                    break
                # a non-finite lambda makes res_nu NaN, and NaN never turns finite
                if not math.isfinite(res_h + res_nu):
                    raise NoConvergence(
                        f"eigendata: lambda estimate {lam}, residuals {res_h} (h) and "
                        f"{res_nu} (nu) at iteration {iters}")
                if iters & (iters - 1) == 0:  # a power of two ends its block
                    saved = iters, res_h, res_nu, block[-1, 1].copy()
                elif (res_h == saved[1] and res_nu == saved[2]
                      and np.array_equal(block[iters - first, 1], saved[3])):
                    raise NoConvergence(
                        f"eigendata: residuals {res_h:.2g} (h) and {res_nu:.2g} (nu) "
                        f"above {tol:g}*lambda repeat from iteration {saved[0]} "
                        f"(period {iters - saved[0]})")
            if not done:
                want, excess = _block_length(n, excess, max(res_h, res_nu), tol * lam)
    nu, h = block[iters - first, 0]
    nu = nu.copy()
    h = h / (nu @ h)
    alpha = T.potential.alpha
    return EigenData(
        lambda_=lam,
        pressure=float(np.log(lam)),
        h=h,
        nu=nu,
        min_h=float(h.min()),
        ess_radius_bound=float(alpha * lam),
        residual_h=float(np.abs(MT @ h - lam * h).max()),
        residual_nu=float(np.abs(M @ nu - lam * nu).sum()),
        iterations=iters,
        matrix=M,
    )


def _block_length(n, before, residual, threshold):
    """(iterations, excess) for the next block of the power loop.

    excess is log(residual / threshold), how far the last iteration's
    larger residual is above its tolerance (inf if the threshold
    underflowed).  The iterations, in [1, BLOCK], bring it to 0 if it
    keeps falling at its mean rate over the last n iterations, from
    `before` (None after the first block); BLOCK when it did not fall.
    """
    excess = math.log(residual) - math.log(threshold) if threshold > 0 else math.inf
    if before is None or not before > excess:
        return BLOCK, excess
    return min(BLOCK, max(1, math.ceil(n * excess / (before - excess)))), excess


def spectral_gap(T, eigendata):
    """Ratio of the second eigenvalue modulus to lambda, as T's
    eigendata carry it: solved on the first read of
    eigendata.gap_ratio and kept."""
    return eigendata.gap_ratio


def normalized_operator(T, eigendata):
    """Row-stochastic forward kernel Q of the Gibbs chain and its
    stationary vector pi = h * nu (sums to one under nu(h) = 1).

    With rows indexed by the preimage block, peeling one symbol off an
    (l+1)-cylinder gives mu([u0 w]) = h(u) entry(u -> w) nu(w) / lambda,
    so Q(u -> w) = entry(u -> w) nu(w) / (lambda nu(u)); row sums are
    (M nu)(u) / (lambda nu(u)) = 1 exactly.
    """
    lam, h, nu = eigendata.lambda_, eigendata.h, eigendata.nu
    Q = T.matrix * nu[None, :] / (lam * nu[:, None])
    pi = h * nu
    return Q, pi


def _linear_solve(A, b, what):
    """x with A x = b; a singular A or non-finite x is a SolveFailure."""
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"{what} system is singular: {exc}")
    if not np.all(np.isfinite(x)):
        raise SolveFailure(f"{what} solve produced non-finite entries")
    return x


def pressure_via_partition(space, phi, n):
    """(1/n) log of the partition sum over admissible n-words, taking
    on each cylinder the exact maximum of the length-n Birkhoff sum
    over all admissible (m-1)-symbol continuations: a path of n moves
    on L-blocks, L = max(m-1, 1), each adding phi.  A backward (max,+)
    pass over the last min(n, L) moves meets a rescaled forward
    sum-product over the others in one log-sum-exp.
    """
    if n < 1:
        raise ValidationError("n must be at least 1")
    L = max(phi.memory - 1, 1)
    blocks, I, J, words = block_moves(space, L)
    k = len(blocks)
    phis = phi.on(words, L + 1)
    tail = np.zeros(k)
    for _ in range(min(n, L)):
        tail = _tropical_step(tail, J, I, phis, np.fmax, k)
    f, log_scale = np.ones(k), 0.0
    for _ in range(n - L):
        f = np.bincount(J, weights=f[I] * np.exp(phis), minlength=k)
        log_scale += math.log(f.max())
        f /= f.max()
    terms = (np.log(f) + tail if n >= L
             else _by_prefix(tail, blocks // space.alphabet_size ** (L - n), np.fmax))
    # factor out the max before exponentiating to keep the sum stable
    best = terms.max()
    return (log_scale + best + math.log(np.exp(terms - best).sum())) / n


def _tropical_step(v, src, dst, weights, op, k):
    """One (min,+) or (max,+) step, op being np.fmin or np.fmax:
    out[d] = op over moves s -> d of v[s] + weight, NaN marking no
    path in v and in out.  Swapping src and dst steps backward."""
    out = np.full(k, np.nan)
    op.at(out, dst, v[src] + weights)
    return out


def _by_prefix(v, prefix, op):
    """Reduce v over the states of each prefix code, in code order (np.add
    sums in state order, np.fmin/np.fmax take extremes)."""
    keys, ids = np.unique(prefix, return_inverse=True)
    out = np.zeros(len(keys)) if op is np.add else np.full(len(keys), np.nan)
    op.at(out, ids, v)
    return out


def constants_report(space, phi, alpha, eigendata):
    """Explicitly computable constants attached to the spectral data.

    B_m uses only variations beyond scale m (all zero past the memory);
    B0_geometric uses the geometric envelope var_k <= |phi|_alpha
    alpha**k; K is the cone diameter bound lambda**M exp(M sup|phi|)
    B0_geometric.  A bound too large for a float is reported as inf;
    entries that would need the unavailable Bowen-lemma coefficients
    are reported as not computed.
    """
    M = space.mixing_time
    lam = eigendata.lambda_
    bm = {}
    for m in range(phi.memory + 1):
        tail = sum(2.0 * v for v in phi.variations[m + 1 :])
        bm[m] = or_inf(math.exp, tail)
    halpha = holder_seminorm(phi, alpha)
    b0_geom = or_inf(math.exp, 2.0 * halpha * alpha / (1.0 - alpha))
    K = or_inf(pow, lam, M) * or_inf(math.exp, M * phi.sup_norm) * b0_geom
    cc = cone.cone_constants(space, phi)
    return {
        "mixing_time": M,
        "var_total": total_variation(phi),
        "holder_seminorm": halpha,
        "sup_norm": phi.sup_norm,
        "B_m": bm,
        "B0_geometric": b0_geom,
        "K": K,
        "ess_radius_bound": alpha * lam,
        "cone_delta_prime": cc.delta_prime,
        "cone_n0": cc.n0,
        "cone_kappa_at_2delta": cc.kappa(2.0 * cc.delta_prime) if cc.delta_prime > 0 else 0.0,
        "eta": "not computed",
        "convergence_constant": "not computed",
    }
