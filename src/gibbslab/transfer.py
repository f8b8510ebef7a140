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
from .shift_space import block_moves, enumerate_words

DEFAULT_TOL = 1e-12
MAX_ITER = 2 * 10**5
# _perron_pair reads the Perron pair of a matrix of up to DENSE_START_MAX
# states off one dense eigensolve (at 2 states, in closed form), and a
# tilted family starts each tilt from it.  A 25-tilt pressure curve
# (2 vCPUs, one BLAS thread, min of 7) took with it / with the
# interpolated start 3.8 / 6.7 ms at k = 7 and 5.6-8.9 / 7.3-29.5 ms at
# k = 16, but 8.3-8.9 / 8.1 ms at k = 22, 9.6-10.3 / 7.9-9.3 ms at k = 24
# and 15.6-15.8 / 6.6-12.0 ms at k = 32
DENSE_START_MAX = 16


@dataclass(frozen=True, eq=False)
class TransferSystem:
    """The transfer matrix of potential on the admissible l-blocks of
    space, l = block_length, its states in `enumerate_words` order."""

    space: object
    potential: object
    block_length: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @cached_property
    def states(self):
        return tuple(enumerate_words(self.space, self.block_length))

    @property
    def state_count(self):
        return self.matrix.shape[0]


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
    """(l, block_moves(space, l)) at phi's l = max(m-1, 1): the states
    and moves of phi's transfer matrix, uncapped until made dense."""
    ell = max(phi.memory - 1, 1)
    return ell, block_moves(space, ell)


def build(space, phi):
    """Assemble the transfer matrix of phi on l-block states.

    Entry (u -> w) is exp(phi evaluated on the first m symbols of the
    (l+1)-word made of u's leading symbol followed by w); a value whose
    exp overflows is a ValidationError naming its word.
    """
    if not phi.space.same_as(space):
        raise ValidationError("potential is not defined on this shift space")
    ell, moves = block_graph(space, phi)
    try:
        weights = [math.exp(v) for v in phi.on(moves.words, ell + 1).tolist()]
    except OverflowError:
        # every memory-word starts a move, and moves run in word order
        w = max(sorted(phi.values), key=phi)
        raise ValidationError(f"exp(phi) overflows at word {w!r} (phi = {phi(w):g})")
    return TransferSystem(space, phi, ell, moves.dense(weights, "transfer matrix"))


def dominant_eigendata(T, tol=DEFAULT_TOL, start=None):
    """Power iteration for (lambda, h, nu).

    The loop starts from start = (h, nu), a pair of finite positive
    vectors of length k with nu summing to 1, or from h = ones and
    nu = 1/k when start is None.  Only here is a start defaulted and
    checked; the loops take the resolved pair as Python floats.  It
    stops when both residuals max|M.T h - lambda h| and the l1 residual
    of nu fall below tol * lambda, whatever the start, so a start
    changes the iteration count and the last digits of the answer,
    never its certificate.
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

    A two-state matrix is solved on Python floats, each product entry
    and dot product the two-rounding sum a*x0 + b*x1 (_two_state_loop);
    every larger one on numpy arrays (_array_loop).  Both test the
    residuals after every iteration, with the same checks and messages.
    """
    if not 0 < tol < math.inf:
        raise ValidationError(f"tolerance must be positive and finite, got {tol!r}")
    k = T.state_count
    if start is None:
        start = [1.0] * k, [1.0 / k] * k
    else:
        start = [np.asarray(v, dtype=float) for v in start]
        shapes = [v.shape for v in start]
        if shapes != [(k,), (k,)]:
            raise ValidationError(f"start vectors have shapes {shapes}, expected ({k},)")
        start = [v.tolist() for v in start]
        # each entry compared as a Python float: a NaN fails wherever it sits
        if not all(0 < x < math.inf for v in start for x in v):
            raise ValidationError("start vector entries must be finite and positive")
    return (_two_state_loop if k == 2 else _array_loop)(T, tol, start)


def _array_loop(T, tol, start):
    """dominant_eigendata's loop on numpy arrays from the resolved
    start = (h, nu), testing the residuals after every iteration as
    _two_state_loop does.

    Every iteration writes into three (2, k) arrays made once: the
    state P = (nu, h), its products MP = (M nu, M.T h), which the next
    iteration reads, and the residuals R = |MP - lambda P|.
    """
    M, MT = T.matrix, T.matrix.T
    k = T.state_count
    P, MP, R = np.empty((3, 2, k))
    (nu, h), (Mnu, Mh), (R_nu, R_h) = P, MP, R
    h[:], nu[:] = start
    # overflow in a product shows up as a non-finite estimate, checked below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _check_matrix(np.isfinite(M).all(), M.sum(axis=1).min())
        np.dot(M, nu, out=Mnu)
        np.dot(MT, h, out=Mh)
        for iters in range(1, MAX_ITER + 1):
            # nu is a probability vector, so this estimates lambda
            # (np.add.reduce is ndarray.sum without its Python wrapper)
            lam = np.add.reduce(Mnu)
            np.divide(Mnu, lam, out=nu)
            np.divide(Mh, nu.dot(Mh), out=h)
            np.dot(M, nu, out=Mnu)
            np.dot(MT, h, out=Mh)
            np.multiply(P, lam, out=R)
            np.subtract(MP, R, out=R)
            np.absolute(R, out=R)
            res_nu = np.add.reduce(R_nu)
            res_h = np.maximum.reduce(R_h)
            if res_h <= tol * lam and res_nu <= tol * lam:
                break
            # a non-finite lambda makes res_nu NaN, and NaN never turns finite
            if not math.isfinite(res_h + res_nu):
                raise _no_convergence(tol, iters, lam, res_h, res_nu)
            if iters & (iters - 1) == 0:  # a power of two
                saved = iters, res_h, res_nu, MP.copy()
            elif res_h == saved[1] and res_nu == saved[2] and np.array_equal(MP, saved[3]):
                raise _no_convergence(tol, iters, lam, res_h, res_nu, since=saved[0])
        else:
            raise _no_convergence(tol, MAX_ITER)
    nu = nu.copy()
    h = h / (nu @ h)
    lam = float(lam)
    return _eigendata(T, lam, h, nu, float(h.min()), float(np.abs(MT @ h - lam * h).max()),
                      float(np.abs(M @ nu - lam * nu).sum()), iters)


def _two_state_loop(T, tol, start):
    """dominant_eigendata's loop for a 2 x 2 matrix [[a, b], [c, d]] on
    Python floats from the resolved start = (h, nu), two pairs of
    Python floats, testing the residuals after every iteration.

    Python raises on a zero divisor where numpy gives inf or NaN, so
    such quotients are taken by numpy and the residual test fails on
    them.
    """
    (h0, h1), (n0, n1) = start
    (a, b), (c, d) = T.matrix.tolist()
    finite = math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)
    _check_matrix(finite, min(a + b, c + d))
    m0, m1 = a * n0 + b * n1, c * n0 + d * n1  # M nu
    g0, g1 = a * h0 + c * h1, b * h0 + d * h1  # M.T h
    for iters in range(1, MAX_ITER + 1):
        lam = m0 + m1
        try:
            n0, n1 = m0 / lam, m1 / lam
            dot = n0 * g0 + n1 * g1
            h0, h1 = g0 / dot, g1 / dot
        except ZeroDivisionError:
            with np.errstate(divide="ignore", invalid="ignore"):
                n0, n1 = (np.array([m0, m1]) / lam).tolist()
                dot = n0 * g0 + n1 * g1
                h0, h1 = (np.array([g0, g1]) / dot).tolist()
        m0, m1 = a * n0 + b * n1, c * n0 + d * n1
        g0, g1 = a * h0 + c * h1, b * h0 + d * h1
        e0, e1 = abs(g0 - lam * h0), abs(g1 - lam * h1)
        res_h = e0 if e0 >= e1 else e1 if e1 > e0 else e0 + e1  # NaN if either is
        res_nu = abs(m0 - lam * n0) + abs(m1 - lam * n1)
        if res_h <= tol * lam and res_nu <= tol * lam:
            break
        if not math.isfinite(res_h + res_nu):
            raise _no_convergence(tol, iters, lam, res_h, res_nu)
        if iters & (iters - 1) == 0:
            saved = iters, res_h, res_nu, (m0, m1, g0, g1)
        elif res_h == saved[1] and res_nu == saved[2] and (m0, m1, g0, g1) == saved[3]:
            raise _no_convergence(tol, iters, lam, res_h, res_nu, since=saved[0])
    else:
        raise _no_convergence(tol, MAX_ITER)
    dot = n0 * h0 + n1 * h1
    h0, h1 = h0 / dot, h1 / dot
    res_h = max(abs(a * h0 + c * h1 - lam * h0), abs(b * h0 + d * h1 - lam * h1))
    res_nu = abs(a * n0 + b * n1 - lam * n0) + abs(c * n0 + d * n1 - lam * n1)
    return _eigendata(T, lam, np.array([h0, h1]), np.array([n0, n1]), min(h0, h1),
                      res_h, res_nu, iters)


def _perron_pair(M):
    """(h, nu) of the Perron pair of M made without iterating, nu summing
    to 1: in closed form on Python floats at 2 states, from one dense
    eigensolve at any other count up to DENSE_START_MAX.  None above
    DENSE_START_MAX, and wherever the pair is not finite and positive.

    At 2 states, M = [[a, b], [c, d]] is first scaled by its largest
    entry, so that no square below overflows.  lambda solves
    (lambda - a)(lambda - d) = bc; with r = sqrt(((a - d)/2)**2 + bc),
    lambda - d = (a - d)/2 + r when a > d, and then
    lambda - a = bc / (lambda - d), else lambda - a = (d - a)/2 + r: a
    sum of two nonnegative terms either way, so nothing cancels.  Then
    M nu = lambda nu for nu ~ (b, lambda - a) and M.T h = lambda h for
    h ~ (c, lambda - a).

    Otherwise the eigensolve is of the stack (M.T, M): in each half the
    eigenvector of the eigenvalue of largest real part, as absolute
    values.
    """
    k = len(M)
    if k > DENSE_START_MAX:
        return None
    if k != 2:
        with np.errstate(all="ignore"):
            try:
                w, v = np.linalg.eig(np.stack((M.T, M)))
            except np.linalg.LinAlgError:  # a non-finite M, or no convergence
                return None
            P = np.abs(v[[0, 1], :, w.real.argmax(axis=1)])
            P[1] /= P[1].sum()
        if not (0 < P.min() and P.max() < math.inf):
            return None
        return P[0], P[1]
    (a, b), (c, d) = M.tolist()
    top = max(a, b, c, d)
    if not 0 < top < math.inf:  # NaN fails too
        return None
    a, b, c, d = a / top, b / top, c / top, d / top
    if not b > 0:  # so that b + p below is positive
        return None
    half = 0.5 * (a - d)
    r = math.sqrt(half * half + b * c)
    p = b * c / (half + r) if half > 0 else r - half  # lambda - a
    n0, n1 = b / (b + p), p / (b + p)
    # c, n0 and n1 are at most 1; each comparison fails on a NaN
    if not (c > 0 and 0 < p < math.inf and n0 > 0 and n1 > 0):
        return None
    return (c, p), (n0, n1)


def _check_matrix(finite, floor):
    """Fail a matrix whose entries are not all finite, or whose smallest
    row sum (floor, a lower bound on lambda) is no finite float."""
    if not finite:
        raise NoConvergence("eigendata: the transfer matrix has non-finite entries")
    if not math.isfinite(floor):
        raise NoConvergence(
            "eigendata: lambda is at least the smallest row sum of the transfer "
            f"matrix, which is {floor}, so lambda is not representable")


def _no_convergence(tol, iters, lam=0.0, res_h=0.0, res_nu=0.0, since=None):
    """The NoConvergence of a power loop stopping at iteration iters
    without a certificate: with `since`, because its state repeats the
    one saved at that iteration; with a non-finite lambda estimate or
    residual, because of it; otherwise at the MAX_ITER cap."""
    if since is not None:
        return NoConvergence(
            f"eigendata: residuals {res_h:.2g} (h) and {res_nu:.2g} (nu) "
            f"above {tol:g}*lambda repeat from iteration {since} "
            f"(period {iters - since})")
    if not math.isfinite(res_h + res_nu):
        return NoConvergence(
            f"eigendata: lambda estimate {lam}, residuals {res_h} (h) and "
            f"{res_nu} (nu) at iteration {iters}")
    return NoConvergence(f"eigendata residuals above {tol:g}*lambda after {iters} iterations")


def _eigendata(T, lam, h, nu, min_h, residual_h, residual_nu, iterations):
    """EigenData of T's solve: lambda and the normalized h and nu."""
    return EigenData(
        lambda_=lam,
        pressure=float(np.log(lam)),
        h=h,
        nu=nu,
        min_h=min_h,
        ess_radius_bound=float(T.potential.alpha * lam),
        residual_h=residual_h,
        residual_nu=residual_nu,
        iterations=iterations,
        matrix=T.matrix,
    )


def normalized_operator(T, eigendata):
    """Row-stochastic forward kernel Q of the Gibbs chain as its k x N
    successor table, and its stationary vector pi = h * nu (nu(h) = 1).

    With rows indexed by the preimage block, peeling one symbol off an
    (l+1)-cylinder gives mu([u0 w]) = h(u) entry(u -> w) nu(w) / lambda,
    so Q(u -> w) = entry(u -> w) nu(w) / (lambda nu(u)) on each of T's
    moves; row sums are (M nu)(u) / (lambda nu(u)) = 1 exactly.
    """
    lam, h, nu = eigendata.lambda_, eigendata.h, eigendata.nu
    moves = block_moves(T.space, T.block_length)
    I, J = moves.I, moves.J
    return moves.table(T.matrix[I, J] * nu[J] / (lam * nu[I]), T.space.alphabet_size), h * nu


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
    L, (blocks, I, J, words) = block_graph(space, phi)
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
