"""Hilbert projective metric and cone-contraction constants.

For strictly positive vectors f, g over the block states,
Theta(f, g) = log(max_i f_i/g_i / min_i f_i/g_i); it is scale invariant
and contracted by positive matrices.  Working on the concrete positive
orthant keeps every bound an exact finite formula.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositive, ValidationError
from .potential import or_inf, total_variation, var_n


def _positive(v):
    a = np.asarray(v, dtype=float)
    if a.size == 0 or (a <= 0).any():
        raise NonPositive("vector must be strictly positive")
    return a


def hilbert_metric(f, g):
    f, g = _positive(f), _positive(g)
    if f.shape != g.shape:
        raise ValidationError("vectors must have matching shapes")
    r = f / g
    return float(np.log(r.max() / r.min()))


def oscillation_ratio(g):
    g = _positive(g)
    return float(g.max() / g.min())


def in_cone(g, delta):
    """Membership in the cone of positive vectors with sup/inf <= e**delta."""
    return oscillation_ratio(g) <= or_inf(math.exp, delta)


@dataclass(frozen=True)
class ConeConstants:
    """delta_prime = M var_0 + V + M log N; after n0 = 2M steps the
    image cone has width delta_prime, whence the contraction factor
    kappa(delta) = tanh(delta_prime/4)/tanh(delta/4) for delta > delta_prime."""

    delta_prime: float
    n0: int

    def kappa(self, delta):
        if delta <= self.delta_prime:
            raise ValidationError(
                f"kappa needs delta > delta_prime = {self.delta_prime:g}"
            )
        return math.tanh(self.delta_prime / 4.0) / math.tanh(delta / 4.0)


def cone_constants(space, phi):
    M = space.mixing_time
    dp = M * var_n(phi, 0) + total_variation(phi) + M * math.log(space.alphabet_size)
    return ConeConstants(delta_prime=dp, n0=2 * M)


def contraction_trace(T, eigendata, f, g, k):
    """Hilbert-metric trace of k blocks of n0 operator applications.

    Returns {delta, delta_prime, n0, kappa, rows, image_diameter}.
    rows are {step, theta, factor, in_cone}, where factor is the
    per-block ratio theta_j / theta_{j-1} (None on the first row or when
    theta_{j-1} or theta_j is within its rounding error, see below) and in_cone
    flags membership of both iterates in the cone of width
    delta = 2 delta_prime before the block is applied.
    image_diameter is the measured theta after one block, row 1's.
    A block applies M.T / lambda to each iterate n0 times, forming no
    matrix power; theta is scale invariant, so lambda only guards against overflow.

    The rounding error of theta_j: with u = 2**-53 the unit roundoff and
    k the state count, each entry of op is within a relative u of M.T /
    lambda, and a length-k dot product of nonnegative terms is within a
    relative k u of exact, to first order (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3.1), so one product of op
    with a positive vector adds at most (k + 1) u to the relative error
    of every entry, and positivity keeps the errors it starts from from
    growing: after the j n0 products of j blocks every entry of f and g
    is within j n0 (k + 1) u of exact.  The ratios f / g move by
    2 j n0 (k + 1) u + u each, their max over min by twice that plus u,
    and its log by that much absolutely, plus the log's own error, below
    u for theta_j <= 1: such a theta_j is within
    err_j = (4 j n0 (k + 1) + 4) u of the exact iterates' theta, to
    first order in u.  A factor with theta_{j-1} <= err_{j-1} or
    theta_j <= err_j is a ratio over or of rounding noise, and is None.
    """
    if k < 1:
        raise ValidationError("need at least one block")
    cc = cone_constants(T.space, T.potential)
    delta = 2.0 * cc.delta_prime
    f = _positive(f)
    g = _positive(g)
    op = T.matrix.T / eigendata.lambda_
    theta0 = theta = hilbert_metric(f, g)

    def err(j):  # theta_j's rounding error, see above
        return (4 * j * cc.n0 * (len(f) + 1) + 4) * 2.0**-53

    rows = []
    for j in range(1, k + 1):
        was_in_cone = in_cone(f, delta) and in_cone(g, delta)
        for _ in range(cc.n0):
            f = op @ f
            g = op @ g
        new_theta = hilbert_metric(f, g)
        factor = new_theta / theta if theta > err(j - 1) and new_theta > err(j) else None
        rows.append({"step": j, "theta": new_theta, "factor": factor,
                     "in_cone": was_in_cone})
        theta = new_theta
    # step 0 flags the iterates that the first block starts from
    rows.insert(0, {"step": 0, "theta": theta0, "factor": None,
                    "in_cone": rows[0]["in_cone"]})
    return {
        "delta": delta,
        "delta_prime": cc.delta_prime,
        "n0": cc.n0,
        "kappa": cc.kappa(delta),
        "rows": rows,
        "image_diameter": rows[1]["theta"],
    }
