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


def contraction_trace(T, eigendata, f, g, k, delta=None):
    """Hilbert-metric trace of k blocks of n0 operator applications.

    Returns {delta, delta_prime, n0, kappa, rows, image_diameter}.
    rows are {step, theta, factor, in_cone}, where factor is the
    per-block ratio theta_j / theta_{j-1} (None on the first row or when
    the previous theta vanished) and in_cone flags membership of both
    iterates in the width-delta cone before the block is applied.
    image_diameter is the measured theta after one block, row 1's.
    A block applies M.T / lambda to each iterate n0 times, forming no
    matrix power; theta is scale invariant, so lambda only guards against overflow.
    """
    if k < 1:
        raise ValidationError("need at least one block")
    cc = cone_constants(T.space, T.potential)
    if delta is None:
        delta = 2.0 * cc.delta_prime
    f = _positive(f)
    g = _positive(g)
    op = T.matrix.T / eigendata.lambda_
    theta0 = theta = hilbert_metric(f, g)
    rows = []
    for j in range(1, k + 1):
        was_in_cone = in_cone(f, delta) and in_cone(g, delta)
        for _ in range(cc.n0):
            f = op @ f
            g = op @ g
        new_theta = hilbert_metric(f, g)
        factor = new_theta / theta if theta > 0 else None
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
