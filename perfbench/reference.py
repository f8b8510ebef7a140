"""Independent reference values for the correctness checks.

Everything is computed from the model documents with dense numpy
linear algebra, never through gibbslab, so that a check cannot
share a defect with the code it checks:

* pressure, gap: dense eigenvalues of the transfer matrix;
* Lambda'(s) and Lambda''(s) of the tilted family s -> P(phi + s psi):
  first- and second-order eigenvalue perturbation with the full set of
  left and right eigenvectors (d/ds M = M o psi on edges);
* the closed mean range of psi: Karp's maximum cycle mean on the
  recoded edge graph;
* Kolmogorov and local-limit distances of an exact law: the defining
  formulas, written out with math.erf.
"""

import math
from dataclasses import dataclass

import numpy as np

from inputs import observable_table, reference_matrix, table_values


@dataclass(frozen=True)
class Tilted:
    pressure: float
    lambda_: float
    mean: float
    variance: float
    moduli: np.ndarray


def _edge_values(doc, table, states):
    """Value of a table on every edge u -> w of the recoded graph
    (the word u followed by the last symbol of w); 0 off the graph."""
    vals = table_values(table)
    m = table["memory"]
    k = len(states)
    out = np.zeros((k, k))
    pos = {w: i for i, w in enumerate(states)}
    for i, u in enumerate(states):
        for b in doc["symbols"]:
            j = pos.get(u[1:] + (b,))
            if j is not None:
                out[i, j] = vals.get((u + (b,))[:m], 0.0)
    return out


def tilted(doc, s=0.0, table=None):
    """Pressure, Lambda'(s) and Lambda''(s) for phi + s psi, psi the
    given table (default: the observable)."""
    table = table or observable_table(doc)
    states, M = reference_matrix(doc, table, s)
    A = M * _edge_values(doc, table, states)
    B = M * _edge_values(doc, table, states) ** 2
    w, vr = np.linalg.eig(M)
    order = np.argsort(-np.abs(w))
    w, vr = w[order], vr[:, order]
    lam = w[0].real
    # biorthonormal left rows: l_i^T r_j = delta_ij
    L = np.linalg.inv(vr)
    r1, l1 = vr[:, 0], L[0]
    d1 = (l1 @ A @ r1).real
    second = (l1 @ B @ r1)
    for j in range(1, len(w)):
        second += 2.0 * (l1 @ A @ vr[:, j]) * (L[j] @ A @ r1) / (w[0] - w[j])
    d2 = second.real
    mean = d1 / lam
    return Tilted(pressure=math.log(lam), lambda_=lam, mean=mean,
                  variance=d2 / lam - mean**2, moduli=np.abs(w) / lam)


def gap_ratio(matrix):
    mods = np.sort(np.abs(np.linalg.eigvals(matrix)))[::-1]
    return float(mods[1] / mods[0]) if len(mods) > 1 else 0.0


def mean_range(doc, table=None):
    """Closed range of time averages of psi: (min, max) cycle mean on
    the recoded graph, by Karp's theorem."""
    table = table or observable_table(doc)
    states, M = reference_matrix(doc, table)
    W = _edge_values(doc, table, states)
    W = np.where(M > 0, W, -np.inf)
    return -_karp(np.where(M > 0, -W, -np.inf)), _karp(W)


def _karp(W):
    k = W.shape[0]
    D = np.full((k + 1, k), -np.inf)
    D[0] = 0.0
    for n in range(1, k + 1):
        D[n] = np.max(D[n - 1][:, None] + W, axis=0)
    best = -np.inf
    for v in range(k):
        if D[k, v] == -np.inf:
            continue
        worst = min((D[k, v] - D[j, v]) / (k - j) for j in range(k)
                    if D[j, v] > -np.inf)
        best = max(best, worst)
    return float(best)


def kolmogorov(values, probs, n, mean, xi2):
    z = (values - n * mean) / math.sqrt(xi2 * n)
    gauss = np.array([0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in z])
    cdf = np.cumsum(probs)
    prev = np.concatenate(([0.0], cdf[:-1]))
    return float(max(np.abs(cdf - gauss).max(), np.abs(prev - gauss).max()))


def local_limit(values, probs, span, n, mean, xi2):
    keep = probs > 0.0
    v, p = values[keep], probs[keep]
    gauss = span / math.sqrt(2.0 * math.pi) * np.exp(-((v - n * mean) ** 2) / (2.0 * n * xi2))
    return float(np.max(np.abs(math.sqrt(xi2 * n) * p - gauss)))


def hilbert(f, g):
    r = np.asarray(f, dtype=float) / np.asarray(g, dtype=float)
    return float(math.log(r.max() / r.min()))


def total_variation(table):
    """V = sum over n < memory of the largest spread of values among
    words that agree in their first n symbols."""
    vals = table_values(table)
    total = 0.0
    for n in range(table["memory"]):
        groups = {}
        for w, v in vals.items():
            lo, hi = groups.get(w[:n], (v, v))
            groups[w[:n]] = (min(lo, v), max(hi, v))
        total += max(hi - lo for lo, hi in groups.values())
    return total


class References:
    """Memoized reference values per model document."""

    def __init__(self, docs):
        self.docs = docs
        self._memo = {}

    def _get(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def tilted(self, model, s=0.0):
        return self._get(("tilted", model, s), lambda: tilted(self.docs[model], s))

    def mean_potential(self, model):
        doc = self.docs[model]
        return self._get(("phi", model),
                         lambda: tilted(doc, 0.0, doc["potential"]).mean)

    def mean_range(self, model):
        return self._get(("range", model), lambda: mean_range(self.docs[model]))

    def matrix(self, model):
        return self._get(("matrix", model),
                         lambda: reference_matrix(self.docs[model])[1])

    def total_variation(self, model):
        return self._get(("tv", model),
                         lambda: total_variation(self.docs[model]["potential"]))
