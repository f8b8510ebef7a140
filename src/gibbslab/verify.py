"""Executable form of the five equivalent characterizations.

For a solved model the checks are:

  (i)   Jacobian identity: mu([w]) / mu([sigma w]) = exp(P - phi(w))
        for every admissible word one longer than the block length.
  (ii)  Cylinder Gibbs band: worst-case ratios against (e^-2V, e^2V);
        for zero-variation potentials on a constrained shift the band
        is informational and per-length constancy is checked instead.
  (iii) Eigen residuals of (lambda, h, nu), within the solve's own
        tolerance where that is looser than TOLS'.
  (iv)  Variational defect P - entropy - integral(phi) of the chain.
  (v)   Rate function at the Gibbs mean: value zero, positive
        curvature.

Injection hooks replace the object of a single check with a candidate
(a non-equilibrium chain for (iv), a perturbed eigenvector for (iii))
so a failure isolates exactly the intended characterization.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import transfer
from .errors import SolveFailure, ValidationError
from .gibbs import (
    BAND_TOL,
    expectation,
    gibbs_measure,
    gibbs_ratio_scan,
    markov_measure,
    require_space,
    variational_defect,
)
from .potential import FiniteMemoryFunction
from .shift_space import block_moves, enumerate_words
from .stats import PressureFamily, rate_function

EIGEN_TOL = 1e-13  # verify's eigensolver tolerance and `gibbslab verify`'s --tol default
TOLS = {
    "jacobian_identity": 1e-10,
    "gibbs_band": BAND_TOL,
    "eigen_residuals": 1e-10,
    "variational_defect": 1e-10,
    "rate_function_minimum": 1e-9,
}


@dataclass(frozen=True)
class VerifyReport:
    model: str
    checks: tuple
    passed: bool

    def as_document(self):
        return {
            "model": self.model,
            "checks": [dict(c) for c in self.checks],
            "pass": self.passed,
        }


def default_observable(model):
    """Indicator of the smallest symbol (not centered), used when the
    model does not carry an observable."""
    if model.observable is not None:
        return model.observable
    sym = model.space.symbols[0]
    psi = FiniteMemoryFunction.indicator(model.space, (sym,), alpha=model.alpha)
    return psi


def jacobian_max_error(mu, phi, eigendata):
    """Max relative error of the Jacobian identity over every move
    u -> v between the block states, i.e. over all words of length
    block_length + 1.

    The shift Jacobian of the invariant chain is
    exp(P - phi) * h(next block) / h(first block); the eigenfunction
    ratio cancels only when h is constant (full-shift examples), so the
    corrected form is what characterizes the Gibbs measure on
    constrained shifts.  Equivalently, the eigenmeasure nu is exactly
    exp(P - phi)-conformal.  A cylinder whose measure underflows to
    zero is a numerical failure of the check, not invalid input.

    On the move u -> v of word w = u + (s,), mu([w]) = pi[u]
    successors[u, s] and mu([w minus its first symbol]) = pi[v], the
    floats that `GibbsMeasure.jacobian` forms.
    """
    require_space(mu, phi)
    h, n = eigendata.h, mu.block_length + 1
    _, I, J, codes = moves = block_moves(mu.space, mu.block_length)
    mass = mu.stationary[I] * moves.gather(mu.successors)
    zero = np.flatnonzero(mass == 0.0)
    if zero.size:
        # the moves' words are the admissible n-words, in order
        w = enumerate_words(mu.space, n)[zero[0]]
        raise SolveFailure(f"jacobian_identity: word {w!r} has measure zero")
    jac = (mu.stationary[J] / mass).tolist()
    ratio = (h[J] / h[I]).tolist()
    return max([0.0] + [
        abs(q / (math.exp(eigendata.pressure - p) * r) - 1.0)
        for q, p, r in zip(jac, phi.on(codes, n).tolist(), ratio)
    ])


def _check(name, metric, error=0.0, passed=True, tol=None):
    """One report record: it passes when |error| is within tol (by
    default the check's tolerance in TOLS) and `passed` holds."""
    tol = TOLS[name] if tol is None else tol
    return {"name": name, "metric": metric, "tolerance": tol,
            "pass": bool(abs(error) <= tol and passed)}


def verify_model(model, n_max=8, inject_chain=None, inject_nu=None, eigen_tol=EIGEN_TOL):
    """Run the five checks; returns a VerifyReport.

    inject_chain: GibbsMeasure-shaped candidate used in place of the
    equilibrium chain for check (iv).  inject_nu: vector used in place
    of the eigenmeasure for check (iii).
    """
    phi = model.potential
    T = transfer.build(model.space, phi)
    E = transfer.dominant_eigendata(T, tol=eigen_tol)
    mu = gibbs_measure(T, E)
    psi = default_observable(model)

    err_jac = jacobian_max_error(mu, phi, E)
    scan = gibbs_ratio_scan(mu, phi, n_max)
    band = {"min_ratio": scan.min_ratio, "max_ratio": scan.max_ratio,
            "c1": scan.c1, "c2": scan.c2, "band_spread": scan.band_spread}

    if inject_nu is not None:
        nu = np.asarray(inject_nu, dtype=float)
        if nu.shape != E.nu.shape or (nu < 0).any():
            raise ValidationError("injected nu must be a nonnegative vector over states")
        nu = nu / nu.sum()
        res_nu = float(np.abs(T.matrix @ nu - E.lambda_ * nu).sum())
    else:
        res_nu = E.residual_nu
    res = max(E.residual_h, res_nu) / E.lambda_

    chain = inject_chain if inject_chain is not None else mu
    defect = variational_defect(chain, phi, E.pressure)

    fam = PressureFamily(model.space, phi, psi, tol=eigen_tol)
    mean = expectation(mu, psi)
    point = rate_function(model.space, phi, psi, mean, family=fam)
    curvature = fam.variance(point.s_star)
    rate = {"rate_at_mean": point.rate, "s_star": point.s_star, "curvature": curvature}

    checks = [
        _check("jacobian_identity", err_jac, err_jac),
        _check("gibbs_band", band, passed=scan.passed),
        # the solve certified eigen_tol, so no tighter bound can be asked of it
        _check("eigen_residuals", res, res, tol=max(TOLS["eigen_residuals"], eigen_tol)),
        _check("variational_defect", defect, defect),
        _check("rate_function_minimum", rate, point.rate, curvature > 0.0),
    ]
    return VerifyReport(
        model=model.name,
        checks=tuple(checks),
        passed=all(c["pass"] for c in checks),
    )


def uniform_chain(model):
    """Row-uniform candidate chain on the moves of the potential's block
    graph (maximal-entropy-style guess, not the equilibrium chain)."""
    L, moves = transfer.block_graph(model.space, model.potential)
    Q = moves.dense(1.0 / np.bincount(moves.I)[moves.I], "transfer matrix")
    return markov_measure(model.space, L, Q)


def perturbed_nu(model, tol=EIGEN_TOL):
    """nu solved to tol, 0.01 added to its first entry, renormalised."""
    T = transfer.build(model.space, model.potential)
    E = transfer.dominant_eigendata(T, tol=tol)
    nu = np.array(E.nu)
    nu[0] += 0.01
    return nu / nu.sum()
