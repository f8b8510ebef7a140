"""Acceptance suite: golden numbers and property criteria, one printed
pass/fail line per check.

Seven quoted reference values are internally inconsistent with the
exact solutions of the very models they describe (each conflicts with
other quoted values that pin the same object).  Those assertions are
kept exactly as quoted but marked strict-xfail, with the derivation of
the exact value asserted alongside; the xfail reasons carry the
arithmetic.  Everything else passes at the stated tolerance.
"""

import math

import numpy as np
import pytest

import gibbslab.sampler as sampler_mod
from gibbslab import cone, models, stats, transfer, verify
from gibbslab.gibbs import (
    gibbs_ratio_scan,
    markov_measure,
    variational_defect,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.potential import FiniteMemoryFunction
from gibbslab.sampler import empirical_birkhoff, sample_path

from oracles import transport_lp

PHI_G = (1.0 + math.sqrt(5.0)) / 2.0


def report(cid, label, value, ok):
    print(f"[{cid}] {label}: {value} {'PASS' if ok else 'FAIL'}")
    return ok


def check(cid, label, value, target, tol):
    ok = abs(value - target) <= tol
    report(cid, f"{label} = {value:.10g} (target {target:.10g} +- {tol:g})", "", ok)
    assert ok, f"{label}: {value} vs {target} +- {tol}"


# ---------------------------------------------------------------- criterion 1


def test_c01_bernoulli_golden_numbers(bernoulli):
    check("C01", "bernoulli pressure", bernoulli.E.pressure, 0.0, 1e-12)
    check("C01", "mu([1,2,1,1])", bernoulli.mu.cylinder_measure((1, 2, 1, 1)), 0.1029, 1e-6)
    from gibbslab.gibbs import entropy

    check("C01", "entropy", entropy(bernoulli.mu), 0.6109, 5e-4)
    check("C01", "xi2 centered indicator",
          stats.asymptotic_variance(bernoulli.mu, bernoulli.psi), 0.21, 1e-9)
    scan = gibbs_ratio_scan(bernoulli.mu, bernoulli.phi, 12)
    check("C01", "scan min", scan.min_ratio, 1.0, 1e-12)
    check("C01", "scan max", scan.max_ratio, 1.0, 1e-12)


def test_c01_bernoulli_rate_value_exact(bernoulli):
    # I(0.2) is the binary divergence D(0.9 || 0.7)
    oracle = 0.9 * math.log(0.9 / 0.7) + 0.1 * math.log(0.1 / 0.3)
    pt = stats.rate_function(bernoulli.space, bernoulli.phi, bernoulli.psi, 0.2)
    check("C01", "I(0.2) vs divergence oracle", pt.rate, oracle, 1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="quoted I(0.2) = 0.1211 contradicts the quoted cumulant "
    "log(0.7 e^{0.3 s} + 0.3 e^{-0.7 s}), whose Legendre transform at "
    "t = 0.2 is D(0.9||0.7) = 0.9 ln(9/7) + 0.1 ln(1/3) = 0.1163218",
)
def test_c01_bernoulli_rate_value_as_quoted(bernoulli):
    pt = stats.rate_function(bernoulli.space, bernoulli.phi, bernoulli.psi, 0.2)
    check("C01", "I(0.2) as quoted", pt.rate, 0.1211, 5e-4)


def test_c01_fair_coin_defect_exact(bernoulli):
    fair = markov_measure(bernoulli.space, 1, np.full((2, 2), 0.5))
    defect = variational_defect(fair, bernoulli.phi, bernoulli.E.pressure)
    # log 2 + (log 0.21)/2 = -0.0871767, the defect is its negation,
    # equal to D(1/2 || 0.7)
    oracle = 0.5 * math.log(0.5 / 0.7) + 0.5 * math.log(0.5 / 0.3)
    check("C01", "fair-coin defect vs divergence oracle", defect, oracle, 1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="quoted defect 0.0834 uses (1/2)ln 0.21 ~ -0.7765, but "
    "(1/2)ln 0.21 = -0.7803239, so the defect is 0.7803239 - ln 2 = "
    "0.0871767",
)
def test_c01_fair_coin_defect_as_quoted(bernoulli):
    fair = markov_measure(bernoulli.space, 1, np.full((2, 2), 0.5))
    defect = variational_defect(fair, bernoulli.phi, bernoulli.E.pressure)
    check("C01", "fair-coin defect as quoted", defect, 0.0834, 5e-4)


# ---------------------------------------------------------------- criterion 2


def test_c02_ising_golden_numbers(ising):
    check("C02", "lambda", ising.E.lambda_, 3.0862, 1e-3)
    check("C02", "pressure", ising.E.pressure, 1.1270, 1e-3)
    check("C02", "gap ratio", ising.E.gap_ratio, 0.7616, 1e-3)
    check("C02", "xi2 spin", stats.asymptotic_variance(ising.mu, ising.psi),
          7.389, 1e-2)
    worst = max(
        abs(stats.correlation(ising.mu, ising.psi, ising.psi, n) - math.tanh(1.0) ** n)
        for n in range(1, 31)
    )
    ok = report("C02", f"max |C_n - tanh(1)^n| for n<=30 = {worst:.3e}", "", worst <= 1e-10)
    assert ok


def test_c02_ising_transitions_exact(ising):
    same = math.exp(1.0) / (2.0 * math.cosh(1.0))
    check("C02", "same-spin transition e^b/(2 cosh b)",
          ising.mu.transition[0, 0], same, 1e-12)
    check("C02", "flip transition e^-b/(2 cosh b)",
          ising.mu.transition[0, 1], 1.0 - same, 1e-12)
    # the quoted formula matched against the chain that reproduces
    # C_n = tanh(1)^n: 2 Q(same) - 1 must equal tanh(1)
    check("C02", "2 Q(same) - 1 = tanh(1)",
          2.0 * ising.mu.transition[0, 0] - 1.0, math.tanh(1.0), 1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="quoted 0.7311 = 1/(1+e^-1) is not e^beta/(2 cosh beta) = "
    "0.8808 at beta = 1; a 0.7311-chain would give one-step spin "
    "correlation 0.4621, contradicting the quoted C_n = tanh(1)^n = "
    "0.7616 and xi2 = e^2",
)
def test_c02_ising_transitions_as_quoted(ising):
    check("C02", "same-spin transition as quoted", ising.mu.transition[0, 0],
          0.7311, 1e-3)


def test_c02_ising_rate_at_mean_and_boundary(ising):
    pt = stats.rate_function(ising.space, ising.phi, ising.psi, 0.0)
    check("C02", "I at the mean (0)", pt.rate, 0.0, 1e-10)
    # the quoted 0.1269 equals log(2 cosh b) - b = log(1 + e^-2b),
    # the rate of the all-up configuration (t = 1)
    target = math.log(1.0 + math.exp(-2.0))
    pt_edge = stats.rate_function(ising.space, ising.phi, ising.psi, 0.9999)
    ok = report(
        "C02",
        f"I(t->1) = {pt_edge.rate:.6f} vs log(1+e^-2) = {target:.6f}",
        "",
        abs(pt_edge.rate - target) <= 2e-3,
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the spin observable has mean 0 and an even cumulant, so "
    "I(0) = 0; the quoted 0.1269 equals log(2 cosh 1) - 1 = "
    "log(1+e^-2), the rate at t = +-1, not at 0",
)
def test_c02_ising_rate_at_zero_as_quoted(ising):
    pt = stats.rate_function(ising.space, ising.phi, ising.psi, 0.0)
    check("C02", "I(0) as quoted", pt.rate, 0.1269, 5e-4)


def test_c02_ising_scan_exact_band(ising):
    scan = gibbs_ratio_scan(ising.mu, ising.phi, 12)
    # worst case over the free boundary spin: cosh(b) e^{-+b}
    check("C02", "scan min = cosh(1)/e", scan.min_ratio, math.cosh(1.0) / math.e, 1e-10)
    check("C02", "scan max = cosh(1) e", scan.max_ratio, math.cosh(1.0) * math.e, 1e-10)
    ok = report("C02", "scan inside [e^-2V, e^2V]", "", scan.pass_band)
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the quoted band [e^-1, e] is centered at 1 but the exact "
    "worst-case ratios are cosh(1) e^-1 = 0.5677 and cosh(1) e = "
    "4.1945: the band width e^2 is right, its center cosh(beta) is "
    "dropped",
)
def test_c02_ising_scan_band_as_quoted(ising):
    scan = gibbs_ratio_scan(ising.mu, ising.phi, 12)
    ok = scan.min_ratio >= math.exp(-1.0) - 1e-12 and scan.max_ratio <= math.e + 1e-12
    report("C02", f"scan band as quoted [{scan.min_ratio:.4f}, {scan.max_ratio:.4f}] "
           f"in [e^-1, e]", "", ok)
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_c03_golden_numbers(golden):
    check("C03", "pressure phi=0", golden.E.pressure, 0.4812, 5e-4)
    check("C03", "eigenmeasure nu([0]) = 1/phi", golden.E.nu[0], 0.618, 1e-3)
    # second transition row is (1, 0) exactly as quoted
    check("C03", "Q[1,0]", golden.mu.transition[1, 0], 1.0, 1e-9)
    check("C03", "Q[1,1]", golden.mu.transition[1, 1], 0.0, 1e-9)


def test_c03_golden_chain_exact(golden):
    # maximal-entropy chain: rows (1/phi, 1/phi^2) and (1, 0);
    # stationary (phi^2, 1)/(1 + phi^2)
    check("C03", "Q[0,0] = 1/phi", golden.mu.transition[0, 0], 1.0 / PHI_G, 1e-12)
    check("C03", "Q[0,1] = 1/phi^2", golden.mu.transition[0, 1], 1.0 / PHI_G**2, 1e-12)
    check("C03", "pi([0]) = phi^2/(1+phi^2)", golden.mu.stationary[0],
          PHI_G**2 / (1.0 + PHI_G**2), 1e-12)
    from gibbslab.gibbs import entropy

    check("C03", "entropy = log phi", entropy(golden.mu), math.log(PHI_G), 1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="0.618 = 1/phi is the eigenmeasure of [0]; the invariant "
    "chain weights it by the eigenfunction, pi([0]) = phi^2/(1+phi^2) "
    "= 0.7236",
)
def test_c03_golden_stationary_as_quoted(golden):
    check("C03", "pi([0]) as quoted", golden.mu.stationary[0], 0.618, 1e-3)


@pytest.mark.xfail(
    strict=True,
    reason="a (1/2, 1/2) first row would give the uniform-successor "
    "chain with entropy (2/3) log 2 = 0.462 < log phi = 0.4812, "
    "contradicting the quoted pressure; the maximal-entropy row is "
    "(1/phi, 1/phi^2) = (0.618, 0.382)",
)
def test_c03_golden_first_row_as_quoted(golden):
    check("C03", "Q[0,0] as quoted", golden.mu.transition[0, 0], 0.5, 1e-9)


def test_c03_pressure_curve(golden):
    fam = stats.PressureFamily(golden.space, golden.phi, golden.psi, tol=1e-13)
    worst = 0.0
    for k in range(-12, 13):
        a = 0.25 * k
        closed = math.log((math.exp(a) + math.sqrt(math.exp(2 * a) + 4.0)) / 2.0)
        worst = max(worst, abs(fam.pressure(a) - closed))
    ok = report("C03", f"pressure curve sup err = {worst:.3e} (tol 1e-9)", "", worst <= 1e-9)
    assert ok


# ---------------------------------------------------------------- criterion 4


def test_c04_pressure_derivative_checks(builtin_triple):
    for name, s in builtin_triple.items():
        rep = stats.pressure_derivative_check(s.space, s.phi, s.psi)
        ok1 = report("C04", f"{name} |FD P'(0) - mean| = {rep['first_error']:.3e}",
                     "", rep["first_error"] <= 1e-6)
        ok2 = report("C04", f"{name} |FD P''(0) - xi2| = {rep['second_error']:.3e}",
                     "", rep["second_error"] <= 1e-4)
        assert ok1 and ok2


# ---------------------------------------------------------------- criterion 5


def test_c05_residuals_and_variance_routes(builtin_triple):
    for name, s in builtin_triple.items():
        ok = report(
            "C05",
            f"{name} residuals ({s.E.residual_h:.2e}, {s.E.residual_nu:.2e})",
            "",
            s.E.residual_h <= 1e-10 * s.E.lambda_
            and s.E.residual_nu <= 1e-10 * s.E.lambda_,
        )
        assert ok
        xi2 = stats.asymptotic_variance(s.mu, s.psi)  # raises past a 1e-9 refinement bound
        gk = stats.correlation(s.mu, s.psi, s.psi, 0)
        for k in range(1, 400):
            term = stats.correlation(s.mu, s.psi, s.psi, k)
            gk += 2.0 * term
            if abs(term) < 1e-17:
                break
        ok = report("C05", f"{name} |green-kubo - resolvent| = {abs(gk - xi2):.3e}",
                    "", abs(gk - xi2) <= 1e-9)
        assert ok


# ---------------------------------------------------------------- criterion 6


def test_c06_cone_contraction_ising(ising):
    cc = cone.cone_constants(ising.space, ising.phi)
    delta = 2.0 * cc.delta_prime
    trace = cone.contraction_trace(ising.T, ising.E, [1.0, 10.0], [10.0, 1.0],
                                   k=10, delta=delta)
    kappa = trace["kappa"]
    ok = True
    for row in trace["rows"][1:]:
        ok = ok and row["in_cone"] and row["factor"] <= kappa + 1e-12
    report("C06", f"10 blocks, max factor {max(r['factor'] for r in trace['rows'][1:]):.4f}"
           f" <= kappa {kappa:.4f}, in-cone each step", "", ok)
    assert ok


# ---------------------------------------------------------------- criterion 7


def test_c07_berry_esseen_constant_stable(ising):
    xi2 = stats.asymptotic_variance(ising.mu, ising.psi)
    values = {}
    for n in (64, 256, 1024):
        dist = stats.exact_birkhoff_distribution(ising.mu, ising.psi, n)
        values[n] = stats.clt_diagnostics(dist, 0.0, xi2)["be_constant"]
    spread = (max(values.values()) - min(values.values())) / min(values.values())
    ok = report("C07", f"sqrt(n) KS over n=64,256,1024 = "
                f"{[round(values[n], 5) for n in (64, 256, 1024)]}, spread {spread:.3%}",
                "", spread <= 0.10)
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_c08_local_limit_rate(ising):
    xi2 = stats.asymptotic_variance(ising.mu, ising.psi)
    errs = {}
    for n in (256, 1024):
        dist = stats.exact_birkhoff_distribution(ising.mu, ising.psi, n)
        errs[n] = stats.local_limit_check(dist, 0.0, xi2)
    ok = report("C08", f"lattice errors {errs[256]:.5f} -> {errs[1024]:.5f} "
                f"(ratio {errs[1024] / errs[256]:.3f} <= 0.7)", "",
                errs[1024] <= 0.7 * errs[256])
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_c09_ldp_bernoulli(bernoulli):
    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    dist = stats.exact_birkhoff_distribution(bernoulli.mu, ind, 400)
    fam = stats.PressureFamily(bernoulli.space, bernoulli.phi, ind, tol=1e-13)

    def oracle(t):
        return stats.rate_function(bernoulli.space, bernoulli.phi, ind, t,
                                   family=fam).rate

    rows = stats.ldp_empirical([dist], (0.9, 1.0), oracle, 0.7)
    row = rows[0]
    gap = abs(row["empirical_rate"] - row["inf_rate"])
    ok1 = report("C09", f"-(1/400) log P = {row['empirical_rate']:.6f}, "
                 f"I = {row['inf_rate']:.6f}, gap {gap:.4f} <= 0.02", "", gap <= 0.02)
    # also within 0.02 of the quoted 0.1211 (which sits between the
    # asymptotic rate 0.11632 and the finite-n value)
    ok2 = report("C09", f"|empirical - 0.1211| = {abs(row['empirical_rate'] - 0.1211):.4f}",
                 "", abs(row["empirical_rate"] - 0.1211) <= 0.02)
    assert ok1 and ok2


# --------------------------------------------------------------- criterion 10


def test_c10_wasserstein(bernoulli):
    m8 = models.bernoulli(0.8)
    T8 = transfer.build(m8.space, m8.potential)
    E8 = transfer.dominant_eigendata(T8, tol=1e-13)
    from gibbslab.gibbs import gibbs_measure

    mu8 = gibbs_measure(T8, E8)
    value, tail = wasserstein_distance(bernoulli.mu, mu8, 0.5, 4)
    lp = wasserstein_lp(bernoulli.mu, mu8, 0.5, 4)
    ok = report("C10", f"level-sum {value:.6f} vs LP {lp:.6f}, "
                f"|diff| {abs(value - lp):.6f} <= tail {tail:g}", "",
                abs(value - lp) <= tail)
    assert ok
    assert lp == pytest.approx(transport_lp(bernoulli.mu, mu8, 0.5, 4), rel=0.0, abs=1e-10)
    ratios = []
    for eps in (0.01, 0.02, 0.05):
        me = models.bernoulli(0.7 + eps)
        Te = transfer.build(me.space, me.potential)
        Ee = transfer.dominant_eigendata(Te, tol=1e-13)
        mue = gibbs_measure(Te, Ee)
        v, _ = wasserstein_distance(bernoulli.mu, mue, 0.5, 8)
        dphi = max(abs(me.potential.values[w] - bernoulli.phi.values[w])
                   for w in bernoulli.phi.values)
        ratios.append(v / dphi)
    ok = report("C10", f"W1/|dphi| over eps grid = {[round(r, 4) for r in ratios]}"
                " bounded by 1.0", "", max(ratios) <= 1.0)
    assert ok


# --------------------------------------------------------------- criterion 11


def test_c11_monte_carlo(bernoulli, builtin_triple, monkeypatch):
    p1 = sample_path(bernoulli.mu, 1000, 9001)
    p2 = sample_path(bernoulli.mu, 1000, 9001)
    s1, _ = empirical_birkhoff(bernoulli.mu, bernoulli.psi, 32, 200, 9001)
    monkeypatch.setattr(sampler_mod, "_BATCH", 17)
    s2, _ = empirical_birkhoff(bernoulli.mu, bernoulli.psi, 32, 200, 9001)
    ok = report("C11", "bit-identical seeded reproduction (path and batches)",
                "", p1 == p2 and np.array_equal(s1, s2))
    assert ok
    monkeypatch.setattr(sampler_mod, "_BATCH", 4096)

    ind = FiniteMemoryFunction.indicator(bernoulli.space, (1,))
    exact = stats.exact_birkhoff_distribution(bernoulli.mu, ind, 256)
    _, summary = empirical_birkhoff(bernoulli.mu, ind, 256, 100_000, 20240,
                                    exact=exact)
    ok = report("C11", f"KS(empirical 1e5, exact DP) = {summary['ks']:.5f} <= 0.01",
                "", summary["ks"] <= 0.01)
    assert ok

    cutoffs = {3: 21.108, 2: 18.421}
    for name, s in builtin_triple.items():
        path = sample_path(s.mu, 100_000, 2024)
        counts = {}
        for i in range(0, len(path) - 1, 2):
            pair = (path[i], path[i + 1])
            counts[pair] = counts.get(pair, 0) + 1
        npairs = sum(counts.values())
        stat = 0.0
        cells = 0
        for a in s.space.symbols:
            for b in s.space.symbols:
                prob = s.mu.cylinder_measure((a, b))
                if prob == 0.0:
                    continue
                cells += 1
                stat += (counts.get((a, b), 0) - npairs * prob) ** 2 / (npairs * prob)
        ok = report("C11", f"{name} chi2 2-cylinder stat {stat:.2f} <= "
                    f"{cutoffs[cells - 1]}", "", stat <= cutoffs[cells - 1])
        assert ok


# --------------------------------------------------------------- criterion 12


def test_c12_verify_builtins_and_injections(builtin_triple):
    for name, s in builtin_triple.items():
        rep = verify.verify_model(s.model)
        ok = report("C12", f"{name} five characterizations", "", rep.passed)
        assert ok
    model = models.bernoulli(0.7)
    rep = verify.verify_model(model, inject_chain=verify.uniform_chain(model))
    flags = {c["name"]: c["pass"] for c in rep.checks}
    ok = report("C12", "fair-chain injection fails exactly the variational check", "",
                not flags["variational_defect"]
                and all(v for k, v in flags.items() if k != "variational_defect"))
    assert ok
    rep = verify.verify_model(model, inject_nu=verify.perturbed_nu(model))
    flags = {c["name"]: c["pass"] for c in rep.checks}
    ok = report("C12", "perturbed-nu injection fails exactly the residual check", "",
                not flags["eigen_residuals"]
                and all(v for k, v in flags.items() if k != "eigen_residuals"))
    assert ok
