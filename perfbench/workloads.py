"""The four workloads as fixed operation lists.

An operation is one public gibbslab call, made in the order the
matching CLI subcommand makes it, at the CLI defaults (tol 1e-12,
nmax 8, the default grids).  Its outcome is ``ok``, ``wrong`` (it
returned, but failed its correctness check) or ``raised`` (with the
exception class).  An operation whose input an earlier one failed to
produce is not run and counts as raised ``UpstreamFailed``.

The functions are bound here, before the traced run patches module
attributes, so the benchmark's own span around a call is the only
span for it; calls the program makes internally go through the
patched attributes (see ``trace``).
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from gibbslab import models
from gibbslab.cli import _grid as grid
from gibbslab.cone import contraction_trace
from gibbslab.gibbs import (
    entropy,
    expectation,
    gibbs_measure,
    gibbs_ratio_scan,
    wasserstein_distance,
    wasserstein_lp,
)
from gibbslab.jsonio import dump_csv, dump_json
from gibbslab.sampler import empirical_birkhoff, sample_path
from gibbslab.stats import (
    PressureFamily,
    asymptotic_variance,
    clt_diagnostics,
    exact_birkhoff_distribution,
    local_limit_check,
    rate_function,
)
from gibbslab.transfer import (
    build,
    constants_report,
    dominant_eigendata,
    pressure_via_partition,
)
from gibbslab.verify import default_observable, uniform_chain, verify_model

import inputs
import reference

CLI_TOL = 1e-12
VERIFY_EIGEN_TOL = 1e-13
NMAX = 8
CLT_NS = (64, 256, 1024)
SAMPLE_N, SAMPLE_TRIALS = 1000, 3
SUMMARY_N, SUMMARY_TRIALS = 256, 10_000
LP_N = 7
PARTITION_N = 8
TRACE_BLOCKS = 10

PCURVE_GRID = "-3:3:0.25"  # pressure-curve default
RATE_GRID = "-0.5:0.5:0.05"  # rate-curve default
GOLDEN_RATE_GRID = "0.1:0.6:0.05"  # inside the mean range (0, 1)
K16_TILT_GRID = "-0.5:0.5:0.5"  # the points of inputs.TILTS
THREE_SYMBOL_RATE_GRID = "-0.3:0.1:0.2"  # t = 0.3 left out: 59.5 s

BUILTINS = inputs.BUILTINS

# The failures the seed program shows, each allowed only at its own op
# and with its own exception class: (model, op, param) -> class, where
# param None stands for every param.  Seeded models follow rules, not
# seeds: the k = 256 complex-kind solve runs out _deflated_gap's cap,
# and the DP laws of the random models drift in mass (k = 16 and 64,
# at values of n that depend on the seed).  Any other raise, of any
# class, is a failure.
KNOWN_FAILURES = {
    ("golden-mean-a-8@eigen_tol=1e-13", "dominant_eigendata", "tol=1e-13"): "NoConvergence",
    ("rand-m5-complex", "dominant_eigendata", None): "NoConvergence",
    ("three-symbol", "exact_birkhoff_distribution", "n=1024"): "SolveFailure",
    ("rand-m3-real", "exact_birkhoff_distribution", None): "SolveFailure",
    ("rand-m4-real", "exact_birkhoff_distribution", None): "SolveFailure",
}


def is_known_failure(op, exc):
    allowed = KNOWN_FAILURES.get((op.chain, op.name, op.param),
                                 KNOWN_FAILURES.get((op.chain, op.name, None)))
    return type(exc).__name__ == allowed


class Wrong(Exception):
    """An operation returned a value that failed its check."""


def close(what, got, want, tol):
    if not (abs(got - want) <= tol):
        raise Wrong(f"{what} {got!r} != reference {want!r} (tol {tol:g})")


@dataclass
class Op:
    chain: str  # context the op reads and writes: a model, maybe at a tol
    name: str  # public function called
    span: str  # layer, for the trace
    fn: object  # fn(ctx) -> result
    check: object = None  # check(ctx, result); raises Wrong
    needs: tuple = ()
    key: str = None  # where the result goes in ctx
    param: str = ""
    expect: object = None  # expect(ctx) -> exception class name or None
    counts: object = None  # counts(ctx, result or None) -> {counter: n}
    fp: object = None  # fp(result) -> list compared with the recorded fingerprint
    cmd: str = None  # the CLI invocation the op belongs to (one wait for a user)


def _command(cmd, ops):
    for op in ops:
        op.cmd = cmd
    return ops


def is_fixed(chain):
    return not chain.startswith("rand-")


# ---------------------------------------------------------------- set-up

def load_models(texts):
    """The program's own parse and validation of every model file."""
    return {name: models.from_json(text, name=name) for name, text in texts.items()}


def presolve(model):
    """build -> dominant_eigendata -> gibbs_measure at the CLI tol (the
    CLI's _solved)."""
    T = build(model.space, model.potential)
    E = dominant_eigendata(T, tol=CLI_TOL)
    return {"T": T, "E": E, "mu": gibbs_measure(T, E)}


def base_contexts(workload, docs, loaded, solve):
    refs = reference.References(docs)
    out = {}
    for name, model in loaded.items():
        ctx = {"name": name, "model": model, "doc": docs[name], "refs": refs,
               "psi": default_observable(model), "tol": CLI_TOL}
        if solve:
            try:
                ctx.update(presolve(model))
            except Exception as exc:  # recorded on every dependent op
                ctx["setup_error"] = (False,
                                      f"set-up solve raised {type(exc).__name__}: {exc}")
        out[name] = ctx
    if workload == "spectral-ladder":
        stiff = dict(out["golden-mean-a-8"], tol=VERIFY_EIGEN_TOL)
        out["golden-mean-a-8@eigen_tol=1e-13"] = stiff
    return out


# ---------------------------------------------------------------- checks

def _scale(ctx):
    return max(1.0, max(abs(v) for v in inputs.table_values(
        reference.observable_table(ctx["doc"])).values()))


def check_build(ctx, T):
    M = ctx["refs"].matrix(ctx["name"])
    if T.matrix.shape != M.shape:
        raise Wrong(f"matrix shape {T.matrix.shape} != {M.shape}")
    if not np.allclose(np.sort(T.matrix.ravel()), np.sort(M.ravel()),
                       rtol=1e-13, atol=0.0):
        raise Wrong("matrix entries differ from exp(phi) on the recoded edges")


def check_eigen(ctx, E):
    ev = np.linalg.eigvals(ctx["T"].matrix)
    lam = float(np.max(np.abs(ev)))
    close("pressure", E.pressure, math.log(lam), 1e-9 * max(1.0, abs(E.pressure)))
    close("gap_ratio", E.gap_ratio, reference.gap_ratio(ctx["T"].matrix), 1e-6)


def check_measure(ctx, mu):
    pi, Q = np.asarray(mu.stationary), np.asarray(mu.transition)
    close("sum(pi)", float(pi.sum()), 1.0, 1e-12)
    close("max row-sum defect", float(np.abs(Q.sum(axis=1) - 1.0).max()), 0.0, 1e-10)
    close("|pi Q - pi|_1", float(np.abs(pi @ Q - pi).sum()), 0.0, 1e-10)


def check_entropy(ctx, h):
    refs = ctx["refs"]
    want = refs.tilted(ctx["name"]).pressure - refs.mean_potential(ctx["name"])
    close("entropy (= P - integral phi)", h, want, 1e-9)


def check_mean(ctx, mean):
    close("E[psi]", mean, ctx["refs"].tilted(ctx["name"]).mean, 1e-10 * _scale(ctx))


def check_xi2(ctx, xi2):
    want = ctx["refs"].tilted(ctx["name"]).variance
    close("xi^2", xi2, want, 1e-7 * max(1.0, abs(want)))


def check_constants(ctx, c):
    lam = math.exp(ctx["refs"].tilted(ctx["name"]).pressure)
    close("ess_radius_bound", c["ess_radius_bound"], ctx["model"].alpha * lam, 1e-9 * lam)
    if not (math.isfinite(c["K"]) and c["K"] > 0 and c["cone_delta_prime"] > 0):
        raise Wrong(f"constants out of range: K={c['K']}, delta'={c['cone_delta_prime']}")


def check_trace(ctx, tr):
    rows = tr["rows"]
    f, g = _trace_vectors(len(ctx["T"].states))
    close("theta_0", rows[0]["theta"], reference.hilbert(f, g), 1e-12)
    for a, b in zip(rows, rows[1:]):
        if b["theta"] > a["theta"] * (1 + 1e-9) + 1e-12:
            raise Wrong(f"Hilbert distance grew at block {b['step']}")


def _trace_vectors(k):
    return ([1.0 + (i % 3) for i in range(k)], [1.0 + ((i + 1) % 3) for i in range(k)])


def check_json(keys, pick):
    def check(ctx, text):
        doc = json.loads(text)
        if list(doc) != list(keys):
            raise Wrong(f"document keys {list(doc)} != {list(keys)}")
        got, want = pick(ctx, doc)
        if got != want:
            raise Wrong(f"17-digit round trip {got!r} != {want!r}")
    return check


def check_csv(rows_of):
    def check(ctx, text):
        lines = text.splitlines()
        rows = rows_of(ctx)
        if len(lines) != len(rows) + 1:
            raise Wrong(f"{len(lines) - 1} CSV rows for {len(rows)}")
        first = lines[1].split(",")[1]
        if float(first) != rows[0][1]:
            raise Wrong(f"CSV cell {first} does not round-trip {rows[0][1]!r}")
    return check


def check_tilted_row(s):
    def check(ctx, row):
        _, p, lam, mean = row
        ref, ref0 = ctx["refs"].tilted(ctx["name"], s), ctx["refs"].tilted(ctx["name"])
        close(f"P({s:g})", p, ref.pressure, 1e-9 * max(1.0, abs(ref.pressure)))
        close(f"Lambda({s:g})", lam, ref.pressure - ref0.pressure, 1e-9)
        close(f"Lambda'({s:g})", mean, ref.mean, 1e-8 * _scale(ctx))
    return check


def expect_rate(t):
    def expect(ctx):
        lo, hi = ctx["refs"].mean_range(ctx["name"])
        eps = 1e-12 * _scale(ctx)
        return "OutOfRange" if t < lo - eps or t > hi + eps else None
    return expect


def check_rate(t):
    def check(ctx, pt):
        ref = ctx["refs"].tilted(ctx["name"], pt.s_star)
        ref0 = ctx["refs"].tilted(ctx["name"])
        close(f"Lambda'(s*) at t={t:g}", ref.mean, t, 1e-8 * _scale(ctx))
        close(f"I({t:g})", pt.rate, pt.s_star * t - (ref.pressure - ref0.pressure),
              1e-9 * max(1.0, abs(pt.s_star)))
        if pt.rate < 0.0:
            raise Wrong(f"negative rate {pt.rate!r}")
    return check


def check_law(n):
    def check(ctx, dist):
        close(f"mass of the n={n} law", float(dist.probs.sum()), 1.0, 1e-10)
        want = n * ctx["refs"].tilted(ctx["name"]).mean
        close(f"mean of the n={n} law", dist.mean(), want, 1e-9 * n * _scale(ctx))
    return check


def check_clt(n):
    def check(ctx, diag):
        dist = ctx[f"law{n}"]
        want = reference.kolmogorov(dist.values, dist.probs, n, ctx["mean"], ctx["xi2"])
        close(f"KS at n={n}", diag["ks"], want, 1e-12)
        close(f"BE constant at n={n}", diag["be_constant"], want * math.sqrt(n), 1e-10)
    return check


def check_lle(n):
    def check(ctx, err):
        dist = ctx[f"law{n}"]
        want = reference.local_limit(dist.values, dist.probs, dist.span, n,
                                     ctx["mean"], ctx["xi2"])
        close(f"local-limit error at n={n}", err, want, 1e-12)
    return check


def check_path(ctx, word):
    space = ctx["model"].space
    if len(word) != SAMPLE_N:
        raise Wrong(f"path has {len(word)} symbols, not {SAMPLE_N}")
    if not space.is_admissible(word):
        raise Wrong("sampled path uses a forbidden transition")


def check_summary(ctx, out):
    _, summary = out
    ref = ctx["refs"].tilted(ctx["name"])
    sd = math.sqrt(SUMMARY_N * ref.variance / SUMMARY_TRIALS)
    close("empirical mean of S_n", summary["mean"], SUMMARY_N * ref.mean, 6.0 * sd)
    if not summary["ks"] <= 0.025:
        raise Wrong(f"KS to the exact law {summary['ks']!r} above 0.025")


def check_partition(ctx, p):
    ref = ctx["refs"].tilted(ctx["name"]).pressure
    k = len(ctx["T"].states)
    bound = (2.0 * ctx["refs"].total_variation(ctx["name"]) + math.log(k)) / PARTITION_N
    close(f"P_{PARTITION_N}", p, ref, bound)


def check_unit_interval(what):
    def check(ctx, value):
        v = value[0] if isinstance(value, tuple) else value
        if not 0.0 <= v <= 1.0:
            raise Wrong(f"{what} {v!r} outside [0, 1]")
    return check


def check_verify(ctx, rep):
    if not rep.passed:
        bad = [c["name"] for c in rep.checks if not c["pass"]]
        raise Wrong(f"verify_model failed {bad}")


# ---------------------------------------------------------------- op lists

def spectral_ladder(contexts, seed):
    ops = []
    for chain, ctx in contexts.items():
        ops += _command(f"analyze {chain}", [
            Op(chain, "build", "transfer.build",
               lambda c: build(c["model"].space, c["model"].potential),
               check_build, key="T"),
            Op(chain, "dominant_eigendata", "transfer.eigen",
               lambda c: dominant_eigendata(c["T"], tol=c["tol"]),
               check_eigen, needs=("T",), key="E", param=f"tol={ctx['tol']:g}",
               counts=lambda c, E: {"transfer.eigen_iters": E.iterations} if E else {}),
            Op(chain, "gibbs_measure", "gibbs.measure",
               lambda c: gibbs_measure(c["T"], c["E"]), check_measure,
               needs=("T", "E"), key="mu"),
            Op(chain, "entropy", "gibbs.entropy", lambda c: entropy(c["mu"]),
               check_entropy, needs=("mu",), key="entropy"),
            Op(chain, "expectation", "gibbs.expectation",
               lambda c: expectation(c["mu"], c["psi"]), check_mean,
               needs=("mu",), key="mean"),
            Op(chain, "asymptotic_variance", "stats.asvar",
               lambda c: asymptotic_variance(c["mu"], c["psi"]), check_xi2,
               needs=("mu",), key="xi2"),
            Op(chain, "constants_report", "transfer.constants",
               lambda c: constants_report(c["model"].space, c["model"].potential,
                                          c["model"].alpha, c["E"]),
               check_constants, needs=("E",), key="constants",
               fp=lambda r: [r[k] for k in ("var_total", "holder_seminorm", "sup_norm",
                                            "B0_geometric", "K", "cone_delta_prime",
                                            "cone_n0", "cone_kappa_at_2delta")]),
            Op(chain, "contraction_trace", "cone.trace",
               lambda c: contraction_trace(c["T"], c["E"],
                                           *_trace_vectors(len(c["T"].states)),
                                           k=TRACE_BLOCKS),
               check_trace, needs=("T", "E"), key="trace",
               fp=lambda r: [r["delta"], r["kappa"], r["image_diameter"],
                             r["rows"][1]["theta"]]),
            Op(chain, "dump_json", "jsonio.dump", lambda c: dump_json(_analyze_report(c)),
               check_json(ANALYZE_KEYS, lambda c, d: (d["eigendata"]["pressure"],
                                                     c["E"].pressure)),
               needs=("T", "E", "mu", "entropy", "constants"), param="analyze report",
               counts=_bytes),
        ])
    return ops


ANALYZE_KEYS = ("model", "model_input", "eigendata", "chain", "entropy", "constants")


def _analyze_report(c):
    """analyze.json without the Gibbs scan (word-scan measures that)."""
    E, T, mu = c["E"], c["T"], c["mu"]
    return {
        "model": c["model"].name,
        "model_input": models.to_document(c["model"]),
        "eigendata": {
            "lambda": E.lambda_, "pressure": E.pressure, "h": E.h, "nu": E.nu,
            "min_h": E.min_h, "gap_ratio": E.gap_ratio,
            "ess_radius_bound": E.ess_radius_bound,
            "residual_h": E.residual_h, "residual_nu": E.residual_nu,
        },
        "chain": {
            "states": [",".join(str(s) for s in st) for st in T.states],
            "stationary": mu.stationary,
            "transition": mu.transition,
        },
        "entropy": c["entropy"],
        "constants": c["constants"],
    }


def _bytes(ctx, text):
    return {"jsonio.bytes": len(text.encode())} if text is not None else {}


def _family(chain, key):
    return Op(chain, "PressureFamily", "stats.family",
              lambda c: PressureFamily(c["model"].space, c["model"].potential,
                                       c["psi"], tol=CLI_TOL),
              key=key)


def tilted_family(contexts, seed):
    ops = []
    curves = [(name, PCURVE_GRID) for name in BUILTINS + ("three-symbol",)]
    curves.append(("rand-m3-complex", K16_TILT_GRID))
    for chain, text in curves:
        curve = [_family(chain, "fam")]
        keys = []
        for s in grid(text):
            key = f"pc{s!r}"
            keys.append(key)
            curve.append(Op(chain, "pressure+cumulant+mean", "stats.family",
                          lambda c, s=s: (s, c["fam"].pressure(s), c["fam"].cumulant(s),
                                          c["fam"].mean(s)),
                          check_tilted_row(s), needs=("fam",), key=key, param=f"s={s:g}",
                          fp=lambda r: list(r[1:])))
        rows = lambda c, keys=tuple(keys): [c[k] for k in keys]
        curve.append(Op(chain, "dump_csv", "jsonio.dump",
                        lambda c, rows=rows: dump_csv(("s", "pressure", "lambda_cgf",
                                                       "lambda_prime"), rows(c)),
                        check_csv(rows), needs=tuple(keys), param="pressure curve",
                        counts=_bytes))
        ops += _command(f"pressure-curve {chain}", curve)
    rates = [("bernoulli", RATE_GRID), ("ising", RATE_GRID),
             ("golden-mean", GOLDEN_RATE_GRID), ("three-symbol", THREE_SYMBOL_RATE_GRID)]
    for chain, text in rates:
        curve = [_family(chain, "rfam")]
        keys = []
        for t in grid(text):
            key = f"rate{t!r}"
            keys.append(key)
            curve.append(Op(chain, "rate_function", "stats.rate",
                          lambda c, t=t: rate_function(c["model"].space,
                                                       c["model"].potential, c["psi"], t,
                                                       family=c["rfam"]),
                          check_rate(t), needs=("rfam",), key=key, param=f"t={t:g}",
                          expect=expect_rate(t), fp=lambda r: [r.rate, r.s_star]))
        rows = lambda c, keys=tuple(keys): [_rate_row(c[k]) for k in keys]
        curve.append(Op(chain, "dump_csv", "jsonio.dump",
                        lambda c, rows=rows: dump_csv(("t", "rate", "s_star", "note"), rows(c)),
                        lambda c, text, rows=rows: _check_rate_csv(text, rows(c)),
                        needs=tuple(keys), param="rate curve", counts=_bytes))
        ops += _command(f"rate-curve {chain}", curve)
    return ops


def _rate_row(r):
    if isinstance(r, Exception):
        return (None, None, None, f"out-of-range: {r}")
    return (r.t, r.rate, r.s_star, "")


def _check_rate_csv(text, rows):
    if len(text.splitlines()) != len(rows) + 1:
        raise Wrong("rate CSV row count")


def exact_law(contexts, seed):
    ops = []
    for chain in contexts:
        clt_keys = []
        clt = [
            Op(chain, "expectation", "gibbs.expectation",
               lambda c: expectation(c["mu"], c["psi"]), check_mean,
               needs=("mu",), key="mean"),
            Op(chain, "asymptotic_variance", "stats.asvar",
               lambda c: asymptotic_variance(c["mu"], c["psi"]), check_xi2,
               needs=("mu",), key="xi2"),
        ]
        for n in CLT_NS:
            law = f"law{n}"
            clt += [
                Op(chain, "exact_birkhoff_distribution", "stats.dp",
                   lambda c, n=n: exact_birkhoff_distribution(c["mu"], c["psi"], n),
                   check_law(n), needs=("mu",), key=law, param=f"n={n}",
                   counts=lambda c, d, n=n: {"stats.dp_cells": _dp_cells(c, n)},
                   fp=lambda d: [d.offset, d.span, float(d.indices[0]),
                                 float(d.probs.max()), d.variance()]),
                Op(chain, "clt_diagnostics", "stats.clt",
                   lambda c, n=n: clt_diagnostics(c[f"law{n}"], c["mean"], c["xi2"]),
                   check_clt(n), needs=(law, "mean", "xi2"), key=f"clt{n}",
                   param=f"n={n}", fp=lambda d: [d["ks"]]),
                Op(chain, "local_limit_check", "stats.clt",
                   lambda c, n=n: local_limit_check(c[f"law{n}"], c["mean"], c["xi2"]),
                   check_lle(n), needs=(law, "mean", "xi2"), key=f"lle{n}",
                   param=f"n={n}", fp=lambda e: [e]),
                Op(chain, "dump_csv", "jsonio.dump",
                   lambda c, n=n: dump_csv(_law_header(c[f"law{n}"]), _law_rows(c[f"law{n}"])),
                   check_csv(lambda c, n=n: _law_rows(c[f"law{n}"])), needs=(law,),
                   param=f"distribution n={n}", counts=_bytes),
            ]
            clt_keys += [f"clt{n}", f"lle{n}"]
        clt.append(Op(chain, "dump_json", "jsonio.dump",
                      lambda c: dump_json(_clt_report(c)),
                      check_json(("mean", "xi2", "diagnostics"),
                                 lambda c, d: (d["xi2"], c["xi2"])),
                      needs=("mean", "xi2", *clt_keys), param="clt report", counts=_bytes))
        ops += _command(f"clt {chain}", clt)
    ops += _command("sample three-symbol", _sampler_ops("three-symbol", seed))
    return ops


def _dp_cells(ctx, n):
    """Cells of the (state, lattice index) table swept by the DP:
    states x steps x lattice width."""
    vals = sorted(set(inputs.table_values(reference.observable_table(ctx["doc"])).values()))
    span = min(b - a for a, b in zip(vals, vals[1:])) if len(vals) > 1 else 1.0
    width = n * round((vals[-1] - vals[0]) / span) + 1
    return len(ctx["mu"].states) * n * width


def _law_header(d):
    return (f"k(n={d.n};a={d.offset!r};b={d.span!r})", "value", "probability")


def _law_rows(d):
    return [(int(j), v, p) for j, v, p in zip(d.indices, d.values, d.probs)]


def _clt_report(c):
    diags = []
    for n in CLT_NS:
        diag = dict(c[f"clt{n}"])
        diag["lle_max_error"] = c[f"lle{n}"]
        diags.append(diag)
    return {"mean": c["mean"], "xi2": c["xi2"], "diagnostics": diags}


def _sampler_ops(chain, seed):
    """The sample subcommand: --trials 3 --n 1000, then a summary at
    --summary-n 256 with 10,000 trials against the exact law."""
    ops = []
    for stream in range(SAMPLE_TRIALS):
        ops.append(Op(chain, "sample_path", "sampler.path",
                      lambda c, stream=stream: sample_path(c["mu"], SAMPLE_N, seed,
                                                           stream=stream),
                      check_path, needs=("mu",), param=f"stream={stream}",
                      counts=lambda c, w: {"sampler.draws":
                                           1 + SAMPLE_N - c["mu"].block_length}))
    ops += [
        Op(chain, "exact_birkhoff_distribution", "stats.dp",
           lambda c: exact_birkhoff_distribution(c["mu"], c["psi"], SUMMARY_N),
           check_law(SUMMARY_N), needs=("mu",), key="summary_law",
           param=f"n={SUMMARY_N} (sample summary)",
           counts=lambda c, d: {"stats.dp_cells": _dp_cells(c, SUMMARY_N)}),
        Op(chain, "empirical_birkhoff", "sampler.birkhoff",
           lambda c: empirical_birkhoff(c["mu"], c["psi"], SUMMARY_N, SUMMARY_TRIALS,
                                        seed, exact=c["summary_law"]),
           check_summary, needs=("mu", "summary_law"), key="summary",
           param=f"n={SUMMARY_N} trials={SUMMARY_TRIALS}",
           counts=lambda c, r: {"sampler.draws": SUMMARY_TRIALS * SUMMARY_N}),
        Op(chain, "dump_json", "jsonio.dump", lambda c: dump_json(c["summary"][1]),
           check_json(("mean", "var_over_n", "ks"),
                      lambda c, d: (d["mean"], c["summary"][1]["mean"])),
           needs=("summary",), param="sample summary", counts=_bytes),
    ]
    return ops


def word_scan(contexts, seed):
    ops = []
    for chain, ctx in contexts.items():
        two_symbol = ctx["model"].space.alphabet_size == 2
        ops += [
            Op(chain, "gibbs_ratio_scan", "gibbs.scan",
               lambda c: gibbs_ratio_scan(c["mu"], c["model"].potential, NMAX),
               needs=("mu",), param=f"nmax={NMAX}",
               counts=lambda c, r: {"gibbs.scan_words": _words_up_to(c, NMAX)},
               fp=lambda r: [r.min_ratio, r.max_ratio, r.band_spread, r.passed]),
            Op(chain, "pressure_via_partition", "transfer.partition",
               lambda c: pressure_via_partition(c["model"].space, c["model"].potential,
                                                PARTITION_N),
               check_partition, needs=("T",), param=f"n={PARTITION_N}", fp=lambda p: [p]),
            Op(chain, "uniform_chain", "verify.uniform_chain",
               lambda c: uniform_chain(c["model"]), check_measure, key="uniform"),
            Op(chain, "wasserstein_distance", "gibbs.wasserstein",
               lambda c: wasserstein_distance(c["mu"], c["uniform"], c["model"].alpha, NMAX),
               check_unit_interval("W1"), needs=("mu", "uniform"), param=f"nmax={NMAX}",
               fp=lambda r: list(r)),
        ]
        if two_symbol:
            ops.append(Op(chain, "wasserstein_lp", "gibbs.lp",
                          lambda c: wasserstein_lp(c["mu"], c["uniform"],
                                                   c["model"].alpha, LP_N),
                          check_unit_interval("W1 (LP)"), needs=("mu", "uniform"),
                          param=f"n={LP_N}", fp=lambda v: [v]))
        ops.append(Op(chain, "verify_model", "verify.model",
                      lambda c: verify_model(c["model"], n_max=NMAX), check_verify,
                      param=f"nmax={NMAX}",
                      fp=lambda r: [c["pass"] for c in r.checks]))
    return ops


def _words_up_to(ctx, n_max):
    A = ctx["model"].space.transitions.astype(np.int64)
    total, P = 0, np.eye(len(A), dtype=np.int64)
    for _ in range(n_max):
        total += int(P.sum())
        P = P @ A
    return total


BUILDERS = {
    "spectral-ladder": spectral_ladder,
    "tilted-family": tilted_family,
    "exact-law": exact_law,
    "word-scan": word_scan,
}


# ---------------------------------------------------------------- runner

def run_pass(ops, contexts, tracer, fingerprints, recorded=None):
    """Run every op once; returns one record per op.

    ``known`` marks an op that raised one of the KNOWN_FAILURES, or
    could not run because an earlier op did so.  A set-up solve that
    raised is never known.
    """
    ctxs = {name: dict(ctx, lost={}) for name, ctx in contexts.items()}
    records = []
    for op in ops:
        ctx = ctxs[op.chain]
        rec = {"op": op.name, "model": op.chain, "param": op.param, "cmd": op.cmd,
               "outcome": "ok", "exc": None, "known": False, "detail": "",
               "seconds": 0.0}
        records.append(rec)
        missing = [k for k in op.needs if k not in ctx]
        if missing:
            known, detail = (ctx["lost"].get(missing[0]) or ctx.get("setup_error")
                             or (False, f"no {missing[0]!r}"))
            rec.update(outcome="raised", exc="UpstreamFailed", known=known, detail=detail)
            _lose(ctx, op, known, detail)
            continue
        err = result = None
        with tracer.span(op.span):
            start = time.perf_counter()
            try:
                result = op.fn(ctx)
            except Exception as exc:  # recorded as the op's outcome
                err = exc
            rec["seconds"] = time.perf_counter() - start
        expected = op.expect(ctx) if op.expect else None
        if op.counts:
            for name, n in op.counts(ctx, result).items():
                tracer.count(name, n)
        if err is not None:
            if type(err).__name__ == expected:
                rec["detail"] = f"expected {expected}"
                if op.key:
                    ctx[op.key] = err
                continue
            tracer.count(op.span + ".failed")
            known = is_known_failure(op, err)
            rec.update(outcome="raised", exc=type(err).__name__, known=known,
                       detail=str(err)[:300])
            _lose(ctx, op, known, f"{op.name} raised {type(err).__name__}")
            continue
        try:
            if expected:
                raise Wrong(f"returned, expected {expected}")
            if op.check:
                op.check(ctx, result)
            if op.fp and is_fixed(op.chain):
                _fingerprint(op, result, fingerprints, recorded)
        except Exception as exc:  # a failed check, or a check that could not run
            rec.update(outcome="wrong", exc=type(exc).__name__, detail=str(exc)[:300])
            _lose(ctx, op, False, f"{op.name} returned a wrong value")
            continue
        if op.key:
            ctx[op.key] = result
    return records


def _lose(ctx, op, known, detail):
    if op.key:
        ctx["lost"][op.key] = (known, detail)


def fingerprint_key(op):
    return f"{op.chain}|{op.name}|{op.param}"


def _fingerprint(op, result, fingerprints, recorded):
    values = [v if isinstance(v, bool) else float(v) for v in op.fp(result)]
    key = fingerprint_key(op)
    if recorded is not None:
        recorded[key] = values
        return
    want = fingerprints.get(key)
    if want is None:
        raise Wrong(f"no recorded fingerprint for {key}")
    if len(want) != len(values):
        raise Wrong(f"fingerprint length {len(values)} != {len(want)}")
    for got, ref in zip(values, want):
        if isinstance(ref, bool) or isinstance(got, bool):
            ok = got is ref
        else:
            ok = abs(got - ref) <= 1e-9 + 1e-7 * abs(ref)
        if not ok:
            raise Wrong(f"fingerprint {values} != recorded {want}")
