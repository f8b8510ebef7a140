"""Command-line surface.

Subcommands: analyze, verify, pressure-curve, rate-curve, clt, ldp,
sample, examples.  Models come from --model FILE or --builtin NAME with
parameter flags (--p, --beta, --field, --a).  Numeric output is
serialized with 17 significant digits; repeated runs with identical
inputs and seeds produce byte-identical files.

Exit codes: 0 success, 1 validation error, 2 numerical failure.
"""

import argparse
import math
import os
import sys

from . import cone, models, stats, transfer
from .errors import NumericalError, OutOfRange, ValidationError
from .gibbs import entropy, expectation, gibbs_measure, gibbs_ratio_scan
from .jsonio import dump_csv, dump_json
from .sampler import SampleConfig, empirical_birkhoff, sample_path
from .shift_space import check_cap
from .stats import (
    PressureFamily,
    clt_diagnostics,
    exact_birkhoff_distribution,
    ldp_empirical,
    local_limit_check,
    rate_function,
)
from .verify import default_observable as _observable
from .verify import EIGEN_TOL, perturbed_nu, uniform_chain, verify_model


def _model_args(p):
    p.add_argument("--model", help="model JSON file")
    p.add_argument("--builtin", help="builtin name (see `gibbslab examples`)")
    p.add_argument("--p", type=float, default=0.7, help="bernoulli success weight")
    p.add_argument("--beta", type=float, default=1.0, help="ising coupling")
    p.add_argument("--field", type=float, default=0.0, help="ising external field")
    p.add_argument("--a", type=float, default=0.0, help="golden-mean reward")
    p.add_argument("--out", help="output directory (default: stdout only)")
    p.add_argument("--tol", type=float, default=transfer.DEFAULT_TOL,
                   help="eigensolver tolerance")


def _load_model(args):
    if bool(args.model) == bool(args.builtin):
        raise ValidationError("give exactly one of --model or --builtin")
    if args.model:
        try:
            with open(args.model) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read model file {args.model!r}: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"model file {args.model!r} is not text: {exc.reason}")
        return models.from_json(text, name=os.path.basename(args.model))
    name = args.builtin
    params = {
        flag: getattr(args, flag) for flag in models.BUILTIN_PARAMS.get(name, ())
    }
    return models.builtin(name, **params)


def _write(args, filename, text):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, filename)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _solved(model, tol):
    T = transfer.build(model.space, model.potential)
    E = transfer.dominant_eigendata(T, tol=tol)
    return T, E, gibbs_measure(T, E)


def cmd_analyze(args):
    model = _load_model(args)
    T, E, mu = _solved(model, args.tol)
    scan = gibbs_ratio_scan(mu, model.potential, args.nmax)
    report = {
        "model": model.name,
        "model_input": models.to_document(model),
        "eigendata": {
            "lambda": E.lambda_,
            "pressure": E.pressure,
            "h": E.h,
            "nu": E.nu,
            "min_h": E.min_h,
            "gap_ratio": E.gap_ratio,
            "ess_radius_bound": E.ess_radius_bound,
            "residual_h": E.residual_h,
            "residual_nu": E.residual_nu,
        },
        "chain": {
            "states": [",".join(str(s) for s in st) for st in T.states],
            "stationary": mu.stationary,
            "transition": mu.transition,
        },
        "entropy": entropy(mu),
        "constants": transfer.constants_report(
            model.space, model.potential, model.alpha, E
        ),
        "gibbs_scan": {
            "n_max": scan.n_max,
            "min_ratio": scan.min_ratio,
            "max_ratio": scan.max_ratio,
            "c1": scan.c1,
            "c2": scan.c2,
            "pass": scan.passed,
        },
    }
    _write(args, "analyze.json", dump_json(report))
    if args.out:
        k = T.state_count
        f = [1.0 + (i % 3) for i in range(k)]
        g = [1.0 + ((i + 1) % 3) for i in range(k)]
        trace = cone.contraction_trace(T, E, f, g, k=10)
        rows = [
            (r["step"], r["theta"], r["factor"], r["in_cone"])
            for r in trace["rows"]
        ]
        _write(args, "cone_trace.csv",
               dump_csv(("step", "theta", "factor", "in_cone_flag"), rows))
    return 0


def cmd_verify(args):
    model = _load_model(args)
    inject_chain = None
    inject_nu = None
    if args.inject == "fair-chain":
        inject_chain = uniform_chain(model)
    elif args.inject == "perturbed-nu":
        inject_nu = perturbed_nu(model, args.tol)
    report = verify_model(model, n_max=args.nmax, inject_chain=inject_chain,
                          inject_nu=inject_nu, eigen_tol=args.tol)
    if args.format == "csv":
        rows = [
            (c["name"], dump_json(c["metric"]).strip().replace("\n", " "),
             c["tolerance"], c["pass"])
            for c in report.checks
        ]
        _write(args, "verify.csv", dump_csv(("check", "metric", "tolerance", "pass"), rows))
    else:
        _write(args, "verify.json", dump_json(report.as_document()))
    return 0


def cmd_pressure_curve(args):
    model = _load_model(args)
    psi = _observable(model)
    fam = PressureFamily(model.space, model.potential, psi, tol=args.tol)
    rows = []
    for s in _grid(args.grid):
        rows.append((s, fam.pressure(s), fam.cumulant(s), fam.mean(s)))
    text = dump_csv(("s", "pressure", "lambda_cgf", "lambda_prime"), rows)
    _write(args, "pressure_curve.csv", text)
    return 0


def cmd_rate_curve(args):
    model = _load_model(args)
    psi = _observable(model)
    fam = PressureFamily(model.space, model.potential, psi, tol=args.tol)
    rows = []
    for t in _grid(args.grid):
        try:
            pt = rate_function(model.space, model.potential, psi, t, family=fam)
            rows.append((t, pt.rate, pt.s_star, ""))
        except OutOfRange as exc:
            rows.append((t, None, None, f"out-of-range: {exc}"))
    text = dump_csv(("t", "rate", "s_star", "note"), rows)
    _write(args, "rate_curve.csv", text)
    return 0


def cmd_clt(args):
    if min(args.n) < 1:
        raise ValidationError("n must be at least 1")
    model = _load_model(args)
    psi = _observable(model)
    _, _, mu = _solved(model, args.tol)
    mean = expectation(mu, psi)
    xi2 = stats.asymptotic_variance(mu, psi)
    out = []
    for n in args.n:
        dist = exact_birkhoff_distribution(mu, psi, n)
        diag = clt_diagnostics(dist, mean, xi2)
        diag["lle_max_error"] = local_limit_check(dist, mean, xi2)
        out.append(diag)
        if args.out:
            rows = [
                (int(j), v, p)
                for j, v, p in zip(dist.indices, dist.values, dist.probs)
            ]
            header = (f"k(n={dist.n};a={dist.offset!r};b={dist.span!r})",
                      "value", "probability")
            _write(args, f"distribution_n{n}.csv", dump_csv(header, rows))
    if args.format == "csv":
        rows = [(d["n"], d["ks"], d["be_constant"], d["lle_max_error"]) for d in out]
        _write(args, "clt.csv", dump_csv(("n", "ks", "be_constant", "lle_max_error"), rows))
    else:
        _write(args, "clt.json", dump_json({"mean": mean, "xi2": xi2, "diagnostics": out}))
    return 0


def cmd_ldp(args):
    model = _load_model(args)
    psi = _observable(model)
    _, _, mu = _solved(model, args.tol)
    mean = expectation(mu, psi)

    def oracle(t):  # ldp_empirical calls it at most once, and not when [a, b] holds the mean
        lo, hi = stats._mean_range(model.space, psi)  # no invariant measure has a mean off it
        if abs(min(max(t, lo), hi) - t) > 1e-12 * max(1.0, abs(t)):
            return math.inf
        fam = PressureFamily(model.space, model.potential, psi, tol=args.tol)
        return rate_function(model.space, model.potential, psi, t, family=fam).rate

    dists = [exact_birkhoff_distribution(mu, psi, n) for n in args.n]
    rows = ldp_empirical(dists, (args.a_level, args.b_level), oracle, mean)
    table = [
        (r["n"], r["probability"], r["empirical_rate"], r["inf_rate"], r["gap"],
         r["zero_probability"])
        for r in rows
    ]
    text = dump_csv(
        ("n", "probability", "empirical_rate", "inf_rate", "gap", "zero_probability"),
        table,
    )
    _write(args, "ldp.csv", text)
    return 0


def cmd_sample(args):
    for flag in ("n", "trials") + (("summary_n", "summary_trials") if args.summary_n else ()):
        if getattr(args, flag) < 1:
            raise ValidationError(f"--{flag.replace('_', '-')} must be at least 1")
    SampleConfig(seed=args.seed, n=args.n, trials=args.trials)
    model = _load_model(args)
    psi = _observable(model)
    _, _, mu = _solved(model, args.tol)
    lines = []
    for trial in range(args.trials):
        word = sample_path(mu, args.n, args.seed, stream=trial)
        lines.append(",".join(str(s) for s in word))
    _write(args, "samples.txt", "\n".join(lines) + "\n")
    exact = None
    if args.summary_n:
        exact = exact_birkhoff_distribution(mu, psi, args.summary_n)
        _, summary = empirical_birkhoff(
            mu, psi, args.summary_n, args.summary_trials, args.seed, exact=exact
        )
        _write(args, "sample_summary.json", dump_json(summary))
    return 0


def cmd_examples(args):
    doc = {
        name: {"parameters": list(models.BUILTIN_PARAMS[name])}
        for name in sorted(models.BUILTINS)
    }
    sys.stdout.write(dump_json(doc))
    return 0


def _grid(text):
    """start:stop:step grid, inclusive of both ends within a half step.
    The three parts must be finite numbers, the nominal point count
    (stop - start) / step + 1 is held to the enumeration cap, and each
    point must exceed the one before it: a step below the float spacing
    at a point would repeat it, past the nominal count."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError("grid must be start:stop:step")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ValidationError(f"grid {text!r} must be three numbers start:stop:step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValidationError(f"grid {text!r} must be three finite numbers")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    count = (stop - start) / step + 1
    check_cap(count, f"grid {text!r} of {count:.6g} points")
    out = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 0.5 * step:
            break
        if out and v <= out[-1]:
            raise ValidationError(f"grid step {step:g} is below the float spacing at point {v:g}")
        out.append(v)
        k += 1
    return out


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gibbslab",
        description="Gibbs measures for finite-memory potentials on mixing "
        "subshifts of finite type: spectral data, equivalence diagnostics, "
        "and statistical limit theorems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="eigendata, pressure, entropy, constants")
    _model_args(p)
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="five-characterization report")
    _model_args(p)
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--inject", choices=("fair-chain", "perturbed-nu"))
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_verify, tol=EIGEN_TOL)

    p = sub.add_parser("pressure-curve", help="tilted pressure over an s-grid")
    _model_args(p)
    p.add_argument("--grid", default="-3:3:0.25", help="start:stop:step")
    p.set_defaults(func=cmd_pressure_curve)

    p = sub.add_parser("rate-curve", help="rate function over a t-grid")
    _model_args(p)
    p.add_argument("--grid", default="-0.5:0.5:0.05", help="start:stop:step")
    p.set_defaults(func=cmd_rate_curve)

    p = sub.add_parser("clt", help="exact-law CLT and local-limit diagnostics")
    _model_args(p)
    p.add_argument("--n", type=int, nargs="+", default=[64, 256, 1024])
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("ldp", help="empirical large-deviation rates")
    _model_args(p)
    p.add_argument("--n", type=int, nargs="+", default=[100, 200, 400])
    p.add_argument("--a-level", type=float, required=True)
    p.add_argument("--b-level", type=float, required=True)
    p.set_defaults(func=cmd_ldp)

    p = sub.add_parser("sample", help="seeded trajectories and summaries")
    _model_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--summary-n", type=int, default=0,
                   help="Birkhoff length for the empirical summary")
    p.add_argument("--summary-trials", type=int, default=10000)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("examples", help="list builtin models")
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
