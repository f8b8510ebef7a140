"""gibbslab benchmark: one workload, one process, one caller, closed loop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ./src
and nothing is installed.  Workloads: spectral-ladder, tilted-family,
exact-law, word-scan (see perfbench/NOTES.md).

A run measures set-up SETUP_SAMPLES times, each in a fresh
interpreter (three before the passes, two after), sets up once more in
this process and runs whole passes over the workload's fixed operation
list until --seconds have elapsed (at least one pass).  Timings are
the fastest the run saw: wall_s is the fastest pass, slowest_cmd_s the
longest CLI invocation, each timed at its fastest pass.  With
--trace 1 half of that time runs untraced and half traced, and the
per-layer metrics are reported instead of the end-to-end ones.  The
last line of standard output is the JSON result; every op's outcome is
written to perfbench/out/<workload>-seed<N>-trace<T>.json.

    python3 perfbench/run.py --record-fingerprints [--seed N]

re-records perfbench/fingerprints.json from the program in ./src.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
WORKLOADS = ("spectral-ladder", "tilted-family", "exact-law", "word-scan")
PRESOLVED = ("exact-law", "word-scan")
DEFAULT_SEED = 100
SETUP_SAMPLES = 5  # 3 before the passes, 2 after, so they straddle the run
SETUP_TIMEOUT_S = 60

# (name, unit, source): "self:<span>" self time, "calls:<span>",
# "count:<counter>", "ratio:<counter>/<counter or calls:span>",
# "setup:<key>" or "overhead".  A metric is not applicable to a workload
# when the span its name starts with (up to the last "_") never ran.
PER_LAYER = (
    ("transfer.eigen_s", "s", "self:transfer.eigen"),
    ("transfer.eigen_calls", "count", "calls:transfer.eigen"),
    ("transfer.eigen_iters", "count", "count:transfer.eigen_iters"),
    ("transfer.eigen_failed", "count", "count:transfer.eigen.failed"),
    ("transfer.build_s", "s", "self:transfer.build"),
    ("transfer.build_calls", "count", "calls:transfer.build"),
    ("potential.affine_s", "s", "self:potential.affine"),
    ("potential.affine_calls", "count", "calls:potential.affine"),
    ("stats.family_solves", "count", "count:stats.family_solves"),
    ("stats.family_hit_ratio", "ratio", "ratio:stats.family_hits/stats.family_lookups"),
    ("stats.rate_points", "count", "calls:stats.rate"),
    ("stats.solves_per_rate_point", "count", "ratio:stats.rate_solves/calls:stats.rate"),
    ("stats.rate_s", "s", "self:stats.rate"),
    ("stats.dp_s", "s", "self:stats.dp"),
    ("stats.dp_cells", "count", "count:stats.dp_cells"),
    ("stats.dp_failed", "count", "count:stats.dp.failed"),
    ("stats.clt_s", "s", "self:stats.clt"),
    ("sampler.path_s", "s", "self:sampler.path"),
    ("sampler.birkhoff_s", "s", "self:sampler.birkhoff"),
    ("sampler.draws", "count", "count:sampler.draws"),
    ("gibbs.scan_s", "s", "self:gibbs.scan"),
    ("gibbs.scan_words", "count", "count:gibbs.scan_words"),
    ("transfer.partition_s", "s", "self:transfer.partition"),
    ("gibbs.wasserstein_s", "s", "self:gibbs.wasserstein"),
    ("gibbs.lp_s", "s", "self:gibbs.lp"),
    ("verify.model_s", "s", "self:verify.model"),
    ("stats.asvar_s", "s", "self:stats.asvar"),
    ("gibbs.block_chain_s", "s", "self:gibbs.block_chain"),
    ("gibbs.measure_s", "s", "self:gibbs.measure"),
    ("cone.trace_s", "s", "self:cone.trace"),
    ("transfer.constants_s", "s", "self:transfer.constants"),
    ("jsonio.dump_s", "s", "self:jsonio.dump"),
    ("jsonio.bytes", "count", "count:jsonio.bytes"),
    ("setup.import_s", "s", "setup:setup.import_s"),
    ("setup.import_scipy_special_s", "s", "setup:setup.import_scipy_special_s"),
    ("setup.inputs_s", "s", "setup:setup.inputs_s"),
    ("setup.presolve_s", "s", "setup:setup.presolve_s"),
    ("trace.overhead_s", "s", "overhead"),
)
# spans a metric's applicability hangs on, where its name does not say
APPLIES_WITH = {
    "stats.family_solves": "stats.family_lookups",
    "stats.family_hit_ratio": "stats.family_lookups",
    "stats.rate_points": "stats.rate",
    "stats.solves_per_rate_point": "stats.rate",
    "sampler.draws": "sampler.path",
    "gibbs.scan_words": "gibbs.scan",
    "jsonio.bytes": "jsonio.dump",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def program_present():
    return os.path.isfile(os.path.join(SRC, "gibbslab", "__init__.py"))


def write_models(workload, seed):
    """Generate the workload's model files (benchmark work, untimed);
    returns the path set-up reads them from."""
    import inputs

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-models.json")
    with open(path, "w") as fh:
        json.dump(inputs.workload_models(workload, seed), fh)
    return path


def set_up(workload, seed, models_path):
    """Imports, model files, pre-solves; returns (ops, contexts, split)."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.special  # noqa: F401

    t2 = time.perf_counter()
    sys.path.insert(0, SRC)
    import gibbslab.cli  # noqa: F401  (what a CLI call imports)

    if not os.path.abspath(gibbslab.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"gibbslab imported from {gibbslab.cli.__file__}, not {SRC}")
    t3 = time.perf_counter()
    import workloads

    with open(models_path) as fh:
        texts = json.load(fh)
    loaded = workloads.load_models(texts)
    t4 = time.perf_counter()
    docs = {name: json.loads(text) for name, text in texts.items()}
    contexts = workloads.base_contexts(workload, docs, loaded, solve=workload in PRESOLVED)
    t5 = time.perf_counter()
    ops = workloads.BUILDERS[workload](contexts, seed)
    split = {"setup.import_s": t3 - t0, "setup.import_scipy_special_s": t2 - t1,
             "setup.inputs_s": t4 - t3, "setup.presolve_s": t5 - t4}
    return ops, contexts, split


def setup_child(args):
    _, _, split = set_up(args.workload, args.seed, args.models)
    print(json.dumps(dict(split, t_end=time.perf_counter())))


def measure_setup(args, models_path, count):
    """`count` fresh interpreters, one after another; set-up time runs
    from just before the spawn to the end of the child's set-up
    (perf_counter is CLOCK_MONOTONIC, shared by all processes)."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed), "--models", models_path]
    for _ in range(count):
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up took over {SETUP_TIMEOUT_S} s")
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-600:]}")
        split = json.loads(proc.stdout.strip().splitlines()[-1])
        split["setup_s"] = split.pop("t_end") - start
        samples.append(split)
    return samples


def run_passes(seconds, ops, contexts, fingerprints, traced):
    """Whole passes until `seconds` have elapsed, at least one; a traced
    pass gets a fresh Tracer and the internal wrappers.  The garbage of
    a pass is collected before the next, so that peak RSS does not grow
    with the number of passes that fit.

    Pass i runs pinned to the i-th of the CPUs this process may use, in
    turn.  On a shared machine one CPU can run slower than another for
    longer than a run lasts; taking turns lets the fastest pass show
    the program's own speed rather than the luck of its placement."""
    import spans
    import workloads

    cpus = sorted(os.sched_getaffinity(0))
    passes = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            gc.collect()
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
            tracer = spans.Tracer() if traced else spans.NullTracer()
            undo = spans.install(tracer) if traced else (lambda: None)
            try:
                records = workloads.run_pass(ops, contexts, tracer, fingerprints)
            finally:
                undo()
            passes.append((records, tracer))
    finally:
        os.sched_setaffinity(0, cpus)
    return passes


def wall(records):
    return sum(r["seconds"] for r in records)


def slowest(passes, group):
    """The longest group of ops, each group timed at its fastest pass;
    ``group(i, record)`` names the group of the i-th op."""
    fastest = {}
    for records, _ in passes:
        totals = {}
        for i, r in enumerate(records):
            key = group(i, r)
            totals[key] = totals.get(key, 0.0) + r["seconds"]
        for key, t in totals.items():
            fastest[key] = min(t, fastest.get(key, t))
    return max(fastest.values())


def by_cmd(i, rec):
    """An op's CLI invocation; an op outside any counts alone."""
    return rec["cmd"] or i


def is_failed(rec):
    """Wrong, or raised other than as one of the known failures."""
    return rec["outcome"] == "wrong" or (rec["outcome"] == "raised" and not rec["known"])


def layer_value(source, tracer, setup_samples, overhead):
    kind, _, what = source.partition(":")
    if kind == "self":
        return tracer.self_s.get(what, 0.0)
    if kind == "calls":
        return tracer.calls.get(what, 0)
    if kind == "count":
        return tracer.counters.get(what, 0)
    if kind == "ratio":
        num, den = what.split("/")
        d = (tracer.calls.get(den[6:], 0) if den.startswith("calls:")
             else tracer.counters.get(den, 0))
        return tracer.counters.get(num, 0) / d if d else 0.0
    if kind == "setup":
        return statistics.median(s[what] for s in setup_samples)
    return overhead


def applies(name, tracer, workload):
    if name == "setup.presolve_s":
        return workload in PRESOLVED
    if name.startswith(("setup.", "trace.")):
        return True
    span = APPLIES_WITH.get(name, name.rsplit("_", 1)[0])
    return span in tracer.calls or span in tracer.counters


def per_layer_metrics(traced, setup_samples, overhead, workload):
    metrics, not_applicable = {}, []
    for name, unit, source in PER_LAYER:
        values = [layer_value(source, tracer, setup_samples, overhead)
                  for _, tracer in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        if not any(applies(name, tracer, workload) for _, tracer in traced):
            not_applicable.append(name)
    return metrics, not_applicable


def record_fingerprints(seed):
    recorded = {}
    for workload in WORKLOADS:
        ops, contexts, _ = set_up(workload, seed, write_models(workload, seed))
        import spans
        import workloads

        workloads.run_pass(ops, contexts, spans.NullTracer(), {}, recorded=recorded)
        print(f"{workload}: {len(recorded)} fingerprints so far", flush=True)
    with open(FINGERPRINTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--models", help=argparse.SUPPRESS)
    ap.add_argument("--record-fingerprints", action="store_true")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        ap.error("seed must lie in [0, 2**63)")
    if not program_present():
        print(f"error: no gibbslab sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_fingerprints:
        record_fingerprints(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        setup_child(args)
        return 0
    try:
        return bench(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def bench(args):
    models_path = write_models(args.workload, args.seed)
    before = SETUP_SAMPLES // 2 + 1
    setup_samples = measure_setup(args, models_path, before)
    ops, contexts, own_split = set_up(args.workload, args.seed, models_path)

    with open(FINGERPRINTS) as fh:
        fingerprints = json.load(fh)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = run_passes(budget, ops, contexts, fingerprints, traced=False)
    traced = run_passes(budget, ops, contexts, fingerprints, traced=True) if args.trace else []
    setup_samples += measure_setup(args, models_path, SETUP_SAMPLES - before)
    all_passes = passes + traced
    walls = [wall(r) for r, _ in passes]
    worst = max((r for r, _ in all_passes), key=lambda rs: sum(map(is_failed, rs)))
    failed = sum(map(is_failed, worst))
    not_ok = sum(r["outcome"] != "ok" for r in worst)
    answered = sum(r["outcome"] == "ok" for r in worst)
    correct = not any(is_failed(r) for rs, _ in all_passes for r in rs)
    attempted = len(ops)

    e2e = {
        "wall_s": min(walls),
        "slowest_cmd_s": slowest(passes, by_cmd),
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "ok_frac": answered / attempted,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"wall_s": "s", "slowest_cmd_s": "s", "setup_s": "s", "ok_frac": "ratio",
             "peak_rss_mib": "MiB"}
    if args.trace:
        overhead = min(wall(r) for r, _ in traced) - min(walls)
        metrics, not_applicable = per_layer_metrics(traced, setup_samples, overhead,
                                                     args.workload)
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        not_applicable = []

    os.makedirs(OUT, exist_ok=True)
    out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "blas_threads": BLAS_THREADS, "setup_samples": setup_samples,
                   "own_setup": own_split, "pass_walls": walls,
                   "traced_pass_walls": [wall(r) for r, _ in traced],
                   "metrics": metrics, "ops": worst}, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops per pass, "
          f"{len(passes)} untraced + {len(traced)} traced passes, "
          f"BLAS threads {BLAS_THREADS}, one process, one caller (closed loop)")
    for r in worst:
        if r["outcome"] != "ok":
            kind = "known" if r["known"] else "FAILED"
            print(f"  {kind}: {r['op']}({r['param']}) on {r['model']}: {r['outcome']} "
                  f"{r['exc']} after {r['seconds']:.3f} s: {r['detail'][:160]}")
    print(f"fail_frac {not_ok / attempted:.4f} ({not_ok}/{attempted} raised or wrong; "
          f"{failed} of them not known failures)")
    print(f"slowest_op_s {slowest(passes, lambda i, r: i):.6g} s (single call, not bounded)")
    for k, v in e2e.items():
        print(f"{k} {v:.6g} {units[k]}")
    if not_applicable:
        print("not applicable to this workload (reported as 0): " + ", ".join(not_applicable))
    print(f"records: {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
