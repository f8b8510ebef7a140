import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import time

import pytest

from gibbslab import cli, models, transfer
from gibbslab.cli import main
from gibbslab.errors import SizeGuard
from gibbslab.jsonio import dump_json
from gibbslab.verify import uniform_chain

from oracles import random_full_shift


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def python(*args):
    """Run a fresh interpreter with this checkout's package importable."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _readme_commands():
    """Invocations in the README's "Command line" block, with `\\`
    continuations joined and optional `[...]` groups dropped."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(re.sub(r"\[[^]]*\]", "", line)) for line in lines if line.strip()]


def test_readme_commands_exit_zero(tmp_path, capsys):
    commands = _readme_commands()
    assert len(commands) == 8
    for i, cmd in enumerate(commands):
        assert cmd[0] == "gibbslab"
        args = cmd[1:]
        if "--out" in args:
            args[args.index("--out") + 1] = str(tmp_path / str(i))
        assert run(args) == 0, cmd
        capsys.readouterr()


def test_examples_lists_builtins(capsys):
    assert run(["examples"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"bernoulli", "ising", "golden-mean"}


def test_analyze_bernoulli(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["analyze", "--builtin", "bernoulli", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["eigendata"]["pressure"] == pytest.approx(0.0, abs=1e-12)
    assert doc["eigendata"]["nu"] == pytest.approx([0.7, 0.3], abs=1e-12)
    assert doc["gibbs_scan"]["pass"] is True
    assert set(doc["eigendata"]) == {
        "lambda", "pressure", "h", "nu", "min_h", "gap_ratio",
        "ess_radius_bound", "residual_h", "residual_nu",
    }
    assert (out / "cone_trace.csv").read_text().splitlines()[0] == (
        "step,theta,factor,in_cone_flag"
    )


def test_analyze_values_match_reported_precision(tmp_path, capsys):
    out = tmp_path / "r"
    assert run(["analyze", "--builtin", "ising", "--beta", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["eigendata"]["pressure"] == pytest.approx(1.1270, abs=1e-3)
    assert doc["eigendata"]["gap_ratio"] == pytest.approx(0.7616, abs=1e-3)
    assert run(["analyze", "--builtin", "golden-mean", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "analyze.json").read_text())
    assert doc["eigendata"]["pressure"] == pytest.approx(0.4812, abs=5e-4)


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run(["analyze", "--builtin", "no-such-model"]) == 1
    capsys.readouterr()
    assert run(["analyze", "--builtin", "bernoulli", "--model", "x.json"]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{\"alphabet\": 2}")
    assert run(["analyze", "--model", str(bad)]) == 1
    capsys.readouterr()
    import gibbslab.transfer as transfer_mod
    monkeypatch.setattr(transfer_mod, "MAX_ITER", 5)
    assert run(["analyze", "--builtin", "golden-mean", "--tol", "1e-15"]) == 2
    capsys.readouterr()


def test_malformed_model_exits_one_without_traceback(tmp_path):
    doc = models.to_document(models.builtin("bernoulli"))
    bad = tmp_path / "double.json"
    bad.write_text(json.dumps(dump_json(doc)))
    proc = python("-m", "gibbslab.cli", "analyze", "--model", str(bad),
                  "--out", str(tmp_path / "r"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["symbols", "alphabet", "memory", "transitions", "value"])
def test_malformed_field_exits_one_without_traceback(tmp_path, field):
    """A non-list symbols field, a fractional alphabet or potential
    memory, which int() would truncate, ragged transitions, and a
    potential value whose exp overflows."""
    doc = models.to_document(models.builtin("bernoulli"))
    if field == "memory":
        doc["potential"]["memory"] = 1.9
    elif field == "value":
        doc["potential"]["values"]["2"] = 1e308
    else:
        doc[field] = {"symbols": 5, "alphabet": 2.5, "transitions": [[1, 1], [1]]}[field]
    bad = tmp_path / "bad.json"
    bad.write_text(dump_json(doc))
    proc = python("-m", "gibbslab.cli", "analyze", "--model", str(bad),
                  "--out", str(tmp_path / "r"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["analyze", "--builtin", "ising", "--nmax", "0"],
    ["analyze", "--builtin", "ising", "--nmax", "-3"],
    ["verify", "--builtin", "ising", "--nmax", "0"],
    ["analyze", "--builtin", "ising", "--tol", "nan"],
    ["verify", "--builtin", "ising", "--tol", "inf", "--inject", "perturbed-nu",
     "--format", "csv"],
    ["analyze", "--model", "MISSING"],
    ["analyze", "--model", "BINARY"],
    ["pressure-curve", "--builtin", "ising", "--grid", "a:1:0.5"],
    ["pressure-curve", "--builtin", "ising", "--grid", "0:inf:1"],
    ["pressure-curve", "--builtin", "ising", "--grid", "nan:1:1"],
    ["pressure-curve", "--builtin", "ising", "--grid", "0:1:inf"],
    ["rate-curve", "--builtin", "ising", "--grid", "0:1:nan"],
    ["rate-curve", "--builtin", "ising", "--grid", "0:1e9:1e-3"],
    ["sample", "--builtin", "bernoulli", "--n", "0"],
    ["sample", "--builtin", "bernoulli", "--n", "5", "--trials", "-1"],
    ["sample", "--builtin", "bernoulli", "--n", "5", "--summary-n", "-4"],
    ["sample", "--builtin", "bernoulli", "--n", "5", "--summary-n", "8",
     "--summary-trials", "0"],
    ["clt", "--builtin", "bernoulli", "--n", "64", "0"],
], ids=["nmax-0", "nmax-negative", "verify-nmax-0", "tol-nan", "tol-inf", "missing-model",
        "binary-model", "grid-text", "grid-inf-stop", "grid-nan-start", "grid-inf-step",
        "grid-nan-step", "grid-huge", "sample-n-0", "sample-trials-negative", "summary-n-negative",
        "summary-trials-0", "clt-n-0"])
def test_bad_cli_input_exits_one_without_traceback(tmp_path, argv):
    """An empty scan length, a tolerance that is no positive finite
    number, a model file that cannot be read or is not text, and a grid
    that is not three finite numbers or has more points than the
    enumeration cap, a sample or summary count below 1 (named by its
    flag, the last one given), and a clt length below 1: each is an input
    error, reported on one line before any output.  A non-finite or huge grid is refused before its first
    point, since its points are built one by one."""
    files = {"MISSING": tmp_path / "missing.json", "BINARY": tmp_path / "binary.json"}
    files["BINARY"].write_bytes(b"\xff\xfe{")
    argv = [str(files[a]) if a in files else a for a in argv]
    proc = python("-m", "gibbslab.cli", *argv, "--out", str(tmp_path / "r"))
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "r").exists()
    if argv[0] == "sample":
        assert proc.stderr.startswith(f"error: {argv[-2]} must be at least 1")


def test_overflowing_tilt_is_out_of_range_fast(tmp_path):
    """psi = 30 [x0 = 1] on the full 2-shift: the bracket for t = 0 and
    t = 30 (the ends of the mean range) reaches |s| = 32, where
    exp(s psi) overflows; those rows are out of range, found at once."""
    doc = models.to_document(models.builtin("bernoulli"))
    doc["potential"]["values"] = {"1": 0.0, "2": 0.0}
    doc["observable"]["values"] = {"1": 30.0, "2": 0.0}
    path = tmp_path / "tilt.json"
    path.write_text(dump_json(doc))
    start = time.perf_counter()
    proc = python("-m", "gibbslab.cli", "rate-curve", "--model", str(path),
                  "--grid=0:30:10")
    assert time.perf_counter() - start < 2.0
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 4
    assert rows[0].startswith("0,") and "out-of-range" in rows[0]


@pytest.mark.parametrize("values, code", [((709, 709, 0), 0), ((709, 709, 709), 2)])
def test_huge_potential_exits_cleanly(tmp_path, values, code):
    """On the full 3-shift, phi = (709, 709, 0) has lambda ~ 1.6e308:
    it solves, and the scan band and constants too large for a float
    are written as Infinity.  phi = 709 has lambda = 3 e**709, which is
    not a float: the solve fails before iterating, without warnings."""
    doc = {"alphabet": 3, "symbols": [1, 2, 3], "transitions": [[1, 1, 1]] * 3,
           "potential": {"memory": 1, "values": dict(zip("123", values))}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = python("-m", "gibbslab.cli", "analyze", "--model", str(path),
                  "--out", str(tmp_path / "r"))
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    if code == 0:
        report = json.loads((tmp_path / "r" / "analyze.json").read_text())
        assert report["gibbs_scan"]["c2"] == math.inf
        assert report["constants"]["K"] == math.inf
    else:
        assert "smallest row sum" in proc.stderr


def test_verify_underflowed_cylinder_is_a_numerical_failure(tmp_path):
    """phi = (709, 709, 0) on the full 3-shift solves, but the cylinder
    (3, 3) has measure ~ e**-1418, which underflows to zero: the
    Jacobian check cannot be evaluated, a numerical failure (exit 2)
    rather than invalid input (exit 1)."""
    doc = {"alphabet": 3, "symbols": [1, 2, 3], "transitions": [[1, 1, 1]] * 3,
           "potential": {"memory": 1, "values": {"1": 709, "2": 709, "3": 0}}}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = python("-m", "gibbslab.cli", "verify", "--model", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "numerical failure:" in proc.stderr and "jacobian_identity" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_passes_tol_to_the_solve(monkeypatch, capsys):
    """verify's --tol is the eigensolver tolerance of verify_model,
    1e-13 unless given."""
    seen = []
    real = cli.verify_model

    def spy(model, **kwargs):
        seen.append(kwargs.get("eigen_tol"))
        return real(model, **kwargs)

    monkeypatch.setattr(cli, "verify_model", spy)
    assert run(["verify", "--builtin", "bernoulli", "--tol", "1e-11"]) == 0
    assert run(["verify", "--builtin", "bernoulli"]) == 0
    capsys.readouterr()
    assert seen == [1e-11, 1e-13]


def test_perturbed_nu_solves_at_the_given_tol(monkeypatch, capsys):
    """verify --inject perturbed-nu solves the eigenmeasure it perturbs
    at --tol, as verify_model solves the model."""
    seen = []
    real = cli.perturbed_nu

    def spy(model, tol):
        seen.append(tol)
        return real(model, tol)

    monkeypatch.setattr(cli, "perturbed_nu", spy)
    for extra in (["--tol", "1e-9"], []):
        assert run(["verify", "--builtin", "bernoulli", "--inject", "perturbed-nu", *extra]) == 0
    capsys.readouterr()
    assert seen == [1e-9, 1e-13]


def test_verify_judges_residuals_at_the_solve_tol(tmp_path, capsys):
    """golden-mean a = -8 certifies at --tol 1e-9 with residuals above
    TOLS' 1e-10: the eigen-residual check allows the tolerance the solve
    was asked for, and reports it."""
    out = tmp_path / "v"
    argv = ["verify", "--builtin", "golden-mean", "--a", "-8", "--tol", "1e-9"]
    assert run([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "verify.json").read_text())
    check = {c["name"]: c for c in doc["checks"]}["eigen_residuals"]
    assert check["tolerance"] == 1e-9
    assert 1e-10 < check["metric"] <= 1e-9
    assert doc["pass"] is True


def test_clt_lift_past_the_cap_exits_one(tmp_path, capsys):
    """An observable of memory 11 on the full 2-shift lifts the 1-block
    chain to 2048 states; the 2048 x 2048 dense chain of the variance's
    resolvent solve exceeds the default cap of 2**20 entries, so clt
    stops before building it."""
    doc = models.to_document(models.builtin("bernoulli"))
    words = [",".join(w) for w in itertools.product("12", repeat=11)]
    doc["observable"] = {"memory": 11, "values": {w: float(w.count("1") % 2) for w in words}}
    path = tmp_path / "m11.json"
    path.write_text(dump_json(doc))
    assert run(["clt", "--model", str(path), "--n", "4"]) == 1
    assert "2048x2048 resolvent chain exceeds" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason=(
    "a loose --tol leaves Q's rows further from 1 than GibbsMeasure's 1e-9 check "
    "allows; renormalising Q (ROADMAP Direction 1) waits on the benchmark "
    "prerequisite, whose fingerprints must change with it"))
@pytest.mark.parametrize("argv", [
    ["analyze", "--builtin", "ising", "--beta", "4", "--field", "0.01", "--tol", "1e-10"],
    ["verify", "--builtin", "golden-mean", "--a", "-8", "--tol", "1e-8"],
])
def test_loose_tol_builds_the_chain(argv, capsys):
    assert run(argv) == 0, capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    """`import gibbslab.cli` imports no package but numpy and the
    standard library's, so scipy in particular: every command pays for
    each package it imports at start-up.  Modules without a spec are
    not imported from anywhere (numpy's compiled extensions register
    the Cython runtime that way) and are not counted."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gibbslab.cli\n"
        "new = {m.partition('.')[0] for m, mod in sys.modules.items()\n"
        "       if m not in before and getattr(mod, '__spec__', None) is not None}\n"
        "print(*sorted(new - set(sys.stdlib_module_names)))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gibbslab", "numpy"]


def test_transport_leaves_scipy_unloaded():
    code = (
        "import sys\n"
        "from gibbslab import gibbs, models, transfer, verify\n"
        "m = models.bernoulli(0.7)\n"
        "T = transfer.build(m.space, m.potential)\n"
        "mu = gibbs.gibbs_measure(T, transfer.dominant_eigendata(T))\n"
        "w = gibbs.wasserstein_lp(mu, verify.uniform_chain(m), 0.5, 4)\n"
        "print(w > 0.0, 'scipy' in sys.modules)\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


def test_model_round_trip(tmp_path, capsys):
    model = models.builtin("ising", beta=1.0, field=0.25)
    doc = models.to_document(model)
    path = tmp_path / "ising.json"
    path.write_text(dump_json(doc))
    reparsed = models.from_json(path.read_text(), name="ising.json")
    assert dump_json(models.to_document(reparsed)) == path.read_text()
    out = tmp_path / "r"
    assert run(["analyze", "--model", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "analyze.json").read_text())
    assert report["model_input"] == json.loads(dump_json(doc))


def test_outputs_byte_identical(tmp_path, capsys):
    """Two runs of each command give the same bytes, also on a memory-5
    random full 4-shift, whose 256 x 256 transfer matrix and chain are
    the largest built here."""
    a, b = tmp_path / "a", tmp_path / "b"
    phi = random_full_shift(100, 5)
    m5 = tmp_path / "m5.json"
    m5.write_text(dump_json(models.to_document(
        models.ModelFile("m5.json", phi.space, phi, phi.alpha))))
    for out in (a, b):
        assert run(["analyze", "--model", str(m5), "--out", str(out / "m5")]) == 0
        capsys.readouterr()
        assert run(["sample", "--model", str(m5), "--n", "200", "--trials", "2",
                    "--seed", "42", "--summary-n", "32", "--summary-trials", "500",
                    "--out", str(out / "m5")]) == 0
        capsys.readouterr()
        assert run([
            "sample", "--builtin", "golden-mean", "--n", "200", "--trials", "2",
            "--seed", "42", "--summary-n", "32", "--summary-trials", "500",
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        assert run(["analyze", "--builtin", "ising", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["clt", "--builtin", "golden-mean", "--n", "64", "256",
                    "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["rate-curve", "--builtin", "bernoulli", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["pressure-curve", "--builtin", "ising", "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", "--builtin", "golden-mean", "--out", str(out)]) == 0
        capsys.readouterr()
    for name in ("samples.txt", "sample_summary.json", "analyze.json", "cone_trace.csv",
                 "clt.json", "distribution_n64.csv", "distribution_n256.csv",
                 "rate_curve.csv", "pressure_curve.csv", "verify.json",
                 "m5/analyze.json", "m5/cone_trace.csv", "m5/samples.txt",
                 "m5/sample_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_verify_builtins_pass(tmp_path, capsys):
    for name in ("bernoulli", "ising", "golden-mean"):
        out = tmp_path / name
        assert run(["verify", "--builtin", name, "--out", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads((out / "verify.json").read_text())
        assert doc["pass"] is True
        assert [c["pass"] for c in doc["checks"]] == [True] * 5


def test_verify_injections_fail_intended_check(tmp_path, capsys):
    out = tmp_path / "i1"
    assert run(["verify", "--builtin", "bernoulli", "--inject", "fair-chain",
                "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "verify.json").read_text())
    flags = {c["name"]: c["pass"] for c in doc["checks"]}
    assert flags["variational_defect"] is False
    assert all(v for k, v in flags.items() if k != "variational_defect")
    defect = [c["metric"] for c in doc["checks"] if c["name"] == "variational_defect"][0]
    assert defect == pytest.approx(0.0871766935723889, abs=1e-12)

    out = tmp_path / "i2"
    assert run(["verify", "--builtin", "bernoulli", "--inject", "perturbed-nu",
                "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "verify.json").read_text())
    flags = {c["name"]: c["pass"] for c in doc["checks"]}
    assert flags["eigen_residuals"] is False
    assert all(v for k, v in flags.items() if k != "eigen_residuals")


def test_fair_chain_past_the_matrix_cap_is_a_size_guard(tmp_path, monkeypatch, capsys):
    """The fair chain is a dense matrix on the potential's blocks, so it
    falls under the transfer matrix's cap before anything is allocated,
    as the transfer matrix itself does: a memory-3 potential on the full
    2-shift has 4 blocks, and a cap of 15 admits its 8 words but not the
    4x4 matrix."""
    words = [",".join(map(str, w)) for w in itertools.product((1, 2), repeat=3)]
    doc = {"alphabet": 2, "transitions": [[1, 1], [1, 1]],
           "potential": {"memory": 3, "values": {w: 0.1 * i for i, w in enumerate(words)}}}
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "15")
    model = models.from_json(path.read_text())
    with pytest.raises(SizeGuard, match="4x4 transfer matrix exceeds"):
        uniform_chain(model)
    with pytest.raises(SizeGuard, match="4x4 transfer matrix exceeds"):
        transfer.build(model.space, model.potential)
    assert run(["verify", "--model", str(path), "--inject", "fair-chain",
                "--out", str(tmp_path / "out")]) == 1
    assert "4x4 transfer matrix exceeds" in capsys.readouterr().err
    monkeypatch.setenv("GIBBSLAB_ENUM_CAP", "16")
    assert len(uniform_chain(models.from_json(path.read_text())).states) == 4


def test_pressure_curve_golden_closed_form(tmp_path, capsys):
    out = tmp_path / "c"
    assert run(["pressure-curve", "--builtin", "golden-mean",
                "--grid=-3:3:0.25", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "pressure_curve.csv").read_text().splitlines()
    assert lines[0] == "s,pressure,lambda_cgf,lambda_prime"
    assert len(lines) == 1 + 25
    worst = 0.0
    for line in lines[1:]:
        s, pressure, _, _ = (float(x) for x in line.split(","))
        closed = math.log((math.exp(s) + math.sqrt(math.exp(2 * s) + 4.0)) / 2.0)
        worst = max(worst, abs(pressure - closed))
    assert worst <= 1e-9


def test_pressure_curve_stiff_golden_mean(tmp_path, capsys):
    """golden-mean a = -8, whose gap ratio is 0.99966, gives its whole
    default curve, every P the closed form log((x + sqrt(x^2 + 4)) / 2),
    x = e^(s - 8)."""
    out = tmp_path / "gm8"
    assert run(["pressure-curve", "--builtin", "golden-mean", "--a", "-8",
                "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "pressure_curve.csv").read_text().splitlines()
    assert len(lines) == 1 + 25
    for line in lines[1:]:
        s, pressure, _, _ = (float(x) for x in line.split(","))
        x = math.exp(s - 8.0)
        closed = math.log((x + math.sqrt(x * x + 4.0)) / 2.0)
        assert abs(pressure - closed) <= 1e-15


def test_empty_grid_gives_header_only(tmp_path, capsys):
    out = tmp_path / "e"
    assert run(["pressure-curve", "--builtin", "bernoulli",
                "--grid", "1:0:1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "pressure_curve.csv").read_text() == "s,pressure,lambda_cgf,lambda_prime\n"


def test_rate_curve_records_out_of_range(tmp_path, capsys):
    out = tmp_path / "rc"
    assert run(["rate-curve", "--builtin", "bernoulli",
                "--grid=-0.8:0.4:0.2", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "rate_curve.csv").read_text().splitlines()
    assert any("out-of-range" in line for line in lines[1:])
    mid = [l for l in lines if l.startswith("0,")][0]
    assert float(mid.split(",")[1]) == 0.0


def test_clt_and_ldp_commands(tmp_path, capsys):
    out = tmp_path / "clt"
    assert run(["clt", "--builtin", "ising", "--n", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "clt.json").read_text())
    assert doc["xi2"] == pytest.approx(math.e**2, abs=1e-9)
    assert doc["diagnostics"][0]["n"] == 64
    dist_lines = (out / "distribution_n64.csv").read_text().splitlines()
    assert len(dist_lines) == 1 + 65

    out = tmp_path / "ldp"
    assert run(["ldp", "--builtin", "bernoulli", "--n", "100", "--a-level", "0.2",
                "--b-level", "0.4", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "ldp.csv").read_text().splitlines()
    assert lines[0].startswith("n,probability,empirical_rate")
    assert len(lines) == 2


@pytest.mark.parametrize("a, b", [(0.6, 0.9), (0.9, 1.0)])
def test_ldp_off_the_mean_range_is_infinite(tmp_path, capsys, a, b):
    """Bernoulli's observable ranges over [-0.7, 0.3]: an interval whose
    clamped point lies past it has rate +inf, written Infinity, and no
    mass, so its gaps are empty."""
    out = tmp_path / "ldp"
    assert run(["ldp", "--builtin", "bernoulli", "--a-level", str(a), "--b-level", str(b),
                "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "ldp.csv").read_text().splitlines()
    assert lines[1:] == [f"{n},0,,Infinity,,true" for n in (100, 200, 400)]


@pytest.mark.parametrize("a, b, builds", [(-0.1, 0.1, 0), (0.6, 0.9, 0), (0.1, 0.25, 1)])
def test_ldp_builds_a_family_only_for_a_rate(tmp_path, capsys, monkeypatch, a, b, builds):
    """ldp builds its tilted family on the rate oracle's first call: an
    interval holding bernoulli's Gibbs mean 0, or past its mean range
    [-0.7, 0.3], asks no rate point and builds none."""
    made = []

    class Counted(cli.PressureFamily):
        def __init__(self, *args, **kwargs):
            made.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "PressureFamily", Counted)
    assert run(["ldp", "--builtin", "bernoulli", "--a-level", str(a), "--b-level", str(b),
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(made) == builds


def test_format_csv_variants(tmp_path, capsys):
    out = tmp_path / "fmt"
    assert run(["verify", "--builtin", "bernoulli", "--format", "csv",
                "--out", str(out)]) == 0
    capsys.readouterr()
    import csv as csv_mod
    with open(out / "verify.csv") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0] == ["check", "metric", "tolerance", "pass"]
    assert len(rows) == 6
    assert all(r[3] == "true" for r in rows[1:])
    assert run(["clt", "--builtin", "ising", "--n", "64", "--format", "csv",
                "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "clt.csv").read_text().splitlines()
    assert lines[0] == "n,ks,be_constant,lle_max_error"
    assert len(lines) == 2
