"""One pass of each benchmark workload, run as the benchmark runs them:
from the root of the checkout with perfbench/run.py.  A result that
no longer matches its fingerprint, or a known failure that stops
raising, fails this test, and so does a pass that answers fewer ops
than it did when the floor below was set (an op that starts raising a
known failure keeps `correct` true).  The run's records go to the
git-ignored perfbench/out/."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# ops answered by one pass at the default seed, of 117, 177, 96 and 23
ANSWERED = {"spectral-ladder": 109, "tilted-family": 177, "exact-law": 69, "word-scan": 23}


@pytest.mark.parametrize("workload",
                         ["word-scan", "exact-law", "spectral-ladder", "tilted-family"])
def test_benchmark_pass_is_correct(workload):
    args = ["perfbench/run.py", "--workload", workload, "--seconds", "0"]
    run = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    answered = round(result["metrics"]["ok_frac"]["value"] * result["attempted"])
    assert answered >= ANSWERED[workload], (answered, result["attempted"])
