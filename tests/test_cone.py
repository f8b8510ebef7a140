import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbslab import models
from gibbslab.cone import (
    cone_constants,
    contraction_trace,
    hilbert_metric,
    in_cone,
    oscillation_ratio,
)
from gibbslab.errors import NonPositive, ValidationError

positive_vectors = st.lists(
    st.floats(1e-6, 1e6), min_size=3, max_size=3
).map(np.array)


def test_hilbert_metric_basics():
    assert hilbert_metric([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert hilbert_metric([2.0, 4.0], [1.0, 2.0]) == 0.0
    assert hilbert_metric([1.0, 2.0], [1.0, 1.0]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_hilbert_metric_rejects_nonpositive():
    with pytest.raises(NonPositive):
        hilbert_metric([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(NonPositive):
        oscillation_ratio([-1.0, 2.0])


@given(positive_vectors, positive_vectors, positive_vectors)
@settings(max_examples=80, deadline=None)
def test_hilbert_triangle_inequality(f, g, k):
    assert hilbert_metric(f, k) <= hilbert_metric(f, g) + hilbert_metric(g, k) + 1e-9


@given(positive_vectors, positive_vectors, st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
@settings(max_examples=80, deadline=None)
def test_hilbert_scale_invariance(f, g, a, b):
    assert hilbert_metric(a * f, b * g) == pytest.approx(hilbert_metric(f, g), rel=1e-9, abs=1e-12)


@given(positive_vectors, positive_vectors, st.data())
@settings(max_examples=60, deadline=None)
def test_positive_matrices_never_expand(f, g, data):
    entries = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=9, max_size=9))
    M = np.array(entries).reshape(3, 3)
    assert hilbert_metric(M @ f, M @ g) <= hilbert_metric(f, g) + 1e-9


def test_oscillation_and_cone_membership():
    assert oscillation_ratio([3.0, 3.0, 3.0]) == 1.0
    assert in_cone([3.0, 3.0], 0.0)
    assert in_cone([math.e, 1.0], 1.0)  # boundary
    assert not in_cone([math.e**2, 1.0], 1.0)


def test_cone_constants_bernoulli():
    m = models.bernoulli(0.7)
    cc = cone_constants(m.space, m.potential)
    v = math.log(7.0 / 3.0)
    assert cc.delta_prime == pytest.approx(v + v + math.log(2.0), abs=1e-12)
    assert cc.n0 == 2


def test_cone_constants_ising():
    m = models.ising(1.0, 0.0)
    cc = cone_constants(m.space, m.potential)
    assert cc.delta_prime == pytest.approx(2.0 + 4.0 + math.log(2.0), abs=1e-12)
    assert cc.kappa(2.0 * cc.delta_prime) == pytest.approx(
        math.tanh(cc.delta_prime / 4.0) / math.tanh(cc.delta_prime / 2.0), abs=1e-15
    )
    with pytest.raises(ValidationError):
        cc.kappa(cc.delta_prime / 2.0)


def test_cone_constants_zero_potential():
    m = models.golden_mean(0.0)
    cc = cone_constants(m.space, m.potential)
    # phi = 0: delta' = M log N with M = 2 for the golden mean shift
    assert cc.delta_prime == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert cc.n0 == 4


def test_contraction_trace_equal_inputs(ising):
    tr = contraction_trace(ising.T, ising.E, [2.0, 5.0], [2.0, 5.0], k=3)
    assert all(r["theta"] == 0.0 for r in tr["rows"])


def test_contraction_trace_ising_against_power_oracle(ising):
    f0 = np.array([1.0, 10.0])
    g0 = np.array([10.0, 1.0])
    tr = contraction_trace(ising.T, ising.E, f0, g0, k=5)
    kappa = tr["kappa"]
    thetas = [r["theta"] for r in tr["rows"]]
    assert all(thetas[i + 1] < thetas[i] for i in range(5))
    for r in tr["rows"][1:]:
        assert r["in_cone"]
        assert r["factor"] <= kappa + 1e-12
    # independent oracle: raw matrix powers of the operator (scale-free)
    op = ising.T.matrix.T
    step = np.linalg.matrix_power(op, tr["n0"])
    f, g = f0, g0
    for j in range(1, 6):
        f = step @ f
        g = step @ g
        r = f / g
        assert thetas[j] == pytest.approx(math.log(r.max() / r.min()), rel=1e-9, abs=1e-12)


def test_contraction_trace_bernoulli_rank_one(bernoulli):
    tr = contraction_trace(bernoulli.T, bernoulli.E, [1.0, 7.0], [3.0, 2.0], k=2)
    assert tr["rows"][0]["theta"] > 0
    assert tr["rows"][1]["theta"] == pytest.approx(0.0, abs=1e-12)
    assert tr["rows"][2]["theta"] == pytest.approx(0.0, abs=1e-12)


def test_contraction_factors_all_builtins(builtin_triple):
    for name, sv in builtin_triple.items():
        cc = cone_constants(sv.space, sv.phi)
        delta = 2.0 * cc.delta_prime
        tr = contraction_trace(sv.T, sv.E, [1.0, 3.0], [3.0, 1.0], k=10, delta=delta)
        kappa = tr["kappa"]
        for row in tr["rows"][1:]:
            assert row["in_cone"]
            if row["factor"] is not None:
                assert row["factor"] <= kappa + 1e-12


def test_no_factor_over_rounding_noise(golden):
    """On golden-mean (k = 2, n0 = 4) theta_8 = 1.5e-14 is below its
    rounding error err_8 = (4*8*4*3 + 4) 2**-53 = 4.3e-14, theta falls
    below 1e-15 at step 9 and to 0 at step 10: the factors of steps 8-10
    would be ratios of or over rounding noise, and are None; steps 1-7,
    between thetas above their bounds, keep theirs."""
    tr = contraction_trace(golden.T, golden.E, [1.0, 2.0], [2.0, 3.0], k=10)
    rows = tr["rows"]
    assert 1e-14 < rows[8]["theta"] < 388 * 2.0**-53 < 4.4e-14
    assert rows[9]["theta"] < 1e-15 and rows[10]["theta"] == 0.0
    assert [r["factor"] is None for r in rows] == [True] + [False] * 7 + [True] * 3
    assert all(0.02 < r["factor"] < 0.027 for r in rows[1:8])
