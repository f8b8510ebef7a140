import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from gibbslab import models, transfer
from gibbslab.errors import GibbsLabError, NoConvergence, ValidationError
from gibbslab.gibbs import gibbs_measure, gibbs_ratio_scan
from gibbslab.potential import FiniteMemoryFunction, affine_combine, total_variation
from gibbslab.shift_space import validate

from oracles import random_full_shift


def test_bernoulli_matrix(bernoulli):
    assert bernoulli.T.block_length == 1
    assert bernoulli.T.states == ((1,), (2,))
    assert bernoulli.T.matrix == pytest.approx(np.array([[0.7, 0.7], [0.3, 0.3]]))


def test_ising_matrix(ising):
    e = math.e
    assert ising.T.states == ((-1,), (1,))
    assert ising.T.matrix == pytest.approx(
        np.array([[e, 1.0 / e], [1.0 / e, e]])
    )


def test_golden_adjacency_for_zero_potential(golden):
    assert golden.T.matrix == pytest.approx(np.array([[1.0, 1.0], [1.0, 0.0]]))


def test_memory_three_block_states():
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    words3 = [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    vals = {w: 0.1 * w[0] - 0.2 * w[1] + 0.05 * w[2] for w in words3}
    phi = FiniteMemoryFunction(space, 3, vals)
    T = transfer.build(space, phi)
    assert T.block_length == 2
    assert len(T.states) == 4
    i = T.states.index((1, 2))
    j = T.states.index((2, 1))
    # move (1,2) -> (2,1) reads phi on the word (1,2,1)
    assert T.matrix[i, j] == pytest.approx(math.exp(vals[(1, 2, 1)]))
    # non-overlapping blocks are forbidden
    assert T.matrix[i, T.states.index((1, 2))] == 0.0


def test_eigendata_bernoulli(bernoulli):
    E = bernoulli.E
    assert E.lambda_ == pytest.approx(1.0, abs=1e-13)
    assert E.pressure == pytest.approx(0.0, abs=1e-13)
    assert E.h == pytest.approx(np.array([1.0, 1.0]), abs=1e-12)
    assert E.nu == pytest.approx(np.array([0.7, 0.3]), abs=1e-12)
    assert E.gap_ratio == pytest.approx(0.0, abs=1e-12)


def test_eigendata_ising(ising):
    E = ising.E
    assert E.lambda_ == pytest.approx(2.0 * math.cosh(1.0), abs=1e-12)
    assert E.pressure == pytest.approx(math.log(2.0 * math.cosh(1.0)), abs=1e-12)
    assert E.h == pytest.approx(np.array([1.0, 1.0]), abs=1e-12)
    assert E.nu == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)
    # second eigenvalue 2 sinh(beta), ratio tanh(beta)
    assert E.gap_ratio == pytest.approx(math.tanh(1.0), abs=1e-10)
    assert E.ess_radius_bound == pytest.approx(0.5 * E.lambda_, abs=1e-12)


def test_eigendata_golden(golden):
    phi_g = (1.0 + math.sqrt(5.0)) / 2.0
    E = golden.E
    assert E.lambda_ == pytest.approx(phi_g, abs=1e-12)
    assert E.pressure == pytest.approx(0.4812118250596035, abs=1e-13)
    assert E.nu == pytest.approx(np.array([1.0 / phi_g, 1.0 / phi_g**2]), abs=1e-12)
    # second eigenvalue of the adjacency is (1 - sqrt(5))/2
    assert E.gap_ratio == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0 / phi_g, abs=1e-10)
    assert E.min_h == pytest.approx(min(E.h), abs=0)


def test_residuals_within_tolerance(builtin_triple):
    for s in builtin_triple.values():
        assert s.E.residual_h <= 1e-10 * s.E.lambda_
        assert s.E.residual_nu <= 1e-10 * s.E.lambda_
        assert s.E.nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert s.E.nu @ s.E.h == pytest.approx(1.0, abs=1e-12)
        assert (s.E.h > 0).all()


def test_spectral_gap_agrees_with_full_solve(builtin_triple):
    systems = [(s.T, s.E) for s in builtin_triple.values()]
    # 256 states whose subdominant eigenvalue is a complex pair
    phi = random_full_shift(0, 5)
    T = transfer.build(phi.space, phi)
    ev = sorted(np.linalg.eigvals(T.matrix), key=abs)
    assert T.state_count == 256 and abs(ev[-2].imag) > 1e-3
    systems.append((T, transfer.dominant_eigendata(T, tol=1e-12)))
    for T, E in systems:
        full = sorted(np.abs(np.linalg.eigvals(T.matrix)))[-2] / E.lambda_
        assert E.gap_ratio == pytest.approx(full, abs=1e-8)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(golden, tol):
    """A NaN tolerance fails every comparison and an infinite one
    certifies any first iterate, so both are rejected, as are zero and
    the negatives, the message naming the value."""
    with pytest.raises(ValidationError, match=f"positive and finite, got {tol!r}$"):
        transfer.dominant_eigendata(golden.T, tol=tol)


def test_no_convergence_signalled(golden, monkeypatch):
    monkeypatch.setattr(transfer, "MAX_ITER", 3)
    with pytest.raises(NoConvergence):
        transfer.dominant_eigendata(golden.T, tol=1e-13)


def _repeat(exc):
    """(first iteration, period) that a repeated-state failure names."""
    found = re.search(r"repeat from iteration (\d+) \(period (\d+)\)$", str(exc.value))
    assert found, str(exc.value)
    return int(found[1]), int(found[2])


def test_stalled_solve_fails_at_its_first_repeat():
    """Golden-mean a = -8: at tol 1e-13 the loop's state falls into a
    cycle whose residuals miss the tolerance, so the solve fails at the
    repeat, well inside the iteration cap; at 1e-12 it certifies."""
    m = models.golden_mean(-8.0)
    T = transfer.build(m.space, m.potential)
    with pytest.raises(NoConvergence, match=r"above 1e-13\*lambda repeat") as exc:
        transfer.dominant_eigendata(T, tol=1e-13)
    first, period = _repeat(exc)
    assert first + period < transfer.MAX_ITER
    E = transfer.dominant_eigendata(T, tol=1e-12)
    assert max(E.residual_h, E.residual_nu) <= 1e-12 * E.lambda_


def test_repeat_stop_does_not_lean_on_the_cap(monkeypatch):
    """At tol 1e-300 golden-mean a = 0.5 never certifies, and with a cap
    of 10**9 (only a range bound) it still fails within a few dozen
    iterations."""
    monkeypatch.setattr(transfer, "MAX_ITER", 10**9)
    m = models.golden_mean(0.5)
    with pytest.raises(NoConvergence) as exc:
        transfer.dominant_eigendata(transfer.build(m.space, m.potential), tol=1e-300)
    first, period = _repeat(exc)
    assert first + period <= 100


def _both_loops(T, tol=1e-12, start=None):
    """The two-state loop's outcome on T, then the array loop's: the
    EigenData, or the failure's class and message."""
    outcomes = []
    for solve in (transfer.dominant_eigendata, transfer._array_loop):
        try:
            outcomes.append(solve(T, tol=tol, start=start))
        except GibbsLabError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def test_two_state_and_array_loops_agree():
    """On the built-ins, 13 tilts of each and the stiff cases Ising
    beta = 4, h = 0.01 and golden-mean a = -8, the two loops certify
    lambda within 4 ulps and within one iteration of each other; on
    golden-mean a = -8 they agree bit for bit, failure included."""
    systems = []
    for name in ("bernoulli", "ising", "golden-mean"):
        m = models.builtin(name)
        systems += [transfer.build(m.space, affine_combine(m.potential, m.observable, s))
                    for s in np.linspace(-3.0, 3.0, 13)]
    stiff = models.ising(4.0, 0.01), models.golden_mean(-8.0)
    systems += [transfer.build(m.space, m.potential) for m in stiff]
    for T in systems:
        assert T.state_count == 2
        two, array = _both_loops(T)
        assert abs(two.lambda_ - array.lambda_) <= 4 * math.ulp(array.lambda_)
        assert abs(two.iterations - array.iterations) <= 1
    for tol in (1e-12, 1e-13):
        two, array = _both_loops(systems[-1], tol)
        if tol == 1e-13:
            assert two == array and two[0] is NoConvergence
            continue
        for field in dataclasses.fields(two):
            a, b = getattr(two, field.name), getattr(array, field.name)
            assert np.array_equal(a, b), field.name


@pytest.mark.parametrize("M", [
    [[0.7, 0.7], [0.3, 0.3]],
    [[math.e, 1.0 / math.e], [1.0 / math.e, math.e]],
    [[1.0, 1.0], [1.0, 0.0]],
    [[0.0, 2.0], [3.0, 0.0]],
    [[1e-9, 1.0], [1e-300, 1.0]],
    [[1e300, 1e300], [1e300, 2e300]],
])
def test_two_state_pair_is_the_perron_pair(M):
    """The closed-form pair solves M nu = lambda nu and M.T h = lambda h
    to rounding, nu summing to 1, also with entries that span 300
    decades or whose squares overflow."""
    M = np.array(M)
    h, nu = (np.array(v) for v in transfer._two_state_pair(M))
    lam = (M @ nu).sum()
    assert nu.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.abs(M @ nu - lam * nu).max() <= 1e-15 * lam
    assert np.abs(M.T @ h - lam * h).max() <= 1e-15 * lam * h.max()


@pytest.mark.parametrize("M", [
    [[1.0, 0.0], [1.0, 1.0]],  # b = 0
    [[1.0, 1.0], [0.0, 1.0]],  # c = 0
    [[np.inf, 1.0], [1.0, 1.0]],
    [[1.0, 1.0], [1.0, np.inf]],
    [[1.0, np.nan], [1.0, 1.0]],
    [[np.nan, 1.0], [1.0, 1.0]],
    [[0.0, 0.0], [0.0, 0.0]],
    [[1.0, 5e-324], [5e-324, 1.0]],  # bc underflows: lambda - a is 0
])
def test_two_state_pair_none_without_a_positive_pair(M):
    assert transfer._two_state_pair(np.array(M)) is None


def test_two_state_and_array_loops_fail_alike(bernoulli):
    """Bad starts, non-finite matrices, an overflowing row-sum floor, a
    lambda estimate of 0, an h residual that is NaN on one state only
    and products that overflow fail both loops
    with the same class and message, the last up to the digits of the
    residuals printed: numpy's 2 x 2 products may round once where the
    two-state loop rounds twice."""
    T, good = bernoulli.T, np.ones(2)
    cases = []
    for bad in ([1.0, 1.0, 1.0], [np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0],
                [1.0, 0.0], [-1.0, 1.0]):
        cases += [(T, (np.array(bad), good)), (T, (good, np.array(bad)))]
    for M in ([[np.inf, 0.7], [0.3, 0.3]], [[0.7, 0.7], [0.3, np.nan]],
              [[1e308, 1e308], [1e308, 1e308]], [[0.0, 0.0], [0.0, 0.0]],
              [[0.0, 1.0], [0.0, 0.0]],
              # nu underflows to (1, 0), h to (1, inf), M.T h - lambda h to (inf, NaN)
              [[0.0, 1e200], [1e-200, 0.0]]):
        cases.append((dataclasses.replace(T, matrix=np.array(M)), None))
    for delta in (0.1, 0.01):  # M.T h overflows at iteration 6, or 60
        M = 1e308 * np.array([[1.0, 1e-4], [1e-4, 1 - delta]])
        cases.append((dataclasses.replace(T, matrix=M), (good, np.array([1e-8, 1 - 1e-8]))))
    for T, start in cases:
        two, array = _both_loops(T, start=start)
        assert two[0] is array[0] and issubclass(two[0], GibbsLabError)
        assert _digits(two[1]) == _digits(array[1])


def _digits(text):
    """text with each decimal number in it rounded to 12 significant digits."""
    return re.sub(r"\d+\.\d+(e[+-]\d+)?", lambda m: f"{float(m[0]):.12g}", text)


def test_normalized_operator(builtin_triple):
    bern = builtin_triple["bernoulli"]
    Q, pi = transfer.normalized_operator(bern.T, bern.E)
    assert Q == pytest.approx(np.array([[0.7, 0.3], [0.7, 0.3]]), abs=1e-12)
    isg = builtin_triple["ising"]
    Qi, pii = transfer.normalized_operator(isg.T, isg.E)
    same = math.exp(1.0) / (2.0 * math.cosh(1.0))
    assert Qi[0, 0] == pytest.approx(same, abs=1e-12)
    assert Qi[0, 1] == pytest.approx(1.0 - same, abs=1e-12)
    assert pii == pytest.approx(np.array([0.5, 0.5]), abs=1e-12)
    for s in builtin_triple.values():
        Q, pi = transfer.normalized_operator(s.T, s.E)
        assert np.abs(Q.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(pi @ Q - pi).max() <= 1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_partition_pressure_bernoulli(bernoulli):
    assert transfer.pressure_via_partition(
        bernoulli.space, bernoulli.phi, 8
    ) == pytest.approx(0.0, abs=1e-12)


def test_partition_pressure_ising(ising):
    p10 = transfer.pressure_via_partition(ising.space, ising.phi, 10)
    assert abs(p10 - math.log(2.0 * math.cosh(1.0))) <= total_variation(ising.phi) / 10


def test_partition_pressure_golden_fibonacci(golden):
    # phi = 0 at a = 0: the partition sum counts admissible 10-words,
    # i.e. the Fibonacci number 144
    p10 = transfer.pressure_via_partition(golden.space, golden.phi, 10)
    assert p10 == pytest.approx(math.log(144.0) / 10.0, abs=1e-12)


def test_partition_pressure_bound(builtin_triple):
    for s in builtin_triple.values():
        V = total_variation(s.phi)
        for n in range(1, 13):
            pn = transfer.pressure_via_partition(s.space, s.phi, n)
            bound = (2.0 * V + math.log(len(s.T.states))) / n
            assert abs(pn - s.E.pressure) <= bound + 1e-12


def test_pressure_shift_identity(builtin_triple):
    for s in builtin_triple.values():
        one = FiniteMemoryFunction.constant(s.space, 1.0)
        for c in (1.0, -1.0):
            shifted = affine_combine(s.phi, one, c)
            Ts = transfer.build(s.space, shifted)
            Es = transfer.dominant_eigendata(Ts, tol=1e-13)
            assert Es.pressure == pytest.approx(s.E.pressure + c, abs=1e-12)


def test_constants_report(builtin_triple):
    bern = builtin_triple["bernoulli"]
    rep = transfer.constants_report(bern.space, bern.phi, 0.5, bern.E)
    assert rep["B_m"][1] == 1.0
    assert rep["eta"] == "not computed"
    isg = builtin_triple["ising"]
    repi = transfer.constants_report(isg.space, isg.phi, 0.5, isg.E)
    assert repi["ess_radius_bound"] == pytest.approx(0.5 * isg.E.lambda_, abs=1e-12)
    assert repi["ess_radius_bound"] == pytest.approx(1.5431, abs=1e-3)
    # K = lambda**M exp(M sup|phi|) B0 evaluated directly
    b0 = math.exp(2.0 * 4.0 * 0.5 / 0.5)
    assert repi["K"] == pytest.approx(isg.E.lambda_ * math.exp(1.0) * b0, rel=1e-12)
    assert repi["cone_n0"] == 2


def test_build_rejects_foreign_potential(bernoulli, golden):
    with pytest.raises(ValidationError):
        transfer.build(bernoulli.space, golden.phi)


def test_size_guard():
    """The scan and the partition pressure enumerate no words, so the
    enumeration cap does not bound their length: 2**25 words exceed
    the default cap of 2**20."""
    space = validate(2, [[1, 1], [1, 1]])
    phi = FiniteMemoryFunction.constant(space, 0.0)
    assert transfer.pressure_via_partition(space, phi, 25) == pytest.approx(
        math.log(2.0), abs=1e-15)
    T = transfer.build(space, phi)
    mu = gibbs_measure(T, transfer.dominant_eigendata(T))
    assert gibbs_ratio_scan(mu, phi, 25).passed


def test_build_rejects_overflowing_potential():
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    phi = FiniteMemoryFunction(space, 1, {(1,): 0.0, (2,): 1e308})
    with pytest.raises(ValidationError, match=r"\(2,\)"):
        transfer.build(space, phi)


def test_eigendata_fails_fast_on_non_finite_matrix(bernoulli):
    M = np.array(bernoulli.T.matrix)
    M[0, 0] = np.inf
    with pytest.raises(NoConvergence, match="non-finite"):
        transfer.dominant_eigendata(dataclasses.replace(bernoulli.T, matrix=M))
    # finite entries whose every row sum overflows: lambda is at least inf
    M = np.full((2, 2), 1e308)
    with pytest.raises(NoConvergence, match="smallest row sum"):
        transfer.dominant_eigendata(dataclasses.replace(bernoulli.T, matrix=M))
    # one row sum finite, the others not: the first lambda estimate is inf
    space = validate(3, [[1, 1, 1]] * 3, symbols=(1, 2, 3))
    T = transfer.build(space, FiniteMemoryFunction(space, 1, {(a,): 0.0 for a in (1, 2, 3)}))
    M = np.array([[1.7e308] * 3, [1.7e308] * 3, [1.0] * 3])
    with np.errstate(over="ignore"), pytest.raises(NoConvergence, match="iteration 1$"):
        transfer.dominant_eigendata(dataclasses.replace(T, matrix=M))


def test_eigendata_fails_fast_on_non_finite_residual(monkeypatch):
    """lambda = e**709.7 + 1 is a float but the column sum 2 e**709.7
    is not, so M.T @ h overflows and h turns NaN: the solve fails at
    that iteration, with numpy's warnings kept off stderr."""
    monkeypatch.setattr(transfer, "MAX_ITER", 1000)
    space = validate(2, [[1, 1], [1, 1]], symbols=(1, 2))
    phi = FiniteMemoryFunction(
        space, 2, {(1, 1): 709.7, (1, 2): 0.0, (2, 1): 709.7, (2, 2): 0.0})
    T = transfer.build(space, phi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NoConvergence, match="at iteration 1$"):
            transfer.dominant_eigendata(T)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_eigendata_warm_start(builtin_triple):
    """An exact eigenpair certifies at once; a start of the wrong
    length or with a zero, negative or non-finite entry is rejected."""
    for s in builtin_triple.values():
        E = transfer.dominant_eigendata(s.T, tol=1e-12, start=(s.E.h, s.E.nu))
        assert E.iterations <= 2
        assert E.pressure == pytest.approx(s.E.pressure, abs=1e-12)
    T, k = builtin_triple["ising"].T, builtin_triple["ising"].T.state_count
    good = np.ones(k)
    for bad in (np.ones(k + 1), np.array([1.0] + [0.0] * (k - 1)), -good,
                np.array([np.inf] + [1.0] * (k - 1)), np.full(k, np.nan)):
        for start in ((bad, good), (good, bad)):
            with pytest.raises(ValidationError, match="start vector"):
                transfer.dominant_eigendata(T, start=start)
