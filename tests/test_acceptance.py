"""Acceptance gate: one test per shipped guarantee, at the stated
tolerances.  Run with -v for one pass/fail line per criterion, or -s to
see the PASS summaries."""

import itertools
import time
from math import comb

import numpy as np
import pytest

from schmidtkit import (
    Bipartition,
    CoefficientsMismatch,
    DegenerateCombination,
    Purification,
    StateTensor,
    apply_local_unitaries,
    check_decomposable,
    compose,
    enumerate_groupings,
    equal_spectra_check,
    ghz,
    haar_random_state,
    linking_unitary,
    local_unitary_link,
    max_schmidt_number,
    partial_trace,
    pure_density,
    purify,
    qubit_bound,
    random_decomposable_state,
    random_decomposition,
    rank_inequality_check,
    reduced_density,
    subset_sum_to_partition,
    trace_out_reference,
    w_state,
)
from schmidtkit.linalg import haar_unitary
from schmidtkit.multipartite import _slice_tensor, reconstruct
from schmidtkit.partition import decide
from schmidtkit.state import DensityMatrix

from partition_oracle import value_bruteforce

RT3 = 1.0 / np.sqrt(3.0)


def _nondegenerate_decomposition(dims, rank, seed):
    # resample until adjacent coefficients are separated; keeps the
    # sweep clear of accidental near-ties without biasing the draw much
    while True:
        dec = random_decomposition(dims, rank, seed)
        c = dec.coefficients
        if rank == 1 or float(np.min(c[:-1] - c[1:])) > 1e-3:
            return dec
        seed += 1000003


def test_criterion_1_w_state_rejection():
    w = w_state()
    stack = _slice_tensor(w)
    assert np.array_equal(stack[0], RT3 * np.array([[0, 1], [1, 0]]))
    assert np.array_equal(stack[1], RT3 * np.array([[1, 0], [0, 0]]))

    report = check_decomposable(w)
    assert report.verdict == "NotDecomposable"
    ss = report.witness["ss_dagger"]
    assert np.max(np.abs(ss - np.array([[1, 1], [1, 2]]) / 3)) < 1e-12

    check_decomposable(w)  # warm up
    best = min(
        (lambda t0: (check_decomposable(w), time.perf_counter() - t0)[1])(
            time.perf_counter())
        for _ in range(5))
    assert best < 0.010, f"W check took {best * 1e3:.2f} ms"
    print(f"PASS: criterion 1 - W rejected, SS+ pinned, {best * 1e3:.2f} ms")


def test_criterion_2_equal_spectra_necessary_not_sufficient():
    w = w_state()
    ok, table = equal_spectra_check(w)
    assert ok
    for k in ((1,), (2,), (3,)):
        assert np.max(np.abs(table[k] - [2 / 3, 1 / 3])) < 1e-10
    assert not check_decomposable(w).decomposable
    print("PASS: criterion 2 - W passes spectra test yet is rejected")


DIMS_TRACE = [(2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 2, 2, 2),
              (2, 2, 2, 2, 2), (3, 3, 3), (2, 5, 6), (8, 8), (2, 2, 16),
              (2, 2, 2, 2, 2, 2), (64,), (3, 4, 5)]


def test_criterion_3_reduced_density_identities():
    worst = 0.0
    for i in range(200):
        dims = DIMS_TRACE[i % len(DIMS_TRACE)]
        state = haar_random_state(dims, seed=i)
        rho = pure_density(state)
        n = len(dims)
        for size in range(1, n + 1):
            for keep in itertools.combinations(range(1, n + 1), size):
                a = reduced_density(state, keep).entries
                b = partial_trace(rho, keep).entries
                worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-10
    print(f"PASS: criterion 3 - 200 states, all subsets, worst {worst:.2e}")


DIMS_CHECK = [(2, 2, 2), (2, 3, 4), (3, 3, 3), (2, 2, 2, 2)]


def test_criterion_4_soundness_and_completeness():
    worst = 0.0
    for i in range(500):
        dims = DIMS_CHECK[i % len(DIMS_CHECK)]
        rank = 1 + (i // 4) % min(dims)
        dec = _nondegenerate_decomposition(dims, rank, seed=i)
        report = check_decomposable(reconstruct(dec))
        assert report.decomposable, (i, report.stage)
        assert report.decomposition.rank == rank
        resid = report.residuals["reconstruction"]
        assert resid <= 1e-8
        worst = max(worst, resid)
    for i in range(500):
        dims = DIMS_CHECK[i % len(DIMS_CHECK)]
        report = check_decomposable(haar_random_state(dims, seed=i))
        assert not report.decomposable, (i, dims)
    print(f"PASS: criterion 4 - 500 accepts (worst residual {worst:.2e}), "
          f"500 rejects")


def test_criterion_5_local_unitary_equivalence():
    worst = 0.0
    for i in range(100):
        dims = DIMS_CHECK[i % len(DIMS_CHECK)]
        rank = 1 + i % min(dims)
        phi = reconstruct(_nondegenerate_decomposition(dims, rank, seed=i))
        rng = np.random.default_rng(10_000 + i)
        target = apply_local_unitaries(
            phi, [haar_unitary(d, rng) for d in dims])
        units = local_unitary_link(target, phi)
        mapped = apply_local_unitaries(phi, units)
        resid = float(np.abs(mapped.amplitudes - target.amplitudes).max())
        assert resid <= 1e-8
        worst = max(worst, resid)
    for i in range(10):
        a = reconstruct(_nondegenerate_decomposition((2, 2, 2), 2, seed=i))
        b = reconstruct(_nondegenerate_decomposition((2, 2, 2), 2,
                                                     seed=5_000 + i))
        with pytest.raises(CoefficientsMismatch):
            local_unitary_link(a, b)
    print(f"PASS: criterion 5 - 100 links (worst {worst:.2e}), "
          f"10 mismatches refused")


def _dp_subset_sum(values, target):
    mask = 1
    for v in values:
        mask |= mask << v
    return bool((mask >> target) & 1)


def test_criterion_6_partition_solvers():
    t0 = time.perf_counter()
    for n in range(2, 13):
        assert max_schmidt_number([2] * n).k == 2 ** (n // 2)
        assert qubit_bound(n) == 2 ** (n // 2)

    rng = np.random.default_rng(600)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        dims = tuple(int(d) for d in rng.integers(2, 10, size=n))
        assert value_bruteforce(dims) == max_schmidt_number(dims).k

    rng = np.random.default_rng(601)
    for _ in range(200):
        count = int(rng.integers(1, 9))
        values = [int(v) for v in rng.integers(1, 9, size=count)]
        target = int(rng.integers(1, 2 * sum(values) + 1))
        red = subset_sum_to_partition(values, target)
        found = decide(red.padded.dims, red.padded.target) is not None
        assert found == _dp_subset_sum(values, target), (values, target)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS: criterion 6 - bounds, 100 mitm, 200 adapter "
          f"in {elapsed:.2f} s")


def test_criterion_7_composition():
    for m in range(1, 13):
        for n in range(1, m + 1):
            assert len(enumerate_groupings(m, n)) == comb(m - 1, n - 1)

    for i in range(100):
        rng = np.random.default_rng(700 + i)
        m = 3 + i % 2
        n = 3
        da = tuple(int(d) for d in rng.integers(2, 4, size=m))
        db = tuple(int(d) for d in rng.integers(2, 4, size=n))
        ka = int(rng.integers(1, min(da) + 1))
        kb = int(rng.integers(1, min(db) + 1))
        left = random_decomposition(da, ka, seed=3 * i)
        right = random_decomposition(db, kb, seed=3 * i + 1)
        options = enumerate_groupings(m, n)
        grouping = options[int(rng.integers(len(options)))]
        merged = compose(left, right, grouping)
        assert merged.rank == ka * kb
        report = check_decomposable(reconstruct(merged))
        assert report.decomposable, (i, report.stage)
        assert report.decomposition.rank == ka * kb
    print("PASS: criterion 7 - grouping counts and 100 composed ranks")


def test_criterion_8_rank_inequality():
    held = 0
    for i in range(1000):
        rng = np.random.default_rng(800 + i)
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        phi = haar_random_state(dims, seed=2 * i)
        gamma = haar_random_state(dims, seed=2 * i + 1)
        alpha = complex(*rng.standard_normal(2))
        beta = complex(*rng.standard_normal(2))
        report = rank_inequality_check(phi, gamma, alpha, beta,
                                       cut=Bipartition((1,), (2,)))
        assert report.applicable and report.holds, i
        held += 1
    assert held == 1000

    phi = haar_random_state((2, 2), seed=3)
    with pytest.raises(DegenerateCombination):
        rank_inequality_check(phi, phi, 1.0, -1.0,
                              cut=Bipartition((1,), (2,)))
    print("PASS: criterion 8 - 1000 triples hold, cancellation flagged")


def test_criterion_9_purification():
    rng = np.random.default_rng(900)
    worst_back = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 17))
        rank = int(rng.integers(1, dim + 1))
        m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        ent = m @ m.conj().T
        rho = DensityMatrix((dim,), ent / np.trace(ent).real)
        p = purify(rho)
        back = trace_out_reference(p)
        worst_back = max(worst_back,
                         float(np.max(np.abs(back.entries - rho.entries))))
    assert worst_back < 1e-9

    worst_link = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, dim + 1))
        m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        ent = m @ m.conj().T
        rho = DensityMatrix((dim,), ent / np.trace(ent).real)
        base = purify(rho)
        d = base.reference_dim
        for _ in range(10):
            v = haar_unitary(d, rng)
            amps = (base.state.amplitudes.reshape(-1, d) @ v.T).reshape(-1)
            alt = Purification(StateTensor(base.state.dims, amps))
            u, _ = linking_unitary(base, alt)
            moved = alt.state.amplitudes.reshape(-1, d) @ u.T
            resid = float(np.linalg.norm(
                moved - base.state.amplitudes.reshape(-1, d)))
            assert resid <= 1e-8
            worst_link = max(worst_link, resid)

    for source, want in ((ghz(3), "Decomposable"),
                         (w_state(), "NotDecomposable")):
        rho = reduced_density(source, (1, 2))
        base = purify(rho, 2)
        d = base.reference_dim
        verdicts = set()
        for _ in range(10):
            v = haar_unitary(d, rng)
            amps = (base.state.amplitudes.reshape(-1, d) @ v.T).reshape(-1)
            alt = StateTensor(base.state.dims, amps)
            verdicts.add(check_decomposable(alt).verdict)
        assert verdicts == {want}
    print(f"PASS: criterion 9 - trace-back {worst_back:.2e}, "
          f"link {worst_link:.2e}, classes invariant")
