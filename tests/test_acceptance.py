"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import sqrt_sum_closed_form
from opeq import cli
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq import projpair as pp

INV_ROOT2 = 1.0 / math.sqrt(2.0)


def report(number, description, ok):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture
def pair2():
    a = np.array([[1, 0], [0, 0]], dtype=complex)
    c = np.array([[2, 1], [0, 0]], dtype=complex)
    return a, c


@pytest.fixture
def pair3():
    a = np.diag([1.0, 1.0, 0.0]).astype(complex)
    c = np.zeros((3, 3), dtype=complex)
    c[0, 0] = 1.0
    c[1, 2] = 1.0
    return a, c


def test_criterion_1_rank_one_counterexample(pair2):
    a, c = pair2
    dg.reduced_solution(dg.factorize(a, c))  # warm up lapack/blas before timing
    t0 = time.perf_counter()
    d = dg.reduced_solution(dg.factorize(a, c))
    elapsed = time.perf_counter() - t0

    exact = np.max(np.abs(d - np.array([[2, 1], [0, 0]]))) <= 1e-12
    non_hermitian = mc.hermitian_deviation(d) > 1e-6
    x = np.array([[2, 1], [1, 1]], dtype=complex)
    solves = mc.spectral_norm(a @ x - c) <= 1e-12
    positive = mc.is_psd(x)
    # the displayed PSD factorization: X = Y* Y with Y = [[1, 1], [1, 0]]
    y = np.array([[1, 1], [1, 0]], dtype=complex)
    factorizes = mc.spectral_norm(y.conj().T @ y - x) <= 1e-12

    report(
        1,
        f"reduced solution exact, non-Hermitian; PSD solution verified "
        f"(runtime {elapsed * 1e3:.3f} ms < 1 ms)",
        exact and non_hermitian and solves and positive and factorizes and elapsed < 1e-3,
    )


def test_criterion_2_hermitian_but_never_positive(pair3):
    a, c = pair3
    t0 = time.perf_counter()
    f = dg.factorize(a, c)

    shape_ok = True
    members = []
    for x33 in (-1.0, 0.0, 2.0, 10.0):
        y = np.zeros((3, 3), dtype=complex)
        y[2, 2] = x33
        x = dg.hermitian_solution(f, y)
        expected = np.array([[1, 0, 0], [0, 0, 1], [0, 1, x33]], dtype=complex)
        shape_ok &= np.max(np.abs(x - expected)) <= 1e-12
        members.append(x)

    verdict_ok = f.verdict is dg.Verdict.HERMITIAN and f.dp_range_eq is False

    certified = oc._uncertified(oc._indefinite_witness(f), np.stack(members)) is None
    elapsed = time.perf_counter() - t0
    report(
        2,
        f"3x3 Hermitian family has the displayed form, positivity blocked, "
        f"the witness certifies each displayed member (x33 in {{-1, 0, 2, 10}}) "
        f"indefinite (runtime {elapsed:.2f} s < 1 s)",
        shape_ok and verdict_ok and certified and elapsed < 1.0,
    )


def test_criterion_3_nonexistence_certificate():
    t0 = time.perf_counter()
    grid = pp.Grid(1000)
    cert = pp.nonexistence_certificate(grid)
    x = pp.pointwise_solution(grid)
    x21_first = float(x.values[0][1, 0].real)
    elapsed = time.perf_counter() - t0

    near_limit = abs(x21_first - (-INV_ROOT2)) <= 5e-3
    boundary_zero = cert.boundary_value == 0.0
    gap_ok = cert.gap >= 0.70
    report(
        3,
        f"x21 at first node {x21_first:.5f} within 5e-3 of -1/sqrt(2); "
        f"gap {cert.gap:.4f} >= 0.70 (runtime {elapsed:.2f} s < 1 s)",
        near_limit and boundary_zero and gap_ok and elapsed < 1.0,
    )


def test_criterion_4_closed_form_validation():
    t0 = time.perf_counter()
    grid = pp.Grid(1000)
    p, q = pp.canonical_pair(grid)
    closed = sqrt_sum_closed_form(grid.points)
    worst = max(
        mc.spectral_norm(closed[k] - mc.sqrt_psd(p.values[k] + q.values[k]))
        for k in range(grid.n_points)
    )
    dets = np.linalg.det(p.values + q.values).real
    s = np.sin(0.5 * np.pi * grid.points)
    det_worst = float(np.max(np.abs(dets - s * s)))
    elapsed = time.perf_counter() - t0
    report(
        4,
        f"closed form vs generic root max {worst:.2e} < 1e-9; determinant "
        f"identity max {det_worst:.2e} < 1e-12 (runtime {elapsed:.2f} s < 1 s)",
        worst < 1e-9 and det_worst < 1e-12 and elapsed < 1.0,
    )


def test_criterion_5_perturbation_realization():
    t0 = time.perf_counter()
    grid = pp.Grid(1000)
    p, q = pp.canonical_pair(grid)
    distances = []
    all_ok = True
    for eps in (0.2, 0.1, 0.05):
        _, q_prime, x = pp.perturbation(grid, eps)
        member = pp.algebra_membership(x)
        resid = pp.equation_residual_max(p, q_prime, x)
        dist = pp.sup_distance(q, q_prime)
        bound = math.sin(0.5 * math.pi * eps) + 2.0 / (grid.n_points - 1)
        all_ok &= member and resid < 1e-8 and dist <= bound
        distances.append(dist)
    decreasing = distances[0] > distances[1] > distances[2]
    elapsed = time.perf_counter() - t0
    report(
        5,
        f"perturbed equation solvable at eps 0.2/0.1/0.05, residuals < 1e-8, "
        f"distances {['%.4f' % d for d in distances]} strictly decreasing "
        f"(runtime {elapsed:.2f} s < 2 s)",
        all_ok and decreasing and elapsed < 2.0,
    )


def test_criterion_6_property_suite():
    t0 = time.perf_counter()
    spec = oc.TrialSpec(dim_max=6, rank_policy="random", trials=200)
    suite = oc.property_suite(spec)
    elapsed = time.perf_counter() - t0
    required = [
        "general_solution_routes",
        "hermitian_criterion_transfer",
        "positive_criteria_agreement",
        "block_positivity_vs_eigen",
        "tn_monotone_lambda_match",
    ]
    covered = sum(suite["properties"][name]["trials"] for name in required)
    zero = suite["violations"] == 0
    report(
        6,
        f"seeded suite: {covered} trials across the solvability-criteria "
        f"properties ({suite['total_trials']} overall), {suite['violations']} "
        f"violations (runtime {elapsed:.1f} s < 60 s)",
        covered >= 1000 and zero and elapsed < 60.0,
    )


def test_criterion_7_norm_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 7))
        rank = int(rng.integers(1, n + 1))
        g1 = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
        g2 = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
        a = g1 @ g2
        c = a @ (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        f = dg.factorize(a, c)
        mu = oc._majorization_scale(f)
        d_norm_sq = mc.spectral_norm(dg.reduced_solution(f)) ** 2
        rel = abs(mu - d_norm_sq) / max(1.0, d_norm_sq)
        worst = max(worst, rel)
    report(
        7,
        f"||D||^2 equals the least majorization scale on 300 consistent trials "
        f"(worst relative gap {worst:.2e} <= 1e-8)",
        worst <= 1e-8,
    )


def test_criterion_8_verify_determinism(capsys):
    argv = ["verify", "--trials", "40", "--seed", "20514", "--max-dim", "6"]
    code1 = cli.main(list(argv))
    out1 = capsys.readouterr().out
    code2 = cli.main(list(argv))
    out2 = capsys.readouterr().out
    identical = out1 == out2 and code1 == code2 == 0
    payload = json.loads(out1)
    report(
        8,
        f"verify command byte-identical across runs (seed {payload['seed']}, "
        f"{payload['total_trials']} trials, {payload['violations']} violations)",
        identical and payload["violations"] == 0,
    )
