import json
from collections import Counter

import numpy as np
import pytest

from conftest import (
    complex_gaussian,
    count_lapack,
    rank_deficient,
    random_psd,
    reference_positive_search,
)
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq.errors import PreconditionFailed


# ---------------------------------------------------------------------------
# normal-equation route


def test_lsq_solve_fixture(rank1_pair):
    a, c = rank1_pair
    np.testing.assert_allclose(oc.lsq_solve(a, c), c, atol=1e-12)


def test_lsq_solve_identity():
    rng = np.random.default_rng(2)
    c = complex_gaussian(rng, 3, 3)
    np.testing.assert_allclose(oc.lsq_solve(np.eye(3), c), c, atol=1e-12)


def test_lsq_solve_inconsistent_residual():
    a = np.diag([0.0, 1.0])
    c = np.diag([1.0, 0.0])
    x = oc.lsq_solve(a, c)
    assert mc.spectral_norm(a @ x - c) == pytest.approx(1.0, abs=1e-12)


def test_lsq_agrees_with_reduced_solution():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        a = rank_deficient(rng, n, n, int(rng.integers(1, n + 1)))
        c = a @ complex_gaussian(rng, n, n)
        d = dg.reduced_solution(dg.factorize(a, c))
        gap = mc.spectral_norm(oc.lsq_solve(a, c) - d)
        assert gap <= 1e-8 * max(1.0, mc.spectral_norm(d))


# ---------------------------------------------------------------------------
# randomized positive search


def test_search_finds_fixture_solution(rank1_pair):
    a, c = rank1_pair
    x = oc.positive_search(dg.factorize(a, c), budget=100, seed=oc.DEFAULT_SEED)
    assert x is not None
    assert mc.is_psd(x)
    assert mc.spectral_norm(a @ x - c) < 1e-8


def test_search_exhausts_on_hermitian_only_pair(hermitian_only_pair):
    a, c = hermitian_only_pair
    assert oc.positive_search(dg.factorize(a, c), budget=10**4, seed=oc.DEFAULT_SEED) is None


def test_search_immediate_for_self():
    rng = np.random.default_rng(29)
    a = rank_deficient(rng, 3, 3, 2)
    x = oc.positive_search(dg.factorize(a, a), budget=10, seed=1)
    assert x is not None and mc.is_psd(x)


def test_search_skips_unsolvable():
    f = dg.factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
    assert oc.positive_search(f, budget=10) is None


def test_search_deterministic(rank1_pair):
    f = dg.factorize(*rank1_pair)
    x1 = oc.positive_search(f, budget=64, seed=5)
    x2 = oc.positive_search(f, budget=64, seed=5)
    np.testing.assert_array_equal(x1, x2)


def assert_search_matches_reference(f, budget, seed):
    """positive_search returns what the unscreened search returns, bit for bit."""
    got = oc.positive_search(f, budget=budget, seed=seed)
    want = reference_positive_search(f, budget=budget, seed=seed)
    if want is None:
        assert got is None
    else:
        assert got is not None and got.shape == want.shape and got.tobytes() == want.tobytes()
    return want is not None


SEARCH_BUDGETS = (1, 255, 256, 257, 384)


@pytest.mark.parametrize("psd_atol", [1e-10, 1e-300])
def test_screened_search_matches_the_unscreened_one(psd_atol):
    tol = mc.ToleranceConfig(psd_atol=psd_atol)
    spec = oc.TrialSpec(dim_max=6, trials=1)
    found = {}
    for seed in range(300):
        rng = np.random.default_rng(seed)
        flavor = ("positive", "hermitian", "general", "never_positive")[seed % 4]
        if flavor == "never_positive":
            a, c = oc._hermitian_but_never_positive(rng, int(rng.integers(3, 7)))
        else:
            a, c = oc._consistent_pair(rng, spec, flavor)[:2]
        budget = SEARCH_BUDGETS[(seed // 4) % len(SEARCH_BUDGETS)]
        hit = assert_search_matches_reference(dg.factorize(a, c, tol), budget, seed)
        found[flavor] = found.get(flavor, 0) + hit
    # both outcomes are covered: positive pairs are found, the others are not
    assert found["positive"] > 0 and found["never_positive"] == 0


@pytest.mark.parametrize("budget", SEARCH_BUDGETS)
def test_screened_search_matches_on_rank_zero_and_one_by_one(budget):
    rng = np.random.default_rng(budget)
    pairs = [(np.zeros((3, 3)), np.zeros((3, 3))), (np.zeros((1, 1)), np.zeros((1, 1)))]
    for _ in range(12):
        a = complex_gaussian(rng, 1, 1)
        pairs.append((a, a * rng.uniform(-2.0, 2.0)))
    hits = [assert_search_matches_reference(dg.factorize(a, c), budget, 7) for a, c in pairs]
    # rank 0 has no screen, and every candidate is PSD
    assert hits[0] and hits[1] and not all(hits)


def compression_with_least_eigenvalue(rng, delta, n=4, rank=2):
    """A pair whose solutions all compress to the row space with least eigenvalue ``-delta``.

    X is block diagonal in ``P = V V*``: ``-delta`` and 1 on the row space, a
    PSD block on its complement, so the candidates' least eigenvalue is near
    ``-delta`` and a small ``delta`` survives the screen.
    """
    u, v = oc._unitaries(rng, n, 2)
    v = v[:, :rank]
    a = (u[:, :rank] * rng.uniform(0.3, 2.0, rank)) @ v.conj().T
    w = v @ np.diag([-delta, 1.0]) @ v.conj().T
    ip = np.eye(n) - v @ v.conj().T
    return a, a @ (w + ip @ random_psd(rng, n) @ ip)


@pytest.mark.parametrize("delta", [10.0**-k for k in range(2, 15)])
def test_screened_search_matches_near_a_psd_compression(delta, monkeypatch):
    log = count_lapack(monkeypatch)
    outcomes = []
    for seed in range(3):
        f = dg.factorize(*compression_with_least_eigenvalue(np.random.default_rng(seed), delta))
        for budget in (1, 257):
            outcomes.append(assert_search_matches_reference(f, budget, seed))
    log.clear()
    oc.positive_search(f, budget=257, seed=0)
    formed = sum(args[0].shape[0] for name, args, _ in log if name == "eigvalsh" and args[0].ndim == 3)
    if delta >= 1e-4:
        # mu + 1e-6 * ||X|| is below the floor: every candidate is ruled out
        assert formed == 0 and not any(outcomes)
    elif delta <= 1e-12:
        # -delta is above the floor: the first candidate is a hit
        assert formed == 1 and all(outcomes)
    else:
        assert formed > 0


def pair_needing_a_large_parameter(rng, n, rank, size=2.0):
    """A positively solvable pair whose PSD solutions need a large Y.

    In the basis ``(V, V_perp)`` of A's row space and its complement, the
    solution ``[[W, F], [F*, F* W^-1 F]]`` is PSD with a zero Schur
    complement, so a candidate passes only where ``s G*G`` compressed to the
    complement dominates ``F* W^-1 F``: the first candidates often miss and a
    later one hits, after the 2x2 bound is built.
    """
    u, v = oc._unitaries(rng, n, 2)
    a = (u[:, :rank] * rng.uniform(0.3, 2.0, rank)) @ v[:, :rank].conj().T
    w = random_psd(rng, rank) + np.eye(rank)
    off = size * complex_gaussian(rng, rank, n - rank)
    x = np.block([[w, off], [off.conj().T, off.conj().T @ np.linalg.solve(w, off)]])
    return a, a @ (v @ x @ v.conj().T)


def test_screened_search_matches_where_the_border_is_built(monkeypatch):
    built = []
    border = oc._border
    monkeypatch.setattr(oc, "_border", lambda f, h0: built.append(1) or border(f, h0))
    hits = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        f = dg.factorize(*pair_needing_a_large_parameter(rng, n, int(rng.integers(1, n))))
        hits += assert_search_matches_reference(f, 384, seed)
    # most searches miss at first, build the bound, and still find the hit
    assert len(built) >= 30 and hits >= 50


def test_search_forms_no_candidate_when_the_compression_is_negative(monkeypatch):
    rng = np.random.default_rng(5)
    a = complex_gaussian(rng, 4, 4)
    h = np.diag([1.0, 0.5, -0.25, 2.0]).astype(complex)
    f = dg.factorize(a, a @ h)  # C A* = A H A* is Hermitian, not PSD
    assert f.ca_hermitian and not f.ca_psd
    log = count_lapack(monkeypatch)
    assert oc.positive_search(f, budget=10**4, seed=3) is None
    # the compression's one eigvalsh; no candidate stack
    assert [(name, args[0].shape) for name, args, _ in log] == [("eigvalsh", (4, 4))]


def test_search_hit_at_the_first_candidate_forms_only_it(monkeypatch):
    rng = np.random.default_rng(29)
    a = rank_deficient(rng, 3, 3, 2)
    f = dg.factorize(a, a)
    log = count_lapack(monkeypatch)
    x = oc.positive_search(f, budget=10**4, seed=1)
    calls = [(name, args[0].shape) for name, args, _ in log]
    assert x is not None and mc.is_psd(x)
    # the 2x2 compression's eigvalsh first, then at most two candidate matrices:
    # the stack of one and the PSD test of the hit
    assert calls[0] == ("eigvalsh", (2, 2))
    assert sum(int(np.prod(shape[:-2])) for _, shape in calls[1:]) <= 2
    np.testing.assert_array_equal(x, reference_positive_search(f, budget=10**4, seed=1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_search_forms_one_candidate_on_a_range_deficient_pair(monkeypatch, n):
    # K is PSD and singular there, so mu rejects nothing; the 2x2 bound, built
    # once the first candidate misses, rules out the other 383, and K's SVD,
    # already taken by the verdict, gives the witness without a LAPACK call
    log = count_lapack(monkeypatch)
    for seed in range(5):
        f = dg.factorize(*oc._hermitian_but_never_positive(np.random.default_rng(seed), n))
        assert f.verdict is dg.Verdict.HERMITIAN
        log.clear()
        assert oc.positive_search(f, budget=384, seed=seed) is None
        r = f.row_basis.shape[1]
        calls = [(name, args[0].shape) for name, args, _ in log]
        assert calls == [("eigvalsh", (r, r)), ("eigvalsh", (1, n, n))]


# ---------------------------------------------------------------------------
# Douglas's three facts about the reduced solution D


def test_douglas_check_fixture(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    assert oc._reduced_solution_facts(f) == (True, True, True)
    assert oc._majorization_scale(f) == pytest.approx(5.0, rel=1e-10)
    assert f.majorization_scale == pytest.approx(5.0, rel=1e-10)
    assert f.d_norm**2 == pytest.approx(5.0, rel=1e-10)


def test_douglas_check_identity():
    rng = np.random.default_rng(31)
    c = complex_gaussian(rng, 3, 3)
    assert oc._reduced_solution_facts(dg.factorize(np.eye(3), c)) == (True, True, True)


def test_douglas_check_keeps_a_small_singular_value_of_a():
    # ||D||^2 = 1 and the majorization scale reads A's singular value 1e-7 as rank
    f = dg.factorize(np.diag([1.0, 1e-7]), np.diag([0.0, 1e-7]))
    assert oc._reduced_solution_facts(f) == (True, True, True)


def test_douglas_check_random():
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 7))
        a = rank_deficient(rng, n, n, int(rng.integers(1, n + 1)))
        c = a @ complex_gaussian(rng, n, n)
        assert oc._reduced_solution_facts(dg.factorize(a, c)) == (True, True, True)


# ---------------------------------------------------------------------------
# the T_n scan of the tn_monotone_lambda_match property


def _scan(f):
    """The property's scan: the schedule's norms and its ``(converged, diverged)``."""
    ts = oc._tn_stack(*oc._compressed_state(f), oc._SCHEDULE)
    eigs = np.linalg.eigvalsh(0.5 * (ts + ts.conj().swapaxes(1, 2)))
    norms = np.max(np.abs(eigs), axis=1).tolist()
    return norms, oc._diagnose(norms, f.tol)


def _property_index(name):
    return [entry for entry, _ in oc._PROPERTY_CHECKS].index(name)


def test_tn_sequence_fixture(rank1_pair):
    a, c = rank1_pair
    norms, _ = _scan(dg.factorize(a, c))
    assert oc._HEAD[:4] == (1, 2, 4, 8)
    for n, norm in zip(oc._HEAD[:4], norms):
        assert norm == pytest.approx(n / (1 + 2 * n), rel=1e-12)


def test_tn_limit_matches_closed_form(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    d = dg.reduced_solution(f)
    p = mc.row_space_projector(a)
    ip = np.eye(2) - p
    dp_pinv = mc._pinv_from_svd(*mc.truncated_svd(d @ p))
    limit = mc.spectral_norm(ip @ d.conj().T @ dp_pinv @ d @ ip)
    assert limit == pytest.approx(0.5, abs=1e-12)
    norms, (converged, diverged) = _scan(f)
    assert converged and not diverged
    assert norms[-1] == pytest.approx(limit, abs=1e-6)


def test_tn_sequence_c_equals_a():
    rng = np.random.default_rng(61)
    a = rank_deficient(rng, 3, 3, 2)
    norms, _ = _scan(dg.factorize(a, a))
    assert max(norms) <= 1e-12


def test_tn_sequence_divergent(hermitian_only_pair):
    a, c = hermitian_only_pair
    norms, (converged, diverged) = _scan(dg.factorize(a, c))
    for n, norm in zip(oc._HEAD, norms):
        assert norm == pytest.approx(float(n), rel=1e-9)
    assert diverged and not converged


def test_tn_check_settles_where_lambda_is_roundoff(monkeypatch):
    # A = U diag(1, 0.7, 0) V* and X0 = V diag(1.3, 0, 0.9) V*: D = P X0 is
    # 1.3 v1 v1*, zero on the kernel of A, so T_n and lambda are 0 in exact
    # arithmetic and the computed T_n norms are roundoff (about 3e-20) that
    # doubles with n.  The scan settles only through the absolute floor of
    # residual_atol * (1 + estimate); a bound relative to the estimate alone
    # fails every one of these pairs
    def pair(rng, spec, flavor):
        u, v = oc._unitaries(rng, 3, 2)
        a = u @ np.diag([1.0, 0.7, 0.0]) @ v.conj().T
        x0 = v @ np.diag([1.3, 0.0, 0.9]) @ v.conj().T
        return a, a @ x0, x0

    monkeypatch.setattr(oc, "_consistent_pair", pair)
    spec = oc.TrialSpec(dim_max=2, trials=1)
    for seed in range(40):
        assert oc._check_tn_lambda(np.random.default_rng(seed), spec, mc.DEFAULT_TOLERANCES) is None


def test_tn_monotone_loewner(rank1_pair):
    # 3 and 5 are off the schedule
    ts = oc._tn_stack(*oc._compressed_state(dg.factorize(*rank1_pair)), [1, 2, 3, 4, 5, 8, 16, 32])
    prev = None
    for t in ts:
        assert np.linalg.eigvalsh(t)[0] >= -1e-12
        if prev is not None:
            assert np.linalg.eigvalsh(t - prev)[0] >= -1e-12
        prev = t


def test_tn_precondition(rank1_pair):
    # DP must be PSD on the row space: A = I, C = -I gives DP = -I
    with pytest.raises(PreconditionFailed):
        oc._compressed_state(dg.factorize(np.eye(2), -np.eye(2)))


def test_tn_check_eigendecomposes_the_compression_once(monkeypatch):
    made, original = [], dg.factorize

    def factorize(*args):
        made.append(original(*args))
        return made[-1]

    # douglas takes no eigenpairs, so every eigh of the check is the oracle's
    monkeypatch.setattr(dg, "factorize", factorize)
    log = count_lapack(monkeypatch)
    spec = oc.TrialSpec(dim_max=6, trials=12, seed=7)
    prop = _property_index("tn_monotone_lambda_match")
    for trial in range(spec.trials):
        log.clear()
        rng = oc._sub_rng(spec.seed, prop, trial)
        assert oc._check_tn_lambda(rng, spec, mc.DEFAULT_TOLERANCES) is None
        f = made[-1]
        comp = f.row_basis.conj().T @ f.d @ f.row_basis
        of_comp = [args[0] for name, args, _ in log if name == "eigh"]
        assert len(of_comp) == 1
        np.testing.assert_allclose(of_comp[0], 0.5 * (comp + comp.conj().T), rtol=0, atol=1e-12)


def test_tn_stack_matches_one_matrix_at_a_time():
    spec = oc.TrialSpec(dim_max=6, trials=1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        a, c = oc._consistent_pair(rng, spec, "positive")[:2]
        w, g = oc._compressed_state(dg.factorize(a, c))
        norms = mc.spectral_norms(oc._tn_stack(w, g, oc._SCHEDULE))
        for n, norm in zip(oc._SCHEDULE, norms):
            t = (g.conj().T * (1.0 / (1.0 / float(n) + w))) @ g
            np.testing.assert_array_equal(oc._tn_stack(w, g, [n])[0], t)
            assert norm == float(np.linalg.norm(t, 2))


def test_tn_check_takes_the_schedule_norms_in_one_call(monkeypatch):
    log = count_lapack(monkeypatch)
    spec = oc.TrialSpec(dim_max=6, trials=12, seed=7)
    prop = _property_index("tn_monotone_lambda_match")
    schedule = len(oc._SCHEDULE)
    for trial in range(spec.trials):
        log.clear()
        rng = oc._sub_rng(spec.seed, prop, trial)
        assert oc._check_tn_lambda(rng, spec, mc.DEFAULT_TOLERANCES) is None
        # the 41 norms and the 5 PSD tests are one eigvalsh of the stack, and
        # the 4 monotonicity tests one more; the report's (t_min, lambda) pair
        # is a third, of two r x r matrices, where the verdict is POSITIVE; no
        # SVD reads a stack
        assert [args[0].shape for name, args, _ in log if name == "svd" and args[0].ndim != 2] == []
        stacks = [args[0].shape for name, args, _ in log if name == "eigvalsh" and args[0].ndim == 3]
        assert sorted(shape[0] for shape in stacks) in ([4, schedule], [2, 4, schedule])


# ---------------------------------------------------------------------------
# the general_solution_routes property


def test_general_solution_routes_pass_on_rank_deficient_pairs():
    spec = oc.TrialSpec(dim_max=8, rank_policy="deficient", trials=300, seed=3)
    prop = _property_index("general_solution_routes")
    for trial in range(spec.trials):
        rng = oc._sub_rng(spec.seed, prop, trial)
        assert oc._check_general_solution(rng, spec, mc.DEFAULT_TOLERANCES) is None


def test_general_solution_routes_decompose_a_once(monkeypatch):
    # the Penrose identities, the polar factor and the reference majorization
    # scale read the factorization's SVD of A, so svd sees A once per trial
    spec = oc.TrialSpec(trials=6, seed=1000)
    prop = _property_index("general_solution_routes")
    drawn = []
    draw = oc.random_operator

    def recorded(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(oc, "random_operator", recorded)
    log = count_lapack(monkeypatch)
    for trial in range(spec.trials):
        drawn.clear()
        log.clear()
        rng = oc._sub_rng(spec.seed, prop, trial)
        assert oc._check_general_solution(rng, spec, mc.DEFAULT_TOLERANCES) is None
        a = drawn[0]
        calls = [args[0] for name, args, _ in log if name == "svd"]
        assert sum(m.shape == a.shape and np.array_equal(m, a) for m in calls) == 1, trial


def test_partial_isometry_route_matches_the_builder():
    # a rectangular rank-2 A: |A|^+ U* C + (I - U*U) Y is D + (I - P) Y
    rng = np.random.default_rng(41)
    a = rank_deficient(rng, 5, 3, 2)
    c = a @ complex_gaussian(rng, 3, 4)
    y = complex_gaussian(rng, 3, 4)
    f = dg.factorize(a, c)
    u_r, _, b = f.svd
    u = u_r @ b.conj().T
    modulus = mc.sqrt_psd(a.conj().T @ a)
    leak = np.eye(3) - u.conj().T @ u
    x_pi = np.linalg.solve(modulus + leak, u.conj().T @ c) + leak @ y
    x = dg.general_solution(f, y)
    assert mc.spectral_norm(x_pi - x) <= 1e-10 * mc.spectral_norm(x)


def _unitary_one_at_a_time(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diag(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_unitaries_match_one_at_a_time_draws(n):
    batched_rng, single_rng = np.random.default_rng(n), np.random.default_rng(n)
    batch = oc._unitaries(batched_rng, n, 2)
    assert batch.shape == (2, n, n)
    for u in batch:
        np.testing.assert_array_equal(u, _unitary_one_at_a_time(single_rng, n))
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
    # the generator stands where two single draws leave it
    assert batched_rng.standard_normal() == single_rng.standard_normal()


def test_lambda_c_equals_a():
    rng = np.random.default_rng(67)
    a = rank_deficient(rng, 4, 4, 2)
    norms, (converged, _) = _scan(dg.factorize(a, a))
    assert converged and norms[-1] == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# trial spec and suite


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dim_max": 9},
        {"dim_max": 0},
        {"rank_policy": "bogus"},
        {"trials": 0},
        {"seed": -1},
    ],
)
def test_trial_spec_validation(kwargs):
    with pytest.raises(ValueError) as info:
        oc.TrialSpec(**kwargs)
    assert "dim_min" not in str(info.value)


def test_property_suite_small_run_passes():
    report = oc.property_suite(oc.TrialSpec(trials=8, seed=123))
    assert report["violations"] == 0
    assert list(report["properties"]) == [name for name, _ in oc._PROPERTY_CHECKS]
    for entry in report["properties"].values():
        assert entry["trials"] == 8 and entry["failures"] == 0


def test_property_suite_counts_a_raised_error_as_a_failed_trial(monkeypatch):
    def raises_on_odd_trials(rng, spec, tol):
        if rng.integers(2):
            raise PreconditionFailed("no state", certificate={"why": "test"})
        return None

    monkeypatch.setattr(oc, "_PROPERTY_CHECKS", [("raises", raises_on_odd_trials)])
    report = oc.property_suite(oc.TrialSpec(trials=6, seed=5))
    entry = report["properties"]["raises"]
    assert report["violations"] == entry["failures"] >= 1
    assert entry["first_failure"]["detail"] == "PreconditionFailed: no state"
    assert entry["first_failure"]["instance"] == {}


def test_property_suite_lets_other_exceptions_through(monkeypatch):
    def broken(rng, spec, tol):
        raise TypeError("a bug, not a failed property")

    monkeypatch.setattr(oc, "_PROPERTY_CHECKS", [("broken", broken)])
    with pytest.raises(TypeError):
        oc.property_suite(oc.TrialSpec(trials=1))


SEARCH = oc.positive_search


def _search_hit_on_unsolvable(f, budget, seed):
    if f.verdict is dg.Verdict.POSITIVE:
        return SEARCH(f, budget, seed)
    return np.eye(f.a.shape[1])


def _search_hit_moved(shift):
    def search(f, budget, seed):
        x = SEARCH(f, budget, seed)
        return None if x is None else x + shift(x)

    return search


MAJORIZATION_SCALE = oc._majorization_scale


def _majorization_off_by_one(f):
    return MAJORIZATION_SCALE(f) + 1.0


def _scaled_member(name, factor):
    """A property in place of ``Factorization.<name>`` that reads the original times ``factor``."""
    original = getattr(dg.Factorization, name)

    def scaled(f):
        value = original.__get__(f, dg.Factorization)
        return None if value is None else factor * value

    return property(scaled)


# a wrong part fails the property that checks it, with that check's detail; a
# part is an attribute of the oracle module or a member of the Factorization
MUTANTS = {
    "pinv": (
        oc,
        "_pinv_from_svd",
        lambda u, s, vh: 2.0 * mc._pinv_from_svd(u, s, vh),
        "general_solution_routes",
        "M Mp M = M violated by",
    ),
    "sqrt_psd": (
        oc,
        "sqrt_psd",
        lambda m, tol: 1.5 * mc.sqrt_psd(m, tol),
        "general_solution_routes",
        "sqrt round trip off by",
    ),
    "majorization": (
        oc,
        "_majorization_scale",
        _majorization_off_by_one,
        "general_solution_routes",
        "reduced-solution properties failed: norm=False kernel=True rowspace=True",
    ),
    "majorization_scale": (
        dg.Factorization,
        "majorization_scale",
        _scaled_member("majorization_scale", 1.01),
        "general_solution_routes",
        "reduced-solution properties failed: norm=False kernel=True rowspace=True",
    ),
    "search_unsolvable": (
        oc,
        "positive_search",
        _search_hit_on_unsolvable,
        "positive_criteria_agreement",
        "search produced a PSD solution on a pair judged unsolvable",
    ),
    "search_non_psd": (
        oc,
        "positive_search",
        _search_hit_moved(lambda x: -(1.0 + mc.spectral_norm(x)) * np.eye(len(x))),
        "positive_criteria_agreement",
        "search returned a non-PSD matrix",
    ),
    "search_non_solution": (
        oc,
        "positive_search",
        _search_hit_moved(lambda x: np.eye(len(x))),
        "positive_criteria_agreement",
        "search returned a non-solution",
    ),
    "t_min": (
        dg.Factorization,
        "t_min",
        _scaled_member("t_min", 1.01),
        "positive_criteria_agreement",
        "t_min exceeds the norm of an emitted positive solution",
    ),
    "lambda": (
        dg.Factorization,
        "lambda_estimate",
        _scaled_member("lambda_estimate", 1.01),
        "tn_monotone_lambda_match",
        "closed-form lambda",
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_property_suite_catches_a_wrong_part(monkeypatch, mutant):
    owner, attribute, wrong, prop, detail = MUTANTS[mutant]
    monkeypatch.setattr(owner, attribute, wrong)
    report = oc.property_suite(oc.TrialSpec(trials=12, seed=3))
    failed = report["properties"][prop]
    assert report["violations"] == failed["failures"] >= 1
    assert failed["first_failure"]["detail"].startswith(detail)


def test_property_suite_takes_exact_norms_only_where_they_decide(monkeypatch):
    # every threshold test of the suite is screened by Frobenius bounds; the
    # SVDs left are the factorizations, the independent routes and the norms
    # the suite reads (||X|| against t_min), so an unscreened norm adds to this.
    # The checks read the factorization's verdict and flags, never a report,
    # so no failure certificate, whose exact norms no property reads, is formed
    built = []
    for name in ("solvability_report", "_failure_certificate"):

        def counted(f, _name=name, _original=getattr(dg, name)):
            built.append(_name)
            return _original(f)

        monkeypatch.setattr(dg, name, counted)
    log = count_lapack(monkeypatch)
    report = oc.property_suite(oc.TrialSpec(trials=2, dim_max=4, seed=1000))
    assert report["violations"] == 0 and built == []
    assert Counter(name for name, _, _ in log) == Counter(svd=19, eigh=8, eigvalsh=18)


def test_property_suite_deterministic():
    spec = oc.TrialSpec(trials=5, seed=77)
    first = json.dumps(oc.property_suite(spec), sort_keys=True)
    second = json.dumps(oc.property_suite(spec), sort_keys=True)
    assert first == second


def test_property_suite_scalar_dims():
    report = oc.property_suite(oc.TrialSpec(dim_max=1, trials=8, seed=11))
    assert report["violations"] == 0
