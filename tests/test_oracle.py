import hashlib
import json
from collections import Counter

import numpy as np
import pytest

from conftest import (
    built,
    complex_gaussian,
    count_lapack,
    oracle_pair,
    rank_deficient,
    random_psd,
)
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq.errors import NotSolvable, NotSolvableHermitian, NotSolvablePositive, PreconditionFailed


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
# the indefiniteness witness of the positive_criteria_agreement property


def _certified(f, seed):
    """The property's test: the witness certifies its two family members indefinite."""
    return oc._uncertified(oc._indefinite_witness(f), oc._family_members(f, seed)) is None


@pytest.mark.parametrize("n", range(3, 9))
def test_witness_certifies_the_pairs_with_no_psd_solution(monkeypatch, n):
    # C A* is PSD there and R(D) is not R(DP): the witness is a plane, read
    # from the eigenpairs and K's SVD the verdict took, with no LAPACK call
    log = count_lapack(monkeypatch)
    for seed in range(8):
        f = dg.factorize(*built(oc._hermitian_but_never_positive, np.random.default_rng(seed), n))
        assert f.verdict is dg.Verdict.HERMITIAN and f.ca_psd and not f.dp_range_eq
        log.clear()
        assert oc._indefinite_witness(f).shape == (n, 2)
        assert _certified(f, seed)
        assert log == []


@pytest.mark.parametrize("rank", [2, 4])
def test_witness_certifies_an_indefinite_c_a_star(monkeypatch, rank):
    # X = V diag(1, -0.25, 0.5, 2) V* with A's row space spanned by V's first
    # columns: C A* = A X A* is Hermitian, and indefinite at either rank
    u, v = built(oc._unitaries, np.random.default_rng(5), 4, 2)
    a = (u[:, :rank] * np.linspace(2.0, 0.5, rank)) @ v[:, :rank].conj().T
    f = dg.factorize(a, a @ (v * np.array([1.0, -0.25, 0.5, 2.0])) @ v.conj().T)
    assert f.verdict is dg.Verdict.HERMITIAN and not f.ca_psd
    f._ca_spectrum.range_pairs  # the property takes the eigenpairs before the verdict
    log = count_lapack(monkeypatch)
    assert oc._indefinite_witness(f).shape == (4, 1)
    assert _certified(f, 3)
    assert log == []


def test_witness_plane_does_not_certify_positive_pairs():
    # no plane certifies a PSD member, and none certifies the property's two
    # members of a pair that has PSD solutions
    spec = oc.TrialSpec(dim_max=6, trials=1)
    planes = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        f = dg.factorize(*oracle_pair(rng, spec, "positive"))
        assert f.verdict is dg.Verdict.POSITIVE
        w = oc._indefinite_witness(f)
        if w is None:  # A of full column rank: E = 0
            continue
        planes += 1
        assert w.shape[1] == 2
        # members at the factorization's scale, where the witness is read
        psd = np.stack([f.x0, f.scaled(dg.positive_solution(f, random_psd(rng, f.a.shape[1])))])
        assert oc._uncertified(w, psd) is not None
        assert not _certified(f, seed)
    assert planes >= 50


@pytest.mark.parametrize("ratio", [1e-8, 1.0, 1e8])
@pytest.mark.parametrize("phase", [0.0, 0.5, 2.0, -1.0])
def test_witness_certifies_a_one_by_one_pair_with_negative_c_a_star(phase, ratio):
    # a = e^{i phase}, c = -2 ratio a: the one solution c / a = -2 ratio is
    # Hermitian and negative, and the witness is u = B S y = A* v, with the
    # unit v = U_r y lifted from the eigenvector y of C A*'s 1x1 compression
    a = np.array([[np.exp(1j * phase)]])
    f = dg.factorize(a, -2.0 * ratio * a)
    assert f.verdict is dg.Verdict.HERMITIAN and not f.ca_psd
    w = oc._indefinite_witness(f)
    v = f.svd[0] @ f._ca_spectrum.eigh[1]
    assert abs(v[0, 0]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(w, a.conj() @ v, atol=1e-15)
    assert _certified(f, 1)


@pytest.mark.parametrize("rank", range(1, 5))
def test_witness_vector_reads_the_least_eigenvalue_of_c_a_star(rank):
    # u = A* v lies in R(A*), where (I - P) vanishes, so every member has
    # u* X u = v* A H0 A* v = v* C A* v, whatever Y is
    u, v = built(oc._unitaries, np.random.default_rng(6), 4, 2)
    a = (u[:, :rank] * np.linspace(2.0, 0.5, rank)) @ v[:, :rank].conj().T
    f = dg.factorize(a, a @ (v * np.array([-1.0, 0.5, -0.25, 2.0])) @ v.conj().T)
    assert f.verdict is dg.Verdict.HERMITIAN and not f.ca_psd
    w = oc._indefinite_witness(f)
    assert w.shape == (4, 1)
    ca = f.c @ f.a.conj().T  # of the pair the witness is read on
    least = float(np.linalg.eigvalsh(0.5 * (ca + ca.conj().T))[0])
    assert least < 0.0
    members = oc._family_members(f, 2)
    values = (w.conj().T @ members @ w)[:, 0, 0].real
    np.testing.assert_allclose(values, least, rtol=1e-10)
    assert _certified(f, 2)


@pytest.mark.parametrize("n", range(3, 9))
def test_witness_certifies_under_a_unitary_change_of_basis(n):
    # (U A V*, U C V*) has the solutions V X V*, so it has no PSD solution
    # either; the witness is built afresh in the new basis and still certifies
    rng = np.random.default_rng(40 + n)
    a, c = built(oc._hermitian_but_never_positive, rng, n)
    u, v = built(oc._unitaries, rng, n, 2)
    f = dg.factorize(u @ a @ v.conj().T, u @ c @ v.conj().T)
    assert f.verdict is dg.Verdict.HERMITIAN and f.ca_psd and not f.dp_range_eq
    assert oc._indefinite_witness(f).shape == (n, 2)
    for seed in range(4):
        assert _certified(f, seed)


@pytest.mark.parametrize("power", [-150, -100, -50, -10, 0, 10, 50, 100, 150])
def test_witness_certifies_when_a_and_c_are_scaled_together(power):
    # (s A, s C) has the solutions of (A, C), so its members are the same
    # matrices and the certificate must not depend on s
    a, c = built(oc._hermitian_but_never_positive, np.random.default_rng(4), 5)
    s = 2.0**power
    f = dg.factorize(s * a, s * c)
    assert f.verdict is dg.Verdict.HERMITIAN
    assert _certified(f, 4)


@pytest.mark.parametrize("side", ["A", "C"])
def test_witness_certifies_when_a_or_c_is_scaled_alone(side):
    # (2^k A, C) and (A, 2^k C) keep the verdict, and their members are built
    # from the equilibrated pair's H0, of unit scale whatever k is, like the Y
    # added to it; against an H0 of size 2^k, Y would swamp the plane's b
    a, c = built(oc._hermitian_but_never_positive, np.random.default_rng(4), 5)
    uncertified = []
    for k in range(-60, 61, 2):
        f = dg.factorize(2.0**k * a, c) if side == "A" else dg.factorize(a, 2.0**k * c)
        if f.verdict is not dg.Verdict.HERMITIAN or not _certified(f, 4):
            uncertified.append(k)
    assert uncertified == []


def test_witness_and_members_are_deterministic():
    a, c = built(oc._hermitian_but_never_positive, np.random.default_rng(8), 6)
    first, second = dg.factorize(a, c), dg.factorize(a, c)
    np.testing.assert_array_equal(oc._indefinite_witness(first), oc._indefinite_witness(second))
    np.testing.assert_array_equal(oc._family_members(first, 9), oc._family_members(second, 9))
    assert not np.array_equal(oc._family_members(first, 9), oc._family_members(first, 10))


# ---------------------------------------------------------------------------
# Douglas's three facts about the reduced solution D


def test_douglas_check_fixture(rank1_pair):
    a, c = rank1_pair
    f = dg.factorize(a, c)
    assert oc._reduced_solution_facts(f) == (True, True, True)
    assert oc._majorization_scale(f) == pytest.approx(5.0, rel=1e-10)
    assert f.majorization_scale == pytest.approx(5.0, rel=1e-10)
    assert 2.0 ** (2 * f.x_exp) * mc.spectral_norm(f.d) ** 2 == pytest.approx(5.0, rel=1e-10)


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
    return [entry for entry, _, _ in oc._PROPERTY_CHECKS].index(name)


def _outcome(name, rng, spec):
    """One trial of the property ``name``, drawn from ``rng`` and checked as the suite does."""
    _, draw, check = oc._PROPERTY_CHECKS[_property_index(name)]
    return check(*built(draw, rng, spec), mc.DEFAULT_TOLERANCES)


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
    def pair(rng, haar, spec, flavor):
        unitaries = oc._unitaries(rng, haar, 3, 2)

        def build():
            u, v = unitaries()
            a = u @ np.diag([1.0, 0.7, 0.0]) @ v.conj().T
            x0 = v @ np.diag([1.3, 0.0, 0.9]) @ v.conj().T
            return a, a @ x0

        return 3, build

    monkeypatch.setattr(oc, "_consistent_pair", pair)
    spec = oc.TrialSpec(dim_max=2, trials=1)
    for seed in range(40):
        assert _outcome("tn_monotone_lambda_match", np.random.default_rng(seed), spec) is None


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
        assert _outcome("tn_monotone_lambda_match", rng, spec) is None
        f = made[-1]
        # the scan reads the compression at the input's scale
        comp = 2.0**f.x_exp * (f.row_basis.conj().T @ f.d @ f.row_basis)
        of_comp = [args[0] for name, args, _ in log if name == "eigh"]
        assert len(of_comp) == 1
        np.testing.assert_allclose(of_comp[0], 0.5 * (comp + comp.conj().T), rtol=0, atol=1e-12)


def test_tn_stack_matches_one_matrix_at_a_time():
    spec = oc.TrialSpec(dim_max=6, trials=1)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w, g = oc._compressed_state(dg.factorize(*oracle_pair(rng, spec, "positive")))
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
        assert _outcome("tn_monotone_lambda_match", rng, spec) is None
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
        assert _outcome("general_solution_routes", rng, spec) is None


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
        assert _outcome("general_solution_routes", rng, spec) is None
        a = mc._equilibrated(mc.as_matrix(drawn[0]()))[0]  # the A the factorization decomposes
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


@pytest.mark.parametrize("seed", range(1, 7))
def test_batched_unitaries_match_one_at_a_time_draws(monkeypatch, seed):
    # stacks of one or two unitaries of sizes 1..8, drawn in a mixed order and
    # made by one stacked QR per size, as a chunk of the suite's trials is
    order = np.random.default_rng([17, seed])
    sizes, counts = order.permutation(np.repeat(np.arange(1, 9), 3)), order.integers(1, 3, 24)
    draws = [(int(n), int(k)) for n, k in zip(sizes, counts)]
    batched_rng, single_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    haar = oc._HaarDraws()
    stacks = [oc._unitaries(batched_rng, haar, n, k) for n, k in draws]
    log = count_lapack(monkeypatch, ("qr",))
    haar.make()
    made = sorted((args[0].shape for _, args, _ in log), key=lambda shape: shape[-1])
    assert made == [(sum(k for m, k in draws if m == n), n, n) for n in range(1, 9)]
    for (n, k), stack in zip(draws, stacks):
        assert stack().shape == (k, n, n)
        for u in stack():
            np.testing.assert_array_equal(u, _unitary_one_at_a_time(single_rng, n))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
    # the generator stands where the single draws leave it
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
    assert list(report["properties"]) == [name for name, _, _ in oc._PROPERTY_CHECKS]
    for entry in report["properties"].values():
        assert entry["trials"] == 8 and entry["failures"] == 0


def test_property_suite_counts_a_raised_error_as_a_failed_trial(monkeypatch):
    def draw(rng, haar, spec):
        odd = rng.integers(2)
        return lambda: (odd,)

    def raises_on_odd_trials(odd, tol):
        if odd:
            raise PreconditionFailed("no state", certificate={"why": "test"})
        return None

    monkeypatch.setattr(oc, "_PROPERTY_CHECKS", [("raises", draw, raises_on_odd_trials)])
    report = oc.property_suite(oc.TrialSpec(trials=6, seed=5))
    entry = report["properties"]["raises"]
    assert report["violations"] == entry["failures"] >= 1
    assert entry["first_failure"]["detail"] == "PreconditionFailed: no state"
    assert entry["first_failure"]["instance"] == {}


def test_property_suite_lets_other_exceptions_through(monkeypatch):
    def broken(tol):
        raise TypeError("a bug, not a failed property")

    monkeypatch.setattr(oc, "_PROPERTY_CHECKS", [("broken", lambda rng, haar, spec: lambda: (), broken)])
    with pytest.raises(TypeError):
        oc.property_suite(oc.TrialSpec(trials=1))


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


def _refusing(error):
    """A builder in place of a douglas one that refuses every input with ``error``."""

    def builder(f, parameter):
        raise error("refused")

    return builder


def _builder_moved(name, shift):
    """``douglas.<name>`` with ``shift(f, x)`` added to what it returns."""
    original = getattr(dg, name)

    def builder(f, parameter):
        x = original(f, parameter)
        return x + shift(f, x)

    return builder


LSQ_SOLVE = oc.lsq_solve


# a wrong part fails the property that checks it, with that check's detail; a
# part is an attribute of the oracle or douglas module or a member of the Factorization
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
    "sqrt_psd_negated": (
        oc,
        "sqrt_psd",
        lambda m, tol: -mc.sqrt_psd(m, tol),
        "general_solution_routes",
        "square root is not PSD",
    ),
    "general_refuses": (
        dg,
        "general_solution",
        _refusing(NotSolvable),
        "general_solution_routes",
        "family member does not solve the equation",
    ),
    "general_off_the_partial_isometry_route": (
        dg,
        "general_solution",
        _builder_moved("general_solution", lambda f, x: f.ip @ np.ones(x.shape)),
        "general_solution_routes",
        "partial-isometry route disagrees",
    ),
    "recover_parameter": (
        dg,
        "recover_parameter",
        _builder_moved("recover_parameter", lambda f, y: np.ones(y.shape)),
        "general_solution_routes",
        "parameter round trip off",
    ),
    "lsq_solve": (
        oc,
        "lsq_solve",
        lambda a, c, tol: 1.01 * LSQ_SOLVE(a, c, tol),
        "general_solution_routes",
        "normal-equation route disagrees",
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
    "ca_hermitian": (
        dg.Factorization,
        "ca_hermitian",
        property(lambda f: True),
        "hermitian_criterion_transfer",
        "Hermitian-ness of DP and CA* disagree",
    ),
    # H = U_r* C A* U_r left at ||A|| times the scale the flags read: Hermitian
    # and PSD where the right one is, with the same eigenvectors, so only the
    # property's own C A* sees it
    "ca_compression_not_divided_by_the_norm_of_a": (
        dg.Factorization,
        "_ca_compression",
        property(lambda f: (f.svd[0].conj().T @ f.c) @ (f.row_basis * f.svd[1])),
        "hermitian_criterion_transfer",
        "C A* differs from U_r H U_r* by",
    ),
    "hermitian_refuses": (
        dg,
        "hermitian_solution",
        _refusing(NotSolvableHermitian),
        "hermitian_criterion_transfer",
        "Hermitian builder refused its own output",
    ),
    "hermitian_not_hermitian": (
        dg,
        "hermitian_solution",
        _builder_moved("hermitian_solution", lambda f, x: 1j * np.eye(len(x))),
        "hermitian_criterion_transfer",
        "emitted solution is not Hermitian",
    ),
    "hermitian_non_solution": (
        dg,
        "hermitian_solution",
        _builder_moved("hermitian_solution", lambda f, x: f.row_basis @ f.row_basis.conj().T),
        "hermitian_criterion_transfer",
        "emitted Hermitian member does not solve the equation",
    ),
    "positive_refuses": (
        dg,
        "positive_solution",
        _refusing(NotSolvablePositive),
        "positive_criteria_agreement",
        "positive builder refused its own output",
    ),
    "positive_not_psd": (
        dg,
        "positive_solution",
        _builder_moved("positive_solution", lambda f, x: -(1.0 + mc.spectral_norm(x)) * np.eye(len(x))),
        "positive_criteria_agreement",
        "emitted member of the positive family is not PSD",
    ),
    "positive_non_solution": (
        dg,
        "positive_solution",
        _builder_moved("positive_solution", lambda f, x: np.eye(len(x))),
        "positive_criteria_agreement",
        "emitted positive member does not solve the equation",
    ),
    "witness_wrong_plane": (
        oc,
        "_indefinite_witness",
        lambda f: f.row_basis[:, :1],
        "positive_criteria_agreement",
        "witness does not certify member",
    ),
    "witness_missing": (
        oc,
        "_indefinite_witness",
        lambda f: None,
        "positive_criteria_agreement",
        "HERMITIAN verdict without an indefiniteness witness",
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
    "tn_never_settles": (
        oc,
        "_diagnose",
        lambda norms, tol: (False, False),
        "tn_monotone_lambda_match",
        "ranges match but the T_n norms did not settle",
    ),
    "tn_never_diverges": (
        oc,
        "_diagnose",
        lambda norms, tol: (True, False),
        "tn_monotone_lambda_match",
        "ranges differ but the T_n norms did not diverge",
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


# a decision that several properties read, forced False on every pair: the
# failures it makes in each property at TrialSpec(trials=12, seed=3)
SHARED_MUTANTS = {
    "ca_psd": {
        "hermitian_criterion_transfer": 3,
        "positive_criteria_agreement": 8,
        "tn_monotone_lambda_match": 8,
    },
    "dp_range_eq": {
        "positive_criteria_agreement": 4,
        "tn_monotone_lambda_match": 8,
    },
}


@pytest.mark.parametrize("member", list(SHARED_MUTANTS))
def test_property_suite_catches_a_wrong_decision_in_each_property_that_reads_it(monkeypatch, member):
    monkeypatch.setattr(dg.Factorization, member, property(lambda f: False))
    report = oc.property_suite(oc.TrialSpec(trials=12, seed=3))
    failed = {name: entry["failures"] for name, entry in report["properties"].items() if entry["failures"]}
    assert failed == SHARED_MUTANTS[member]
    assert report["violations"] == sum(failed.values())


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
    assert Counter(name for name, _, _ in log) == Counter(svd=19, eigh=8, eigvalsh=17)


# one sha256 over every matrix the suite hands to douglas's factorization,
# block test and builders over the 16 seeds of the benchmark's verify workload
# and the mutant spec: the drawn instances, whatever order the draws and QRs take
INSTANCE_SPECS = [oc.TrialSpec(trials=10, seed=s) for s in range(1000, 1016)] + [oc.TrialSpec(trials=12, seed=3)]
INSTANCE_DIGEST = "5a691acf5bf069cbb6878b2267d65db0bd7a0c2de0d91e427196d748f43e546c"


def test_property_suite_draws_the_pinned_instances(monkeypatch):
    digest = hashlib.sha256()
    for name in ("factorize", "block_psd_test", "general_solution", "hermitian_solution", "positive_solution"):

        def hashed(*args, _name=name, _original=getattr(dg, name)):
            for m in args:
                if isinstance(m, np.ndarray):
                    m = np.ascontiguousarray(m)
                    digest.update(f"{_name} {m.dtype.str} {m.shape}".encode())
                    digest.update(m.tobytes())
            return _original(*args)

        monkeypatch.setattr(dg, name, hashed)
    for spec in INSTANCE_SPECS:
        oc.property_suite(spec)
    assert digest.hexdigest() == INSTANCE_DIGEST


def test_property_suite_takes_one_qr_per_size_per_property(monkeypatch):
    # seed 1000's 106 unitaries, of sizes 1 to 8, come from 23 stacked QRs
    log = count_lapack(monkeypatch, ("qr",))
    oc.property_suite(oc.TrialSpec(trials=10, seed=1000))
    assert len(log) == 23


def test_property_suite_takes_one_qr_per_size_per_chunk(monkeypatch):
    # a run of three chunks: each QR stacks every unitary of one size that one
    # chunk of one property draws, in the order the sizes were first drawn
    spec = oc.TrialSpec(trials=2 * oc._CHUNK + 5, dim_max=4, seed=21)
    drawn = {}  # (property, chunk) -> {size: unitaries}
    trial = []
    sub_rng, unitaries = oc._sub_rng, oc._unitaries

    def trial_rng(seed, *indices):
        if len(indices) == 2:  # a trial's stream, not a family member's
            trial[:] = [indices[0], indices[1] // oc._CHUNK]
        return sub_rng(seed, *indices)

    def recorded(rng, haar, n, k):
        sizes = drawn.setdefault(tuple(trial), {})
        sizes[n] = sizes.get(n, 0) + k
        return unitaries(rng, haar, n, k)

    monkeypatch.setattr(oc, "_sub_rng", trial_rng)
    monkeypatch.setattr(oc, "_unitaries", recorded)
    log = count_lapack(monkeypatch, ("qr",))
    assert oc.property_suite(spec)["violations"] == 0
    assert {chunk for _, chunk in drawn} == {0, 1, 2}
    expected = [(k, n, n) for sizes in drawn.values() for n, k in sizes.items()]
    assert [args[0].shape for _, args, _ in log] == expected


def test_property_suite_deterministic():
    spec = oc.TrialSpec(trials=5, seed=77)
    first = json.dumps(oc.property_suite(spec), sort_keys=True)
    second = json.dumps(oc.property_suite(spec), sort_keys=True)
    assert first == second


def test_property_suite_scalar_dims():
    report = oc.property_suite(oc.TrialSpec(dim_max=1, trials=8, seed=11))
    assert report["violations"] == 0
