import hashlib
import json
from collections import Counter
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import count_lapack
from opeq import cli
from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq.cli import main
from opeq.errors import MatrixFormatError


def write_matrix(path, m):
    path.write_text(json.dumps(mc.matrix_to_json(np.asarray(m, dtype=complex))))
    return str(path)


@pytest.fixture
def rank1_files(tmp_path, rank1_pair):
    a, c = rank1_pair
    return write_matrix(tmp_path / "a.json", a), write_matrix(tmp_path / "c.json", c)


@pytest.fixture
def hermitian_only_files(tmp_path, hermitian_only_pair):
    a, c = hermitian_only_pair
    return write_matrix(tmp_path / "a3.json", a), write_matrix(tmp_path / "c3.json", c)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_positive_fixture(capsys, rank1_files):
    a_file, c_file = rank1_files
    code, payload, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive")
    assert code == 0
    x = mc.matrix_from_json(payload["solution"])
    np.testing.assert_allclose(x, np.array([[2, 1], [1, 0.5]]), atol=1e-10)
    assert payload["residual"] < 1e-10


def test_solve_general_default_parameter(capsys, rank1_files):
    a_file, c_file = rank1_files
    code, payload, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file)
    assert code == 0
    x = mc.matrix_from_json(payload["solution"])
    np.testing.assert_allclose(x, np.array([[2, 1], [0, 0]]), atol=1e-12)


def test_solve_with_parameter_file(capsys, tmp_path, rank1_files):
    a_file, c_file = rank1_files
    y_file = write_matrix(tmp_path / "y.json", np.array([[9, 9], [1, 1]]))
    code, payload, _ = run_cli(
        capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "general", "--y", y_file
    )
    assert code == 0
    x = mc.matrix_from_json(payload["solution"])
    np.testing.assert_allclose(x, np.array([[2, 1], [1, 1]]), atol=1e-12)


@pytest.mark.parametrize("mode", ["general", "hermitian", "positive"])
def test_solve_reports_the_residual_its_builder_checked(capsys, monkeypatch, tmp_path, mode):
    rng = np.random.default_rng(31)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = (rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))).astype(complex)
    c = a @ g @ g.conj().T  # C = A X0 with X0 PSD: every mode has a solution
    a_file, c_file = write_matrix(tmp_path / "a.json", a), write_matrix(tmp_path / "c.json", c)
    log = count_lapack(monkeypatch)
    code, payload, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file, "--mode", mode)
    cli_svds = [name for name, _, _ in log].count("svd")
    log.clear()
    build = getattr(dg, f"{mode}_solution")
    x = build(dg.factorize(a, c), np.zeros((5, 5)))
    assert code == 0
    # the builder screens ||A X - C||; solve takes it exactly, once, to print it
    assert cli_svds == [name for name, _, _ in log].count("svd") + 1
    assert payload["residual"] == mc.spectral_norm(a @ x - c)


def test_solve_positive_lapack_calls(capsys, monkeypatch, tmp_path):
    log = count_lapack(monkeypatch)
    for n in (12, 40):
        rng = np.random.default_rng(83)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = (rng.standard_normal((n, 3 * n // 4)) @ rng.standard_normal((3 * n // 4, n))).astype(complex)
        c = a @ g @ g.conj().T
        a_file, c_file = write_matrix(tmp_path / "a.json", a), write_matrix(tmp_path / "c.json", c)
        log.clear()
        code, _, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive")
        assert code == 0
        # one SVD each of A and of the r x r compression K of DP, and one for
        # the printed residual; one values-only eigvalsh each of C A* and X for
        # their PSD tests, whose Hermitian tests, like the range and
        # range-equality tests, are settled by Frobenius bounds; the default
        # Z = 0 is PSD without one, and no eigenvector is read
        assert Counter(name for name, _, _ in log) == Counter(svd=3, eigvalsh=2)


def test_solve_positive_unsolvable_is_exit_two(capsys, hermitian_only_files):
    a_file, c_file = hermitian_only_files
    code, payload, _ = run_cli(
        capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive"
    )
    assert code == 2
    assert payload["status"] == "unsolvable"
    assert payload["report"]["dp_range_eq"] is False
    assert "dp_range_eq" in payload["certificate"]["failed_conditions"]


def test_solve_hermitian_fixture(capsys, rank1_files):
    a_file, c_file = rank1_files
    code, payload, _ = run_cli(
        capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "hermitian"
    )
    assert code == 0
    x = mc.matrix_from_json(payload["solution"])
    np.testing.assert_allclose(x, np.array([[2, 1], [1, 0]]), atol=1e-12)


def test_solve_wrong_parameter_flag(capsys, rank1_files):
    a_file, c_file = rank1_files
    code, _, err = run_cli(
        capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive", "--y", a_file
    )
    assert code == 1 and "error" in err


def test_solve_non_psd_parameter_is_input_error(capsys, tmp_path, rank1_files):
    a_file, c_file = rank1_files
    z_file = write_matrix(tmp_path / "z.json", -np.eye(2))
    code, _, err = run_cli(
        capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive", "--z", z_file
    )
    assert code == 1 and "error" in err


# ---------------------------------------------------------------------------
# check and majorize


def test_check_fixture(capsys, rank1_files):
    code, payload, _ = run_cli(capsys, "check", "--a", rank1_files[0], "--c", rank1_files[1])
    assert code == 0
    assert payload["verdict"] == "SolvablePositive"
    assert payload["t_min"] == pytest.approx(2.5, rel=1e-9)


def test_check_hermitian_only(capsys, hermitian_only_files):
    code, payload, _ = run_cli(
        capsys, "check", "--a", hermitian_only_files[0], "--c", hermitian_only_files[1]
    )
    assert code == 0
    assert payload["verdict"] == "SolvableHermitian"
    assert payload["lambda_estimate"] == "inf"
    assert payload["t_min"] == "inf"


def test_check_zero_target(capsys, tmp_path):
    a_file = write_matrix(tmp_path / "a.json", np.eye(2))
    c_file = write_matrix(tmp_path / "c.json", np.zeros((2, 2)))
    code, payload, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    assert code == 0
    assert payload["verdict"] == "SolvablePositive"
    assert payload["t_min"] == 0.0


def test_majorize_fixture(capsys, rank1_files):
    code, payload, _ = run_cli(capsys, "majorize", "--a", rank1_files[0], "--c", rank1_files[1])
    assert code == 0
    assert payload["finite"] is True
    assert payload["mu_star"] == pytest.approx(5.0, rel=1e-10)
    assert payload["d_norm_sq"] == pytest.approx(5.0, rel=1e-10)
    assert payload["range_inclusion"] is True


def test_majorize_self(capsys, tmp_path):
    a_file = write_matrix(tmp_path / "a.json", np.diag([1.0, 2.0]))
    code, payload, _ = run_cli(capsys, "majorize", "--a", a_file, "--c", a_file)
    assert code == 0 and payload["mu_star"] == pytest.approx(1.0, rel=1e-10)


def test_majorize_disjoint(capsys, tmp_path):
    a_file = write_matrix(tmp_path / "a.json", np.diag([0.0, 1.0]))
    c_file = write_matrix(tmp_path / "c.json", np.diag([1.0, 0.0]))
    code, payload, _ = run_cli(capsys, "majorize", "--a", a_file, "--c", c_file)
    assert code == 0
    assert payload["finite"] is False and payload["mu_star"] == "inf"
    assert payload["d_norm_sq"] is None


def test_majorize_reports_an_overflowing_scale_as_an_error(capsys, tmp_path):
    # ||D|| = 1e200 is a float, its square is not; check reads t_min from K
    a_file = write_matrix(tmp_path / "a.json", [[1e-100]])
    c_file = write_matrix(tmp_path / "c.json", [[1e100]])
    code, report, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    assert code == 0 and report["verdict"] == "SolvablePositive" and report["t_min"] == 1e200
    code, payload, err = run_cli(capsys, "majorize", "--a", a_file, "--c", c_file)
    assert code == 1 and payload is None
    assert err == "error: the least majorization scale ||D||^2 overflows: ||D|| = 1.000e+200\n"


EXTREME_SCALE_COMMANDS = [["check"], ["majorize"], *(["solve", "--mode", mode] for mode in cli._SOLVE_MODES)]


@pytest.mark.parametrize("command", EXTREME_SCALE_COMMANDS, ids=" ".join)
def test_a_subnormal_a_is_an_error_not_a_traceback(capsys, tmp_path, command):
    # A = C = 1e-310 I: 1 / 1e-310 is not a float, so D = A^dagger C cannot be formed
    a_file = write_matrix(tmp_path / "a.json", 1e-310 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run_cli(capsys, *command, "--a", a_file, "--c", a_file)
    assert code == 1 and payload is None
    assert err == "error: D = A^dagger C overflows: A's least kept singular value is 1.000e-310\n"


@pytest.mark.parametrize("command", EXTREME_SCALE_COMMANDS, ids=" ".join)
def test_an_overflowing_c_a_star_is_an_error_not_blamed_on_the_input(capsys, tmp_path, command):
    # A = C = 1e160 I are finite, C A* = 1e320 I is not; majorize and a general
    # solution do not read C A*
    a_file = write_matrix(tmp_path / "a.json", 1e160 * np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, payload, err = run_cli(capsys, *command, "--a", a_file, "--c", a_file)
    if command in (["majorize"], ["solve", "--mode", "general"]):
        assert (code, err) == (0, "")
    else:
        assert (code, payload, err) == (1, None, "error: C A* overflows: ||A|| = 1.000e+160\n")


def test_c_a_star_is_judged_where_a_scaled_copy_of_c_would_overflow(capsys, tmp_path):
    # ||A|| C holds 1e400, yet C A* = diag(-1, 1e200) is finite, and -1 is
    # above its floor -psd_atol ||C|| ||A||, which is below the least float
    a_file = write_matrix(tmp_path / "a.json", np.diag([1e200, 1.0]))
    c_file = write_matrix(tmp_path / "c.json", np.diag([-1e-200, 1e200]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, report, err = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    assert (code, err) == (0, "")
    assert report["ca_star_psd"] is True
    assert report["certificate"]["failed_conditions"] == ["range_inclusion"]


def test_majorize_agrees_with_check_on_a_small_singular_value(capsys, monkeypatch, tmp_path):
    # sigma = 1e-7 is above the rank cut of A, though sigma^2 is below that cut
    # of A A*: the scale is finite, as range inclusion and check say
    a_file = write_matrix(tmp_path / "a.json", np.diag([1.0, 1e-7]))
    c_file = write_matrix(tmp_path / "c.json", np.diag([0.0, 1e-7]))
    _, report, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    log = count_lapack(monkeypatch)
    code, payload, _ = run_cli(capsys, "majorize", "--a", a_file, "--c", c_file)
    assert code == 0 and report["verdict"] == "SolvablePositive"
    assert payload == {"d_norm_sq": 1.0, "finite": True, "mu_star": 1.0, "range_inclusion": True}
    # the SVDs of A and D; no second rank decision through A A*
    assert Counter(name for name, _, _ in log) == Counter(svd=2)


def test_check_and_solve_positive_agree_where_d_leaves_the_range_of_dp(capsys, tmp_path):
    # A = diag(1, 1, 0), C = E11 + 1e-9 E23: D is 1e-9 outside the range of DP,
    # within the residual bound but at a higher rank; neither command says positive
    c = np.zeros((3, 3))
    c[0, 0], c[1, 2] = 1.0, 1e-9
    a_file = write_matrix(tmp_path / "a.json", np.diag([1.0, 1.0, 0.0]))
    c_file = write_matrix(tmp_path / "c.json", c)
    _, report, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    code, payload, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "positive")
    assert report["verdict"] == "SolvableHermitian" and report["t_min"] == "inf"
    assert code == 2 and payload["status"] == "unsolvable"
    assert payload["certificate"]["failed_conditions"] == ["dp_range_eq"]


@pytest.mark.parametrize("kappa", [1e4, 1e9])
def test_commands_agree_on_c_outside_the_range_of_ill_conditioned_a(capsys, tmp_path, kappa):
    # A = diag(1, 1/kappa, 0) and C = 10 e2 e1* + e3 e1*: C is 1 outside R(A)
    c = np.zeros((3, 3))
    c[1, 0], c[2, 0] = 10.0, 1.0
    a_file = write_matrix(tmp_path / "a.json", np.diag([1.0, 1.0 / kappa, 0.0]))
    c_file = write_matrix(tmp_path / "c.json", c)
    _, report, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    code, _, _ = run_cli(capsys, "solve", "--a", a_file, "--c", c_file, "--mode", "general")
    _, payload, _ = run_cli(capsys, "majorize", "--a", a_file, "--c", c_file)
    assert report["verdict"] == "Unsolvable" and code == 2
    assert payload["finite"] is False and payload["range_inclusion"] is False


@pytest.mark.parametrize("kappa", [1e4, 1e9])
def test_check_majorize_and_the_factorization_agree_on_ill_conditioned_pairs(capsys, tmp_path, kappa):
    # A = U diag(1, 1/kappa, 0) V* and C = A X with X = V E22 V*: C lies in
    # R(A).  At kappa = 1e9 a second rank decision, through its own SVD of A
    # and a leak test at ||C||, called 36 of these 40 pairs non-majorizable
    x = np.zeros((3, 3))
    x[1, 1] = 1.0
    for s in range(40):
        rng = np.random.default_rng([9, s])
        u, v = oc._unitaries(rng, 3, 2)
        a = u @ np.diag([1.0, 1.0 / kappa, 0.0]) @ v.conj().T
        c = a @ (v @ x @ v.conj().T)
        a_file = write_matrix(tmp_path / "a.json", a)
        c_file = write_matrix(tmp_path / "c.json", c)
        _, report, _ = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
        code, payload, _ = run_cli(capsys, "majorize", "--a", a_file, "--c", c_file)
        finite = dg.factorize(a, c).majorization_scale is not None
        assert code == 0
        assert [report["range_ok"], payload["finite"], payload["range_inclusion"], finite] == [True] * 4


# ---------------------------------------------------------------------------
# grid commands


def test_twoproj(capsys, tmp_path):
    csv_path = tmp_path / "curve.csv"
    code, payload, _ = run_cli(capsys, "twoproj", "--n", "1000", "--csv", str(csv_path))
    assert code == 0
    assert payload["gap"] == pytest.approx(0.707, abs=5e-3)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t,re11,im11,re12,im12,re21,im21,re22,im22"
    assert len(lines) == 1000
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[1]) == pytest.approx(1.0, abs=1e-8)
    assert float(last[5]) == pytest.approx(0.0, abs=1e-8)


def test_twoproj_rejects_small_grid(capsys):
    code, _, err = run_cli(capsys, "twoproj", "--n", "50")
    assert code == 1 and "error" in err


def test_perturb(capsys):
    code, payload, _ = run_cli(capsys, "perturb", "--n", "1000", "--eps", "0.1")
    assert code == 0
    assert payload["distance"] == pytest.approx(0.1564, abs=0.01)
    assert payload["residual_max"] < 1e-8
    assert payload["algebra_membership"] is True
    assert 0.0 < payload["eps_snapped"] < 1.0


def test_perturb_monotone_distance(capsys):
    dists = []
    for eps in ("0.2", "0.1", "0.05"):
        code, payload, _ = run_cli(capsys, "perturb", "--n", "1000", "--eps", eps)
        assert code == 0
        dists.append(payload["distance"])
    assert dists[0] > dists[1] > dists[2]


def test_perturb_bad_eps(capsys):
    code, _, err = run_cli(capsys, "perturb", "--n", "1000", "--eps", "1.5")
    assert code == 1 and "error" in err


def test_perturb_csv_outputs(capsys, tmp_path):
    x_csv = tmp_path / "x.csv"
    q_csv = tmp_path / "q.csv"
    code, _, _ = run_cli(
        capsys,
        "perturb", "--n", "200", "--eps", "0.2",
        "--csv-x", str(x_csv), "--csv-q", str(q_csv),
    )
    assert code == 0
    for path in (x_csv, q_csv):
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,re11,im11,re12,im12,re21,im21,re22,im22"
        assert len(lines) == 201


@pytest.mark.parametrize("flag", ["--csv-x", "--csv-q"])
def test_perturb_writes_no_json_when_a_csv_cannot_be_written(capsys, tmp_path, flag):
    # the CSVs are written before the JSON, as twoproj writes its one
    path = tmp_path / "missing" / "out.csv"
    code = main(["perturb", "--n", "200", "--eps", "0.1", flag, str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: ")


# ---------------------------------------------------------------------------
# verify


def test_verify_small(capsys):
    code, payload, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "9")
    assert code == 0
    assert payload["violations"] == 0
    assert payload["seed"] == 9


def test_verify_flags_are_the_trial_spec_fields(capsys, monkeypatch):
    # a flag left out keeps the TrialSpec default; each given one sets its field
    specs = []
    monkeypatch.setattr(oc, "property_suite", lambda spec, tol: specs.append(spec) or {"violations": 0})
    assert main(["verify"]) == 0
    assert main(["verify", "--max-dim", "3", "--rank-policy", "full", "--trials", "2", "--seed", "5"]) == 0
    assert specs == [oc.TrialSpec(), oc.TrialSpec(dim_max=3, rank_policy="full", trials=2, seed=5)]


def test_verify_deterministic_bytes(capsys):
    args = ["verify", "--trials", "5", "--seed", "41"]
    code1 = main(args)
    out1 = capsys.readouterr().out
    code2 = main(args)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize(
    "flag, value, prop, detail",
    [
        ("--psd-atol", "1e-300", "general_solution_routes", "NotPSD: matrix has eigenvalue"),
        (
            "--rank-rtol",
            "0.5",
            "tn_monotone_lambda_match",
            "NotSolvable: range of C is not contained in range of A",
        ),
    ],
)
def test_verify_reports_a_check_that_raises(capsys, flag, value, prop, detail):
    args = ["verify", "--trials", "10", "--max-dim", "6", "--seed", "1000", flag, value]
    code, payload, err = run_cli(capsys, *args)
    assert code == 2 and err == ""
    result = payload["properties"][prop]
    assert result["failures"] >= 1
    assert result["first_failure"]["detail"].startswith(detail)
    assert result["first_failure"]["instance"] == {}
    assert payload["violations"] == sum(p["failures"] for p in payload["properties"].values())


# sha256 of the --out file; a change that moves these bytes on purpose updates
# them and says so in CHANGES.md
VERIFY_DIGESTS = {
    ("--trials", "10", "--max-dim", "6", "--seed", "1000"): (
        "a6d5b13076975fc805e2d7e7723c6db331b5486eb7b65f86ff891611cf741704"
    ),
    ("--trials", "10", "--max-dim", "6", "--seed", "1007"): (
        "fbdab5532cbe4441f66af9732bb63d02bd2c9fe12589f568b5fd1c205a7332b8"
    ),
    ("--trials", "40", "--seed", "20514"): (
        "88f63503d6be8fb4354fa9c6870213522dd507555048b5448e066f6a748e6a4b"
    ),
    # the smallest and largest --max-dim, and each fixed rank policy
    ("--trials", "10", "--max-dim", "3", "--seed", "1000"): (
        "bb4e81e5c22eadcac4ce93b6319bb446faa2ba687536e8533736c3aae6d6da89"
    ),
    ("--trials", "10", "--max-dim", "8", "--seed", "1000"): (
        "0318822e7917add08586327654b7a776a915681ec41b1d181dc9183acd05d3fb"
    ),
    ("--trials", "10", "--max-dim", "6", "--seed", "1000", "--rank-policy", "full"): (
        "8ee760099293f796c189d82220c320c060b75b7dad3003b238592f5338f5afd2"
    ),
    ("--trials", "10", "--max-dim", "6", "--seed", "1000", "--rank-policy", "deficient"): (
        "77b801a83003d7d9d3ed6394a6eae8d04984f2111483eb81698c4dc3839858f0"
    ),
}


@pytest.mark.parametrize("args", list(VERIFY_DIGESTS), ids=" ".join)
def test_verify_bytes_are_pinned(tmp_path, args):
    out = tmp_path / "verify.json"
    assert main(["verify", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_DIGESTS[args]


# sha256 of each CSV the grid commands write, taken before the CSV writer
# formatted by column; CI checks the same commands at --n 100000
CSV_DIGESTS = {
    ("twoproj", "--n", "5000", "--csv"): {
        "--csv": "626a711749a85fb19214dca02331c35e625ce7cb3b5af3cc2b7e1ce22b4a27a9",
    },
    ("perturb", "--n", "5000", "--eps", "0.1", "--csv-x", "--csv-q"): {
        "--csv-x": "d9934800e2f670eb788a08c923fd4dde5918444d90394e0caa69a220a7063b42",
        "--csv-q": "7f93902e6b1df93b27cfd31552979552d094a0824e938839cc29d1e2822234a2",
    },
}


@pytest.mark.parametrize("args", list(CSV_DIGESTS), ids=" ".join)
def test_csv_bytes_are_pinned(tmp_path, args):
    argv = [arg for arg in args if arg not in CSV_DIGESTS[args]]
    for flag in CSV_DIGESTS[args]:
        argv += [flag, str(tmp_path / f"{flag.strip('-')}.csv")]
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 0
    for flag, digest in CSV_DIGESTS[args].items():
        assert hashlib.sha256((tmp_path / f"{flag.strip('-')}.csv").read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# error handling and plumbing


def test_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--a", str(tmp_path / "no.json"), "--c", str(tmp_path / "no.json"))
    assert code == 1 and "error" in err


def test_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "check", "--a", str(bad), "--c", str(bad))
    assert code == 1 and "error" in err


def test_nan_entries_rejected(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text('{"rows": 1, "cols": 1, "data": [[NaN, 0.0]]}')
    code, _, err = run_cli(capsys, "check", "--a", str(bad), "--c", str(bad))
    assert code == 1 and "error" in err


# 401 digits overflow a float; 5000 pass Python's limit for reading an int
@pytest.mark.parametrize("digits, message", [(401, "data[1] must be"), (5000, "is not valid JSON")])
def test_huge_integer_entry_is_input_error(capsys, tmp_path, digits, message):
    huge = tmp_path / "huge.json"
    huge.write_text('{"rows": 1, "cols": 2, "data": [[1, 0], [1' + "0" * (digits - 1) + ", 0]]}")
    code, _, err = run_cli(capsys, "check", "--a", str(huge), "--c", str(huge))
    assert code == 1 and err.startswith("error: ") and message in err


def test_boolean_dimensions_are_input_error(capsys, tmp_path):
    flags = tmp_path / "flags.json"
    flags.write_text('{"rows": true, "cols": true, "data": [[2, 0]]}')
    code, _, err = run_cli(capsys, "check", "--a", str(flags), "--c", str(flags))
    assert code == 1 and err.startswith("error: ") and "rows and cols must be positive integers" in err


# ---------------------------------------------------------------------------
# the flat reader against the general one: matrix_from_json(json.loads(text))


def benchmark_text(m):
    """A matrix as the benchmark writes its inputs: json.dumps of rows, cols and the (re, im) pairs."""
    data = np.stack([m.real.ravel(), m.imag.ravel()], axis=1).tolist()
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data})


def _outcome(read, text):
    """``(shape, dtype, bytes)`` of what ``read(text)`` returns, or ``(type, message)`` of what it raises."""
    try:
        m = read(text)
    except (ValueError, MatrixFormatError) as exc:
        return type(exc), str(exc)
    return m.shape, m.dtype, m.tobytes()


def assert_read_as_json_reads(capsys, tmp_path, text):
    """The flat reader gives the general reader's bits, or ``opeq check`` its exit code and stderr."""
    expected = _outcome(lambda t: mc.matrix_from_json(json.loads(t)), text)
    assert _outcome(mc._matrix_from_text, text) == expected
    kind, message = expected[:2]
    if isinstance(kind, type):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        where = f"{path}: " if kind is MatrixFormatError else f"{path} is not valid JSON: "
        code, _, err = run_cli(capsys, "check", "--a", str(path), "--c", str(path))
        assert (code, err) == (1, f"error: {where}{message}\n")


@pytest.mark.parametrize("n", [1, 20, 200])
def test_reader_takes_benchmark_files_flat(capsys, tmp_path, n):
    rng = np.random.default_rng(n)
    text = benchmark_text(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert mc._canonical_matrix(text) is not None
    assert_read_as_json_reads(capsys, tmp_path, text)


TOKENS = ["-0", "0", "1", "+1", ".5", "1.", "01", "1e05", "1e400", "NaN", "Infinity", "-Infinity", "true"]
TOKENS += ["null", '"1"', "", "1 2", "1" + "0" * 400, "1" + "0" * 4999]
TOKENS += [str(2**64)]  # past 64 bits, which numpy may refuse, yet a float holds it


@pytest.mark.parametrize("where", [0, -1])
@pytest.mark.parametrize("token", TOKENS, ids=lambda t: t if len(t) < 9 else f"{len(t)} digits")
def test_reader_reads_each_token_as_json_does(capsys, tmp_path, token, where):
    values = ["-0.0", "5e-324", "1e+22", "2", "3.5", "-1e-300", "7", "0.1"]
    values[where] = token
    data = ", ".join(f"[{re}, {im}]" for re, im in zip(values[::2], values[1::2]))
    assert_read_as_json_reads(capsys, tmp_path, f'{{"rows": 2, "cols": 2, "data": [{data}]}}')


BASE = '{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3]]}'


@pytest.mark.parametrize(
    "text, flat",
    [
        (json.dumps(json.loads(BASE), indent="\t"), True),  # tabs and newlines
        ("\r\n " + BASE.replace(" ", "\n\t") + "\n", True),
        (BASE.replace(" ", ""), True),
        ('{"cols": 2, "rows": 1, "data": [[1.5, -0.0], [2, 3]]}', False),
        ('{"data": [[1.5, -0.0], [2, 3]], "rows": 1, "cols": 2}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3]], "note": 0}', False),
        ('{"rows": 2, "rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3]]}', False),
        ('{"rows1":1, "cols": 2, "data": [[1.5, -0.0], [2, 3]]}', False),
        ('{"rows1": , "cols": 2, "data": [[1.5, -0.0], [2, 3]]}', False),
        ('{"rows": 01, "cols": 2, "data": [[1.5, -0.0], [2, 3]]}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0]2, [3, 4]]}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3]]5}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3], ]}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3, 4]]}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0] [2, 3]]}', False),
        ('{"rows": 1, "cols": 2, "data": [[1.5, -0.0], [2, 3]]\u00a0}', False),
        (BASE + "x", False),  # trailing text
        (BASE + " 1", False),
        ("\ufeff" + BASE, False),  # a BOM
        (BASE[:-1], False),
    ],
)
def test_reader_takes_other_layouts_the_general_way(capsys, tmp_path, text, flat):
    assert (mc._canonical_matrix(text) is not None) == flat
    assert_read_as_json_reads(capsys, tmp_path, text)


def test_reader_builds_nothing_sized_by_the_header():
    text = '{"rows": 100000, "cols": 100000, "data": [[1, 2]]}'
    tracemalloc.start()
    try:
        with pytest.raises(MatrixFormatError, match=r"^data must hold exactly rows\*cols = 10000000000 entries$"):
            mc._matrix_from_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_shape_mismatch_exit(capsys, tmp_path):
    a_file = write_matrix(tmp_path / "a.json", np.eye(2))
    c_file = write_matrix(tmp_path / "c.json", np.eye(3))
    code, _, err = run_cli(capsys, "check", "--a", a_file, "--c", c_file)
    assert code == 1 and "error" in err


ROWS = "A has 2 rows but C has 3; ranges live in different spaces"
NO_GRID = "need an integer number of points >= 3, got 2"
NO_EPS = "eps must lie strictly inside (0, 1), got "
# every typed failure a command meets, and the input errors the CLI raises
# itself, against its message: exit 1, nothing on stdout, the message alone on stderr
INPUT_ERRORS = {
    "check --a a.json --c c32.json": ROWS,
    "majorize --a a.json --c c32.json": ROWS,
    "solve --a a.json --c c32.json": ROWS,
    "solve --a a.json --c c23.json --mode hermitian": (
        "A and C must have identical shape for a square solution space, got (2, 2) and (2, 3)"
    ),
    "solve --a a.json --c c.json --mode hermitian --y skew.json": (
        "parameter Y must be Hermitian (deviation 1.000e+00)"
    ),
    "solve --a a.json --c c.json --mode positive --z neg.json": (
        "parameter Z must be positive semidefinite"
    ),
    "solve --a a.json --c c.json --y eye3.json": "parameter Y must have shape (2, 2), got (3, 3)",
    "solve --a a.json --c c.json --mode hermitian --y eye3.json": "parameter Y must be 2x2, got (3, 3)",
    "twoproj --n 50": "certificate needs a grid of at least 100 points, got 50",
    "twoproj --n 2": NO_GRID,
    "perturb --n 2 --eps 0.1": NO_GRID,
    "perturb --n 100 --eps 1.5": NO_EPS + "1.5",
    "perturb --n 100 --eps nan": NO_EPS + "nan",
    "check --a no.json --c c.json": "cannot read no.json: [Errno 2] No such file or directory: 'no.json'",
    "check --a a.json --c c.json --rank-rtol 2": (
        "rank_rtol must be a number strictly between 0 and 1, got 2.0"
    ),
    "verify --max-dim 9": "dimensions must satisfy 1 <= dim_max <= 8",
    "solve --a a.json --c c.json --z a.json": "--z only applies to positive mode; use --y",
    "check --a a.json --c c.json --out missing/out.json": (
        "cannot write missing/out.json: [Errno 2] No such file or directory: 'missing/out.json'"
    ),
}


@pytest.mark.parametrize("argv", list(INPUT_ERRORS))
def test_input_errors_print_the_message_alone(capsys, monkeypatch, tmp_path, rank1_pair, argv):
    monkeypatch.chdir(tmp_path)
    a, c = rank1_pair
    matrices = {
        "a": a,
        "c": c,
        "c32": np.ones((3, 2)),
        "c23": np.ones((2, 3)),
        "skew": [[0, 1], [0, 0]],
        "neg": [[-1, 0], [0, 0]],
        "eye3": np.eye(3),
    }
    for name, m in matrices.items():
        write_matrix(tmp_path / f"{name}.json", m)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {INPUT_ERRORS[argv]}\n"


@pytest.mark.parametrize("command", ["solve", "check", "majorize", "twoproj", "perturb", "verify"])
def test_every_command_lists_the_common_flags_in_its_help(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: opeq {command} ")
    for flag in ("--out", "--rank-rtol", "--psd-atol", "--residual-atol"):
        assert f"{flag} " in out


def test_unknown_flag(capsys, rank1_files):
    code, _, _ = run_cli(capsys, "check", "--a", rank1_files[0], "--c", rank1_files[1], "--frobnicate")
    assert code == 1


def test_bad_tolerance_override(capsys, rank1_files):
    code, _, err = run_cli(
        capsys, "check", "--a", rank1_files[0], "--c", rank1_files[1], "--rank-rtol", "2.0"
    )
    assert code == 1 and "error" in err


def _outputs(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "bad",
    [
        ["perturb", "--n", "many", "--eps", "0.1"],  # argparse's own usage error
        ["perturb", "--n", "200"],  # a missing required option
        ["twoproj"],
        ["frobnicate"],
        ["check", "--a", "x.json", "--c", "y.json", "--rank-rtol", "2.0"],  # rejected after parsing
    ],
)
def test_parser_is_built_once_and_survives_usage_errors(capsys, rank1_files, bad):
    good = ["check", "--a", rank1_files[0], "--c", rank1_files[1], "--residual-atol", "1e-6"]
    cli._build_parser.cache_clear()
    fresh = [_outputs(capsys, *bad), _outputs(capsys, *good)]
    cli._build_parser.cache_clear()
    fresh_good = _outputs(capsys, *good)
    assert cli._build_parser() is cli._build_parser()
    # the same parser, after an error: the same exit codes and bytes as fresh calls
    assert [_outputs(capsys, *bad), _outputs(capsys, *good)] == fresh
    assert fresh[1] == fresh_good and fresh_good[0] == 0
    assert fresh[0][0] == 1 and fresh[0][2].startswith("usage: opeq") == (bad[0] != "check")


def test_out_file(capsys, tmp_path, rank1_files):
    out = tmp_path / "report.json"
    code, payload, _ = run_cli(
        capsys, "check", "--a", rank1_files[0], "--c", rank1_files[1], "--out", str(out)
    )
    assert code == 0 and payload is None
    report = json.loads(out.read_text())
    assert report["verdict"] == "SolvablePositive"


def test_console_entry_point(tmp_path, rank1_pair):
    a, c = rank1_pair
    a_file = write_matrix(tmp_path / "a.json", a)
    c_file = write_matrix(tmp_path / "c.json", c)
    proc = subprocess.run(
        [sys.executable, "-m", "opeq.cli", "check", "--a", a_file, "--c", c_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "SolvablePositive"


# ---------------------------------------------------------------------------
# JSON output


# signed zero, the least subnormal, and the switch points of float.__repr__
EDGE_VALUES = [-0.0, 5e-324, 1e-300, 1.0, 1e16, 1e22, 123456789.0]


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (6, 6)])
@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("block_rows", [cli._BLOCK_ROWS, 4])  # 4: across block boundaries
def test_emit_writes_the_bytes_of_json_dumps(capsys, monkeypatch, tmp_path, shape, depth, block_rows):
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    values = np.resize(EDGE_VALUES + [-v for v in EDGE_VALUES], 2 * shape[0] * shape[1])
    x = np.empty(shape, dtype=np.complex128)
    x.real = values[0::2].reshape(shape)
    x.imag = values[1::2].reshape(shape)

    def payload(solution):
        inner = {"status": "ok", "mode": "positive", "solution": solution, "residual": 1e-300}
        for _ in range(depth):
            inner = {"nested": inner, "z": [1.5, None]}
        return inner

    expected = json.dumps(payload(mc.matrix_to_json(x)), indent=2, sort_keys=True) + "\n"
    out = tmp_path / "out.json"
    cli._emit(payload(mc.matrix_to_wire(x)), str(out))
    assert out.read_text(encoding="utf-8") == expected
    cli._emit(payload(mc.matrix_to_wire(x)), None)
    assert capsys.readouterr().out == expected
