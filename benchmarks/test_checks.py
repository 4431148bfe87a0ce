"""The benchmark's output checks count a corrupted output as a failed op.

Run from the root of the repository with ``python3 -m pytest benchmarks -q``;
the repository's own test run does not collect this directory.
"""

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from run import Tally  # noqa: E402
from workloads import Dense, Grid, Verify  # noqa: E402


def test_dense_rejects_solution_with_negative_eigenvalue(tmp_path):
    op = Dense(0, tmp_path)._op(8, "t")
    assert op.outcome(op.run()) is None
    a = checks.parse_matrix(checks.read_json(tmp_path / "t-a.json"))
    c = checks.parse_matrix(checks.read_json(tmp_path / "t-c.json"))
    solve_path = tmp_path / "t-solve.json"
    payload = checks.read_json(solve_path)
    x = checks.parse_matrix(payload["solution"])
    # shift X along the kernel of A: AX = C still holds, X stays Hermitian
    kernel = np.linalg.svd(a)[2][-1].conj()
    x = x - 2.0 * np.linalg.norm(x, 2) * np.outer(kernel, kernel.conj())
    assert np.linalg.norm(a @ x - c, 2) < 1e-8
    payload["solution"] = {
        "rows": x.shape[0],
        "cols": x.shape[1],
        "data": np.stack([x.real.ravel(), x.imag.ravel()], axis=1).tolist(),
    }
    solve_path.write_text(json.dumps(payload))
    assert "eigenvalue" in op.check()


def test_grid_rejects_large_residual(tmp_path):
    op = Grid(0, tmp_path)._op(200, "t")
    assert op.outcome(op.run()) is None
    perturb_path = tmp_path / "t-perturb.json"
    payload = checks.read_json(perturb_path)
    payload["residual_max"] = 1e-6
    perturb_path.write_text(json.dumps(payload))
    assert "residual_max" in op.check()


def test_verify_rejects_changed_byte(tmp_path):
    workload = Verify(0, tmp_path)
    op = workload._op(1000, trials=1)
    assert op.outcome(op.run()) is None
    out = tmp_path / "verify-1000.json"
    raw = out.read_bytes()
    # a tab for the first indenting space: the JSON still parses to the same value
    changed = raw.replace(b"\n ", b"\n\t", 1)
    assert json.loads(changed) == json.loads(raw)
    out.write_bytes(changed)
    assert "different bytes" in op.check()


def test_tally_counts_corrupted_output_as_failed(tmp_path):
    op = Grid(0, tmp_path)._op(200, "t")
    op.run()
    perturb_path = tmp_path / "t-perturb.json"
    payload = checks.read_json(perturb_path)
    payload["residual_max"] = 1e-6
    tally = Tally()
    # the op runs again, then its output is corrupted before the check reads it
    def corrupted_run():
        codes = op.run()
        perturb_path.write_text(json.dumps(payload))
        return codes, 1.0

    assert tally.record(op, corrupted_run) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.result({})["correct"] is False
