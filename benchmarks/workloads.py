"""The three workloads: inputs made from the seed, the ops, and their kernels.

An op is one or more ``opeq`` CLI calls run in-process through
``opeq.cli.main`` with ``--out`` to a file, followed by a check of what they
wrote.  Every op of a workload is the same kind and size of work.  A round is
the fixed list of ops a run repeats until its time is up.

Each workload also has a calibration kernel: fixed numpy work of similar
character that never calls opeq, timed just before each op.  The ratio of
op time to kernel time cancels most of the drift of a shared host.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import opeq.cli

# seed of the calibration kernels' fixed matrices; never derived from --seed
KERNEL_SEED = 7
KERNEL_REPEATS = 3


@dataclass
class Op:
    """One timed unit: CLI calls, then an independent check of their outputs."""

    argvs: list
    check: Callable[[], "str | None"]

    def run(self):
        return [opeq.cli.main(argv) for argv in self.argvs]

    def outcome(self, codes):
        """None when the op succeeded and its output is right, else the reason."""
        if any(code != 0 for code in codes):
            return f"exit codes {codes}"
        return self.check()


@contextlib.contextmanager
def work_dir(root, name):
    """A fresh ``.bench_work/<name>-<pid>`` directory under ``root``, removed on exit."""
    work = root / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def positive_pair(rng, n, rank):
    """A with ``rank`` singular values in [1, 2]; C = A X0 with X0 PSD, eigenvalues in [0.5, 2].

    AX = C then has the PSD solution X0, so the verdict must be SolvablePositive.
    """
    sing = np.zeros(n)
    sing[:rank] = rng.uniform(1.0, 2.0, size=rank)
    a = (unitary(rng, n) * sing) @ unitary(rng, n).conj().T
    w = unitary(rng, n)
    x0 = (w * rng.uniform(0.5, 2.0, size=n)) @ w.conj().T
    x0 = 0.5 * (x0 + x0.conj().T)
    return a, a @ x0


def matrix_json(m):
    """The ``{"rows", "cols", "data": [[re, im], ...]}`` wire format, as text."""
    data = np.stack([m.real.ravel(), m.imag.ravel()], axis=1).tolist()
    return json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data})


def write_matrix(m, path):
    text = matrix_json(m)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


class Workload:
    """Set-up, the round of ops, the calibration kernel and the end-of-run check."""

    def __init__(self, seed, work):
        self.seed = seed
        self.work = work

    def prepare(self):
        """Make the inputs and warm up on a small op; repeatable.

        Returns None, or why the warm-up op failed.
        """
        warm = self._warm_op()
        problem = warm.outcome(warm.run())
        self.round = self._round()
        return problem

    def calibrate(self):
        """Seconds of the kernel: the median of three, so one pause does not count.

        The cyclic garbage collector is off while the kernel runs: a collection
        falls into some repeats and not others, which made kernel times bimodal.
        """
        times = []
        gc.disable()
        try:
            for _ in range(KERNEL_REPEATS):
                start = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return statistics.median(times)

    def finish(self):
        """A check made once after the timed window; None when it passes."""
        return None


class Dense(Workload):
    """``check`` then ``solve --mode positive`` on one n = 200 pair, rank 150."""

    N = 200
    RANK = 150
    WARM_N = 20
    TAG = 1  # keeps this workload's random stream apart from the others'

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.kernel_matrix = unitary(np.random.default_rng(KERNEL_SEED), self.N)

    @classmethod
    def pair(cls, seed, n):
        """The seeded positive-solvable pair of size n, rank 3n/4."""
        return positive_pair(np.random.default_rng([cls.TAG, seed, n]), n, cls.RANK * n // cls.N)

    def _op(self, n, name):
        a, c = self.pair(self.seed, n)
        paths = {key: str(self.work / f"{name}-{key}.json") for key in ("a", "c", "check", "solve")}
        write_matrix(a, paths["a"])
        write_matrix(c, paths["c"])
        pair = ["--a", paths["a"], "--c", paths["c"]]
        return Op(
            argvs=[
                ["check", *pair, "--out", paths["check"]],
                ["solve", *pair, "--mode", "positive", "--out", paths["solve"]],
            ],
            check=lambda: checks.check_dense(
                a, c, checks.read_json(paths["check"]), checks.read_json(paths["solve"])
            ),
        )

    def _warm_op(self):
        return self._op(self.WARM_N, "warm")

    def _round(self):
        return [self._op(self.N, "op")]

    def _kernel(self):
        # factorizations of an n = 200 matrix; a JSON decode was tried in here
        # too, but its speed varied from process to process more than the op's
        m = self.kernel_matrix
        for _ in range(3):
            np.linalg.svd(m)
        np.linalg.eigh(m + m.conj().T)


class Grid(Workload):
    """``perturb --n N --eps 0.1`` plus ``twoproj --n N --csv FILE``, N = 5000."""

    N = 5000
    EPS = 0.1
    WARM_N = 200
    SAMPLED_ROWS = 6
    KERNEL_NODES = 300
    TAG = 2

    def __init__(self, seed, work):
        super().__init__(seed, work)
        g = np.random.default_rng(KERNEL_SEED).standard_normal((self.KERNEL_NODES, 2, 2))
        self.kernel_stack = g @ np.transpose(g, (0, 2, 1)) + 0j

    def _op(self, n, name):
        rng = np.random.default_rng([self.TAG, self.seed, n])
        inner = rng.choice(np.arange(2, n - 1), size=self.SAMPLED_ROWS - 2, replace=False)
        rows = sorted({1, n - 1, *(int(k) for k in inner)})
        perturb_out = str(self.work / f"{name}-perturb.json")
        twoproj_out = str(self.work / f"{name}-twoproj.json")
        curve = str(self.work / f"{name}-curve.csv")

        def check():
            return checks.check_perturb(n, self.EPS, checks.read_json(perturb_out)) or (
                checks.check_twoproj(n, checks.read_json(twoproj_out), curve, rows)
            )

        return Op(
            argvs=[
                ["perturb", "--n", str(n), "--eps", str(self.EPS), "--out", perturb_out],
                ["twoproj", "--n", str(n), "--csv", curve, "--out", twoproj_out],
            ],
            check=check,
        )

    def _warm_op(self):
        return self._op(self.WARM_N, "warm")

    def _round(self):
        return [self._op(self.N, "op")]

    def _kernel(self):
        # the per-node work of a residual check: two 2-norms, eigh, a root
        for h in self.kernel_stack:
            np.linalg.norm(h - h.conj().T, 2)
            np.linalg.norm(h, 2)
            w, v = np.linalg.eigh(h)
            root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            np.linalg.norm(root @ h - h, 2)


class Verify(Workload):
    """``verify --trials 10 --max-dim 6 --seed S`` for 16 fixed seeds S.

    The op seeds are fixed, so every run does the same work whatever its
    --seed; --seed sets the order of the round and the op re-run at the end.
    """

    TRIALS = 10
    MAX_DIM = 6
    OP_SEEDS = tuple(range(1000, 1016))
    WARM_SEED = 999
    KERNEL_MATRICES = 120

    def __init__(self, seed, work):
        super().__init__(seed, work)
        rng = np.random.default_rng(KERNEL_SEED)
        self.kernel_matrices = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in (1 + k % self.MAX_DIM for k in range(self.KERNEL_MATRICES))
        ]
        self.first_output = {}

    def _argv(self, op_seed, out, trials=TRIALS):
        return [
            "verify",
            "--trials", str(trials),
            "--max-dim", str(self.MAX_DIM),
            "--seed", str(op_seed),
            "--out", out,
        ]

    def _op(self, op_seed, trials=TRIALS):
        out = str(self.work / f"verify-{op_seed}.json")

        def check():
            with open(out, "rb") as handle:
                raw = handle.read()
            problem = checks.check_verify(trials, op_seed, self.MAX_DIM, json.loads(raw))
            if problem:
                return problem
            first = self.first_output.setdefault(op_seed, raw)
            return None if raw == first else f"seed {op_seed} gave different bytes on a repeat"

        return Op(argvs=[self._argv(op_seed, out, trials)], check=check)

    def _warm_op(self):
        return self._op(self.WARM_SEED, trials=1)

    def _round(self):
        start = self.seed % len(self.OP_SEEDS)
        return [self._op(s) for s in self.OP_SEEDS[start:] + self.OP_SEEDS[:start]]

    def _kernel(self):
        # the small factorizations a property trial makes
        for m in self.kernel_matrices:
            np.linalg.svd(m)
            h = m + m.conj().T
            np.linalg.eigh(h)
            np.linalg.eigvalsh(h)
            np.linalg.qr(m)
            np.linalg.norm(m, 2)

    def finish(self):
        """Re-run one op's seed after the timed window; the JSON must be byte-identical."""
        op_seed = self.OP_SEEDS[(self.seed * 7 + 3) % len(self.OP_SEEDS)]
        if op_seed not in self.first_output:
            return f"seed {op_seed} never ran"
        out = str(self.work / "rerun.json")
        code = opeq.cli.main(self._argv(op_seed, out))
        with open(out, "rb") as handle:
            raw = handle.read()
        if code != 0 or raw != self.first_output[op_seed]:
            return f"re-run of seed {op_seed} exited {code} or gave different bytes"
        return None


WORKLOADS = {"dense": Dense, "grid": Grid, "verify": Verify}
