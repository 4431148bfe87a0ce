"""Output checks that do not trust opeq.

Each checker reads what an op wrote and returns None when the output is
right, or a one-line reason when it is not.  Matrices are parsed here, and
every reference value is computed here with numpy or scipy from the inputs
the benchmark made, or from a property every correct output must have.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import scipy.linalg

CSV_HEADER = ["t", "re11", "im11", "re12", "im12", "re21", "im21", "re22", "im22"]


def read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def parse_matrix(obj):
    """Parse the ``{"rows", "cols", "data": [[re, im], ...]}`` wire format."""
    rows, cols = obj["rows"], obj["cols"]
    data = np.asarray(obj["data"], dtype=float)
    if data.shape != (rows * cols, 2):
        raise ValueError(f"matrix data has shape {data.shape}, expected ({rows * cols}, 2)")
    return (data[:, 0] + 1j * data[:, 1]).reshape(rows, cols)


def _norm2(m):
    return float(np.linalg.norm(m, 2))


def check_dense(a, c, check_payload, solve_payload):
    """``check`` and ``solve --mode positive`` on a pair with C = A X0, X0 PSD."""
    if check_payload.get("verdict") != "SolvablePositive":
        return f"verdict {check_payload.get('verdict')!r}, expected 'SolvablePositive'"
    t_min = check_payload.get("t_min")
    if not (isinstance(t_min, (int, float)) and math.isfinite(t_min)):
        return f"t_min {t_min!r} is not finite"
    if solve_payload.get("status") != "ok":
        return f"solve status {solve_payload.get('status')!r}"
    x = parse_matrix(solve_payload["solution"])
    if x.shape != (a.shape[1], a.shape[1]):
        return f"solution has shape {x.shape}"
    x_norm = _norm2(x)
    residual = _norm2(a @ x - c)
    if not residual <= 1e-8 * max(1.0, _norm2(c)):
        return f"||AX - C|| = {residual:.3e}"
    deviation = _norm2(x - x.conj().T)
    if not deviation <= 1e-9 * x_norm:
        return f"||X - X*|| = {deviation:.3e} with ||X|| = {x_norm:.3e}"
    lowest = float(np.linalg.eigvalsh(0.5 * (x + x.conj().T))[0])
    if not lowest >= -1e-9 * x_norm:
        return f"X has eigenvalue {lowest:.3e}"
    # CC* = A X X A* <= ||X|| A X A* = ||X|| CA* for every PSD solution X
    if not t_min <= x_norm * (1.0 + 1e-8):
        return f"t_min = {t_min!r} exceeds ||X|| = {x_norm!r}"
    return None


def _projection_pair(t):
    """P = diag(1, 0) and Q(t), the projection onto (cos, sin)(pi t / 2)."""
    cos, sin = math.cos(0.5 * math.pi * t), math.sin(0.5 * math.pi * t)
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    q = np.array([[cos * cos, sin * cos], [sin * cos, sin * sin]])
    return p, q


def check_perturb(n_points, eps, payload):
    """``perturb --n N --eps E``: residual, membership and the snapped distance."""
    residual = payload.get("residual_max")
    if not (isinstance(residual, float) and residual < 1e-8):
        return f"residual_max {residual!r} is not below 1e-8"
    if payload.get("algebra_membership") is not True:
        return "algebra_membership is not true"
    if payload.get("n_points") != n_points:
        return f"n_points {payload.get('n_points')!r}, expected {n_points}"
    node = round(eps * (n_points - 1))
    snapped = payload.get("eps_snapped")
    if not (isinstance(snapped, float) and abs(snapped - node / (n_points - 1)) <= 1e-12):
        return f"eps_snapped {snapped!r} is not the node {node}/{n_points - 1} nearest {eps}"
    expected = math.sin(0.5 * math.pi * snapped)
    distance = payload.get("distance")
    if not (isinstance(distance, float) and abs(distance - expected) <= 1e-9):
        return f"distance {distance!r}, expected sin(pi*eps/2) = {expected!r}"
    return None


def check_twoproj(n_points, payload, csv_path, sample_rows):
    """``twoproj --n N --csv FILE``: the gap and sampled rows of the curve."""
    c1 = math.cos(0.5 * math.pi / (n_points - 1))
    expected = 0.5 * (-math.sqrt(1.0 + c1) + math.sqrt(1.0 - c1))
    gap = payload.get("gap")
    if not (isinstance(gap, float) and abs(gap - abs(expected)) <= 1e-12):
        return f"gap {gap!r}, expected {abs(expected)!r}"
    if payload.get("boundary_value") != 0.0 or payload.get("grid_resolution") != n_points:
        return "boundary_value or grid_resolution is wrong"
    with open(csv_path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != CSV_HEADER:
        return f"CSV header {rows[0]!r}"
    if len(rows) != n_points:  # header plus every positive node
        return f"CSV has {len(rows) - 1} data rows, expected {n_points - 1}"
    for k in sample_rows:
        values = [float(v) for v in rows[k]]
        t = values[0]
        if abs(t - k / (n_points - 1)) > 1e-12:
            return f"CSV row {k} has t = {t!r}"
        x = np.array(
            [
                [complex(values[1], values[2]), complex(values[3], values[4])],
                [complex(values[5], values[6]), complex(values[7], values[8])],
            ]
        )
        p, q = _projection_pair(t)
        residual = _norm2(scipy.linalg.sqrtm(p + q) @ x - p)
        if not residual <= 1e-8:
            return f"sqrtm(P+Q) X - P at CSV row {k} (t = {t!r}) has norm {residual:.3e}"
    return None


def check_verify(trials, seed, max_dim, payload):
    """``verify``: no violation, and every property ran its ``trials``."""
    if payload.get("violations") != 0:
        return f"violations = {payload.get('violations')!r}"
    properties = payload.get("properties")
    if not isinstance(properties, dict) or not properties:
        return "no properties in the report"
    for name, entry in properties.items():
        if entry.get("trials") != trials or entry.get("failures") != 0:
            return f"property {name} ran {entry.get('trials')!r} trials, {entry.get('failures')!r} failed"
    if payload.get("total_trials") != trials * len(properties):
        return f"total_trials {payload.get('total_trials')!r} != {trials} x {len(properties)}"
    if payload.get("seed") != seed or payload.get("dim_max") != max_dim:
        return "seed or dim_max differ from the request"
    return None
