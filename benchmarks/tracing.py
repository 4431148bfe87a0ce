"""Per-layer spans and LAPACK counters, attached to opeq from outside.

opeq modules import names by value (``from .matcore import pinv``), so a
wrapper has to replace the original in every module namespace that holds
it, not only in the module that defines it.  The LAPACK counters wrap
``svd``, ``eigh`` and ``eigvalsh`` in ``numpy.linalg._linalg`` as well as
in ``numpy.linalg``: ``np.linalg.norm(M, 2)`` calls the private module's own
``svd``, which a wrapper on ``numpy.linalg`` alone never sees.

A span is one wrapped call.  Its self time is its duration minus the time
of the wrapped calls it made; a layer's self time is the sum over its spans.
The root span of an op belongs to ``cli``, so ``cli`` self time is op time
outside every wrapped call (argparse, JSON emit, file IO).
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import defaultdict

import numpy.linalg

LAYERS = ("matcore", "douglas", "projpair", "oracle")
# every module that may hold a wrapped name, the package namespace included
HOLDERS = ("opeq", "opeq.matcore", "opeq.douglas", "opeq.projpair", "opeq.oracle", "opeq.cli")
LAPACK = ("svd", "eigh", "eigvalsh")


# the functions whose inclusive time is reported; every public function of a
# layer is wrapped all the same, so that self times are attributed correctly
REPORTED = {
    "douglas": (
        "solvability_report",
        "lambda_diagnostic",
        "positive_solution",
        "hermitian_solution",
        "reduced_solution",
    ),
    "matcore": (
        "spectral_norm",
        "hermitian_deviation",
        "pinv",
        "row_space_basis",
        "range_projector",
        "matrix_rank",
        "is_psd",
        "sqrt_psd",
        "least_dominating_scale",
        "range_inclusion_residual",
    ),
    "projpair": (
        "equation_residual_max",
        "sup_distance",
        "canonical_pair",
        "perturb_q",
        "perturbed_solution",
        "pointwise_solution",
        "nonexistence_certificate",
        "write_csv",
    ),
    "oracle": ("property_suite", "positive_search", "lsq_solve", "douglas_properties_check"),
}


class Tracer:
    """Collects call counts and inclusive and self times while installed."""

    def __init__(self):
        self.ops = 0
        self.calls = defaultdict(int)  # "layer.name" -> calls
        self.incl_s = defaultdict(float)  # "layer.name" -> inclusive seconds
        self.self_s = defaultdict(float)  # layer -> self seconds
        self._child_s = []  # per open span: seconds spent in its wrapped children
        self._saved = []  # (namespace, attribute, original) to restore

    def _close(self, layer, key, elapsed):
        child = self._child_s.pop()
        if key is not None:
            self.calls[key] += 1
            self.incl_s[key] += elapsed
        self.self_s[layer] += elapsed - child
        if self._child_s:
            self._child_s[-1] += elapsed

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(layer, key, time.perf_counter() - start)

        return wrapper

    def _bind(self, namespace, attribute, value):
        self._saved.append((namespace, attribute, getattr(namespace, attribute)))
        setattr(namespace, attribute, value)

    def install(self):
        linalg_private = numpy.linalg._linalg
        for name in LAPACK:
            wrapped = self._wrap("lapack", name, getattr(linalg_private, name))
            self._bind(linalg_private, name, wrapped)
            self._bind(numpy.linalg, name, wrapped)
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"opeq.{layer}")
            for name in module.__all__:
                obj = getattr(module, name)
                if isinstance(obj, types.FunctionType):
                    replacements[id(obj)] = self._wrap(layer, name, obj)
        for holder in HOLDERS:
            module = importlib.import_module(holder)
            for attribute, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._bind(module, attribute, replacements[id(value)])

    def uninstall(self):
        while self._saved:
            namespace, attribute, original = self._saved.pop()
            setattr(namespace, attribute, original)

    def run_op(self, op):
        """Run ``op()`` traced as one ``cli`` root span; returns its result and seconds."""
        self.install()
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            result = op()
        finally:
            elapsed = time.perf_counter() - start
            self._close("cli", None, elapsed)
            self.uninstall()
            self.ops += 1
        return result, elapsed

    def per_op(self):
        """Per-op averages: ``{name: (value, unit)}`` for every reported metric."""
        ops = max(self.ops, 1)

        def ms(seconds):
            return (1e3 * seconds / ops, "ms/op")

        def count(calls):
            return (calls / ops, "calls/op")

        out = {
            "lapack.svd_calls": count(self.calls["lapack.svd"]),
            # eigvalsh is an eigh without eigenvectors
            "lapack.eigh_calls": count(self.calls["lapack.eigh"] + self.calls["lapack.eigvalsh"]),
            "lapack.ms": ms(self.self_s["lapack"]),
        }
        for name in REPORTED["douglas"]:
            out[f"douglas.{name}.ms"] = ms(self.incl_s[f"douglas.{name}"])
        for name in REPORTED["matcore"]:
            out[f"matcore.{name}.calls"] = count(self.calls[f"matcore.{name}"])
            out[f"matcore.{name}.ms"] = ms(self.incl_s[f"matcore.{name}"])
        out["matcore.as_matrix.calls"] = count(self.calls["matcore.as_matrix"])
        for name in ("matrix_from_json", "matrix_to_json"):
            out[f"matcore.{name}.ms"] = ms(self.incl_s[f"matcore.{name}"])
        for layer in ("projpair", "oracle"):
            for name in REPORTED[layer]:
                out[f"{layer}.{name}.ms"] = ms(self.incl_s[f"{layer}.{name}"])
        for layer in ("douglas", "matcore", "projpair", "oracle", "cli"):
            out[f"{layer}.self_ms"] = ms(self.self_s[layer])
        return out

