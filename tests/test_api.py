import ast
import importlib
import inspect
import pkgutil
import re
import types
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from opeq import douglas as dg
from opeq import matcore as mc
from opeq import oracle as oc
from opeq import projpair as pp
from opeq.errors import BadEpsilon, BadGridSize, MatrixFormatError, OpeqError, ShapeMismatch

LAYERS = ("opeq.matcore", "opeq.douglas", "opeq.projpair", "opeq.oracle")


@pytest.mark.parametrize("name", LAYERS)
def test_every_all_name_resolves(name):
    # a stale entry breaks every caller that walks __all__ with getattr
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_exports_only_layer_api():
    import opeq

    declared = set().union(*(importlib.import_module(name).__all__ for name in LAYERS))
    exported = {
        name: value
        for name, value in vars(opeq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    stray = [
        name
        for name, value in exported.items()
        if name not in declared and not (inspect.isclass(value) and issubclass(value, OpeqError))
    ]
    assert stray == []


TOLERANCE_FIELDS = ("rank_rtol", "psd_atol", "residual_atol")
# the rules of their own that the ToleranceConfig docstring lists: the T_n
# scan's convergence, divergence and lambda-match tests
OWN_RULES = Counter(
    {
        ("opeq.oracle", "_diagnose"): 2,
        ("opeq.oracle", "_check_tn_lambda"): 1,
    }
)


def _field_reads(name):
    """Tolerance-field reads in a module's source, by the top-level def or class holding them."""
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    return Counter(
        (name, getattr(top, "name", None))
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in TOLERANCE_FIELDS
    )


def _package_modules():
    import opeq

    return ["opeq"] + [f"opeq.{info.name}" for info in pkgutil.iter_modules(opeq.__path__)]


def test_every_layer_name_is_read_in_the_package():
    # a public name that only tests call is test-only API
    reads = set()
    for name in _package_modules():
        tree = ast.parse(inspect.getsource(importlib.import_module(name)))
        reads |= {
            (node.id if isinstance(node, ast.Name) else node.attr, name, getattr(top, "name", None))
            for top in tree.body
            for node in ast.walk(top)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        }
    unread = {
        (layer, entry)
        for layer in LAYERS
        for entry in importlib.import_module(layer).__all__
        if not any(read == entry and (module, holder) != (layer, entry) for read, module, holder in reads)
    }
    assert unread == set()


def test_tolerance_fields_are_read_only_by_their_rules():
    reads = sum((_field_reads(name) for name in _package_modules()), Counter())
    del reads[("opeq.matcore", "ToleranceConfig")]
    assert reads == OWN_RULES


def _calls_residual_bound(node):
    return any(
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "residual_bound"
        for call in ast.walk(node)
    )


def _names(node):
    return {name.id for name in ast.walk(node) if isinstance(name, ast.Name)}


def _bound_names(top):
    """Names in one top-level def that hold a residual bound.

    They are the targets of an assignment from an expression that calls
    ``.residual_bound(...)``, and the targets of a loop over such a name.
    """
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Assign) and _calls_residual_bound(node.value):
            names |= set().union(*map(_names, node.targets))
    for node in ast.walk(top):
        if isinstance(node, (ast.For, ast.comprehension)) and _names(node.iter) & names:
            names |= _names(node.target)
    return names


def _bound_comparisons(source):
    """The top-level defs of ``source`` that compare with a residual bound."""
    found = set()
    for top in ast.parse(source).body:
        names = _bound_names(top)
        found |= {
            getattr(top, "name", None)
            for node in ast.walk(top)
            if isinstance(node, ast.Compare)
            and any(
                _calls_residual_bound(side) or _names(side) & names
                for side in (node.left, *node.comparators)
            )
        }
    return found


def test_norms_meet_residual_bounds_only_in_matcore():
    # each ||M|| <= residual_bound(||R||) asks matcore._within_residual_bound,
    # which screens with Frobenius bounds before it takes a zgesdd norm
    found = {
        (name, top)
        for name in _package_modules()
        if name != "opeq.matcore"
        for top in _bound_comparisons(inspect.getsource(importlib.import_module(name)))
    }
    assert found == set()


def test_bound_comparisons_are_seen_through_names_and_loops():
    source = """
def inline(m, tol):
    return norm(m) <= tol.residual_bound(1.0)

def named(m, tol):
    bound = tol.residual_bound(1.0)
    return norm(m) <= bound

def looped(m, tol):
    checks = [(m, tol.residual_bound(1.0))]
    for residual, bound in checks:
        if norm(residual) > bound:
            return False

def certificate(m, tol):
    bound = tol.residual_bound(1.0)
    return {"bound": bound, "ok": within(m, 1.0, tol)}

def elsewhere(m, tol):
    bound = tol.eigenvalue_floor(1.0)
    return norm(m) <= bound
"""
    assert _bound_comparisons(source) == {"inline", "named", "looped"}


# the float-literal thresholds the package keeps: none
LITERAL_THRESHOLDS = Counter()


def _is_draw(node):
    """``rng.random()``: compared with a probability, not with a threshold."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "random"
        and not node.args
    )


def _literal_thresholds(source, module):
    """Comparisons in ``source`` that hold a float literal in (0, 1), by the top-level def."""
    return Counter(
        (module, getattr(top, "name", None))
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Compare)
        and not any(map(_is_draw, (node.left, *node.comparators)))
        and any(
            isinstance(leaf, ast.Constant) and isinstance(leaf.value, float) and 0.0 < leaf.value < 1.0
            for leaf in ast.walk(node)
        )
    )


def test_no_decision_compares_with_a_float_literal():
    # every numerical threshold is a ToleranceConfig rule times a norm, so it
    # follows the settings and the scale of the matrix it judges
    found = sum(
        (
            _literal_thresholds(inspect.getsource(importlib.import_module(name)), name)
            for name in _package_modules()
        ),
        Counter(),
    )
    assert found == LITERAL_THRESHOLDS


def test_literal_thresholds_are_seen_in_every_form():
    source = """
def absolute(m):
    return norm(m) <= 1e-8

def floored(m, r):
    return norm(m) > 1e-9 * max(1.0, norm(r))

def shifted(t, x):
    return t > norm(x) + 1e-8

def probability(rng):
    return rng.random() < 0.5

def ruled(m, tol):
    return norm(m) <= tol.residual_bound(1.0)
"""
    assert _literal_thresholds(source, "m") == Counter(
        {("m", "absolute"): 1, ("m", "floored"): 1, ("m", "shifted"): 1}
    )


def _dict_accesses(source):
    """The top-level defs of ``source`` that reach an object's ``__dict__``, by attribute or by name."""
    return {
        getattr(top, "name", None)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__")
        or (isinstance(node, ast.Constant) and node.value == "__dict__")
    }


def test_package_reads_and_writes_no_instance_dict():
    # a cached value is a cached_property of its own, so no test hands a
    # norm to another through an instance's __dict__
    found = {
        (name, top)
        for name in _package_modules()
        for top in _dict_accesses(inspect.getsource(importlib.import_module(name)))
    }
    assert found == set()


def test_dict_accesses_are_seen_in_every_form():
    source = """
class Cached:
    def read(self):
        return self.__dict__.get("norm")

def write(obj, value):
    obj.__dict__["norm"] = value

def through_getattr(obj):
    return getattr(obj, "__dict__")

def cached(obj):
    return obj.norm
"""
    assert _dict_accesses(source) == {"Cached", "write", "through_getattr"}


# counts, seeds and eps of any numeric type are read as the Python numbers they equal
NUMPY_SCALARS = {
    "grid_count": (lambda: [pp.Grid(np.int64(1000)).n_points], [1000]),
    "eps": (lambda: [pp.snap_eps(pp.Grid(1001), np.float32(0.25))], [0.25]),
    "trial_spec": (
        lambda: astuple(oc.TrialSpec(dim_max=np.uint8(4), trials=np.int32(2), seed=np.int64(3))),
        [4, "random", 2, 3],
    ),
}


@pytest.mark.parametrize("case", list(NUMPY_SCALARS))
def test_numpy_scalars_are_read_as_python_numbers(case):
    read, expected = NUMPY_SCALARS[case]
    got = list(read())
    assert got == expected
    assert list(map(type, got)) == list(map(type, expected))


NUMERIC_REJECTS = {
    "grid_float_count": (lambda: pp.Grid(np.float64(1000.0)), BadGridSize),
    "grid_small_count": (lambda: pp.Grid(np.int64(2)), BadGridSize),
    "eps_nan": (lambda: pp.snap_eps(pp.Grid(100), np.float32("nan")), BadEpsilon),
    "eps_inf": (lambda: pp.snap_eps(pp.Grid(100), np.float64("inf")), BadEpsilon),
    "eps_range": (lambda: pp.snap_eps(pp.Grid(100), np.float32(1.5)), BadEpsilon),
    "eps_text": (lambda: pp.snap_eps(pp.Grid(100), "0.1"), BadEpsilon),
    "seed_float": (lambda: oc.TrialSpec(seed=3.0), ValueError),
    "seed_negative": (lambda: oc.TrialSpec(seed=np.int64(-1)), ValueError),
    "trials_float": (lambda: oc.TrialSpec(trials=np.float64(2.0)), ValueError),
    "dim_max_range": (lambda: oc.TrialSpec(dim_max=np.int8(9)), ValueError),
    "seed_bool": (lambda: oc.TrialSpec(seed=True), ValueError),
    "trials_bool": (lambda: oc.TrialSpec(trials=True), ValueError),
    "dim_max_bool": (lambda: oc.TrialSpec(dim_max=True), ValueError),
}


@pytest.mark.parametrize("case", list(NUMERIC_REJECTS))
def test_numeric_inputs_out_of_type_or_range_are_rejected(case):
    build, error = NUMERIC_REJECTS[case]
    with pytest.raises(error):
        build()


def _solvable_pair(c_cols=2):
    return dg.factorize(np.eye(2), np.ones((2, c_cols)))


# each layer's input checks, against their messages: a pattern the whole message matches
INPUT_CHECKS = {
    "recover_parameter_shape": (
        lambda: dg.recover_parameter(_solvable_pair(), np.eye(3)),
        ShapeMismatch,
        re.escape("X must have shape (2, 2), got (3, 3)"),
    ),
    "positive_solution_z_shape": (
        lambda: dg.positive_solution(_solvable_pair(), np.eye(3)),
        ShapeMismatch,
        re.escape("parameter Z must be 2x2, got (3, 3)"),
    ),
    "block_not_square": (
        lambda: dg.block_psd_test(np.ones((2, 3)), np.ones((2, 1)), np.eye(1)),
        ShapeMismatch,
        "diagonal blocks must be square",
    ),
    # numpy words its own part of the message
    "not_complex": (lambda: mc.as_matrix([["x"]]), MatrixFormatError, "not a complex matrix: .+"),
    "deviation_not_square": (
        lambda: mc.hermitian_deviation(np.ones((2, 3))),
        ShapeMismatch,
        "Hermitian deviation needs a square matrix",
    ),
    "spectrum_not_square": (
        lambda: mc.HermitianSpectrum(np.ones((2, 3)), mc.DEFAULT_TOLERANCES),
        ShapeMismatch,
        re.escape("expected a square matrix, got shape (2, 3)"),
    ),
    "grid_function_not_finite": (
        lambda: pp.GridFunction(pp.Grid(3), np.full((3, 2, 2), np.inf)),
        MatrixFormatError,
        "grid-function values must be finite",
    ),
    "sup_distance_across_grids": (
        lambda: pp.sup_distance(pp.canonical_pair(pp.Grid(3))[0], pp.canonical_pair(pp.Grid(4))[0]),
        MatrixFormatError,
        "grid functions live on different grids",
    ),
    "lsq_solve_rows": (
        lambda: oc.lsq_solve(np.eye(2), np.eye(3)),
        ShapeMismatch,
        "A and C must share their row count",
    ),
    "positive_search_not_square": (
        lambda: oc.positive_search(_solvable_pair(c_cols=3)),
        ShapeMismatch,
        "A and C must have identical shape",
    ),
    "positive_search_no_budget": (
        lambda: oc.positive_search(_solvable_pair(), budget=0),
        ValueError,
        "budget must be at least 1",
    ),
}


@pytest.mark.parametrize("case", list(INPUT_CHECKS))
def test_input_checks_raise_their_type_and_message(case):
    build, error, message = INPUT_CHECKS[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and re.fullmatch(message, str(info.value))
