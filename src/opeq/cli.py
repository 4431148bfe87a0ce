"""Command-line front end.

Subcommands::

    solve     --a FILE --c FILE [--mode general|hermitian|positive] [--y FILE | --z FILE]
    check     --a FILE --c FILE
    majorize  --a FILE --c FILE
    twoproj   --n N [--csv FILE]
    perturb   --n N --eps E [--csv-x FILE] [--csv-q FILE]
    verify    [--trials T] [--seed S] [--max-dim D] [--rank-policy P]

All commands emit UTF-8 JSON to stdout (or ``--out FILE``); the grid
commands optionally export CSV curves with the header
``t,re11,im11,re12,im12,re21,im21,re22,im22``.

The tolerance flags of every command and the flags of ``verify`` are named
after the fields of :class:`~opeq.matcore.ToleranceConfig` and
:class:`~opeq.oracle.TrialSpec` (``--max-dim`` sets ``dim_max``).  A flag
left unset keeps the field's default, so each default is stated once, in its
dataclass.  ``perturb`` prints the snapped eps that
:func:`~opeq.projpair.perturbation` built Q' and the solution from.

Exit codes: 0 success, 1 input error (parse, shape, bad flag values),
2 negative verdict with certificate (unsolvable equation, failed
perturbation residual, property violations).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from functools import cache

import numpy as np

from . import douglas, oracle, projpair
from .errors import (
    MatrixFormatError,
    NotSolvable,
    NotSolvableHermitian,
    NotSolvablePositive,
    OpeqError,
)
from .matcore import (
    ToleranceConfig,
    _matrix_from_text,
    _within_residual_bound,
    matrix_to_wire,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2


class _InputError(Exception):
    """Anything that should terminate with exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the exit-code contract
    # reserves 2 for negative verdicts, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _InputError(message)


@cache  # built on first use, once per process; parsing leaves it as it was
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="FILE", help="write JSON here instead of stdout")
    for setting in fields(ToleranceConfig):
        common.add_argument(f"--{setting.name.replace('_', '-')}", type=float, metavar="X")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--a", required=True, metavar="FILE")
    pair.add_argument("--c", required=True, metavar="FILE")

    parser = _Parser(prog="opeq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, handler, summary, *parents):
        subparser = sub.add_parser(name, parents=[common, *parents], help=summary)
        subparser.set_defaults(handler=handler)
        return subparser

    p_solve = command("solve", _cmd_solve, "solve AX = C in a chosen class", pair)
    p_solve.add_argument("--mode", choices=_SOLVE_MODES, default="general")
    p_solve.add_argument("--y", metavar="FILE", help="free parameter for general/hermitian")
    p_solve.add_argument("--z", metavar="FILE", help="free PSD parameter for positive")

    command("check", _cmd_check, "full solvability report", pair)
    command("majorize", _cmd_majorize, "least scale with CC* <= mu AA*", pair)

    p_two = command("twoproj", _cmd_twoproj, "nonexistence certificate for (P+Q)^(1/2) X = P")
    p_two.add_argument("--n", required=True, type=int, metavar="N", help="grid points (>= 100)")
    p_two.add_argument("--csv", metavar="FILE", help="export the candidate solution curve")

    p_pert = command("perturb", _cmd_perturb, "perturb Q so the equation becomes solvable")
    p_pert.add_argument("--n", required=True, type=int, metavar="N")
    p_pert.add_argument("--eps", required=True, type=float, metavar="E")
    p_pert.add_argument("--csv-x", metavar="FILE", help="export the solution curve")
    p_pert.add_argument("--csv-q", metavar="FILE", help="export the perturbed projection")

    p_ver = command("verify", _cmd_verify, "seeded randomized property suite")
    # each flag is named after a TrialSpec field; left unset, it keeps that field's default
    p_ver.add_argument("--trials", type=int, metavar="T")
    p_ver.add_argument("--seed", type=int, metavar="S")
    p_ver.add_argument("--max-dim", type=int, dest="dim_max", metavar="D")
    p_ver.add_argument("--rank-policy", choices=oracle.RANK_POLICIES)
    return parser


def _settings(cls, args):
    """``cls`` (a settings dataclass) built from the flags named after its fields.

    A flag left unset (None) keeps the field's default; a value the dataclass
    rejects is an input error.
    """
    given = {
        setting.name: value
        for setting in fields(cls)
        if (value := getattr(args, setting.name)) is not None
    }
    try:
        return cls(**given)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _matrix_from_text(handle.read())
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, a JSONDecodeError, or an integer past Python's digit limit
        raise _InputError(f"{path} is not valid JSON: {exc}") from exc
    except MatrixFormatError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of ``--a`` and ``--c``, read in that order."""
    return _load_matrix(args.a), _load_matrix(args.c)


_INDENT = 2
_STAND_IN = "\0array {}\0"
_BLOCK_ROWS = 1024  # rows of an array formatted at a time; bounds the temporaries


def _json_pieces(payload: dict) -> list[str]:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline, in pieces.

    A float array in the payload stands for its nested list.  With ``indent``
    json.dumps takes its pure-Python encoder, which spends most of a large
    matrix's time on the values one by one, so each array -- the ``(k, 2)``
    data of :func:`~opeq.matcore.matrix_to_wire`, nonempty and finite -- is
    formatted here instead: ``float.__repr__`` per value, as that encoder
    writes it, in the layout it gives the list.  The pieces are written in
    turn, never joined into one string.
    """
    arrays = []

    def stand_in(array):  # json.dumps calls this for each array it meets
        arrays.append(array)
        return _STAND_IN.format(len(arrays) - 1)

    rest = json.dumps(payload, indent=_INDENT, sort_keys=True, default=stand_in)
    pieces = []
    for k, array in enumerate(arrays):
        head, rest = rest.split(json.dumps(_STAND_IN.format(k)))
        line = head[head.rfind("\n") + 1 :]
        pieces += [head, *_array_pieces(array, line[: len(line) - len(line.lstrip(" "))])]
    return pieces + [rest, "\n"]


def _array_pieces(array, pad: str) -> list[str]:
    """A 2-D float array's nested list, laid out as a value on a line indented by ``pad``."""
    outer = pad + " " * _INDENT
    inner = outer + " " * _INDENT
    value_sep = ",\n" + inner
    row_sep = "\n" + outer + "],\n" + outer + "[\n" + inner
    pieces = [f"[\n{outer}[\n{inner}"]
    for start in range(0, len(array), _BLOCK_ROWS):
        reprs = map(float.__repr__, array[start : start + _BLOCK_ROWS].ravel().tolist())
        pieces += [row_sep.join(map(value_sep.join, zip(*[reprs] * array.shape[1]))), row_sep]
    pieces[-1] = f"\n{outer}]\n{pad}]"  # the last row separator closes the list instead
    return pieces


def _emit(payload: dict, out_path: str | None) -> None:
    pieces = _json_pieces(payload)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise _InputError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.writelines(pieces)


def _write_csv(fn, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            projpair.write_csv(fn, handle)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


# the solution families of solve --mode; the builder of each is
# douglas.<mode>_solution, looked up when it is called, so that a wrapper
# installed in douglas (as the benchmark's tracer installs one) is the one called
_SOLVE_MODES = ("general", "hermitian", "positive")


def _cmd_solve(args, tol) -> int:
    a, c = _load_pair(args)
    if args.mode == "positive" and args.y:
        raise _InputError("--y does not apply to positive mode; use --z")
    if args.mode != "positive" and args.z:
        raise _InputError("--z only applies to positive mode; use --y")

    try:
        f = douglas.factorize(a, c, tol)
        # the free parameter, Y or Z by the mode; its default is the zero matrix
        # of the shape a general member takes, which for the other families,
        # whose A and C share a shape, is square
        path = args.y or args.z
        free = _load_matrix(path) if path else np.zeros((a.shape[1], c.shape[1]))
        x = getattr(douglas, f"{args.mode}_solution")(f, free)
    except (NotSolvable, NotSolvableHermitian, NotSolvablePositive) as exc:
        _emit(
            {
                "status": "unsolvable",
                "mode": args.mode,
                "reason": str(exc),
                "certificate": exc.certificate,
                "report": douglas.solvability_report(f) if a.shape == c.shape else None,
            },
            args.out,
        )
        return EXIT_NEGATIVE
    residual = f.residual(x)  # the builder's check screened it; print it exactly
    del f  # free its cached factors before the solution is serialized

    _emit(
        {
            "status": "ok",
            "mode": args.mode,
            "solution": matrix_to_wire(x),
            "residual": residual,
        },
        args.out,
    )
    return EXIT_OK


def _cmd_check(args, tol) -> int:
    _emit(douglas.solvability_report(douglas.factorize(*_load_pair(args), tol)), args.out)
    return EXIT_OK


def _cmd_majorize(args, tol) -> int:
    f = douglas.factorize(*_load_pair(args), tol)
    mu = f.majorization_scale
    payload = {"d_norm_sq": mu, "finite": mu is not None, "mu_star": "inf" if mu is None else mu}
    _emit({**payload, "range_inclusion": f.range_ok}, args.out)
    return EXIT_OK


def _cmd_twoproj(args, tol) -> int:
    grid = projpair.Grid(args.n)
    certificate = projpair.nonexistence_certificate(grid)
    if args.csv:
        _write_csv(projpair.pointwise_solution(grid), args.csv)
    _emit(certificate.to_json(), args.out)
    return EXIT_OK


def _cmd_perturb(args, tol) -> int:
    grid = projpair.Grid(args.n)
    eps_snapped, q_prime, x = projpair.perturbation(grid, args.eps)
    p, q = projpair.canonical_pair(grid)
    distance = projpair.sup_distance(q, q_prime)
    residual = projpair.equation_residual_max(p, q_prime, x, tol)
    member = projpair.algebra_membership(x, tol)
    # the CSVs first, as twoproj writes its one: a path that cannot be written
    # then stops the command before any JSON is written
    if args.csv_x:
        _write_csv(x, args.csv_x)
    if args.csv_q:
        _write_csv(q_prime, args.csv_q)
    _emit(
        {
            "eps_requested": args.eps,
            "eps_snapped": eps_snapped,
            "n_points": grid.n_points,
            "distance": distance,
            "residual_max": residual,
            "algebra_membership": member,
        },
        args.out,
    )
    # ||P(t)|| = 1 at every node, so that is the residual's scale
    return EXIT_OK if (_within_residual_bound(residual, 1.0, tol) and member) else EXIT_NEGATIVE


def _cmd_verify(args, tol) -> int:
    report = oracle.property_suite(_settings(oracle.TrialSpec, args), tol)
    _emit(report, args.out)
    return EXIT_OK if report["violations"] == 0 else EXIT_NEGATIVE


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, _settings(ToleranceConfig, args))
    except (_InputError, OpeqError) as exc:
        # typed failures a command does not handle are input errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
