"""Command-line surface: point construction, queries, projections, flows,
link sampling, retraction, and the named verification suites.

Exit codes: 0 success, 1 invariant failure, 2 usage or parse error,
3 violated mathematical precondition.

The parser is the standard library's argparse, with these rules: a value
option takes the next word whatever it starts with (``--params -1,2``),
except ``--``, which ends the options and is no option's value (``--opt
--`` and ``--opt=--`` are usage errors), ``--opt=value`` works too, only
exact option names are accepted, help is ``--help`` alone, and a bare
invocation is a usage error whose message is the help text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cells import cell_of, is_tnn, lusztig_point
from .errors import InvalidArgument, PreconditionError, TnnStrataError
from .fiber import factor_u, psi, rho, str_of
from .perms import Permutation, ReducedWord
from .ratmat import RatMatrix, _rat

# The float verbs and verify import flow or verify in their bodies, so the
# exact verbs never load flow, kernels, verify or numpy.

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _fail(code: int, kind: str, message: str):
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    sys.exit(code)


def _read_matrix(path: str | None) -> RatMatrix:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
        return RatMatrix.from_json_obj(json.loads(text))
    except OSError as exc:
        _fail(EXIT_USAGE, "io", str(exc))
    # json's decoder recurses once per level of nesting
    except (ValueError, KeyError, TypeError, ArithmeticError, RecursionError) as exc:
        _fail(EXIT_USAGE, "parse", f"bad matrix JSON: {exc}")


def _parse_perm(text: str, name: str = "permutation") -> Permutation:
    try:
        return Permutation.parse(text)
    except ValueError as exc:
        _fail(EXIT_USAGE, "parse", f"bad {name} {text!r}: {exc}")


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _float_matrix_obj(x) -> dict:
    return {"n": int(x.shape[0]), "entries": x.tolist()}


# The one error boundary: the first row whose class matches an error gives
# its exit code and its JSON "error" kind (None: the error's class name).
_EXITS = (
    (InvalidArgument, EXIT_USAGE, "usage"),
    (PreconditionError, EXIT_PRECONDITION, None),
    (TnnStrataError, EXIT_INVARIANT, None),
)


def main(args=None, prog_name=None):
    """Exact-arithmetic toolkit for cells of totally nonnegative unipotent
    matrices: Bruhat combinatorics, cell projections, fiber flows, links.

    Runs the verb that ``args`` (default ``sys.argv[1:]``) names and ends
    in SystemExit with the exit code; every error, a bad command line's
    included, leaves as one JSON line on stderr, by the table _EXITS."""
    argv = sys.argv[1:] if args is None else list(args)
    try:
        run, kwargs = _parse(argv, prog_name)
        run(**kwargs)
    except TnnStrataError as exc:
        code, kind = next((c, k) for cls, c, k in _EXITS if isinstance(exc, cls))
        _fail(code, kind or type(exc).__name__, str(exc))
    except (EOFError, KeyboardInterrupt):
        print(file=sys.stderr)  # ends the terminal's ^C line
        _fail(EXIT_INVARIANT, "aborted", "")
    sys.exit(EXIT_OK)


class _Parser(argparse.ArgumentParser):
    """argparse with ``--help`` and no ``-h``, exact option names only, and
    its errors raised as InvalidArgument, a usage error."""

    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message):
        raise InvalidArgument(message)


# verb name -> (function, options); each option is a flag and the keywords
# of argparse's add_argument, whose dest is the function's parameter.
_VERBS: dict = {}


def _verb(name: str, *options):
    def register(fn):
        _VERBS[name] = (fn, options)
        return fn

    return register


def _parse(argv: list[str], prog: str | None):
    """The function of the verb that argv names, and its keyword arguments.
    Only that verb's options are built; the list of verbs only for help or
    a bad first word."""
    prog = prog or Path(sys.argv[0]).name
    if argv and argv[0] in _VERBS:
        fn, options = _VERBS[argv[0]]
        parser = _Parser(prog=f"{prog} {argv[0]}", description=fn.__doc__)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        return fn, vars(parser.parse_args(_joined(argv[1:], options)))
    top = _Parser(prog=prog, description=main.__doc__.split("\n\n")[0])
    verbs = top.add_subparsers(title="commands", metavar="COMMAND")
    for name, (fn, _) in _VERBS.items():
        verbs.add_parser(name, help=fn.__doc__)
    top.parse_args(argv)  # --help prints the help; a bad word raises
    raise InvalidArgument(top.format_help())  # no verb: a bare invocation


def _joined(argv: list[str], options) -> list[str]:
    """argv with each value option joined to the word after it as
    ``--opt=word``, so that argparse takes the word for the value even
    when it starts with '-'.  Nothing after '--' is joined, and '--' is no
    option's value: argparse would drop it and pass the option an empty
    list, past its type."""
    valued = {flag for flag, kwargs in options if flag[0] == "-" and kwargs.get("action") != "store_true"}
    out, words = [], iter(argv)
    for word in words:
        if word == "--":
            out += [word, *words]
            break
        if word in valued:
            value = next(words, None)
            word = word if value is None else f"{word}={value}"
        flag, _, value = word.partition("=")
        if value == "--" and flag in valued:
            raise InvalidArgument(f"argument {flag}: expected one argument")
        out.append(word)
    return out


_IN = ("--in", {"dest": "path", "metavar": "FILE", "help": "matrix JSON file ('-' or omitted: stdin)"})
_U = ("--u", {"dest": "u_text", "metavar": "U", "required": True, "help": "permutation in one-line notation, e.g. 2,1,3"})
_V = ("--v", {"dest": "v_text", "metavar": "V", "required": True, "help": "upper permutation, one-line notation"})
_EPSILON = ("--epsilon", {"type": float, "default": 1.0, "help": "(default: %(default)s)"})
_SEED = ("--seed", {"type": int, "default": 0, "help": "(default: %(default)s)"})


@_verb(
    "param",
    ("--word", {"required": True, "help": "reduced word, e.g. s1.s2.s1 (empty string for identity)"}),
    ("--n", {"type": int, "required": True, "help": "matrix size"}),
    ("--params", {"required": True, "help": "comma-separated positive rationals, one per letter"}),
)
def param(word, n, params):
    """Build the cell point with the given Lusztig parameters."""
    rw = ReducedWord.parse(word, n)
    try:
        ts = [_rat(p) for p in params.split(",")] if params else []
    except (ValueError, ZeroDivisionError) as exc:
        _fail(EXIT_USAGE, "parse", str(exc))
    pt = lusztig_point(rw, ts)
    obj = pt.matrix.to_json_obj()
    obj["cell"] = pt.cell.serialize()
    obj["tnn"] = True  # a Lusztig point with positive parameters is totally nonnegative
    _emit(obj)


@_verb("cell-of", _IN)
def cmd_cell_of(path):
    """Identify which cell a totally nonnegative matrix lies in."""
    x = _read_matrix(path)
    w = cell_of(x)
    _emit({"cell": w.serialize(), "length": w.length})


@_verb("tnn", _IN)
def tnn(path):
    """Test a matrix for total nonnegativity (all minors >= 0)."""
    x = _read_matrix(path)
    _emit({"tnn": is_tnn(x)})


@_verb("project", _IN, _U)
def project(path, u_text):
    """Project a matrix onto the u-cell (the x_u factor of x = x_u x^u)."""
    x = _read_matrix(path)
    u = _parse_perm(u_text)
    frame = factor_u(x, u)
    _emit(
        {
            "x_u": frame.x_u.to_json_obj(),
            "x_upper_u": frame.x_upper_u.to_json_obj(),
            "cell": u.serialize(),
        }
    )


@_verb("rho", _IN, _U, ("--base", {"dest": "base_path", "metavar": "FILE", "required": True, "help": "target fiber base point, matrix JSON file"}))
def cmd_rho(path, u_text, base_path):
    """Move a point into the fiber over a given base point of the u-cell."""
    xt = _read_matrix(path)
    base = _read_matrix(base_path)
    u = _parse_perm(u_text)
    out = rho(xt, base, u)
    _emit(out.to_json_obj())


@_verb("psi", _IN, _U)
def cmd_psi(path, u_text):
    """Evaluate the fiber vector field at a point (exact rational)."""
    x = _read_matrix(path)
    u = _parse_perm(u_text)
    out = psi(x, u)
    obj = out.to_json_obj()
    obj["str"] = str(str_of(out))
    _emit(obj)


@_verb(
    "flow",
    _IN,
    _U,
    ("--direction", {"choices": ("backward", "forward"), "default": "backward", "help": "(default: %(default)s)"}),
    ("--target-str", {"type": float, "help": "forward stopping level"}),
    ("--dump-trajectory", {"dest": "dump", "action": "store_true", "help": "emit JSON-lines {t, str, entries}"}),
)
def cmd_flow(path, u_text, direction, target_str, dump):
    """Integrate the gradient-like fiber flow from a point."""
    x = _read_matrix(path)
    u = _parse_perm(u_text)
    from .flow import flow
    traj = flow(x.to_floats(), u, direction, target_str=target_str)
    if dump:
        for st in traj:
            print(json.dumps({"t": st.time, "str": st.str_value, "entries": st.point.tolist()}))
    final = traj[-1]
    _emit(
        {
            "direction": direction,
            "steps": len(traj),
            "t": final.time,
            "str": final.str_value,
            "stratum": final.stratum.serialize(),
            "final": _float_matrix_obj(final.point),
        }
    )


@_verb(
    "link-sample",
    _U,
    _V,
    _EPSILON,
    ("--count", {"type": int, "default": 3, "help": "points per stratum, at least 1 (default: %(default)s)"}),
    _SEED,
)
def cmd_link_sample(u_text, v_text, epsilon, count, seed):
    """Sample points of the link of the u-cell inside Y_[u,v]."""
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    from .flow import link_sample
    sample = link_sample(u, v, epsilon, count, seed)
    base_str = str_of(sample.base.to_floats())
    _emit(
        {
            "u": u.serialize(),
            "v": v.serialize(),
            "epsilon": epsilon,
            "base": sample.base.to_json_obj(),
            "points": [
                {
                    "stratum": w.serialize(),
                    "dim": sample.dimensions[w],
                    "str": str_of(pt),
                    "entries": pt.tolist(),
                }
                for pt, w in sample.points
            ],
            "level": base_str + epsilon,
        }
    )


@_verb(
    "link-census",
    _U,
    _V,
    _EPSILON,
    ("--count", {"type": int, "default": 2, "help": "points per stratum, at least 1 (default: %(default)s)"}),
    _SEED,
)
def cmd_link_census(u_text, v_text, epsilon, count, seed):
    """Census of link strata over (u, v]: labels, dimensions, sampled
    per-stratum point counts, and the combinatorial Euler characteristic."""
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    from .flow import link_census, link_sample
    census = link_census(u, v, link_sample(u, v, epsilon, count, seed).points)
    _emit(
        {
            "u": u.serialize(),
            "v": v.serialize(),
            "strata": [
                {"label": w.serialize(), "dim": d, "points": census.counts[w]}
                for w, d in census.dimensions.items()
            ],
            "euler": census.euler,
            "euler_ok": census.euler == 1,
            "labels_ok": census.labels_ok,
        }
    )
    if census.euler != 1 or not census.labels_ok:
        sys.exit(EXIT_INVARIANT)


@_verb(
    "retract",
    _IN,
    _U,
    _V,
    ("--z", {"dest": "z_path", "metavar": "FILE", "required": True, "help": "retraction target point, matrix JSON file"}),
    ("--tau", {"type": float, "required": True, "help": "deformation time in [0, 1]"}),
    _EPSILON,
)
def cmd_retract(path, u_text, v_text, z_path, tau, epsilon):
    """Evaluate the deformation retraction of the link toward a point z."""
    x = _read_matrix(path)
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    z = _read_matrix(z_path)
    from .flow import retraction
    out = retraction(x.to_floats(), tau, u, v, z, epsilon)
    obj = _float_matrix_obj(out)
    obj["str"] = str_of(out)
    _emit(obj)


# verify.SUITES and "all", written out so that no verb loads verify to parse
# its arguments; tests/test_cli_process.py holds the two equal.
_SUITES = (
    "bruhat", "equivariance", "factorization", "flow", "gauss", "link-census",
    "param-cell", "psi-positivity", "retraction", "rho", "signs", "verma", "all",
)


@_verb(
    "verify",
    ("suite", {"choices": _SUITES}),
    ("--n", {"type": int, "default": 4, "help": "(default: %(default)s)"}),
    _SEED,
    ("--samples", {"type": int, "default": 0, "help": "cases per suite, at least 0; 0 uses each suite's default size"}),
    ("--timings", {"action": "store_true", "help": "include wall times (breaks byte-stability)"}),
)
def cmd_verify(suite, n, seed, samples, timings):
    """Run a named invariant suite (or 'all'); exit 0 iff no failures."""
    from .verify import RunConfig, run_suite
    reports = run_suite(suite, RunConfig(n=n, seed=seed, samples=samples))
    _emit([r.to_json_obj(timings=timings) for r in reports])
    if any(not r.ok for r in reports):
        sys.exit(EXIT_INVARIANT)


if __name__ == "__main__":
    main(prog_name="python -m tnn_strata.cli")
