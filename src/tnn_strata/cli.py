"""Command-line surface: point construction, queries, projections, flows,
link sampling, retraction, and the named verification suites.

Exit codes: 0 success, 1 invariant failure, 2 usage or parse error,
3 violated mathematical precondition.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .cells import cell_of, is_tnn, lusztig_point
from .errors import InvalidArgument, PreconditionError, TnnStrataError
from .fiber import factor_u, psi, rho, str_of
from .perms import Permutation, ReducedWord
from .ratmat import RatMatrix, _rat

# The names the float verbs and ``verify`` use, each read from its module
# when a verb runs, so the exact verbs never load flow, kernels, verify or
# numpy.  They are module attributes too (``cli.run_flow``), looked up on
# every read.
_LAZY = {
    "link_census": ("flow", "link_census"),
    "link_sample": ("flow", "link_sample"),
    "run_flow": ("flow", "flow"),
    "run_retraction": ("flow", "retraction"),
    "RunConfig": ("verify", "RunConfig"),
    "run_suite": ("verify", "run_suite"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY[name]
    __import__(f"tnn_strata.{module}")  # not importlib's: -X importtime lists it
    return getattr(sys.modules[f"tnn_strata.{module}"], attr)


EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _fail(code: int, kind: str, message: str):
    click.echo(json.dumps({"error": kind, "message": message}), err=True)
    sys.exit(code)


def _read_matrix(path: str | None) -> RatMatrix:
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
        return RatMatrix.from_json_obj(json.loads(text))
    except OSError as exc:
        _fail(EXIT_USAGE, "io", str(exc))
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        _fail(EXIT_USAGE, "parse", f"bad matrix JSON: {exc}")


def _parse_perm(text: str, name: str = "permutation") -> Permutation:
    try:
        return Permutation.parse(text)
    except ValueError as exc:
        _fail(EXIT_USAGE, "parse", f"bad {name} {text!r}: {exc}")


def _emit(obj):
    click.echo(json.dumps(obj, sort_keys=True))


def _float_matrix_obj(x) -> dict:
    return {"n": int(x.shape[0]), "entries": x.tolist()}


# The one error boundary: the first row whose class matches an error gives
# its exit code and its JSON "error" kind (None: the error's class name).
_EXITS = (
    (click.UsageError, EXIT_USAGE, "usage"),
    (InvalidArgument, EXIT_USAGE, "usage"),
    (PreconditionError, EXIT_PRECONDITION, None),
    (TnnStrataError, EXIT_INVARIANT, None),
    (click.Abort, EXIT_INVARIANT, "aborted"),
)


class _JsonErrors(click.Group):
    """A group whose every error, click's own included, leaves as an exit
    code and one JSON line on stderr, by the table _EXITS."""

    def main(self, args=None, prog_name=None, **extra):
        try:
            code = super().main(args, prog_name, standalone_mode=False, **extra)
        except tuple(cls for cls, _, _ in _EXITS) as exc:
            code, kind = next((c, k) for cls, c, k in _EXITS if isinstance(exc, cls))
            message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
            _fail(code, kind or type(exc).__name__, message)
        sys.exit(code or EXIT_OK)


@click.group(cls=_JsonErrors)
def main():
    """Exact-arithmetic toolkit for cells of totally nonnegative unipotent
    matrices: Bruhat combinatorics, cell projections, fiber flows, links."""


_in_opt = click.option("--in", "path", default=None, help="matrix JSON file ('-' or omitted: stdin)")
_u_opt = click.option("--u", "u_text", required=True, help="permutation in one-line notation, e.g. 2,1,3")
_v_opt = click.option("--v", "v_text", required=True, help="upper permutation, one-line notation")
_epsilon_opt = click.option("--epsilon", type=float, default=1.0, show_default=True)
_seed_opt = click.option("--seed", type=int, default=0, show_default=True)


@main.command()
@click.option("--word", required=True, help="reduced word, e.g. s1.s2.s1 (empty string for identity)")
@click.option("--n", type=int, required=True, help="matrix size")
@click.option("--params", required=True, help="comma-separated positive rationals, one per letter")
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
    obj["tnn"] = pt.tnn
    _emit(obj)


@main.command("cell-of")
@_in_opt
def cmd_cell_of(path):
    """Identify which cell a totally nonnegative matrix lies in."""
    x = _read_matrix(path)
    w = cell_of(x)
    _emit({"cell": w.serialize(), "length": w.length})


@main.command()
@_in_opt
def tnn(path):
    """Test a matrix for total nonnegativity (all minors >= 0)."""
    x = _read_matrix(path)
    _emit({"tnn": is_tnn(x)})


@main.command()
@_in_opt
@_u_opt
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


@main.command("rho")
@_in_opt
@_u_opt
@click.option("--base", "base_path", required=True, help="target fiber base point, matrix JSON file")
def cmd_rho(path, u_text, base_path):
    """Move a point into the fiber over a given base point of the u-cell."""
    xt = _read_matrix(path)
    base = _read_matrix(base_path)
    u = _parse_perm(u_text)
    out = rho(xt, base, u)
    _emit(out.to_json_obj())


@main.command("psi")
@_in_opt
@_u_opt
def cmd_psi(path, u_text):
    """Evaluate the fiber vector field at a point (exact rational)."""
    x = _read_matrix(path)
    u = _parse_perm(u_text)
    out = psi(x, u)
    obj = out.to_json_obj()
    obj["str"] = str(str_of(out))
    _emit(obj)


@main.command("flow")
@_in_opt
@_u_opt
@click.option("--direction", type=click.Choice(["backward", "forward"]), default="backward", show_default=True)
@click.option("--target-str", type=float, default=None, help="forward stopping level")
@click.option("--dump-trajectory", "dump", is_flag=True, help="emit JSON-lines {t, str, entries}")
def cmd_flow(path, u_text, direction, target_str, dump):
    """Integrate the gradient-like fiber flow from a point."""
    x = _read_matrix(path)
    u = _parse_perm(u_text)
    traj = __getattr__("run_flow")(x.to_floats(), u, direction, target_str=target_str)
    if dump:
        for st in traj:
            click.echo(
                json.dumps(
                    {
                        "t": st.time,
                        "str": st.str_value,
                        "entries": st.point.tolist(),
                    }
                )
            )
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


@main.command("link-sample")
@_u_opt
@_v_opt
@_epsilon_opt
@click.option("--count", type=int, default=3, show_default=True, help="points per stratum, at least 1")
@_seed_opt
def cmd_link_sample(u_text, v_text, epsilon, count, seed):
    """Sample points of the link of the u-cell inside Y_[u,v]."""
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    sample = __getattr__("link_sample")(u, v, epsilon, count, seed)
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


@main.command("link-census")
@_u_opt
@_v_opt
@_epsilon_opt
@click.option("--count", type=int, default=2, show_default=True, help="points per stratum, at least 1")
@_seed_opt
def cmd_link_census(u_text, v_text, epsilon, count, seed):
    """Census of link strata over (u, v]: labels, dimensions, sampled
    per-stratum point counts, and the combinatorial Euler characteristic."""
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    link_census, link_sample = __getattr__("link_census"), __getattr__("link_sample")
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


@main.command("retract")
@_in_opt
@_u_opt
@_v_opt
@click.option("--z", "z_path", required=True, help="retraction target point, matrix JSON file")
@click.option("--tau", type=float, required=True, help="deformation time in [0, 1]")
@_epsilon_opt
def cmd_retract(path, u_text, v_text, z_path, tau, epsilon):
    """Evaluate the deformation retraction of the link toward a point z."""
    x = _read_matrix(path)
    u = _parse_perm(u_text, "u")
    v = _parse_perm(v_text, "v")
    z = _read_matrix(z_path)
    out = __getattr__("run_retraction")(x.to_floats(), tau, u, v, z, epsilon)
    obj = _float_matrix_obj(out)
    obj["str"] = str_of(out)
    _emit(obj)


# verify.SUITES and "all", written out so that no verb loads verify to parse
# its arguments; tests/test_cli_process.py holds the two equal.
_SUITES = (
    "bruhat", "equivariance", "factorization", "flow", "gauss", "link-census",
    "param-cell", "psi-positivity", "retraction", "rho", "signs", "verma", "all",
)


@main.command("verify")
@click.argument("suite", type=click.Choice(_SUITES))
@click.option("--n", type=int, default=4, show_default=True)
@_seed_opt
@click.option("--samples", type=int, default=0, help="cases per suite, at least 0; 0 uses each suite's default size")
@click.option("--timings", is_flag=True, help="include wall times (breaks byte-stability)")
def cmd_verify(suite, n, seed, samples, timings):
    """Run a named invariant suite (or 'all'); exit 0 iff no failures."""
    run_suite, RunConfig = __getattr__("run_suite"), __getattr__("RunConfig")
    reports = run_suite(suite, RunConfig(n=n, seed=seed, samples=samples))
    _emit([r.to_json_obj(timings=timings) for r in reports])
    if any(not r.ok for r in reports):
        sys.exit(EXIT_INVARIANT)


if __name__ == "__main__":
    main()
