"""Command-line surface: JSON in, JSON or SVG out, deterministic.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage error.  All numeric payloads are rational strings; zeta and rays
are "dx,dy" integer pairs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .exactgeom import Direction, GeometryError, PointConfig, format_rational
from .infrared import (
    enumerate_convex_paths,
    fs_filtration,
    polygon_trace,
    stokes_matrix_oracle,
    wall_cross_report,
    zeta_order,
)
from .perv import MatrixDiagram, braid_word
from .render import Scene, render_svg
from .secondary import regular_triangulations, secondary_polytope


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse calls .error on bad usage; route it to exit code 2 without
    # killing the host process (run_cli is also called in-process)
    def error(self, message):
        raise _UsageError(message)


def _parse_direction(text: str) -> Direction:
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError(f"expected 'dx,dy', got {text!r}")
    try:
        dx, dy = int(parts[0]), int(parts[1])
    except ValueError:
        raise _UsageError(f"direction components must be integers: {text!r}")
    if (dx, dy) == (0, 0):
        raise _UsageError("direction must be nonzero")
    return Direction.of(dx, dy)


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            text = f.read()
    except FileNotFoundError:
        raise _UsageError(f"no such file: {path}")
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}")
    return _parse_json(text, path, f"invalid JSON in {path}")


def _parse_json(text: str, where: str, invalid: str):
    """json.loads: malformed JSON is a usage error reported as `invalid`, and
    an integer past Python's int-digit limit a GeometryError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _UsageError(f"{invalid}: {e}")
    except ValueError as e:  # an integer past Python's int-digit limit
        raise GeometryError(f"number too long in {where}: {e}") from e


def _load_config(path: str) -> PointConfig:
    return PointConfig.from_obj(_load_json(path))


def _load_diagram(path: str) -> MatrixDiagram:
    return MatrixDiagram.from_obj(_load_json(path))


def _emit(out, obj, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, indent=2, sort_keys=True)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    out.write((text + "\n").encode("utf-8"))


def _build_parser() -> _Parser:
    p = _Parser(prog="air", description=__doc__.splitlines()[0])
    p.add_argument("--format", choices=["json", "pretty"], default="json",
                   help="output style for JSON subcommands")
    sub = p.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangulations",
                         help="regular triangulations of a configuration")
    tri.add_argument("--config", required=True, metavar="CFG_JSON")

    sec = sub.add_parser("secondary", help="secondary polytope data")
    sec.add_argument("--config", required=True, metavar="CFG_JSON")

    pa = sub.add_parser("paths", help="zeta-convex paths between two vacua")
    pa.add_argument("--config", required=True,
                    metavar="CFG_OR_DIAGRAM_JSON")
    pa.add_argument("--zeta", required=True)
    pa.add_argument("--from", dest="src", required=True)
    pa.add_argument("--to", dest="dst", required=True)

    st = sub.add_parser("stokes", help="Stokes matrix of a matrix diagram")
    st.add_argument("--config", required=True, metavar="DIAGRAM_JSON")
    st.add_argument("--zeta", required=True)
    st.add_argument("--oracle", action="store_true",
                    help="also run the factorization oracle and diff")

    wc = sub.add_parser("wallcross", help="Stokes matrices beside a wall")
    wc.add_argument("--config", required=True, metavar="DIAGRAM_JSON")
    wc.add_argument("--ray", required=True)

    mu = sub.add_parser("mutate", help="apply a braid word to a diagram")
    mu.add_argument("--config", required=True, metavar="DIAGRAM_JSON")
    mu.add_argument("--word", required=True,
                    help="comma-separated nonzero integers; k means the "
                         "k-th generator, negative means its inverse")

    lf = sub.add_parser("lefschetz",
                        help="matrix diagram of a superpotential")
    lf.add_argument("--coeffs", required=True,
                    help='JSON list of rationals, ascending degree, '
                         'e.g. ["0","-1","0","1/3"]')

    tr = sub.add_parser("trace", help="boundary transport trace of a subset")
    tr.add_argument("--config", required=True, metavar="DIAGRAM_JSON")
    tr.add_argument("--subset", required=True,
                    help="comma-separated labels")

    ve = sub.add_parser("verify", help="run the acceptance criteria")
    ve.add_argument("--criteria", default="",
                    help="comma-separated subset, e.g. 1,2,4 (default all)")

    re = sub.add_parser("render", help="deterministic SVG of a scene")
    re.add_argument("--scene", required=True, metavar="SCENE_JSON")
    re.add_argument("--out", default="-",
                    help="output file (default stdout)")
    return p


def _cmd_triangulations(args, out, pretty):
    cfg = _load_config(args.config)
    tris = regular_triangulations(cfg)
    _emit(out, {
        "count": len(tris),
        "triangulations": [sorted(sorted(c) for c in t) for t in tris],
    }, pretty)
    return 0


def _cmd_secondary(args, out, pretty):
    cfg = _load_config(args.config)
    poly = secondary_polytope(cfg)
    _emit(out, {
        "dim": poly.dim,
        "edges": [list(e) for e in poly.edges],
        "vertices": [{
            "gkz": [format_rational(x) for x in poly.gkz_vectors[i]],
            "triangulation": sorted(sorted(c) for c in poly.regular[i]),
        } for i in range(len(poly.regular))],
    }, pretty)
    return 0


def _cmd_paths(args, out, pretty):
    # a bare configuration and a matrix diagram both carry a "points" key
    cfg = PointConfig.from_obj(_load_json(args.config))
    zeta = _parse_direction(args.zeta)
    paths = enumerate_convex_paths(cfg, zeta, args.src, args.dst)
    _emit(out, {
        "zeta": str(zeta),
        "order": zeta_order(cfg, zeta),
        "paths": [list(p) for p in paths],
    }, pretty)
    return 0


def _cmd_stokes(args, out, pretty):
    md = _load_diagram(args.config)
    zeta = _parse_direction(args.zeta)
    fs = fs_filtration(md, zeta)
    C = fs.C
    if not args.oracle:
        _emit(out, {"filtration": {"order": fs.order, "dims": fs.dims},
                    "stokes": C.to_obj()}, pretty)
        return 0
    O = stokes_matrix_oracle(md, zeta)
    equal = C == O
    _emit(out, {"equal": equal, "oracle": O.to_obj(),
                "stokes": C.to_obj(),
                "verdict": "EQUAL" if equal else "DIFFER"}, pretty)
    if not equal:
        raise AssertionError("path sum and factorization oracle differ")
    return 0


def _cmd_wallcross(args, out, pretty):
    md = _load_diagram(args.config)
    ray = _parse_direction(args.ray)
    _emit(out, wall_cross_report(md, ray).to_obj(), pretty)
    return 0


def _cmd_mutate(args, out, pretty):
    md = _load_diagram(args.config)
    word = []
    for tok in args.word.split(","):
        tok = tok.strip()
        try:
            k = int(tok)
        except ValueError:
            raise _UsageError(f"bad braid letter: {tok!r}")
        if k == 0:
            raise _UsageError("braid letters are nonzero integers")
        word.append((abs(k), k < 0))
    _emit(out, braid_word(md, word).to_obj(), pretty)
    return 0


def _cmd_lefschetz(args, out, pretty):
    from .lefschetz import Superpotential, matrix_diagram_from_W
    coeffs = _parse_json(args.coeffs, "--coeffs", "--coeffs is not JSON")
    if not isinstance(coeffs, list):
        raise _UsageError("--coeffs must be a JSON list")
    W = Superpotential.of(coeffs)
    _emit(out, matrix_diagram_from_W(W).to_obj(), pretty)
    return 0


def _cmd_trace(args, out, pretty):
    md = _load_diagram(args.config)
    subset = [s.strip() for s in args.subset.split(",") if s.strip()]
    value = polygon_trace(md, subset)
    _emit(out, {"subset": subset, "trace": format_rational(value)}, pretty)
    return 0


def _cmd_verify(args, out, pretty):
    from .acceptance import run_all, run_criterion
    if args.criteria.strip():
        try:
            numbers = [int(t) for t in args.criteria.split(",")]
        except ValueError:
            raise _UsageError(f"bad criteria list: {args.criteria!r}")
        if any(not 1 <= k <= 11 for k in numbers):
            raise _UsageError("criteria numbers run from 1 to 11")
        results = [run_criterion(k) for k in numbers]
    else:
        results = run_all()
    for r in results:
        out.write((r.line() + "\n").encode("utf-8"))
    return 0 if all(r.ok for r in results) else 1


def _cmd_render(args, out, pretty):
    scene = Scene.from_obj(_load_json(args.scene))
    data = render_svg(scene)
    if args.out == "-":
        out.write(data)
    else:
        with open(args.out, "wb") as f:
            f.write(data)
        _emit(out, {"bytes": len(data), "path": args.out}, pretty)
    return 0


_PARSER = _build_parser()

_COMMANDS = {
    "triangulations": _cmd_triangulations,
    "secondary": _cmd_secondary,
    "paths": _cmd_paths,
    "stokes": _cmd_stokes,
    "wallcross": _cmd_wallcross,
    "mutate": _cmd_mutate,
    "lefschetz": _cmd_lefschetz,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def run_cli(argv: Optional[List[str]] = None, stdout=None,
            stderr=None) -> int:
    """Dispatch a command line; returns the exit code instead of exiting."""
    out = stdout if stdout is not None else sys.stdout.buffer
    err = stderr if stderr is not None else sys.stderr.buffer
    try:
        args = _PARSER.parse_args(argv)
        pretty = args.format == "pretty"
        return _COMMANDS[args.command](args, out, pretty)
    except _UsageError as e:
        err.write(f"usage error: {e}\n".encode("utf-8"))
        return 2
    except (ValueError, ArithmeticError, RuntimeError, AssertionError) as e:
        payload = {"error": type(e).__name__, "message": str(e)}
        err.write((json.dumps(payload, sort_keys=True) + "\n")
                  .encode("utf-8"))
        return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
