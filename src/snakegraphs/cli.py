"""Command line front end.

Reads surface and smoothing-instance documents in JSON, expands curves
by either route, dumps graphs, and runs the verification suites. Output
is canonical and byte-stable for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .algebra import SnakeGraphsError, format_mono, format_monos, format_poly
from .skein import instance_from_dict, verify_skein
from .surface import (
    ValidationError,
    expand,
    expand_by_matrices,
    graph_for,
    triangulation_from_dict,
)


class CLIError(SnakeGraphsError):
    pass


class ParseError(CLIError):
    """Input that is not valid JSON or violates the document schema."""


class MethodMismatch(CLIError):
    """The matching and matrix routes disagreed; always a bug."""


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("%s: line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg)) from exc
    except (ValueError, RecursionError) as exc:
        # bytes that are not UTF-8, a number past the interpreter's digit
        # limit, or nesting past its recursion limit
        raise ParseError("%s: %s" % (path, exc)) from exc


def _load_surface(path):
    try:
        return triangulation_from_dict(_load_json(path))
    except ValidationError as exc:
        raise ParseError("%s: %s" % (path, exc)) from exc


def _pick_curves(curves, name, max_tiles):
    if max_tiles is not None and max_tiles < 0:
        raise CLIError("--max-tiles must be 0 or more, not %d" % max_tiles)
    if name is not None:
        chosen = [c for c in curves if c.name == name]
        if not chosen:
            raise CLIError("no curve named %r in the input" % (name,))
    else:
        chosen = curves
    if not chosen:
        raise CLIError("the input declares no curves")
    for c in chosen:
        if max_tiles is not None and len(c.crossings) > max_tiles:
            raise CLIError(
                "curve %r crosses %d arcs, over the --max-tiles limit %d"
                % (c.name or "?", len(c.crossings), max_tiles))
    return chosen


def _shift_text(element):
    if element.tropical_shift is None:
        return "0"
    return format_mono(element.tropical_shift)


def _cmd_expand(args, out):
    tri, curves = _load_surface(args.input)
    rows = []
    for curve in _pick_curves(curves, args.curve, args.max_tiles):
        el = expand(tri, curve, keep_boundary=args.keep_boundary)
        rows.append({
            "name": curve.name or "",
            "X": format_poly(el.laurent),
            "F": format_poly(el.f_poly),
            "shift": _shift_text(el),
            "x": format_poly(el.normalized),
        })
    if args.format == "json":
        json.dump({"curves": rows}, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for row in rows:
            out.write("curve: %s\n" % row["name"])
            for key in ("X", "F", "shift", "x"):
                out.write("%s: %s\n" % (key, row[key]))
    return 0


def _cmd_bmatrix(args, out):
    tri, _ = _load_surface(args.input)
    b = tri.b_matrix()
    if args.format == "json":
        json.dump({"arcs": list(tri.arcs), "b": b}, out, indent=2,
                  sort_keys=True)
        out.write("\n")
    else:
        for label, row in zip(tri.arcs, b):
            out.write("%s: %s\n"
                      % (label, " ".join("%d" % e for e in row)))
    return 0


def _matching_rows(name, triples):
    """The ``matchings`` rows of one graph's (matching, weight, height)
    triples: every weight and height is printed from one variable order
    and one factor cache."""
    texts = iter(format_monos([m for _, w, h in triples for m in (w, h)]))
    return [{"curve": name, "x": x, "y": y} for x, y in zip(texts, texts)]


def _cmd_matchings(args, out):
    tri, curves = _load_surface(args.input)
    rows = []
    for curve in _pick_curves(curves, args.curve, args.max_tiles):
        if not curve.has_graph():
            continue
        g = graph_for(tri, curve)
        triples = (g.good_matchings() if curve.kind == "loop"
                   else g.weighted_matchings())
        rows += _matching_rows(curve.name or "", triples)
    if args.format == "json":
        json.dump({"matchings": rows}, out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        for row in rows:
            out.write("%s: x(P)=%s y(P)=%s\n"
                      % (row["curve"], row["x"], row["y"]))
    return 0


def _cmd_snake_dot(args, out):
    tri, curves = _load_surface(args.input)
    for curve in _pick_curves(curves, args.curve, args.max_tiles):
        if not curve.has_graph():
            continue
        out.write(graph_for(tri, curve).to_dot())
        out.write("\n")
    return 0


def _cmd_verify(args, out):
    tri, curves = _load_surface(args.input)
    for curve in _pick_curves(curves, args.curve, args.max_tiles):
        if not curve.has_graph():
            out.write("curve %s: skipped (no matrix route)\n"
                      % (curve.name or "?",))
            continue
        # The paper's theorem equates the two readings, before the
        # division by the crossing monomial and the specialization that
        # both share; equal readings give equal expansions.
        by_match = expand(tri, curve)
        by_matrix = expand_by_matrices(tri, curve)
        if by_match.reading != by_matrix.reading:
            raise MethodMismatch(
                "curve %s: matchings read %s but matrices read %s"
                % (curve.name or "?", format_poly(by_match.reading),
                   format_poly(by_matrix.reading)))
        out.write("curve %s: methods agree\n" % (curve.name or "?",))
    return 0


def _cmd_skein_check(args, out):
    doc = _load_json(args.input)
    if not isinstance(doc, dict) or "surface" not in doc \
            or "instance" not in doc:
        raise ParseError(
            "%s: expected an object with surface and instance keys"
            % (args.input,))
    try:
        tri, curves = triangulation_from_dict(doc["surface"])
        inst = instance_from_dict(doc["instance"], named_curves=curves)
    except ValidationError as exc:
        raise ParseError("%s: %s" % (args.input, exc)) from exc
    report = verify_skein(tri, inst)
    out.write(report.as_text())
    out.write("\n")
    return 0


def _cmd_selftest(args, out):
    from .selftest import run_selftest
    ok = run_selftest(seed=args.seed, stream=out)
    return 0 if ok else 1


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first call and kept: every call of
    ``main`` reads it and none changes it."""
    parser = argparse.ArgumentParser(
        prog="snakegraphs",
        description="Expand curves on triangulated surfaces and verify "
                    "the expansions.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, picks_curves=True, keeps_boundary=False,
            formats=("text",)):
        p = sub.add_parser(name)
        p.add_argument("input", help="JSON input file")
        if picks_curves:
            p.add_argument("--curve", help="restrict to one named curve")
            p.add_argument("--max-tiles", type=int, default=None,
                           help="refuse curves crossing more arcs")
        if keeps_boundary:
            p.add_argument("--keep-boundary", action="store_true",
                           help="keep boundary variables in expansions")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, default="text")
        else:
            p.set_defaults(format=formats[0])
        p.set_defaults(fn=fn)

    add("expand", _cmd_expand, keeps_boundary=True, formats=("text", "json"))
    add("bmatrix", _cmd_bmatrix, picks_curves=False,
        formats=("text", "json"))
    add("matchings", _cmd_matchings, formats=("text", "json"))
    add("snake-dot", _cmd_snake_dot, formats=("dot",))
    add("verify", _cmd_verify)
    add("skein-check", _cmd_skein_check, picks_curves=False)
    selftest = sub.add_parser("selftest")
    selftest.add_argument("--seed", type=int, default=0)
    selftest.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None, out=None):
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except SnakeGraphsError as exc:
        sys.stderr.write("%s: %s\n" % (type(exc).__name__, exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
