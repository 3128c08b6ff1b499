"""Command-line front end.

``main`` is the one place that resolves the session config, loads the
``--type`` file, parses the ``eval`` series and ``--poly``, prints, and
maps errors to exit codes.  Every command except ``corpus`` receives
those parsed inputs and returns its ``--json`` payload and its text line;
``corpus`` streams one JSON record per case and returns its exit code.

Exit codes: 0 success, 1 check failure, 2 usage or parse error,
3 internal inconsistency (two independent computation routes disagree).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import SessionConfig, load_config_file
from .errors import ApxError, InternalInconsistency
from .ordval import format_value, parse_cut, parse_value
from .hahn import dot, in_subfield, p_power_denominators, resolve_predicate
from .parsing import ParseError, format_series, parse_poly, parse_series
from .envelope import AffineFamily, _ordered_argmin
from .apprtype import ApproxType, Fixed
from .reldeg import (
    approx_coefficient,
    coefficient_dist_law,
    rel_degree,
    tail_factor_shape,
)
from .tamegal import TameCyclic, valuation_independence_witness
from .curated import trace_pulldown_scenario
from .corpus import run_corpus


# the Python type json.load gives each JSON type; a bool is no integer here
_JSON = {"string": str, "integer": int, "boolean": bool, "list": list,
         "null": type(None)}


def _json_object(desc, what: str, keys: dict, defaults=()) -> dict:
    """``desc`` over ``defaults`` when it is a JSON object holding every key
    of ``keys`` with a value of the JSON types ``keys`` names for it ("any"
    admits every type); ValueError, a usage error, when it is not."""
    if not isinstance(desc, dict):
        raise ValueError(f"{what} must be a JSON object")
    desc = {**dict(defaults), **desc}
    for key, kinds in keys.items():
        if key not in desc:
            raise ValueError(f"{what} lacks the key {key!r}")
        types = [_JSON.get(k) for k in kinds.split(" or ")]
        if kinds != "any" and type(desc[key]) not in types:
            raise ValueError(f"{what} key {key!r} must be a JSON {kinds}")
    return desc


def _read_type(path: str) -> dict:
    """The type file's keys, defaults filled in; a "p" not null is the
    command's prime."""
    with open(path) as fh:
        desc = json.load(fh)
    keys = {"target": "string", "ground": "string", "hint": "string or null",
            "transcendental": "boolean", "p": "integer or null"}
    defaults = {"ground": "Z[1/p]", "hint": None, "transcendental": False, "p": None}
    return _json_object(desc, "type description", keys, defaults)


def _load_type(desc: dict, cfg: SessionConfig) -> ApproxType:
    target = parse_series(desc["target"], cfg.p)
    ground = resolve_predicate(desc["ground"], cfg.p)
    hint = parse_cut(desc["hint"]) if desc["hint"] else None
    return ApproxType.from_truncations(
        target,
        ground,
        transcendental=desc["transcendental"],
        distance_hint=hint,
        window=cfg.window,
        tail_depth=cfg.tail_depth,
    )


def cmd_eval(args, cfg, s, f=None):
    if f is not None:
        s = f(s)
    return (
        {"series": format_series(s), "value": format_value(s.val())},
        f"{format_series(s)}  (v = {format_value(s.val())})",
    )


def cmd_dist(args, cfg, A):
    c = A.distance()
    return {"distance": str(c)}, str(c)


def cmd_fixes(args, cfg, A, g):
    res = A.fixes_value(g)
    if isinstance(res, Fixed):
        return (
            {"fixed": True, "value": format_value(res.value)},
            f"fixed, value {format_value(res.value)}",
        )
    return (
        {"fixed": False, "h": res.h, "beta": format_value(res.beta)},
        f"not fixed: v g(c) = {format_value(res.beta)} + {res.h}*v(x-c)",
    )


def cmd_extend(args, cfg, A, g):
    v = format_value(A.kaplansky_extend(g))
    return {"value": v}, v


def cmd_reldeg(args, cfg, A, f):
    rd = rel_degree(A, f)
    payload = {
        "h": rd.h,
        "beta": format_value(rd.beta),
        "taylor_intercepts": [format_value(b) for b in rd.taylor_intercepts],
        "law_verification_depth": len(A.tail()),
        "sampled_points": rd.sampled_points,
    }
    return payload, f"h = {rd.h}, beta = {format_value(rd.beta)}"


def cmd_approx_coeff(args, cfg, A, f):
    d, rd = approx_coefficient(A, f)
    dist = coefficient_dist_law(A, rd.h, d)
    payload = {
        "d": format_series(d),
        "vd": format_value(d.val()),
        "h": rd.h,
        "image_distance": str(dist),
    }
    return payload, f"d = {format_series(d)}, image distance {dist}"


def cmd_factor_shape(args, cfg, A, f):
    residues, root = tail_factor_shape(A, f)
    return (
        {"residue_coeffs": residues, "root": root},
        f"residue polynomial coefficients {residues} (root {root})",
    )


def cmd_envelope(args, cfg):
    keys = {"approach": "string", "items": "list"}
    desc = _json_object(json.loads(args.family), "family", keys)
    approach = parse_cut(desc["approach"])
    items = []
    for it in desc["items"]:
        keys = {"i": "integer", "intercept": "any", "slope": "integer"}
        it = _json_object(it, "family item", keys)
        items.append((it["i"], parse_value(str(it["intercept"])), it["slope"]))
    fam = AffineFamily.make(items, approach)
    argmin, order = _ordered_argmin(fam)
    payload = {
        "beta": str(order.beta),
        "permutation": list(order.permutation),
        "argmin": argmin,
    }
    return (
        payload,
        f"beta = {order.beta}, order {list(order.permutation)}, "
        f"argmin {argmin}",
    )


def cmd_tame_witness(args, cfg):
    G = TameCyclic.make(cfg.p, args.n)
    sigmas = [G.element(int(k)) for k in args.sigmas.split(",")]
    ds = [parse_series(text, cfg.p) for text in args.ds]
    d = valuation_independence_witness(G, sigmas, ds)
    images = [sig(d) for sig in sigmas]
    total = dot(images, ds)
    payload = {
        "witness": format_series(d),
        "sum": format_series(total),
        "sum_value": format_value(total.val()),
        "min_value": format_value(
            min(a.val() + di.val() for a, di in zip(images, ds))
        ),
    }
    return payload, f"d = {format_series(d)} (sum value {payload['sum_value']})"


def cmd_trace_gen(args, cfg):
    sc = trace_pulldown_scenario()
    rd = rel_degree(sc.x_type, sc.trace_poly)
    payload = {
        "witness": format_series(sc.witness),
        "trace": format_series(sc.trace),
        "h": rd.h,
        "pulled_down": in_subfield(sc.trace, p_power_denominators(sc.group.p)),
    }
    return payload, f"Tr(d*x) = {format_series(sc.trace)}, h = {rd.h}"


def cmd_corpus(args, cfg):
    records, ok = run_corpus(args.filter or "")
    summary = {
        "cases": len(records),
        "passed": sum(1 for r in records if r["status"] == "pass"),
    }
    for r in records:
        print(json.dumps(r, sort_keys=True))
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apxval",
        description="Exact valuation-theoretic computations on truncated "
        "Hahn series.",
    )
    parser.add_argument("--p", type=int, default=None, help="residue prime")
    parser.add_argument("--depth", type=int, default=None, help="tail depth")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--config", type=str, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval")
    sp.add_argument("series")
    sp.add_argument("--poly", default=None)
    sp.set_defaults(fn=cmd_eval)

    for name, fn, with_poly in (
        ("dist", cmd_dist, False),
        ("fixes", cmd_fixes, True),
        ("extend", cmd_extend, True),
        ("reldeg", cmd_reldeg, True),
        ("approx-coeff", cmd_approx_coeff, True),
        ("factor-shape", cmd_factor_shape, True),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--type", required=True, help="JSON type description")
        if with_poly:
            sp.add_argument("--poly", required=True)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("envelope")
    sp.add_argument("family", help="JSON affine family")
    sp.set_defaults(fn=cmd_envelope)

    sp = sub.add_parser("tame-witness")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigmas", required=True, help="comma-separated indices")
    sp.add_argument("--ds", nargs="+", required=True, help="series literals")
    sp.set_defaults(fn=cmd_tame_witness)

    sp = sub.add_parser("trace-gen")
    sp.set_defaults(fn=cmd_trace_gen)

    sp = sub.add_parser("corpus")
    sp.add_argument("--filter", default="")
    sp.set_defaults(fn=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SessionConfig()
        if args.config:
            cfg = load_config_file(args.config, cfg)
        # one prime per command: a type file's "p" is the command's prime
        desc = _read_type(args.type) if "type" in args else {}
        p = args.p if desc.get("p") is None else desc["p"]
        if args.p not in (None, p):
            raise ValueError(f"--p {args.p} differs from the type file's p {p}")
        if p is not None:
            cfg = replace(cfg, p=p)
        if args.depth is not None:
            cfg = replace(cfg, tail_depth=args.depth)
        cfg = cfg.validated()
        if args.fn is cmd_corpus:
            return cmd_corpus(args, cfg)
        # the type file, the eval series, then --poly, so an input with two
        # faults reports the first; an empty eval --poly means none
        inputs = []
        if "type" in args:
            inputs.append(_load_type(desc, cfg))
        if "series" in args:
            inputs.append(parse_series(args.series, cfg.p))
        if "poly" in args and (args.poly or "type" in args):
            inputs.append(parse_poly(args.poly, cfg.p))
        payload, text = args.fn(args, cfg, *inputs)
        print(json.dumps(payload, sort_keys=True) if args.json else text)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except ApxError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
