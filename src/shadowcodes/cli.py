"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite reports a
failure, 2 for unusable parameters (argparse errors included).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .binary import exact_min_distance, sampled_min_distance_upper
from .bounds import (
    DEFAULT_SEED,
    FIG3_EXACT_CAP,
    deltacon,
    dg_params,
    fig1_rows,
    fig3_rows,
    fig4_rows,
    gv_min_distance,
    k0,
    rows_to_csv,
    rows_to_json,
    shadow_lb_deg1,
    shadow_lb_deg2,
)
from .concat import concat_generator, concat_params, concat_spec
from .errors import BadDescriptor, ShadowcodesError
from .field import field_of_order
from .shadow import (
    construct_deg1,
    construct_deg1_nk,
    construct_deg2,
    from_descriptor,
    to_descriptor,
)
from .verify import (
    verify_section6,
    verify_theorem4,
    verify_theorem6,
    verify_theorem7,
    verify_weil,
)
from . import binary


def _emit(obj, out: str | None) -> None:
    _write(json.dumps(obj, indent=2, default=str) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args: argparse.Namespace, keys) -> dict:
    cfg = {"tool": f"shadowcodes {__version__}", "command": args.command}
    for key in keys:
        cfg[key] = getattr(args, key)
    return cfg


def _cmd_construct(args) -> int:
    if args.family == "deg1":
        if args.n is not None or args.k is not None:
            if args.n is None or args.k is None:
                raise ShadowcodesError("give both --n and --k, or --q and --e-size")
            code = construct_deg1_nk(args.n, args.k)
        elif args.q is not None and args.e_size is not None:
            code = construct_deg1(field_of_order(args.q), args.e_size)
        else:
            raise ShadowcodesError("give either --n/--k or --q/--e-size")
    else:
        if args.q is None or args.k is None:
            raise ShadowcodesError("deg2 needs --q and --k")
        code = construct_deg2(field_of_order(args.q), args.k, args.seed)
    desc = to_descriptor(code)
    desc["config"] = _config(args, ())
    _emit(desc, args.out)
    return 0


def _cmd_dmin(args) -> int:
    with open(args.descriptor) as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadDescriptor(f"{args.descriptor} is not a JSON descriptor: {exc}") from exc
    code = from_descriptor(obj)
    gen = code.generator()
    report = {
        "config": _config(args, ("descriptor", "workers")),
        "n": gen.n,
        "k": gen.k,
        "delta": code.delta.to_json(),
    }
    if args.sample:
        report["method"] = "sample"
        report["seed"] = args.seed
        report["trials"] = args.sample
        report["dmin_upper"] = sampled_min_distance_upper(gen, args.sample, args.seed)
    else:
        report["method"] = "exact"
        report["dmin"] = exact_min_distance(gen, workers=args.workers)
        if code.delta_positive:
            report["floor"] = code.delta.ceil()
            report["floor_met"] = report["dmin"] >= report["floor"]
    _emit(report, args.out)
    if report.get("floor_met") is False:  # cannot happen unless something is broken
        return 1
    return 0


def _cmd_figure(args) -> int:
    if args.figure == "fig1":
        rows = fig1_rows(args.n_min, args.n_max, args.points)
        cfg = _config(args, ("figure", "n_min", "n_max", "points"))
    elif args.figure == "fig3":
        rows = fig3_rows(args.n, seed=args.seed)
        cfg = {**_config(args, ("figure", "n", "seed")), "exact_cap": FIG3_EXACT_CAP}
    else:
        rows = fig4_rows(args.a, args.m_min, args.m_max)
        cfg = _config(args, ("figure", "a", "m_min", "m_max"))
    text = rows_to_json(rows, cfg) if args.format == "json" else rows_to_csv(rows, cfg)
    _write(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "weil":
        report = verify_weil(args.q_max, args.count, args.seed)
    elif args.suite == "theorem4":
        report = verify_theorem4(args.seed)
    elif args.suite == "theorem6":
        report = verify_theorem6(args.n_max)
    elif args.suite == "theorem7":
        report = verify_theorem7(args.m, workers=args.workers)
    else:
        report = verify_section6()
    report["config"] = _config(args, ("suite",))
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _cmd_concat(args) -> int:
    spec = concat_spec(args.m, args.N, args.K)
    params = concat_params(spec)
    report = {
        "config": _config(args, ("m", "N", "K")),
        "n": params.n,
        "k": params.k,
        "dmin_lb": params.dmin_lb,
        "rate": str(params.rate),
        "rs_rate": str(params.rs_rate),
        "delta_lb": str(params.delta_lb),
        "delta_formula_lb": str(params.delta_formula_lb),
    }
    if args.matrix:
        gen = concat_generator(spec)
        report["G"] = [binary.row_to_hex(r, gen.n) for r in gen.rows]
    _emit(report, args.out)
    return 0


_BOUNDS_NEEDS = {
    "gv": ("n", "k"),
    "dg": ("m", "d"),
    "shadow1": ("n", "k"),
    "shadow2": ("n", "k"),
    "deltacon": ("n", "k"),
    "k0": ("n",),
}


def _cmd_bounds(args) -> int:
    missing = [f"--{a}" for a in _BOUNDS_NEEDS[args.quantity] if getattr(args, a) is None]
    if missing:
        raise ShadowcodesError(f"{args.quantity} needs {' and '.join(missing)}")
    report = {"config": _config(args, ("quantity",))}
    if args.quantity == "gv":
        report.update(n=args.n, k=args.k, d=gv_min_distance(args.n, args.k))
    elif args.quantity == "dg":
        n, log2m, dmin = dg_params(args.m, args.d)
        report.update(m=args.m, d=args.d, n=n, log2_size=log2m, dmin=dmin)
    elif args.quantity == "shadow1":
        report.update(n=args.n, k=args.k, floor=shadow_lb_deg1(args.n, args.k))
    elif args.quantity == "shadow2":
        report.update(n=args.n, k=args.k, floor=shadow_lb_deg2(args.n, args.k))
    elif args.quantity == "deltacon":
        report.update(n=args.n, k=args.k, floor=deltacon(args.n, args.k))
    else:
        rec = k0(args.n)
        report.update(
            n=args.n, k0=rec.k0, k0_cardano=rec.k0_cardano, xi=rec.xi,
            omega_sq=rec.omega_sq,
        )
    _emit(report, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="shadowcodes",
        description="Construct binary shadow codes, tabulate bounds, and verify"
        " every guarantee by brute force.",
    )
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = root.add_subparsers(dest="command", required=True)

    c = subs.add_parser("construct", help="build a code and emit its descriptor")
    c.add_argument("family", choices=["deg1", "deg2"])
    c.add_argument("--q", type=int, help="field order")
    c.add_argument("--e-size", type=int, dest="e_size", help="evaluation set size (deg1)")
    c.add_argument("--n", type=int, help="code length (deg1; q = n + k - 1)")
    c.add_argument("--k", type=int, help="dimension")
    c.add_argument("--seed", type=int, default=None, help="random quadratic choice (deg2)")
    c.add_argument("--out", help="write the JSON descriptor here")
    c.set_defaults(fn=_cmd_construct)

    d = subs.add_parser("dmin", help="minimum distance of a stored descriptor")
    d.add_argument("descriptor", help="path to a construct descriptor")
    d.add_argument("--sample", type=int, default=0, help="trials for a sampled upper bound")
    d.add_argument("--seed", type=int, default=DEFAULT_SEED)
    d.add_argument("--workers", type=int, default=1, help="processes for the exact scan")
    d.add_argument("--out")
    d.set_defaults(fn=_cmd_dmin)

    f = subs.add_parser("figure", help="rate/distance comparison tables")
    f.add_argument("figure", choices=["fig1", "fig3", "fig4"])
    f.add_argument("--n", type=int, default=1024, help="length for fig3")
    f.add_argument("--n-min", type=int, default=10, dest="n_min")
    f.add_argument("--n-max", type=int, default=100000, dest="n_max")
    f.add_argument("--points", type=int, default=50)
    f.add_argument("--a", type=float, default=0.49, help="dimension exponent for fig4")
    f.add_argument("--m-min", type=int, default=2, dest="m_min")
    f.add_argument("--m-max", type=int, default=10, dest="m_max")
    f.add_argument("--seed", type=int, default=DEFAULT_SEED)
    f.add_argument("--format", choices=["csv", "json"], default="csv")
    f.add_argument("--out")
    f.set_defaults(fn=_cmd_figure)

    v = subs.add_parser("verify", help="run a verification suite")
    v.add_argument(
        "suite",
        choices=["weil", "theorem4", "theorem6", "theorem7", "section6"],
        help="weil: point-count windows; theorem4: code structure;"
        " theorem6: dimension threshold; theorem7: concatenated distance;"
        " section6: floor ordering",
    )
    v.add_argument("--q-max", type=int, default=121, dest="q_max")
    v.add_argument("--count", type=int, default=200)
    v.add_argument("--n-max", type=int, default=100000, dest="n_max")
    v.add_argument("--m", type=int, default=2)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--out")
    v.set_defaults(fn=_cmd_verify)

    t = subs.add_parser("concat", help="concatenated code parameters")
    t.add_argument("--m", type=int, required=True)
    t.add_argument("--N", type=int, required=True)
    t.add_argument("--K", type=int, required=True)
    t.add_argument("--matrix", action="store_true", help="include generator rows")
    t.add_argument("--out")
    t.set_defaults(fn=_cmd_concat)

    b = subs.add_parser("bounds", help="single bound evaluations")
    b.add_argument("quantity", choices=["gv", "dg", "shadow1", "shadow2", "k0", "deltacon"])
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--m", type=int)
    b.add_argument("--d", type=int)
    b.add_argument("--out")
    b.set_defaults(fn=_cmd_bounds)

    return root


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ShadowcodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
