"""Command line front end.

Each artifact is one argparse leaf: `construct`, `figure`, `verify` and
`bounds` take a leaf name (a code family, figure, suite or bound), and
`dmin` and `concat` are leaves themselves. A leaf declares only the
flags its handler reads, so flags go after the leaf name and a flag of
another leaf is an argparse error. Leaves take no flag prefixes, or
`--n` would pass for `--n-max`. One table per command drives both its
parser leaves and its handler.

The one module that turns results into text: JSON through `_emit`, each
top-level list of scalars from the C encoder; figure CSV through `rows_to_csv`.

Exit codes: 0 on success, 1 when a verification suite reports a
failure, 2 for unusable parameters (argparse errors included).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
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
    shadow_lb_deg1,
    shadow_lb_deg2,
)
from .concat import concat_generator, concat_params, concat_spec
from .errors import BadDescriptor, BadParameters, ShadowcodesError
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


def _construct_deg1(args):
    """deg1 takes one of two flag pairs, which argparse cannot state."""
    nk, qe = (args.n, args.k), (args.q, args.e_size)
    if None not in nk and qe == (None, None):
        return construct_deg1_nk(args.n, args.k)
    if None not in qe and nk == (None, None):
        return construct_deg1(field_of_order(args.q), args.e_size)
    raise BadParameters("give either --n/--k or --q/--e-size")


# Each table maps a leaf name to (flags, call, help). The flags map each
# dest to its default: a value, whose type is the flag's type; None for
# an optional int; or a type for a required flag. The calls look package
# functions up when they run, so a rebound name is seen.
FAMILIES = {
    "deg1": ({"q": None, "e_size": None, "n": None, "k": None}, _construct_deg1,
             "(n, k) code over q = n + k - 1, by --n/--k or by --q/--e-size"),
    "deg2": ({"q": int, "k": int, "seed": None},
             lambda a: construct_deg2(field_of_order(a.q), a.k, a.seed),
             "(q, k) code from k irreducible quadratics; --seed picks them at random"),
}
FIGURES = {
    "fig1": ({"n_min": 10, "n_max": 100000, "points": 50},
             lambda a: fig1_rows(a.n_min, a.n_max, a.points),
             "threshold root k0 against sqrt(n) + 1/2"),
    "fig3": ({"n": 1024, "seed": DEFAULT_SEED}, lambda a: fig3_rows(a.n, seed=a.seed),
             "every scheme's rate and relative distance at length n"),
    "fig4": ({"a": 0.49, "m_min": 2, "m_max": 10},
             lambda a: fig4_rows(a.a, a.m_min, a.m_max),
             "both families at dimension n^a across n = 4^m"),
}
SUITES = {
    "weil": ({"q_max": 121, "count": 200, "seed": DEFAULT_SEED},
             lambda a: verify_weil(a.q_max, a.count, a.seed), "point-count windows"),
    "theorem4": ({"seed": DEFAULT_SEED}, lambda a: verify_theorem4(a.seed), "code structure"),
    "theorem6": ({"n_max": 100000}, lambda a: verify_theorem6(a.n_max),
                 "dimension threshold"),
    "theorem7": ({"m": 2}, lambda a: verify_theorem7(a.m), "concatenated distance"),
    "section6": ({}, lambda a: verify_section6(), "floor ordering"),
}
QUANTITIES = {
    "gv": ({"n": int, "k": int}, lambda a: {"d": gv_min_distance(a.n, a.k)},
           "Gilbert-Varshamov distance"),
    "dg": ({"m": int, "d": int},
           lambda a: dict(zip(("n", "log2_size", "dmin"), dg_params(a.m, a.d))),
           "Delsarte-Goethals parameters"),
    "shadow1": ({"n": int, "k": int}, lambda a: {"floor": shadow_lb_deg1(a.n, a.k)},
                "degree <= 1 distance floor"),
    "shadow2": ({"n": int, "k": int}, lambda a: {"floor": shadow_lb_deg2(a.n, a.k)},
                "degree 2 distance floor"),
    "deltacon": ({"n": int, "k": int}, lambda a: {"floor": deltacon(a.n, a.k)},
                 "concatenated relative-distance floor"),
    "k0": ({"n": int}, lambda a: k0(a.n)._asdict(), "dimension threshold root"),
}
DMIN_FLAGS = {"sample": 0, "seed": DEFAULT_SEED}
CONCAT_FLAGS = {"m": int, "N": int, "K": int}

_HELP = {"q": "field order", "e_size": "evaluation set size", "n": "code length",
         "k": "dimension", "a": "dimension exponent", "sample": "trials for a sampled upper bound"}


_INDENTED = json.JSONEncoder(indent=2, default=str).encode
_FLAT = json.JSONEncoder(separators=(",\n    ", ": "), default=str).encode


def _json_pieces(obj) -> list[str]:
    """The text of json.dumps(obj, indent=2, default=str) + "\\n", in
    pieces that are written one after another and never joined.

    A str-keyed dict is written one key at a time, each value dumped
    first by the C encoder, since an indent selects the slow Python one.
    A dump with no bracket or brace (a scalar's) is written as it is, and
    a non-empty top-level list whose dump holds one "[" and no "{" (a
    descriptor's E) from that dump, one item per line.  Every other value
    is its own indented dump, shifted one level in: no string holds a raw
    newline.  Any other object, or a dict with a key other than a str
    (the keys 1 and "1" print alike), keeps the plain dump."""
    if not isinstance(obj, dict) or not all(type(key) is str for key in obj):
        return [_INDENTED(obj), "\n"]
    pieces, sep = ["{"], "\n  "
    for key, value in obj.items():
        pieces.append(f"{sep}{_INDENTED(key)}: ")
        sep = ",\n  "
        flat = _FLAT(value)
        if "[" not in flat and "{" not in flat:
            pieces.append(flat)
        elif type(value) is list and value and flat.count("[") == 1 and "{" not in flat:
            pieces += ("[\n    ", flat[1:-1], "\n  ]")
        else:
            pieces.append(_INDENTED(value).replace("\n", "\n  "))
    pieces.append("\n}\n" if obj else "}\n")
    return pieces


def _emit(obj, out: str | None) -> None:
    _write(_json_pieces(obj), out)


def rows_to_csv(rows: list, config: dict) -> str:
    """CSV text with the generating parameters echoed as # comments: a
    header of the first row's keys, then each row's values.  Rows are
    dicts or records of one shape."""
    buf = io.StringIO()
    buf.writelines(f"# {key}={config[key]}\n" for key in sorted(config))
    writer = csv.writer(buf)
    if isinstance(rows[0], dict):
        writer.writerow(rows[0])
        writer.writerows(row.values() for row in rows)
    else:
        writer.writerow(rows[0]._fields)
        writer.writerows(rows)
    return buf.getvalue()


def _write(pieces, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _config(args: argparse.Namespace, keys) -> dict:
    cfg = {"tool": f"shadowcodes {__version__}", "command": args.command}
    for key in keys:
        cfg[key] = getattr(args, key)
    return cfg


def _cmd_construct(args) -> int:
    desc = to_descriptor(FAMILIES[args.family][1](args))
    desc["config"] = _config(args, ())
    _emit(desc, args.out)
    return 0


def _cmd_dmin(args) -> int:
    with open(args.descriptor) as fh:
        try:
            obj = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad text, over-long ints, deep nesting
            raise BadDescriptor(f"{args.descriptor} is not a JSON descriptor: {exc}") from exc
    code = from_descriptor(obj)
    gen = code.generator()
    report = {
        "config": _config(args, ("descriptor",)),
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
        report["dmin"] = exact_min_distance(gen)
        if code.delta_positive:
            report["floor"] = code.delta.ceil()
            report["floor_met"] = report["dmin"] >= report["floor"]
    _emit(report, args.out)
    if report.get("floor_met") is False:  # cannot happen unless something is broken
        return 1
    return 0


def _cmd_figure(args) -> int:
    flags, rows_of, _ = FIGURES[args.figure]
    cfg = _config(args, ("figure", *flags))
    if args.figure == "fig3":  # its exact-scan cap is a constant, echoed too
        cfg["exact_cap"] = FIG3_EXACT_CAP
    rows = rows_of(args)
    if args.format == "json":
        rows = [row if isinstance(row, dict) else row._asdict() for row in rows]
        _emit({"config": cfg, "rows": rows}, args.out)
    else:
        _write((rows_to_csv(rows, cfg),), args.out)
    return 0


def _cmd_verify(args) -> int:
    report = SUITES[args.suite][1](args)
    report["config"] = _config(args, ("suite",))
    _emit(report, args.out)
    return 0 if report["ok"] else 1


def _cmd_concat(args) -> int:
    spec = concat_spec(args.m, args.N, args.K)
    report = {"config": _config(args, ("m", "N", "K")), **concat_params(spec)._asdict()}
    if args.matrix:
        gen = concat_generator(spec)
        report["G"] = [binary.row_to_hex(r, gen.n) for r in gen.rows]
    _emit(report, args.out)
    return 0


def _cmd_bounds(args) -> int:
    flags, call, _ = QUANTITIES[args.quantity]
    report = {"config": _config(args, ("quantity",))}
    report.update((key, getattr(args, key)) for key in flags)
    report.update(call(args))
    _emit(report, args.out)
    return 0


def _add_flags(parser: argparse.ArgumentParser, flags: dict) -> None:
    for dest, default in flags.items():
        if isinstance(default, type):
            kind = dict(type=default, required=True)
        else:
            kind = dict(type=int if default is None else type(default), default=default)
        parser.add_argument("--" + dest.replace("_", "-"), help=_HELP.get(dest), **kind)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    root = argparse.ArgumentParser(
        prog="shadowcodes",
        description="Construct binary shadow codes, tabulate bounds, and verify"
        " every guarantee by brute force.",
    )
    root.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the output to this file instead of stdout")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv")
    subs = root.add_subparsers(dest="command", required=True)

    for command, dest, table, fn, parents, about in (
        ("construct", "family", FAMILIES, _cmd_construct, [out],
         "build a code and emit its descriptor"),
        ("figure", "figure", FIGURES, _cmd_figure, [fmt, out], "rate/distance comparison tables"),
        ("verify", "suite", SUITES, _cmd_verify, [out], "run a verification suite"),
        ("bounds", "quantity", QUANTITIES, _cmd_bounds, [out], "single bound evaluations"),
    ):
        leaves = subs.add_parser(command, help=about).add_subparsers(dest=dest, required=True)
        for name, (flags, _, leaf_help) in table.items():
            leaf = leaves.add_parser(name, parents=parents, help=leaf_help, allow_abbrev=False)
            _add_flags(leaf, flags)
            leaf.set_defaults(fn=fn, leaf=leaf)

    d = subs.add_parser("dmin", parents=[out], allow_abbrev=False,
                        help="minimum distance of a stored descriptor")
    d.add_argument("descriptor", help="path to a construct descriptor")
    _add_flags(d, DMIN_FLAGS)
    d.set_defaults(fn=_cmd_dmin, leaf=d)

    t = subs.add_parser("concat", parents=[out], allow_abbrev=False,
                        help="concatenated code parameters")
    _add_flags(t, CONCAT_FLAGS)
    t.add_argument("--matrix", action="store_true", help="include generator rows")
    t.set_defaults(fn=_cmd_concat, leaf=t)

    return root


def main(argv=None) -> int:
    # a subparser hands the arguments it does not know back to the root;
    # the leaf reports them, so the usage printed is the leaf's
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except (ShadowcodesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
