"""Command line interface.

Commands: decompose, table, concepts, shapes, graph, involutions, verify.
Global flags: --format (text|json|csv|dot), --allow-long.
Exit codes: 0 ok, 1 verification failure, 2 user error, 3 refused
long-running job, 4 internal error (any other exception raised by the
library, reported in one line on stderr, with its type named unless it is a
RuntimeError or ValueError), 141 stdout closed by its reader, as
by ``| head -1`` (128 + SIGPIPE, as a shell reports it), with no message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .groups import BRUTE_LIMIT
from .labels import parse_label
from .parabolic import shape_catalog
from .rootsys import build_root_system

E8_ORDER = parse_label("E8").order


class UserError(Exception):
    pass


def _root_system(args):
    try:
        label = parse_label(args.group)
    except ValueError as exc:
        raise UserError(str(exc))
    return build_root_system(label)


def _build(args):
    rs = _root_system(args)
    return rs, shape_catalog(rs)


def _require_short(rs, args, what):
    if rs.group_order >= E8_ORDER and not args.allow_long:
        raise SystemExit(_fail(
            f"{what} for {rs.label} is a long-running job; rerun with --allow-long", 3))


def _fail(msg, code):
    print(f"error: {msg}", file=sys.stderr)
    return code


def _emit_rows(rows, header, fmt):
    if fmt == "json":
        print(json.dumps(rows, indent=2, ensure_ascii=False))
    elif fmt == "csv":
        import csv
        w = csv.writer(sys.stdout)
        w.writerow(header)
        for r in rows:
            w.writerow([r[h] for h in header])
    else:
        widths = [max(len(str(r[h])) for r in rows + [dict(zip(header, header))])
                  for h in header]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("-" * len(line))
        for r in rows:
            print("  ".join(str(r[h]).ljust(w) for h, w in zip(header, widths)))


def cmd_shapes(args):
    rs, catalog = _build(args)
    rows = [{"index": s.index, "label": s.label, "rank": s.rank, "order": s.order,
             "representative": ",".join(f"s{i+1}" for i in s.rep_subset) or "-"}
            for s in catalog]
    _emit_rows(rows, ["index", "label", "rank", "order", "representative"], args.format)
    return 0


def cmd_decompose(args):
    rs, catalog = _build(args)
    from .normalizer import decompose, decomposition_row
    try:
        shape = catalog.by_selector(args.parabolic)
    except KeyError as err:
        reason = err.args[0]
        if not reason.startswith("ambiguous"):
            reason = f"unknown parabolic selector {args.parabolic!r} for {rs.label}"
        print(f"error: {reason}", file=sys.stderr)
        print("known shapes:", file=sys.stderr)
        for s in catalog:
            print(f"  {s.index:3d}  {s.label}", file=sys.stderr)
        return 2
    dec = decompose(rs, shape)
    if args.format == "json":
        print(json.dumps(dec.to_json(), indent=2, ensure_ascii=False))
    else:
        row = decomposition_row(dec)
        print(f"group            {rs.label}")
        print(f"shape            {row['index']}  {row['label']}"
              + ("  (involution centralizer)" if row["asterisk"] else ""))
        print(f"|N|              {dec.n_order}")
        print(f"Q                shape {row['q_index']}  ({catalog[row['q_index']].label})")
        print(f"|D|              {row['d_order']}")
        print(f"A                {row['a'] or '1'}")
        print(f"B                {row['b'] or '1'}")
        print(f"C                {row['c'] or '1'}  (order {len(dec.C)})")
        print(f"closure of P     shape {dec.closure_index}  ({catalog[dec.closure_index].label})")
        print(f"closure of PQ    {row['closure']}")
        print(f"action on X_perp   {row['x_perp'] or '-'}")
        print(f"action on X^Y      {row['x_cap_y'] or '-'}")
        print(f"action on Y_perp   {row['y_perp'] or '-'}")
    return 0


TABLE_HEADER = ["index", "asterisk", "label", "q_index", "d_order", "closure",
                "a", "b", "c", "x_perp", "x_cap_y", "y_perp"]


def cmd_table(args):
    rs = _root_system(args)
    _require_short(rs, args, "the full table")
    from .normalizer import compute_table
    rows = compute_table(rs)
    out = []
    for r in rows:
        r = dict(r)
        r["asterisk"] = "*" if r["asterisk"] else ""
        out.append(r)
    _emit_rows(out, TABLE_HEADER, args.format)
    return 0


def cmd_concepts(args):
    rs, catalog = _build(args)
    from .galois import parabolic_concepts
    rows = [{"left_index": i, "left": catalog[i].label,
             "right_index": j, "right": catalog[j].label}
            for i, j in parabolic_concepts(rs)]
    _emit_rows(rows, ["left_index", "left", "right_index", "right"], args.format)
    return 0


def cmd_graph(args):
    rs, catalog = _build(args)
    from .galois import graph_to_dot, shape_closure_graph
    graph = shape_closure_graph(rs)
    if args.format == "dot":
        print(graph_to_dot(graph))
    else:
        print(json.dumps(graph, indent=2, ensure_ascii=False))
    return 0


def cmd_involutions(args):
    rs, catalog = _build(args)
    from .involutions import involution_class_representatives
    rows = [{"shape": rec.shape_index, "label": catalog[rec.shape_index].label,
             "degree": rec.degree, "centralizer_order": rec.centralizer_order}
            for rec in involution_class_representatives(rs)]
    _emit_rows(rows, ["shape", "label", "degree", "centralizer_order"], args.format)
    return 0


def cmd_verify(args):
    rs = _root_system(args)
    from .verify import SUITES
    if args.suite not in SUITES:
        return _fail(f"unknown suite {args.suite!r}; choose from "
                     + ", ".join(sorted(SUITES)), 2)
    if args.suite == "fixtures":
        from .oracle import fixture_file
        if not fixture_file(str(rs.label)).is_file():
            return _fail(f"no golden fixture for {rs.label}", 2)
        _require_short(rs, args, "the fixture diff")
    elif args.suite in ("goursat", "howlett", "oracle") and rs.group_order > BRUTE_LIMIT:
        # howlett and oracle enumerate W, goursat the normalizer of the trivial parabolic
        return _fail(f"the {args.suite} suite enumerates all of W, and {rs.label} "
                     f"has order {rs.group_order} > {BRUTE_LIMIT}", 3)
    report = SUITES[args.suite](rs)
    print(json.dumps(report, indent=2, ensure_ascii=False, default=str))
    return 0 if report["ok"] else 1


def _add_global_flags(p):
    p.add_argument("--format", choices=["text", "json", "csv", "dot"],
                   default=argparse.SUPPRESS)
    p.add_argument("--allow-long", action="store_true", default=argparse.SUPPRESS,
                   help="permit long-running jobs (full tables at order ~7e8)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="coxnorm",
        description="Exact normalizer decompositions of parabolic subgroups"
                    " of finite Coxeter groups")
    _add_global_flags(parser)
    parser.set_defaults(format="text", allow_long=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("group")
        _add_global_flags(p)
        p.set_defaults(func=func)
        return p

    add("shapes", cmd_shapes, "list the shape catalog")
    p = add("decompose", cmd_decompose, "decompose one parabolic normalizer")
    p.add_argument("parabolic",
                   help="shape index, label, partition like [2222], or s1,s3,s5")
    add("table", cmd_table, "full decomposition table of a group")
    add("concepts", cmd_concepts, "parabolic concepts up to conjugacy")
    add("graph", cmd_graph, "shape poset with closure edges")
    add("involutions", cmd_involutions, "involution classes and centralizers")
    p = add("verify", cmd_verify, "run a verification suite")
    p.add_argument("--suite", default="fixtures")

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; the interpreter's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UserError as exc:
        return _fail(str(exc), 2)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (RuntimeError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:   # a broken invariant of another kind, with no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
