"""Command-line surface: construct, verify, search, table, render.

Exit codes: 0 success / verification pass / SAT; 1 verification failure
(a refused render too), UNSAT, or a table cell where a journal row
contradicts a bound; 2 usage or input-format error; 3 solver aborted on
a resource limit.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

from . import construct as cons
from .certs import (
    certificate_digest,
    load_certificate,
    parse_edge_list,
    save_certificate,
    serialize_layout,
)
from .journal import DEFAULT_JOURNAL, JournalRecord, append_record, load_records
from .model import PageKind
from .render import render_svg
from .search import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    ENGINE_VERSION,
    MAX_ORDER_VERTICES,
    SearchProblem,
    solve,
)
from .verify import Profile, verify_layout

_PROFILES = {p.value: p for p in Profile}


def _cmd_construct(args) -> int:
    layout, meta = cons.construct(args.scheme, n=args.n, r=args.r)
    text = serialize_layout(layout, meta)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {args.scheme} layout of n={layout.graph.n}, "
              f"{len(layout.pages)} pages, {layout.graph.m} edges")
    else:
        sys.stdout.write(text)
    return 0


def _certificate_profile(layout, meta) -> Profile:
    """The profile a certificate was made for: the one its meta names, as
    `search` writes it, or else relaxed iff it has a cross-cap page."""
    if "profile" not in meta:
        crosscap = any(p.kind is PageKind.CROSSCAP for p in layout.pages)
        return Profile.RELAXED if crosscap else Profile.STRICT
    named = meta["profile"]
    if not isinstance(named, str) or named not in _PROFILES:
        raise ValueError(f"meta profile {named!r} is not one of {', '.join(sorted(_PROFILES))}")
    return _PROFILES[named]


def _cmd_verify(args) -> int:
    layout, meta = load_certificate(args.certificate)
    profile = _PROFILES[args.profile] if args.profile else _certificate_profile(layout, meta)
    report = verify_layout(layout, profile)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        for v in report.violations:
            print(v.describe())
        print(f"{'PASS' if report.passed else 'FAIL'} "
              f"profile={profile.value} pages={len(layout.pages)} "
              f"violations={len(report.violations)}")
    return 0 if report.passed else 1


def _search_graph(args):
    """The graph to search, its family and the params the journal records."""
    if args.graph:
        given = [f"--{f}" for f in ("family", "n", "r", "k") if getattr(args, f) is not None]
        if given:
            raise ValueError(f"--graph cannot be combined with {', '.join(given)}")
        g = parse_edge_list(Path(args.graph).read_text())
        family, flags = "G", {"n": g.n, "edges": sorted(g.edges)}
    else:
        family = args.family or "K"
        flags = {f: getattr(args, f) for f in ("n", "r", "k") if getattr(args, f) is not None}
        for f in flags:
            if f != "n" and f not in cons.FAMILIES[family]:
                takers = [fam for fam, names in cons.FAMILIES.items() if f in names]
                raise ValueError(f"--{f} applies to family {', '.join(takers)}, not {family}")
    graph, params = cons.family_graph({"family": family, **flags})
    return graph, family, params


def _cmd_search(args) -> int:
    graph, family, params = _search_graph(args)
    profile = _PROFILES[args.profile]
    if args.optimize_order:
        policy = "optimize"
    elif profile is Profile.STAR_FORESTS_ONLY:
        policy = "none"
    else:
        policy = "identity"
    problem = SearchProblem(
        graph=graph,
        budget=args.budget,
        profile=profile,
        optimize_order=args.optimize_order,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )
    outcome = solve(problem)

    digest = None
    if outcome.status == "sat":
        meta = {"family": family, **params, "scheme": "search",
                "profile": profile.value, "budget": args.budget}
        digest = certificate_digest(outcome.layout, meta)
        if args.out:
            save_certificate(args.out, outcome.layout, meta)
    record = JournalRecord(
        timestamp=JournalRecord.now_timestamp(),
        family=family,
        params=params,
        order_policy=policy,
        profile=profile.value,
        budget=args.budget,
        outcome=outcome.status,
        k_star=args.budget if outcome.status == "sat" else None,
        nodes=outcome.nodes,
        wall_time=round(outcome.wall_time, 3),
        certificate_digest=digest,
        extra={"reason": outcome.reason} if outcome.reason else {},
        engine=ENGINE_VERSION,
    )
    append_record(args.journal, record)

    # A G graph's params hold its whole edge list, which the journal keeps.
    shown = f"n={graph.n} m={graph.m}" if family == "G" else f"params={params}"
    print(f"{outcome.status.upper()} family={family} {shown} "
          f"profile={profile.value} budget={args.budget} order={policy} "
          f"nodes={outcome.nodes} wall={outcome.wall_time:.2f}s"
          + (f" reason={outcome.reason}" if outcome.reason else ""))
    if outcome.status == "sat":
        if args.out:
            print(f"certificate written to {args.out}")
        return 0
    if outcome.status == "unsat":
        return 1
    return 3


def _parse_range(spec: str) -> list[int]:
    ends = spec.split("..")  # N alone gives one end, both lo and hi
    try:
        if len(ends) > 2:
            raise ValueError
        lo, hi = int(ends[0]), int(ends[-1])
    except ValueError:
        raise ValueError(f"bad range {spec!r}: expected N or LO..HI") from None
    if lo > hi:
        raise ValueError(f"empty range {spec!r}")
    if lo < 1:
        raise ValueError(f"K_n needs n >= 1, got {lo} in {spec!r}")
    cons.check_size(hi)
    return list(range(lo, hi + 1))


def _cmd_table(args) -> int:
    records = load_records(args.journal)
    ns = _parse_range(args.n)
    print("n   sa_lower bt_lower st_lower " + " ".join(f"{p.value:>12}" for p in Profile))
    for n in ns:
        b = cons.edge_count_bounds(n, n * (n - 1) // 2)
        constructed = cons.construction_pages(n)
        lowers, uppers = [], []
        for prof in Profile:
            runs = [r for r in records
                    if r.family == "K" and r.params.get("n") == n and r.profile == prof.value]
            # Every page is a star forest, and every strict page is also noncrossing.
            floors = [b.sa_lower] + [r.budget + 1 for r in runs if r.outcome == "unsat"]
            if prof is Profile.STRICT:
                floors.append(b.strict_lower)
            lowers.append(max(floors))
            ceilings = [r.budget for r in runs if r.outcome == "sat"]
            if prof in constructed:
                ceilings.append(constructed[prof])
            uppers.append(min(ceilings, default=math.inf))
        # Profile lists strict, relaxed, saonly, and each needs no more pages
        # than the one before it: a strict layout is a relaxed one, and every
        # relaxed page is a star forest.  So an upper end carries down the
        # list and a lower end up it.
        uppers = list(itertools.accumulate(uppers, min))
        lowers = list(itertools.accumulate(reversed(lowers), max))[::-1]
        # The bounds meet the constructions for every K_n, so ends that
        # differ mean a journal row contradicts a bound.
        for prof, lower, upper in zip(Profile, lowers, uppers):
            if lower != upper:
                print(f"error: K_{n} {prof.value}: lower end {lower} and upper end {upper} "
                      "differ; a journal row contradicts a bound", file=sys.stderr)
                return 1
        bt = b.bt_lower if b.bt_lower is not None else "-"
        print(f"{n:<3} {b.sa_lower!s:>8} {bt!s:>8} {b.strict_lower!s:>8} "
              + " ".join(f"{f'k*={k}':>12}" for k in uppers))
    return 0


def _cmd_render(args) -> int:
    layout, meta = load_certificate(args.certificate)
    profile = _certificate_profile(layout, meta)
    report = verify_layout(layout, profile)
    if not report.passed and not args.force:
        print(f"error: refusing to render: FAIL profile={profile.value} violations="
              f"{len(report.violations)}; pass --force to override", file=sys.stderr)
        return 1
    Path(args.out).write_text(render_svg(layout))
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starbook",
        description="Star-forest book layouts: construct, verify, search, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a layout from a named scheme")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--scheme", choices=cons.SCHEMES, required=True)
    p.add_argument("--out", help="certificate path (stdout if omitted)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("certificate")
    p.add_argument("--profile", choices=sorted(_PROFILES), default=None,
                   help="default: the meta's profile, else relaxed iff a cross-cap page")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exact search for a layout within a page budget")
    p.add_argument("--family", choices=cons.FAMILIES, help="default: K")
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--k", type=int, help="power for the Cpow family")
    p.add_argument("--graph", help="edge-list file, searched as family G")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--profile", choices=sorted(_PROFILES), default="strict")
    p.add_argument("--optimize-order", action="store_true",
                   help=f"search all spine orders up to symmetry (n <= {MAX_ORDER_VERTICES})")
    p.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT)
    p.add_argument("--out", help="write the SAT certificate here")
    p.add_argument("--journal", default=DEFAULT_JOURNAL)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("table", help="bounds and established values of K_n, from the "
                                     "constructions and the journal")
    p.add_argument("--n", required=True, help="single value or range like 4..12")
    p.add_argument("--journal", default=DEFAULT_JOURNAL)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("render", help="verify a certificate as verify does, and render it to SVG")
    p.add_argument("certificate")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true", help="render even if verification fails")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
