"""The three workloads: their cases, how each operation runs, and how it is checked.

strict_proofs
    Disk-only exhaustive proofs, all UNSAT: K_6 at budget 4 over every
    canonical spine order, K_7 at budget 5, K_9 at budget 6, the
    fixed-mains repairs of strict_complete for r = 4..6 (K_8, K_10,
    K_12 at budget r+2 with the r main stars pinned), and K_7 at budget
    4 under saonly.  Almost all time is the engine's disk path and
    engine construction; no cross-cap, no certificate I/O.  Only UNSAT
    cases are used because their node counts move about +-20% under
    relabelling, while a SAT search can swing a hundredfold.  The set
    repeats under STRICT_RELABELLINGS relabellings per pass.
crosscap_search
    The relaxed profile with a cross-cap page: K_6 at budgets 3 and 4,
    K_8 at 4 and 5, K_9 at 5, and K_10 at 6 (SAT, ~8x10^5 nodes).  Same
    engine with the clique prune off, and every probe of the cross-cap
    page calls verify.crosscap_page_valid on a tiny page, so a
    verifier change that slows small probes shows here.  The set repeats
    under CROSSCAP_RELABELLINGS relabellings per pass: K_10's node count
    moves about +-5% between relabellings.
certify
    Construct, serialize, parse and verify (and render, for small r)
    relaxed_complete layouts up to r = 128, odd_extension, and the
    strict_literal defect reports (exactly r-1 duplicated and r-1
    missing edges); octahedron_pages are verified in memory.  Two
    invalid layouts must be rejected as well: relaxed_complete with its
    antipodal chords on a disk page (one crossing pair), and a cross-cap
    page that no drawing can route, so a verifier fast path that wrongly
    accepts fails an operation.  This is the verifier on few, huge
    inputs with certificate writes beside reads, and no search: the
    bypass workload for engine work.

The seed picks a vertex relabelling, applied to the graph, the spine
order and any pinned pages alike.  Seed 0 with relabelling index 0 is
the identity, which reproduces the instances in results/journal.jsonl.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from time import perf_counter

import oracle

WORKLOADS = ("strict_proofs", "crosscap_search", "certify")

# Relabellings per pass: enough that a pass's work varies little from seed to seed.
STRICT_RELABELLINGS = 3
CROSSCAP_RELABELLINGS = 2
SEARCH_TIME_LIMIT = 60.0  # seconds; an abort counts as a failed operation
RENDER_MAX_R = 8
ORACLE_MAX_R = 32  # brute-force check of certify layouts up to this r

# Certify r ranges, scaled down from 2..128 (about 55 s) to about 2 s a pass.
CERTIFY_FULL = {
    "relaxed": (2, 3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128),
    "odd": (2, 3, 4, 8, 16, 32, 64),
    "octahedron": (2, 3, 4, 8, 16, 32, 64, 128),
    "literal": (3, 4, 5, 8, 16, 32, 64),
    "crossing": (3, 8, 32, 96),
    "unroutable": (3,),
}
CERTIFY_TINY = {"relaxed": (2, 3, 4), "odd": (2, 3), "octahedron": (2, 3, 4), "literal": (3, 4),
                "crossing": (3,), "unroutable": (3,)}
UNROUTABLE_CAP = ((1, 3), (2, 5), (4, 6))  # (1,3) and (4,6) both cross (2,5), not each other


def permutation(n: int, seed: int, index: int) -> tuple[int, ...] | None:
    """perm[v] is the new label of vertex v (perm[0] unused); None is the identity."""
    if seed == 0 and index == 0:
        return None
    labels = list(range(1, n + 1))
    random.Random(f"perfbench:{seed}:{index}:{n}").shuffle(labels)
    return (0, *labels)


def _relabel_edges(sb, edges, perm):
    if perm is None:
        return tuple(sorted(edges))
    return tuple(sorted(sb.model.edge(perm[u], perm[v]) for u, v in edges))


def relabel_layout(sb, layout, perm):
    if perm is None:
        return layout
    m = sb.model
    graph = m.SimpleGraph(layout.graph.n, frozenset(_relabel_edges(sb, layout.graph.edges, perm)))
    order = m.CircularOrder(tuple(perm[v] for v in layout.order.seq))
    pages = tuple(m.Page(p.kind, _relabel_edges(sb, p.edges, perm)) for p in layout.pages)
    return m.BookLayout(graph, order, pages)


def plain_pages(layout):
    return [(p.kind.value, tuple(sorted(p.edges))) for p in layout.pages]


def main_stars(r: int):
    """The r main stars of the literal strict construction: star i has
    leaves i+1 .. i+r, read cyclically on 1..2r."""
    n = 2 * r
    return [[(i, (i + t - 1) % n + 1) for t in range(1, r + 1)] for i in range(1, r + 1)]


@dataclass
class OpResult:
    name: str
    verdict: str
    nodes: int = 0
    digest: str | None = None
    layout: object = None   # the layout the program returned
    checked: object = None  # certify: the layout read back from its certificate
    report: object = None   # certify: the VerificationReport of `checked`
    svg: str | None = None


class Runner:
    """Issues the calls of one pass and times each call into starbook.

    `seconds` sums the time spent inside starbook calls only; benchmark
    glue (relabelling, checking) and the calibration sampler's handler
    are outside it.
    """

    def __init__(self, sb, tracer, journal_path, sampler=None):
        self.sb = sb
        self.tracer = tracer
        self.journal_path = journal_path
        self.sampler = sampler
        self.seconds = 0.0
        self.counts = {"search.nodes": 0, "search.max_depth": 0, "construct.edges": 0,
                       "certs.bytes": 0, "verify.edges": 0, "journal.records": 0}
        self.written = []  # (outcome, nodes, digest) of each journal record appended

    def call(self, span: str, fn, *args, **kwargs):
        busy = self.sampler.busy if self.sampler else 0.0
        start = perf_counter()
        try:
            if self.tracer is None:
                return fn(*args, **kwargs)
            return self.tracer.run(span, fn, *args, **kwargs)
        finally:
            self.seconds += perf_counter() - start
            if self.sampler:
                self.seconds -= self.sampler.busy - busy

    def journal(self, **fields):
        record = self.sb.journal.JournalRecord(
            timestamp=self.sb.journal.JournalRecord.now_timestamp(), **fields)
        self.call("journal.append", self.sb.journal.append_record, self.journal_path, record)
        self.counts["journal.records"] += 1
        self.written.append((record.outcome, record.nodes, record.certificate_digest))


@dataclass
class SearchCase:
    """One solve() call, journaled as `starbook search` journals it."""

    case: str
    name: str
    problem: object
    policy: str

    def run(self, rn: Runner) -> OpResult:
        sb, p = rn.sb, self.problem
        outcome = rn.call("search", sb.search.solve, p)
        rn.counts["search.nodes"] += outcome.nodes
        rn.counts["search.max_depth"] = max(rn.counts["search.max_depth"], outcome.max_depth)
        digest = None
        if outcome.status == "sat":
            meta = {"family": "K", "n": p.graph.n, "scheme": "search",
                    "profile": p.profile.value, "budget": p.budget}
            digest = rn.call("certs.serialize", sb.certs.certificate_digest, outcome.layout, meta)
        rn.journal(family="K", params={"n": p.graph.n}, order_policy=self.policy,
                   profile=p.profile.value, budget=p.budget, outcome=outcome.status,
                   k_star=p.budget if outcome.status == "sat" else None,
                   nodes=outcome.nodes, wall_time=round(outcome.wall_time, 3),
                   certificate_digest=digest,
                   extra={"reason": outcome.reason} if outcome.reason else {})
        return OpResult(self.name, outcome.status, nodes=outcome.nodes, digest=digest,
                        layout=outcome.layout)

    def check(self, sb, result: OpResult, expected, deep: bool) -> list[str]:
        want = expected[self.case][0]
        problems = [] if result.verdict == want else [f"verdict {result.verdict}, expected {want}"]
        layout = result.layout
        if deep and layout is not None:
            p = self.problem
            problems += oracle.check_layout(p.graph.n, p.graph.edges, layout.order.seq,
                                            plain_pages(layout), p.profile.value, p.budget)
            report = sb.verify.verify_layout(layout, p.profile)
            problems += ["verify_layout: " + v.describe() for v in report.violations]
        return problems

    def probe(self, sb, tracer) -> None:
        """One node_limit=0 solve per spine order: the engine build cost."""
        p = self.problem
        if p.optimize_order:
            orders = list(sb.search.canonical_orders(p.graph.n))
        else:
            orders = [p.order]
        for order in orders:
            probe = dataclasses.replace(p, order=order, optimize_order=False, node_limit=0)
            tracer.run("search.engine_build", sb.search.solve, probe)


@dataclass
class CertifyCase:
    """construct -> serialize -> parse -> verify (-> render) for one layout."""

    name: str
    scheme: str
    r: int
    perm: tuple | None

    def build(self, rn: Runner):
        sb = rn.sb
        c = sb.construct
        if self.scheme == "relaxed":
            return relabel_layout(sb, rn.call("construct", c.relaxed_complete, self.r), self.perm)
        if self.scheme == "odd":
            base = relabel_layout(sb, rn.call("construct", c.relaxed_complete, self.r), self.perm)
            return rn.call("construct", c.odd_extension, base)
        if self.scheme == "octahedron":
            return relabel_layout(sb, rn.call("construct", c.octahedron_pages, self.r), self.perm)
        if self.scheme == "crossing":
            # The antipodal chords drawn on a disk page instead of the cross-cap.
            layout = relabel_layout(sb, rn.call("construct", c.relaxed_complete, self.r), self.perm)
            pages = tuple(sb.model.disk_page(p.edges) for p in layout.pages)
            return sb.model.BookLayout(layout.graph, layout.order, pages)
        if self.scheme == "unroutable":
            # One edge per disk page, and a cross-cap page no drawing can route.
            m, graph = sb.model, c.complete_graph(2 * self.r)
            pages = [m.disk_page([e]) for e in sorted(graph.edges - set(UNROUTABLE_CAP))]
            pages.append(m.crosscap_page(UNROUTABLE_CAP))
            layout = m.BookLayout(graph, m.identity_order(2 * self.r), tuple(pages))
            return relabel_layout(sb, layout, self.perm)
        return relabel_layout(sb, rn.call("construct", c.strict_literal, self.r), self.perm)

    @property
    def profile(self) -> str:
        return "relaxed" if self.scheme in ("relaxed", "odd", "unroutable") else "strict"

    @property
    def defects(self) -> dict | None:
        """The violation kinds the verifier must report, or None for a valid layout."""
        if self.scheme == "literal":
            return {"duplicate_edge": self.r - 1, "missing_edge": self.r - 1}
        if self.scheme == "crossing":
            return {"crossing_pair": 1}
        if self.scheme == "unroutable":
            return {"crosscap_unroutable": 1}
        return None

    def run(self, rn: Runner) -> OpResult:
        sb = rn.sb
        layout = self.build(rn)
        rn.counts["construct.edges"] += layout.graph.m
        checked = layout
        text = None
        if self.scheme != "octahedron":
            meta = {"family": "K", "scheme": self.scheme, "n": layout.graph.n, "r": self.r}
            text = rn.call("certs.serialize", sb.certs.serialize_layout, layout, meta)
            rn.counts["certs.bytes"] += len(text)
            checked, _meta = rn.call("certs.parse", sb.certs.parse_certificate, text)
        report = rn.call("verify.layout", sb.verify.verify_layout, checked,
                         sb.verify.Profile(self.profile))
        rn.counts["verify.edges"] += sum(len(p) for p in checked.pages)
        svg = None
        if report.passed and self.r <= RENDER_MAX_R:
            svg = rn.call("render.svg", sb.render.render_svg, checked)
        digest = hashlib.sha256(text.encode()).hexdigest() if text else None
        if report.passed:
            rn.journal(family="O" if self.scheme == "octahedron" else "K",
                       params={"n": layout.graph.n, "r": self.r}, order_policy="given",
                       profile=self.profile, budget=len(layout.pages), outcome="sat",
                       certificate_digest=digest, extra={"scheme": self.scheme})
        return OpResult(self.name, "pass" if report.passed else "defect", digest=digest,
                        layout=layout, checked=checked, report=report, svg=svg)

    def expected_pages(self) -> int:
        n = 2 * self.r
        return {"relaxed": self.r + 1, "odd": self.r + 2, "octahedron": self.r,
                "literal": self.r + 2, "crossing": self.r + 1,
                "unroutable": n * (n - 1) // 2 - len(UNROUTABLE_CAP) + 1}[self.scheme]

    def check(self, sb, result: OpResult, expected, deep: bool) -> list[str]:
        layout, checked, report = result.layout, result.checked, result.report
        problems = []
        if checked is not layout and (checked.order.seq != layout.order.seq
                                      or plain_pages(checked) != plain_pages(layout)
                                      or checked.graph.edges != layout.graph.edges):
            problems.append("parsed certificate differs from the serialized layout")
        if len(layout.pages) != self.expected_pages():
            problems.append(f"{len(layout.pages)} pages, expected {self.expected_pages()}")
        kinds = dict(report.kinds())
        if self.defects is None and not report.passed:
            problems.append(f"verification failed: {kinds}")
        elif self.defects is not None and kinds != self.defects:
            problems.append(f"defect report {kinds}, expected {self.defects}")
        if (self.scheme in ("crossing", "unroutable")
                and [v.page for v in report.violations] != [len(layout.pages) - 1]):
            problems.append("the defect is not reported on the last page")
        if result.svg is not None and result.svg.count('<g id="page-') != len(layout.pages):
            problems.append("SVG does not draw every page")
        if deep and self.r <= ORACLE_MAX_R:
            g = layout.graph
            pages = plain_pages(layout)
            found = oracle.check_layout(g.n, g.edges, layout.order.seq, pages, self.profile)
            last = len(layout.pages)
            want = {"literal": [f"{self.r - 1} duplicated edges", f"{self.r - 1} missing edges"],
                    "crossing": [f"disk page {last} has crossing chords"],
                    "unroutable": [f"cross-cap page {last} cannot route its crossing chords"],
                    }.get(self.scheme, [])
            if found != want:
                problems.append(f"oracle found {found}, expected {want}")
        return problems

    def probe(self, sb, tracer) -> None:
        """Each page of the layout through the public page checks."""
        rn = Runner(sb, None, None)
        layout = self.build(rn)
        for page in layout.pages:
            if page.kind is sb.model.PageKind.DISK:
                span, check = "verify.disk_page", sb.verify.disk_page_valid
            else:
                span, check = "verify.crosscap_page", sb.verify.crosscap_page_valid
            tracer.run(span, check, layout.order, page)


def _search_case(sb, case, n, budget, profile, relabelling, seed, *, optimize=False,
                 crosscap=False, fixed=()):
    perm = permutation(n, seed, relabelling)
    order = None
    policy = "optimize" if optimize else "none"
    if not optimize and profile != "saonly":
        seq = tuple(range(1, n + 1)) if perm is None else tuple(perm[1:])
        order = sb.model.CircularOrder(seq)
        policy = "identity" if perm is None else "given"
    problem = sb.search.SearchProblem(
        graph=sb.construct.complete_graph(n), budget=budget, profile=profile, order=order,
        crosscap_allowed=crosscap, optimize_order=optimize, time_limit=SEARCH_TIME_LIMIT,
        fixed_pages=tuple(_relabel_edges(sb, page, perm) for page in fixed))
    return SearchCase(case, f"{case}@{relabelling}", problem, policy)


def build_cases(sb, workload: str, seed: int, tiny: bool = False) -> list:
    """The operations of one pass, in the order they run."""
    if workload == "strict_proofs":
        cases = []
        for i in range(1 if tiny else STRICT_RELABELLINGS):
            def add(case, n, budget, profile="strict", **kw):
                cases.append(_search_case(sb, case, n, budget, profile, i, seed, **kw))
            if tiny:
                add("K5/strict/b3/all-orders", 5, 3, optimize=True)
                add("K6/strict/b5", 6, 5)
                add("K8/strict/b6/fixed-mains", 8, 6, fixed=main_stars(4))
                add("K6/saonly/b3", 6, 3, "saonly")
                continue
            add("K6/strict/b4/all-orders", 6, 4, optimize=True)
            add("K7/strict/b5", 7, 5)
            add("K9/strict/b6", 9, 6)
            for r in (4, 5, 6):
                add(f"K{2 * r}/strict/b{r + 2}/fixed-mains", 2 * r, r + 2, fixed=main_stars(r))
            add("K7/saonly/b4", 7, 4, "saonly")
        return cases
    if workload == "crosscap_search":
        grid = ((6, 3), (6, 4)) if tiny else ((6, 3), (6, 4), (8, 4), (8, 5), (9, 5), (10, 6))
        return [_search_case(sb, f"K{n}/crosscap/b{b}", n, b, "relaxed", i, seed, crosscap=True)
                for i in range(1 if tiny else CROSSCAP_RELABELLINGS) for n, b in grid]
    if workload == "certify":
        cases = []
        for scheme, rs in (CERTIFY_TINY if tiny else CERTIFY_FULL).items():
            for r in rs:
                cases.append(CertifyCase(f"{scheme}/r{r}", scheme, r, permutation(2 * r, seed, 0)))
        return cases
    raise ValueError(f"unknown workload {workload!r}")
