"""Traced run: the per-layer split, from spans around calls into each module.

The spans are placed in this file, around calls into the public functions of
``enumerate``, ``core``, ``voidposet``, ``solver``, ``partitions`` and ``cli``;
nothing inside the program is instrumented.  A span is (name, start, end,
parent).  Spans stay in memory and are written to
``.bench_out/trace-<workload>.json`` at the end.

Where one public call runs another layer inside it (``solve`` builds a
``VoidPoset`` and sizes every associated set; ``cli.main`` parses, solves and
renders), its self time is its span minus the spans of the calls it makes,
measured here on the same input.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import tracemalloc
from pathlib import Path

from measure import Tally, analyze_argv
from workloads import Workload, load_scan_golden

OVERHEAD_CHUNK = 32  # semigroups per traced or untraced half


class Tracer:
    """Spans kept in memory; each is [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, phase: str) -> list[float]:
        """Durations of the spans called name directly under a span called phase."""
        return [end - start for n, start, end, parent in self.spans
                if n == name and parent >= 0 and self.spans[parent][0] == phase]

    def total(self, name: str, phase: str) -> float:
        return sum(self.durations(name, phase))

    def write(self, path: Path, header: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(header, span_fields=["name", "start_s", "end_s", "parent"],
                   spans=[[n, s - origin, e - origin, p] for n, s, e, p in self.spans])
        path.parent.mkdir(exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def run(work: Workload, tracer: Tracer) -> tuple[dict, Tally]:
    """Measure the per-layer metrics; returns (metrics, tally)."""
    from antiatom import (NumericalSemigroup, VoidPoset, is_lambda_minimal,
                          semigroups_by_frobenius, semigroups_by_genus,
                          size_via_gap_count, solve)
    from antiatom import cli
    from antiatom.enumerate import EnumerationQuery, scan_minimality

    scale = work.scale
    tally = Tally()
    span = tracer.span
    m: dict[str, float] = {}

    # enumeration probes: the genus tree and the Frobenius recursion
    with span("probe"):
        with span("enumerate.semigroups_by_genus") as s_tree:
            tree = list(semigroups_by_genus(scale.genus))
        with span("enumerate.semigroups_by_frobenius") as s_frob:
            frob = list(semigroups_by_frobenius(scale.frobenius))
    for (mode, bound), count in {("genus", scale.genus): len(tree),
                                 ("frobenius", scale.frobenius): len(frob)}.items():
        total = load_scan_golden(mode, bound)["total"]
        tally.record(f"{mode} {bound} probe count",
                     None if count == total else f"{count} semigroups, expected {total}")
    del tree, frob
    tracemalloc.start()
    try:
        for _ in semigroups_by_genus(scale.genus):
            pass
        m["enumerate.tree_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    m["enumerate.tree_s"] = s_tree[2] - s_tree[1]
    m["enumerate.frobenius_s"] = s_frob[2] - s_frob[1]

    # the scan: untraced with one and two workers, then traced call by call
    bound = work.scan_bound
    query = EnumerationQuery(mode="frobenius", bound=bound, only=bound)
    results = []
    for name, workers in (("enumerate.scan_s", 1), ("enumerate.scan_2w_s", 2)):
        start = time.perf_counter()
        result = scan_minimality(query, workers=workers)
        m[name] = time.perf_counter() - start
        results.append(result)
        tally.record(f"scan_minimality workers={workers}", work.check_scan_result(
            result.total, result.buckets[0].count, [list(g) for g in result.non_minimal]))
    tally.record("scan_minimality identical for 1 and 2 workers",
                 None if results[0] == results[1] else "results differ")

    # The same calls again, with spans and without, alternating in chunks so
    # both halves run under the same load; the difference is the tracing overhead.
    verdicts = []

    def untraced(chunk):
        for gaps in chunk:
            is_lambda_minimal(NumericalSemigroup(gaps))

    def traced(chunk):
        for gaps in chunk:
            with span("core.construct"):
                s = NumericalSemigroup(gaps)
            with span("solver.is_lambda_minimal"):
                verdicts.append(is_lambda_minimal(s))

    elapsed = {untraced: 0.0, traced: 0.0}
    with span("scan"):
        with span("enumerate.generate"):
            gap_lists = [s.gaps for s in semigroups_by_frobenius(bound)]
        for n, i in enumerate(range(0, len(gap_lists), OVERHEAD_CHUNK)):
            chunk = gap_lists[i:i + OVERHEAD_CHUNK]
            for half in ((traced, untraced) if n % 2 else (untraced, traced)):
                start = time.perf_counter()
                half(chunk)
                elapsed[half] += time.perf_counter() - start
    bad = [list(g) for g, ok in zip(gap_lists, verdicts) if not ok]
    tally.record("traced scan", work.check_scan_result(len(gap_lists), len(gap_lists), bad))
    minimal_times = tracer.durations("solver.is_lambda_minimal", "scan")
    m["enumerate.parallel_efficiency"] = m["enumerate.scan_s"] / (2 * m["enumerate.scan_2w_s"])
    m["enumerate.self_s"] = tracer.total("enumerate.generate", "scan")
    m["trace.overhead_s"] = elapsed[traced] - elapsed[untraced]
    m["solver.is_lambda_minimal_s"] = sum(minimal_times)
    m["solver.max_share"] = max(minimal_times) / sum(minimal_times)

    # every layer, call by call, over the workload's semigroups
    sampled = set(work.sample)
    inner: dict[tuple[int, ...], float] = {}  # layer calls cli.main makes, per input
    solver_self = 0.0
    ideals = associated = non_minimal = 0
    with span("layers"):
        for gaps in work.semigroups:
            with span("core.construct") as c:
                s = NumericalSemigroup(gaps)
            with span("core.derived"):
                _ = (s.void, s.special_gaps, s.pseudo_frobenius)
            with span("voidposet.build") as b:
                poset = VoidPoset(s)
            with span("voidposet.order_ideals"):
                count = sum(1 for _ in poset.order_ideals())
            with span("solver.solve") as v:
                solution = solve(s)
            ideals += count
            associated += solution.pa
            non_minimal += not solution.lambda_minimal
            tally.record(f"solve {gaps}", _check_solution(work, gaps, solution, count))
            if gaps not in sampled:
                continue
            sizes = sorted(solution.sizes)
            sets = [s.union(r.ideal) for r in solution.reports]
            del solution
            with span("partitions.size_via_gap_count") as p:
                got = [size_via_gap_count(t) for t in sets]
            del sets
            tally.record(f"sizes {gaps}",
                         None if sorted(got) == sizes else "sizes differ from solve")
            solve_s, build_s = v[2] - v[1], b[2] - b[1]
            solver_self += solve_s - build_s - (p[2] - p[1])
            inner[gaps] = c[2] - c[1] + build_s + solve_s

    # the CLI, in-process, on the analyze sample
    stdout_bytes = 0
    cli_self = 0.0
    with span("cli"):
        for gaps in work.sample:
            buf = io.StringIO()
            with span("cli.main") as c, contextlib.redirect_stdout(buf):
                rc = cli.main(analyze_argv(gaps))
            out = buf.getvalue()
            stdout_bytes += len(out.encode())
            cli_self += c[2] - c[1] - inner[gaps]
            tally.record(f"cli.main analyze {gaps}", work.check_analyze(gaps, rc, out))

    for problem in _invariants(work, ideals, associated):
        tally.record("invariant", problem)

    m["enumerate.semigroups"] = len(work.semigroups)
    m["core.construct_s"] = tracer.total("core.construct", "layers")
    m["core.derived_s"] = tracer.total("core.derived", "layers")
    m["core.self_s"] = m["core.construct_s"] + m["core.derived_s"]
    m["voidposet.build_s"] = tracer.total("voidposet.build", "layers")
    m["voidposet.order_ideals_s"] = tracer.total("voidposet.order_ideals", "layers")
    m["voidposet.ideals"] = ideals
    m["voidposet.self_s"] = m["voidposet.build_s"] + m["voidposet.order_ideals_s"]
    m["solver.solve_s"] = tracer.total("solver.solve", "layers")
    m["solver.us_per_ideal"] = m["solver.solve_s"] / ideals * 1e6
    m["solver.associated"] = associated
    m["solver.associated_ratio"] = associated / ideals
    m["solver.non_minimal"] = non_minimal
    m["solver.self_s"] = solver_self
    m["partitions.size_s"] = tracer.total("partitions.size_via_gap_count", "layers")
    m["partitions.self_s"] = m["partitions.size_s"]
    m["cli.self_s"] = cli_self
    m["cli.stdout_bytes"] = stdout_bytes
    return m, tally


def _check_solution(work: Workload, gaps, solution, ideals: int) -> str | None:
    want = work.expected.get(gaps)
    if want is None:
        return "no golden entry"
    got = (solution.pa, solution.min_size, solution.lambda_minimal)
    expected = (want["pa"], want["min_size"], want["lambda_minimal"])
    if got != expected:
        return f"(pa, min_size, lambda_minimal) = {got}, expected {expected}"
    if ideals != work.costs[gaps]:
        return f"{ideals} up-closed subsets, expected {work.costs[gaps]}"
    return None


def _invariants(work: Workload, ideals: int, associated: int):
    yield (None if associated <= ideals
           else f"{associated} associated sets exceed {ideals} up-closed subsets")
    if work.name == "frobenius-scan":
        # every numerical set with Frobenius number F has one atom monoid,
        # and there are 2^(F-1) of them
        expected = 2 ** (work.scan_bound - 1)
        yield (None if associated == expected
               else f"sum of Pa is {associated}, expected 2^(F-1) = {expected}")
