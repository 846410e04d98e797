"""Workload inputs, golden outputs and output checks for the antiatom benchmark.

Two workloads, each a set of numerical semigroups plus the CLI calls made on
them:

* ``frobenius-scan``   every semigroup with Frobenius number 17
  (``scan --frobenius 17 --only 17``)
* ``analyze-families`` the paper's staircase and interval_k semigroups

The scan is exhaustive, so the seed does not change it.  The seed picks
the ``analyze`` calls: the costliest semigroups by number of up-closed
subsets of the void always, and one semigroup from each of equal strata of
the rest.  Every seed therefore keeps the same heavy tail, which is what the
p95 latency measures.

Expected outputs come from ``golden/``, recorded by ``make_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass(frozen=True)
class Scale:
    genus: int             # genus of the tree probe in the traced run
    frobenius: int         # frobenius-scan bucket and the Frobenius probe
    families_probe: int    # Frobenius bucket scanned by analyze-families' trace
    staircase_m: int       # staircase(m, k, s) for m <= staircase_m ...
    staircase_top: int     # ... and k*m + s <= staircase_top
    interval_k: range      # interval_k(k, 1) for k in this range
    sample: int            # analyze calls per workload
    tail: int              # of which the costliest semigroups, always kept


FULL = Scale(genus=15, frobenius=17, families_probe=16, staircase_m=8,
             staircase_top=44, interval_k=range(4, 15), sample=200, tail=30)
SMOKE = Scale(genus=8, frobenius=10, families_probe=10, staircase_m=4,
              staircase_top=12, interval_k=range(4, 6), sample=16, tail=2)

WORKLOADS = ("frobenius-scan", "analyze-families")


class Workload:
    """The semigroups of one workload, its scan and its analyze calls."""

    def __init__(self, name: str, scale: Scale, seed: int):
        from antiatom import semigroups_by_frobenius

        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.scale = scale
        self.families = name == "analyze-families"
        # analyze never scans; its trace measures the scan layer on this bucket
        self.scan_bound = scale.families_probe if self.families else scale.frobenius
        self.scan_golden = load_scan_golden("frobenius", self.scan_bound)

        rng = random.Random(seed)
        if self.families:
            cases = family_cases(scale)
            golden = {tuple(c["gaps"]): c for c in load_json("families.json")["cases"]}
            pool = [gaps for _, gaps in cases]
            self.labels = {gaps: label for label, gaps in cases}
            self.expected = {gaps: golden.get(gaps) for gaps in pool}
        else:
            pool = sorted(s.gaps for s in semigroups_by_frobenius(self.scan_bound))
            self.labels = {}
            self.expected = expected_from_scan(pool, self.scan_golden)
        costs = {gaps: count_ideals(gaps) for gaps in pool}
        self.sample = pick_sample(pool, costs, scale.sample, scale.tail, rng)
        self.costs = costs
        # the semigroups the traced layer pass walks
        self.semigroups = self.sample if self.families else pool

    def scan_argv(self, threads: int) -> list[str]:
        bound = str(self.scan_bound)
        argv = ["scan", "--frobenius", bound, "--only", bound, "--json"]
        return argv + ["--threads", str(threads)] if threads > 1 else argv

    def longest_first(self) -> list[tuple[int, ...]]:
        """The sample in descending cost, the dispatch order for two workers."""
        return sorted(self.sample, key=lambda g: -self.costs[g])

    def check_analyze(self, gaps: tuple[int, ...], rc: int, out: str) -> str | None:
        """None if the ``analyze --json`` output for gaps is right, else why not."""
        if rc != 0:
            return f"exit code {rc}"
        want = self.expected.get(gaps)
        if want is None:
            return "no golden entry"
        try:
            doc = json.loads(out)
            sizes = doc["sizes"]
            checks = [
                ("gaps", doc["semigroup"]["gaps"], list(gaps)),
                ("pa", doc["pa"], want["pa"]),
                ("min_size", doc["min_size"], want["min_size"]),
                ("lambda_minimal", doc["lambda_minimal"], want["lambda_minimal"]),
                ("len(sizes)", len(sizes), want["pa"]),
                ("sizes[0]", sizes[0], want["min_size"]),
                ("sorted sizes", sizes, sorted(sizes)),
                ("minimality", doc["lambda_minimal"], doc["min_size"] == doc["lambda_size"]),
            ]
            if "witness_ideal" in want:
                checks.append(("witness_ideal", doc["witness_ideal"], want["witness_ideal"]))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        if self.labels.get(gaps, "").startswith("staircase") and not doc["lambda_minimal"]:
            return "staircase semigroup reported not lambda-minimal"
        for what, got, expected in checks:
            if got != expected:
                return f"{what}: got {got!r}, expected {expected!r}"
        return None

    def check_scan(self, rc: int, out: bytes) -> str | None:
        """None if the ``scan --json`` output is right, else why not."""
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = json.loads(out)
            got = (doc["total"], doc["buckets"][0]["count"], doc["non_minimal"])
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        return self.check_scan_result(*got)

    def check_scan_result(self, total: int, bucket_count: int,
                          non_minimal: list[list[int]]) -> str | None:
        golden = self.scan_golden
        if total != golden["total"] or bucket_count != golden["total"]:
            return f"total {total}/{bucket_count}, expected {golden['total']}"
        if non_minimal != golden["non_minimal"]:
            return f"non-minimal list differs from golden ({len(non_minimal)} entries)"
        return None


def load_json(name: str) -> dict:
    with open(GOLDEN / name, encoding="utf-8") as fh:
        return json.load(fh)


def load_scan_golden(mode: str, bound: int) -> dict:
    return load_json(f"{mode}-{bound}.json")


def gaps_digest(pool: list[tuple[int, ...]]) -> str:
    """Digest of a bucket's sorted gap lists, to tie golden arrays to it."""
    text = "\n".join(",".join(map(str, gaps)) for gaps in pool)
    return hashlib.sha256(text.encode()).hexdigest()


def expected_from_scan(pool: list[tuple[int, ...]], golden: dict) -> dict:
    """Per-semigroup golden Pa and minimum size, keyed by gap tuple.

    The golden arrays follow the bucket's sorted gap lists; if the program
    enumerates a different bucket the digest differs and nothing is expected,
    so every analyze check on it fails.
    """
    if gaps_digest(pool) != golden["gaps_sha256"]:
        return {}
    bad = {tuple(g) for g in golden["non_minimal"]}
    return {gaps: {"pa": pa, "min_size": m, "lambda_minimal": gaps not in bad}
            for gaps, pa, m in zip(pool, golden["pa"], golden["min_size"])}


def family_cases(scale: Scale) -> list[tuple[str, tuple[int, ...]]]:
    """(label, gaps) for the staircase and interval_k semigroups of the paper."""
    from antiatom.families import interval_k, staircase

    cases = []
    for m in range(2, scale.staircase_m + 1):
        for s in range(1, m):
            for k in range(1, (scale.staircase_top - s) // m + 1):
                cases.append((f"staircase {m},{k},{s}", staircase(m, k, s).semigroup.gaps))
    for k in scale.interval_k:
        cases.append((f"interval_k {k}", interval_k(k, 1).semigroup.gaps))
    return cases


def count_ideals(gaps: tuple[int, ...]) -> int:
    """Number of up-closed subsets of the void, counted as antichains.

    Independent of the program: x <= y in the void iff y - x is not a gap.
    Up-closed subsets and antichains are in bijection (take the minimal
    elements), and the antichains of P split into those avoiding the least
    element x and those containing it, which avoid everything comparable
    to x.
    """
    gap_set = set(gaps)
    frobenius = max(gaps, default=-1)
    void = [x for x in gaps if frobenius - x in gap_set]
    comparable = [0] * len(void)
    for i, x in enumerate(void):
        for j in range(i + 1, len(void)):
            if void[j] - x not in gap_set:
                comparable[i] |= 1 << j
                comparable[j] |= 1 << i
    memo = {0: 1}

    def antichains(mask: int) -> int:
        if mask not in memo:
            low = mask & -mask
            rest = mask ^ low
            memo[mask] = (antichains(rest)
                          + antichains(rest & ~comparable[low.bit_length() - 1]))
        return memo[mask]

    return antichains((1 << len(void)) - 1)


def pick_sample(pool: list[tuple[int, ...]], costs: dict, n: int, tail: int,
                rng: random.Random) -> list[tuple[int, ...]]:
    """The `tail` costliest semigroups plus one seeded pick from each of
    n - tail equal strata of the rest by cost, in seeded order."""
    order = sorted(pool, key=lambda g: (costs[g], g))
    heavy, rest = order[len(order) - tail:], order[:len(order) - tail]
    strata = n - tail
    if len(rest) < strata:
        raise ValueError(f"{len(pool)} semigroups cannot fill a sample of {n}")
    picks = [rest[rng.randrange(j * len(rest) // strata, (j + 1) * len(rest) // strata)]
             for j in range(strata)]
    sample = heavy + picks
    rng.shuffle(sample)
    return sample
