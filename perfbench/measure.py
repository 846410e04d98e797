"""End-to-end measurement, untraced: the CLI driven the way users drive it.

Scans run as ``python -m antiatom scan ...`` in a fresh process, once with
one worker and once with ``--threads 2``.  Analyze calls run in-process in a
runner (runner.py) that calls ``antiatom.cli.main`` one call at a time; the
two-worker batch uses two runners fed longest call first.

One cycle starts a few fresh interpreters (set-up time), runs the analyze
calls once with one runner, and runs the workload's one-worker and two-worker
jobs.  Cycles repeat, and each step runs again while its last duration still
fits in the run's seconds.

For the whole measurement each CPU also runs one companion (probe.py) that
repeats the speed probe back to back.  Every job is pinned, and so shares
each of its CPUs with exactly one companion, which sees the same slow phases
as the job.  A job's time is scaled by the probes that overlapped it on its
CPUs: an analyze call's CPU time, or a process's wall time halved, since the
process had half of each CPU it ran on.
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import probe
from workloads import Workload

SETUP_RUNS = 4  # per repetition
SHARE = 2  # a process job has 1/SHARE of each CPU: the rest is its companion's
SETUP_CODE = "import antiatom.cli as c; c.build_parser()"
POLL_S = 0.02
DEADLINE_S = 170.0


class Tally:
    """Invocations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {problem}")


class Children:
    """The benchmark's child processes: killed and reaped on exit, or at the
    deadline if the program hangs."""

    def __init__(self, deadline_s: float):
        self._procs: list[subprocess.Popen] = []
        self._lock = threading.Lock()
        self._timer = threading.Timer(deadline_s, self.kill_all)
        self._timer.daemon = True

    def __enter__(self) -> "Children":
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self._timer.cancel()
        self.kill_all()

    def spawn(self, args: list[str], cpus: set[int], **kwargs) -> subprocess.Popen:
        """Start a child and pin it to cpus; its pool workers inherit that."""
        with self._lock:
            proc = subprocess.Popen(args, **kwargs)
            self._procs.append(proc)
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except ProcessLookupError:  # already exited
            pass
        return proc

    def kill_all(self) -> None:
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def _hwm_kib(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return None


def _children_of(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [int(p) for p in fh.read().split()]
    except (OSError, ValueError):
        return []


class PeakRss:
    """Sum over a process and its pool workers of each one's peak resident set.

    Polls VmHWM, the kernel's per-process high-water mark, so a peak between
    two polls is still seen; only growth in a process's last poll interval
    before it exits can be missed.
    """

    def __init__(self, pid: int):
        self._pid = pid
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _poll(self) -> None:
        while True:
            for pid in [self._pid, *_children_of(self._pid)]:
                kib = _hwm_kib(pid)
                if kib is not None and kib > self._peaks.get(pid, 0):
                    self._peaks[pid] = kib
            if self._stop.wait(POLL_S):
                return

    @property
    def kib(self) -> int:
        return sum(self._peaks.values())


@dataclass
class Span:
    """Work timed on the monotonic clock, to be scaled by the probes that
    overlapped it on its CPUs."""

    seconds: float  # CPU time of a call, or wall time of a process job / SHARE
    cpus: tuple[int, ...]
    start: float
    end: float


class Companions:
    """One probe process per CPU, running for the whole measurement."""

    def __init__(self, children: Children, root: Path, cpus: set[int]):
        self._procs = {cpu: children.spawn(
            [sys.executable, str(root / "perfbench" / "probe.py")], cpus={cpu},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) for cpu in sorted(cpus)}
        for proc in self._procs.values():
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError(f"probe companion exited with code {proc.wait()}")
        self._records: dict[int, list[list[float]]] = {}

    def stop(self) -> None:
        for proc in self._procs.values():
            proc.stdin.write("stop\n")
            proc.stdin.flush()
        for cpu, proc in self._procs.items():
            self._records[cpu] = json.loads(proc.stdout.readline())
            proc.wait()

    def scaled(self, span: Span) -> float:
        """The span's seconds at the reference speed."""
        cpu_s = [cpu_s for cpu in span.cpus for start, end, cpu_s in self._records[cpu]
                 if end > span.start and start < span.end]
        return span.seconds * probe.REFERENCE_S * len(cpu_s) / sum(cpu_s)

    def probes(self) -> int:
        return sum(map(len, self._records.values()))


def program_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def cpu_lanes() -> list[int]:
    """The two CPUs the jobs run on.  On a 1-CPU machine it is the same one
    twice, and the two-worker times are not comparable."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus * 2)[:2]


def process_span(start: float, cpus: list[int]) -> Span:
    """A process job from start until now, which had 1/SHARE of its CPUs."""
    end = time.monotonic()
    return Span((end - start) / SHARE, tuple(sorted(set(cpus))), start, end)


def setup_spans(children: Children, env: dict, tally: Tally, runs: int,
                cpu: int) -> list[Span]:
    """Times from a fresh interpreter to antiatom imported and its parser built."""
    spans = []
    for _ in range(runs):
        start = time.monotonic()
        proc = children.spawn([sys.executable, "-c", SETUP_CODE], env=env, cpus={cpu})
        rc = proc.wait()
        spans.append(process_span(start, [cpu]))
        tally.record("setup", None if rc == 0 else f"exit code {rc}")
    return spans


def run_scan(children: Children, env: dict, argv: list[str],
             cpus: list[int]) -> tuple[int, bytes, int, Span]:
    """Exit code, stdout, peak footprint in KiB and span of one scan."""
    start = time.monotonic()
    proc = children.spawn([sys.executable, "-m", "antiatom", *argv], env=env,
                          stdout=subprocess.PIPE, cpus=set(cpus))
    with PeakRss(proc.pid) as rss:
        out, _ = proc.communicate()
    return proc.returncode, out, rss.kib, process_span(start, cpus)


class Runner:
    """One runner.py process serving analyze calls, pinned to one CPU."""

    def __init__(self, children: Children, env: dict, root: Path, cpu: int):
        self.cpu = cpu
        self._proc = children.spawn(
            [sys.executable, str(root / "perfbench" / "runner.py")], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cpus={cpu})
        imported = Path(self._read()["antiatom"]).resolve()
        if not imported.is_relative_to((root / "src").resolve()):
            raise RuntimeError(f"runner imported antiatom from {imported}")

    def call(self, argv: list[str]) -> dict:
        self._proc.stdin.write(json.dumps(argv) + "\n")
        self._proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """End the runner; returns its peak resident set in KiB."""
        self._proc.stdin.close()
        peak = self._read()["peak_kib"]
        self._proc.wait()
        return peak

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"runner exited with code {self._proc.wait()}")
        return json.loads(line)


def analyze_argv(gaps: tuple[int, ...]) -> list[str]:
    return ["analyze", "--gaps", ",".join(map(str, gaps)), "--json"]


@dataclass
class Batch:
    replies: dict      # gaps -> the runner's reply
    calls: dict        # gaps -> Span of the call's CPU time inside its runner
    wall: list[Span]   # spans whose scaled sum is the batch's time
    peak_kib: int


def run_batch(children: Children, env: dict, root: Path,
              order: list[tuple[int, ...]], lanes: list[int]) -> Batch:
    """Analyze calls in the given order, one runner per lane, each runner
    taking the next call when its previous one is done.

    One runner's batch time is the sum of its calls' CPU times; two
    runners' is from the first call sent to the last reply.
    """
    runners = [Runner(children, env, root, cpu) for cpu in lanes]
    queue = deque(order)
    replies: dict[tuple[int, ...], dict] = {}
    calls: dict[tuple[int, ...], Span] = {}

    def serve(runner: Runner) -> None:
        while True:
            try:
                gaps = queue.popleft()
            except IndexError:
                return
            reply = replies[gaps] = runner.call(analyze_argv(gaps))
            calls[gaps] = Span(reply["cpu_ms"] / 1e3, (runner.cpu,),
                               reply["start"], reply["end"])

    start = time.monotonic()
    with ThreadPoolExecutor(len(runners)) as pool:
        list(pool.map(serve, runners))
    wall = [process_span(start, lanes)] if len(runners) > 1 else list(calls.values())
    return Batch(replies, calls, wall, sum(r.close() for r in runners))


def run(work: Workload, root: Path, seconds: float, started: float) -> tuple[dict, Tally, dict]:
    """Measure the end-to-end metrics; returns (metrics, tally, notes)."""
    env = program_env(root)
    tally = Tally()
    lanes = cpu_lanes()
    latencies: dict[tuple[int, ...], list[Span]] = defaultdict(list)
    walls: list[list[Span]] = []
    walls_2w: list[list[Span]] = []
    setup: list[Span] = []
    peaks: list[int] = []
    scan_outputs: set[bytes] = set()

    def analyze(order: list[tuple[int, ...]], workers: int) -> list[Span]:
        batch = run_batch(children, env, root, order, lanes[:workers])
        for gaps in order:
            reply = batch.replies[gaps]
            tally.record(f"analyze {gaps}", work.check_analyze(gaps, reply["rc"], reply["out"]))
            if workers == 1:
                latencies[gaps].append(batch.calls[gaps])
        peaks.append(batch.peak_kib)
        return batch.wall

    def scan(workers: int) -> list[Span]:
        rc, out, peak_kib, span = run_scan(children, env, work.scan_argv(workers),
                                           lanes[:workers])
        tally.record(f"scan --threads {workers}", work.check_scan(rc, out))
        scan_outputs.add(out)
        peaks.append(peak_kib)
        return [span]

    # one cycle of measurements; each step runs again while its last
    # duration still fits in the run's seconds
    steps = [lambda: setup.extend(setup_spans(children, env, tally, SETUP_RUNS, lanes[0]))]
    if work.families:
        steps += [lambda: walls.append(analyze(work.sample, 1)),
                  lambda: walls_2w.append(analyze(work.longest_first(), 2))]
    else:
        steps += [lambda: analyze(work.sample, 1),
                  lambda: walls.append(scan(1)),
                  lambda: walls_2w.append(scan(2))]
    last: dict = {}
    with Children(DEADLINE_S - (time.perf_counter() - started)) as children:
        setup_spans(children, env, tally, 1, lanes[0])  # compiles bytecode; not counted
        companions = Companions(children, root, set(lanes))
        for step in itertools.cycle(steps):
            if step in last and time.perf_counter() - started + last[step] > seconds:
                break
            step_start = time.perf_counter()
            step()
            last[step] = time.perf_counter() - step_start
        companions.stop()
    if not work.families:
        tally.record("scan output identical for 1 and 2 workers",
                     None if len(scan_outputs) == 1 else "stdout differs")

    def summary(time_of) -> dict:
        per_call = [1e3 * statistics.fmean(map(time_of, v)) for v in latencies.values()]
        return {
            "setup_s": statistics.median(map(time_of, setup)),
            "wall_s": statistics.median(sum(map(time_of, w)) for w in walls),
            "wall_2w_s": statistics.median(sum(map(time_of, w)) for w in walls_2w),
            "analyze_p50_ms": statistics.median(per_call),
            "analyze_p95_ms": statistics.quantiles(per_call, n=20)[18],
        }

    metrics = dict(summary(companions.scaled), peak_rss_mb=max(peaks) / 1024)
    notes = {"repetitions": len(walls_2w), "analyze_calls": len(latencies),
             "analyze_repetitions": min(map(len, latencies.values())),
             "setup_runs": len(setup), "cpus": lanes, "probes": companions.probes(),
             "unscaled": summary(lambda span: span.seconds)}
    return metrics, tally, notes
