"""homcount benchmark: one closed-loop client per workload, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a homcount checkout.  The run sets up the workload
(several times, reporting the median, when untraced), then issues the
workload's fixed list of ops one after another: a prologue and a fixed
number of rounds.  Untraced, it makes passes over that list until S seconds
of op time have passed, and at least the workload's minimum (ops over a
second long run in the first pass only); an op's time is the median of its
passes.  Every timed step is scaled to the machine's full speed with a
reference work run just before and after it (see Speedometer).
Each op is checked against a reference after the clock stops.  The last
line of stdout is one JSON object: correct, attempted, failed and metrics
(end-to-end metrics untraced; per-layer metrics with --trace 1).  The line
before it reports the output digest, the op_tail percentile with its sample
count, the ROADMAP baseline calls and any known crashes.  See DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int,
                   help="run this many rounds in one pass after one set-up (the "
                        "untraced reference a traced run compares itself with)")
    return p.parse_args(argv)


def tail(times):
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are <= 10."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_time() -> float:
    """CPU seconds (user + system) of this process and its waited-for children.

    Op and set-up times are CPU time, not wall time.  The client is single
    threaded and CPU bound, so the two differ only by time the process was
    not running.  On the virtual reference machine that time includes steal
    time, which took about a tenth of a busy core in one 20 s sample."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


REFERENCE_S = 0.002  # CPU time of one reference run on a reference-machine core at full speed


def _reference_graph():
    rng = random.Random("perfbench-reference")
    adj = {v: set() for v in range(12)}
    while sum(map(len, adj.values())) < 48:
        a, b = rng.sample(range(12), 2)
        adj[a].add(b)
        adj[b].add(a)
    return adj


REFERENCE_GRAPH = _reference_graph()


def reference_s() -> float:
    """CPU seconds of one run of the reference work: counting the closed
    5-walks of a fixed 12-vertex graph by backtracking, in plain Python with
    tuples, sets and a dict, like homcount's own search.  It is written here,
    so no change to homcount can move it."""
    t0 = time.process_time()
    tally = {}
    for start in REFERENCE_GRAPH:
        stack = [(start,)]
        while stack:
            walk = stack.pop()
            if len(walk) == 5:
                if start in REFERENCE_GRAPH[walk[-1]]:
                    tally[walk[1:3]] = tally.get(walk[1:3], 0) + 1
                continue
            for y in REFERENCE_GRAPH[walk[-1]]:
                stack.append(walk + (y,))
    return time.process_time() - t0


class Speedometer:
    """Pins the client to the faster core and measures that core's speed
    while a step runs, to scale the step's CPU time to full speed.

    The reference machine is a 2-core slice of a shared host, and its speed
    is not steady.  Each core slows down by up to 2x for spells of a fraction
    of a second to ten seconds, at times of its own, and the host as a whole
    drifts over minutes: a fixed C6 count took 100 ms or 200 ms depending on
    where and when it ran.  So every timed step runs the reference work:
    `start` runs it on each core, pins the client to the fastest and keeps
    that time; a timer runs it again every `every` seconds while the step
    runs; `stop` runs it once more.  The step's scale is REFERENCE_S over
    the mean of these reference times.  The timer's own CPU time is taken
    out of the step's time.  Children (the cli-session calls) inherit the
    pin; the timer keeps sampling the same core while the client waits for
    them."""

    def __init__(self, every: float | None = 0.25):
        self.allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self.cores = self.allowed[:4]   # candidates; trying many would cost more than it saves
        self.every = every
        self.samples: list[float] = []
        self.timer_s = 0.0
        if every:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.process_time()
        self.samples.append(reference_s())
        self.timer_s += time.process_time() - t0

    def start(self):
        speed = {}
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            speed[core] = reference_s()
        if self.cores:
            best = min(self.cores, key=speed.__getitem__)
            os.sched_setaffinity(0, {best})
            self.samples = [speed[best]]
        else:
            self.samples = [reference_s()]
        self.timer_s = 0.0
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> tuple[float, float]:
        """(CPU seconds the timer took, scale to full speed) for the step."""
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(reference_s())
        return self.timer_s, REFERENCE_S * len(self.samples) / sum(self.samples)

    def release(self):
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if self.allowed:
            os.sched_setaffinity(0, self.allowed)


def start_fresh_interpreter(root: Path, env):
    """The first step of every set-up: a fresh interpreter imports homcount."""
    subprocess.run([sys.executable, "-c", "import homcount"], cwd=root, env=env,
                   check=True, timeout=120)


@dataclass
class Entry:
    """One op of the run's fixed list, with what its passes measured."""
    op: object
    round: int
    result: object = None          # output of the first pass
    status: str = ""               # verdict of the first pass's check
    raw: list = field(default_factory=list)      # CPU seconds, one per pass
    scaled: list = field(default_factory=list)   # the same, scaled to full speed
    statuses: set = field(default_factory=set)


def _same(result, first) -> bool:
    try:
        return bool(result == first)
    except Exception:  # a result type without a usable ==: check it again
        return False


def main(argv) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "homcount" / "__init__.py").is_file() or \
            not (root / "tests" / "oracles.py").is_file():
        print("error: run from the root of a homcount checkout "
              "(needs src/homcount and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    import homcount.cli  # noqa: F401  (loaded so a traced run patches its handlers)
    import workloads
    from tracer import Tracer, layer_metrics, unit_of

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    wl = workloads.WORKLOADS[args.workload](root, args.seed)
    tracer = Tracer("setup") if args.trace else None
    single = args.trace or args.rounds is not None   # one pass, one set-up
    rounds = args.rounds if args.rounds is not None else (
        wl.trace_rounds if args.trace else wl.rounds)
    meter = Speedometer(every=None if tracer else 0.25)   # no timer inside spans
    try:
        if tracer:
            tracer.install()
            wl.tracer = tracer
        repeats = 1 if single else wl.setup_repeats
        setup_times = []      # (CPU seconds, scaled to full speed)
        setup_wall = 0.0
        for i in range(repeats):
            if i:
                wl.reset()
            meter.start()
            t0, w0 = cpu_time(), time.perf_counter()
            start_fresh_interpreter(root, env)
            if tracer:
                tracer.enabled = True
            wl.setup()
            if tracer:
                tracer.enabled = False
            t1, w1 = cpu_time(), time.perf_counter()
            timer_s, scale = meter.stop()
            setup_wall += w1 - w0
            setup_times.append((t1 - t0 - timer_s, (t1 - t0 - timer_s) * scale))

        schedule: list[Entry] = []
        statuses = []         # the status of every op run, all passes
        digest = hashlib.sha256()
        baseline = {}         # ROADMAP baseline step -> CPU seconds at full speed
        if wl.setup_baseline:
            baseline[wl.setup_baseline] = statistics.median(t for _, t in setup_times)
        op_s = op_wall = 0.0

        def execute(entry: Entry, p: int):
            nonlocal op_s, op_wall
            op = entry.op
            wl.clear_caches()
            meter.start()
            if tracer:
                tracer.op = f"{entry.round}:{len(statuses)}:{op.kind}"
                tracer.enabled = True
            t0, w0 = cpu_time(), time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a crash of the program is a failed op
                result, error = None, exc
            t1, w1 = cpu_time(), time.perf_counter()
            if tracer:
                tracer.enabled = False
            timer_s, scale = meter.stop()
            dt = t1 - t0 - timer_s
            op_wall += w1 - w0
            op_s += dt
            entry.raw.append(dt)
            entry.scaled.append(dt * scale)
            status, out = "ok", b""
            if error is not None:
                status = "failed"
                print(f"op {op.kind} raised:\n" + "".join(
                    traceback.format_exception(error)), file=sys.stderr)
            elif p and _same(result, entry.result):
                status = entry.status   # the same output as the first pass, checked there
            else:
                try:
                    out = op.check(result)
                except workloads.KnownCrash:
                    status, out = "known_crash", b"known-crash"
                except Exception as exc:  # Mismatch, or output too garbled to check
                    status = "failed"
                    print(f"op {op.kind} wrong: {exc!r}", file=sys.stderr)
            statuses.append(status)
            entry.statuses.add(status)
            if p == 0:
                entry.result, entry.status = result, status
                if op.baseline:
                    baseline[op.baseline] = dt * scale
                if entry.round == 0:
                    digest.update(op.kind.encode() + b"\0" + out + b"\0")

        # The first pass generates and checks the ops; the further passes
        # repeat them in the same order until --seconds of op time is used.
        for r in range(-1, rounds):
            for op in wl.prologue() if r < 0 else wl.round(r):
                entry = Entry(op, max(r, 0))
                execute(entry, 0)
                schedule.append(entry)
        passes = 1
        while not single and (passes < wl.min_passes or op_s < args.seconds):
            for entry in schedule:
                if not entry.op.long:   # a long op runs in the first pass only
                    execute(entry, passes)
            passes += 1
        if tracer:
            tracer.uninstall()
    finally:
        wl.close()
        meter.release()

    # An op's time is the median of its passes, scaled to full speed.
    times = [statistics.median(entry.scaled) for entry in schedule]
    raw = [statistics.median(entry.raw) for entry in schedule]
    failed = statuses.count("failed")
    known = sum("known_crash" in entry.statuses for entry in schedule)
    bad_ops = sum(bool(entry.statuses - {"ok"}) for entry in schedule)
    tail_value, tail_pct, beyond = tail(times)
    by_kind = defaultdict(list)
    for entry, t in zip(schedule, times):
        by_kind[entry.op.kind].append(t)
    report = {
        "workload": args.workload, "seed": args.seed, "rounds": rounds, "passes": passes,
        "digest": digest.hexdigest(),
        "op_tail_percentile": round(tail_pct, 2), "op_tail_samples": len(times),
        "op_tail_samples_beyond": beyond,
        "op_ms_by_kind": {k: 1e3 * statistics.median(v) for k, v in by_kind.items()},
        "unscaled": {"setup_s": statistics.median(t for t, _ in setup_times),
                     "ops_per_s": len(raw) / sum(raw),
                     "op_p50_ms": 1e3 * statistics.median(raw),
                     "op_tail_ms": 1e3 * tail(raw)[0]},
        "op_cpu_s": op_s,
        "op_scaled_s": sum(sum(entry.scaled) for entry in schedule),
        "failed_ratio": bad_ops / len(schedule),
        "known_crashes": known,
        "baseline_s": baseline,
    }
    if tracer:
        metrics = layer_metrics(tracer.spans)
        traced = setup_wall + op_wall   # spans are wall-clock intervals
        attributed = sum(v for k, v in metrics.items() if k.endswith(".layer_self_s"))
        reference = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
             "--rounds", str(rounds)],
            cwd=root, capture_output=True, text=True, timeout=170, check=True)
        untraced = json.loads(reference.stdout.strip().splitlines()[-2])
        metrics.update({
            "trace.total_s": traced,
            "trace.op_s": op_wall,
            "trace.unattributed_s": traced - attributed,
            "trace.overhead_ratio": report["op_scaled_s"] / untraced["op_scaled_s"],
            "trace.spans": len(tracer.spans),
        })
        units = {k: unit_of(k) for k in metrics}
        report["trace_note"] = ("layer self times plus trace.unattributed_s add up "
                                "to trace.total_s (set-up plus op time)")
    else:
        rss = peak_rss_mb(children=args.workload == "cli-session")
        metrics = {
            "setup_s": statistics.median(t for _, t in setup_times),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail_value,
            "peak_rss_mb": rss,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                 "op_tail_ms": "ms", "peak_rss_mb": "MB"}
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(statuses),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
