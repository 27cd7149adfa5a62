"""The a5fano benchmark: how long `a5fano verify` takes to return its verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
Every workload is a closed loop: one verify process at a time, each started
after the one before it has exited and its report has been checked against
the pinned verdicts in `verdicts.json`.

Workloads:
  burkhardt-suite  `a5fano verify burkhardt` in one process.  Reads no
                   fixture, so the seed does not change its input.
  barth-suite      `a5fano verify barth --fixtures DIR`, DIR a seeded
                   relabelling of the pinned fixtures (see fixtures.py).
  single-checks    the 11 checks that need neither the Gram nor the table2
                   builder, each `a5fano verify SUITE --check NAME` in its own
                   process, in seeded order; the Barth checks read the same
                   relabelled fixtures.  Import and model building are paid
                   once per check.

With `--trace 0` the run measures the program side by side with `reference/`,
a pinned copy of the a5fano package as it stood when this benchmark was
written.  The benchmark keeps itself and every process it starts on one CPU;
each verify process of the program starts together with the same verify
process of the reference, and whichever ends first is started again, its
result unused, until the other ends, so that both always share the CPU with
one co-runner.  Their CPU times are then taken in the same slices of the same
CPU, and their ratio does not see the host running faster or slower (a
shared 2-vCPU host was seen to swing by up to 2x over seconds to minutes;
the ratio of identical programs stayed within 1%).  The run repeats whole
iterations of the workload while the next one would end within `--seconds`
(at least one) and reports the end-to-end metrics:
  wall_s       the program's CPU time over the reference's, summed over the
               processes of an iteration, median over the iterations, times
               REFERENCE_S, the reference's wall time run alone: the
               program's time from spawn to checked report, in seconds of
               the host on which REFERENCE_S was taken.
  setup_s      the same for spawning the interpreter and importing
               `a5fano.cli`, probed in pairs before every iteration, times
               REFERENCE_SETUP_S.
  peak_rss_mb  the largest resident set of any verify process of the program.
The raw CPU times are printed beside them.  Everything runs on one CPU, so a
program that splits its work over processes or threads shows no gain here.

With `--trace 1` every verify process of an iteration is run once untraced and
once traced (tracer.py), alternating which of the two goes first, and the run
reports the per-layer metrics, medians over the iterations, and the tracing
overhead (traced minus untraced wall time of an iteration).

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (checks whose verdict differs from the pinned one) and
`metrics`; the line before it gives fail_ratio = failed / attempted, which is
0 on a correct program and so is printed but is not one of the metrics.  The
exit code is 0 only when every verdict matched; it is 2, with no result line,
when the program cannot be imported or the reference gives other verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import fixtures
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("burkhardt-suite", "barth-suite", "single-checks")
# the checks that need neither the `bk_gram` nor the `bt_table2` builder
SINGLE_CHECKS = (
    "burkhardt/orbits", "burkhardt/nodes", "burkhardt/incidence",
    "barth/orbits", "barth/invariance", "barth/nodes", "barth/restrictions",
    "barth/plane-classification", "barth/surfaces", "barth/table1", "barth/rationality",
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PROBES_PER_ITERATION = 8
PROCESS_LIMIT_S = 150  # a verify process running longer is killed and fails
REFERENCE = os.path.join(HERE, "reference")
# The reference's wall time with each process run alone: medians of five runs
# (thirty for the import), one at a time, on a shared 2-vCPU Xeon at 2.0 GHz
# with Python 3.11.7.  They are only the unit of the metrics, which are ratios
# to the reference measured in the same run.
REFERENCE_S = {"burkhardt-suite": 12.25, "barth-suite": 14.13, "single-checks": 11.82}
REFERENCE_SETUP_S = 0.185


class Bench:
    """One benchmark run: the checkout, its scratch directory and the tallies."""

    def __init__(self, root, work, verdicts):
        self.root = root
        self.work = work
        self.verdicts = verdicts
        self.envs = {side: dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
            for side, src in (("program", os.path.join(root, "src")),
                              ("reference", REFERENCE))}
        self.attempted = 0
        self.failed = 0
        self.rss_kb = []  # peak resident set of each measured verify process
        self._serial = 0

    def path(self, name):
        self._serial += 1
        return os.path.join(self.work, f"{self._serial}-{name}")

    def spawn(self, argv, side="program"):
        """Run `argv` to completion; return (start time, exit code, rusage,
        standard error file)."""
        errors = self.path("stderr.txt")
        with open(errors, "w", encoding="utf-8") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.envs[side],
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(PROCESS_LIMIT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            return started, proc.returncode, usage, errors

    def side_by_side(self, make, order):
        """Start `make(side)` for the program and the reference at once, in
        `order`, and start a side again whenever it ends before the other, so
        that neither runs alone; return {side: (exit code, rusage, standard
        error file)} of each side's first process."""
        running, first = {}, {}
        lock = threading.Lock()  # the watchdog reads `running` from its thread

        def start(side):
            errors = self.path("stderr.txt")
            with open(errors, "w", encoding="utf-8") as err, lock:
                proc = subprocess.Popen(make(side), cwd=self.root, env=self.envs[side],
                                        stdout=subprocess.DEVNULL, stderr=err)
                running[proc.pid] = side, proc, errors

        def kill_all():
            with lock:
                for _, proc, _ in running.values():
                    proc.kill()

        watchdog = threading.Timer(PROCESS_LIMIT_S, kill_all)
        watchdog.start()
        try:
            for side in order:
                start(side)
            while len(first) < 2:
                pid, status, usage = os.wait4(-1, 0)
                with lock:
                    side, proc, errors = running.pop(pid)
                proc.returncode = os.waitstatus_to_exitcode(status)
                first.setdefault(side, (proc.returncode, usage, errors))
                if len(first) < 2:
                    start(side)
        finally:
            watchdog.cancel()
            for _, proc, _ in running.values():
                proc.kill()
                proc.wait()
        return first

    def probe_import(self, side="program"):
        started, code, _, _ = self.spawn([sys.executable, "-c", "import a5fano.cli"], side)
        elapsed = time.perf_counter() - started
        return elapsed if code == 0 else None

    def probe_import_pair(self, order):
        """The program's CPU time to start and import `a5fano.cli` over the
        reference's, side by side; None if either import fails."""
        ran = self.side_by_side(lambda side: [sys.executable, "-c", "import a5fano.cli"], order)
        if any(code != 0 for code, _, _ in ran.values()):
            return None
        cpu = {side: usage.ru_utime + usage.ru_stime for side, (_, usage, _) in ran.items()}
        return cpu["program"] / cpu["reference"]

    def verify(self, args, checks, spans=None):
        """One verify process; returns (wall seconds, rusage, verdicts matched)."""
        report = self.path("report.json")
        cli = [sys.executable, "-m", "a5fano.cli"] if spans is None else \
            [sys.executable, os.path.join(HERE, "tracer.py"), spans]
        started, code, usage, errors = self.spawn(
            cli + ["verify"] + args + ["--format", "json", "--out", report])
        matched = self._judge(args, checks, report, code, errors)
        return time.perf_counter() - started, usage, matched

    def verify_pair(self, args, checks, order):
        """One verify process of the program beside the same process of the
        reference; returns ({side: CPU seconds}, verdicts matched)."""
        reports = {}

        def make(side):
            out = self.path(f"{side}.json")
            reports.setdefault(side, out)
            return [sys.executable, "-m", "a5fano.cli", "verify"] + args + [
                "--format", "json", "--out", out]

        ran = self.side_by_side(make, order)
        code, usage, errors = ran["reference"]
        if self._mismatches(reports["reference"], checks) or code != 0:
            raise RuntimeError(f"the reference gave other verdicts for verify "
                               f"{' '.join(args)} (exit code {code}); see {errors}")
        code, usage, errors = ran["program"]
        self.rss_kb.append(usage.ru_maxrss)
        matched = self._judge(args, checks, reports["program"], code, errors)
        return {side: u.ru_utime + u.ru_stime for side, (_, u, _) in ran.items()}, matched

    def _judge(self, args, checks, report, code, errors):
        """Tally the program's verdicts in `report`; True if all match."""
        mismatched = self._mismatches(report, checks)
        # every pinned verdict is a pass, so any other exit code is a failure
        if code != 0 and not mismatched:
            mismatched = checks[:1]
        self.attempted += len(checks)
        self.failed += len(mismatched)
        if mismatched:
            with open(errors, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            print(f"verify {' '.join(args)}: exit code {code}, verdicts differ for "
                  f"{', '.join(mismatched)}\n{tail}", file=sys.stderr)
        return not mismatched

    def _mismatches(self, report, checks):
        """The checks whose report entry differs from the pinned verdict."""
        try:
            with open(report, encoding="utf-8") as fh:
                got = {c["name"]: c for c in json.load(fh)["checks"]}
        except (OSError, ValueError, KeyError, TypeError):
            return list(checks)
        return [name for name in checks
                if name not in got
                or any(got[name].get(k) != v for k, v in self.verdicts[name].items())]


def plan(workload, fixture_dir, seed):
    """The verify processes of one iteration: a list of (CLI arguments, checks)."""
    def process(suite, checks, only=()):
        fixtures_args = ["--fixtures", fixture_dir] if suite == "barth" else []
        return [suite] + fixtures_args + [a for c in only for a in ("--check", c)], checks

    if workload == "single-checks":
        order = list(SINGLE_CHECKS)
        random.Random(seed).shuffle(order)
        return [process(c.split("/")[0], [c], [c.split("/")[1]]) for c in order]
    suite = workload.split("-")[0]
    return [process(suite, [c for c in tracer.CHECKS if c.startswith(suite + "/")])]


ORDERS = (("program", "reference"), ("reference", "program"))


def paired_iteration(bench, processes, pairs):
    """One iteration beside the reference, after PROBES_PER_ITERATION import
    pairs; the side started first alternates from pair to pair.  Returns the
    iteration's metrics (None if a verdict differed) and the import ratios."""
    probes = [bench.probe_import_pair(ORDERS[(pairs + i) % 2])
              for i in range(PROBES_PER_ITERATION)]
    pairs += PROBES_PER_ITERATION
    cpu = {"program": 0.0, "reference": 0.0}
    ok = True
    for args, checks in processes:
        used, matched = bench.verify_pair(args, checks, ORDERS[pairs % 2])
        pairs += 1
        ok &= matched
        for side in cpu:
            cpu[side] += used[side]
    sample = {"ratio": cpu["program"] / cpu["reference"],
              "program_cpu_s": cpu["program"], "reference_cpu_s": cpu["reference"]}
    return (sample if ok else None), probes


def traced_iteration(bench, processes, pairs):
    """Every process of an iteration untraced and traced, the order
    alternating from process to process; the per-layer metrics, or None if a
    verdict differed."""
    wall = traced_wall = cpu = 0.0
    ok = True
    spans = []
    for i, (args, checks) in enumerate(processes):
        spans.append(bench.path("spans.json"))
        runs = [None, spans[-1]] if (pairs + i) % 2 == 0 else [spans[-1], None]
        for span_file in runs:
            elapsed, usage, matched = bench.verify(args, checks, span_file)
            ok &= matched
            if span_file is None:
                bench.rss_kb.append(usage.ru_maxrss)
                wall += elapsed
                cpu += usage.ru_utime + usage.ru_stime
            else:
                traced_wall += elapsed
    if not ok:
        return None
    metrics = tracer.summarize(spans)
    metrics["cli.process.cpu_s"] = cpu
    metrics["trace.overhead_s"] = traced_wall - wall
    return metrics


def measure(bench, processes, seconds, trace):
    """Repeat iterations while the next one should end within `seconds`, even
    if it is as slow as the slowest so far; returns one metrics dict per
    successful iteration, and the import ratios."""
    samples, durations, probes = [], [], []
    pairs = 0
    begun = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if trace:
            sample = traced_iteration(bench, processes, pairs)
        else:
            sample, probed = paired_iteration(bench, processes, pairs)
            probes.extend(probed)
            pairs += PROBES_PER_ITERATION
        pairs += len(processes)
        if sample is not None:
            samples.append(sample)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - begun + max(durations) > seconds:
            return samples, probes


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _terminated(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child-killing handlers


def main(argv=None):
    parser = argparse.ArgumentParser(description="a5fano verify benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "a5fano", "cli.py")):
        print("no a5fano source under src/ in the working directory", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "verdicts.json"), encoding="utf-8") as fh:
        verdicts = json.load(fh)
    if not args.trace:
        # the benchmark and every process it starts share one CPU
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_work"))
    try:
        bench = Bench(root, work, verdicts)
        fixture_dir = None
        if args.workload != "burkhardt-suite":
            fixture_dir = fixtures.write(root, args.seed, os.path.join(work, "fixtures"))
        # the first import compiles the package; it is not a set-up sample
        if any(bench.probe_import(side) is None for side in bench.envs):
            print("importing a5fano.cli failed", file=sys.stderr)
            return 2
        processes = plan(args.workload, fixture_dir, args.seed)
        samples, setup = measure(bench, processes, args.seconds, args.trace)
        if None in setup:
            print("importing a5fano.cli failed", file=sys.stderr)
            return 2
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        units, pick = tracer.metric_names(), {}
        series = {name: [s[name] for s in samples] for name in units}
    else:
        units, pick = END_TO_END, {"peak_rss_mb": max}
        series = {"wall_s": [s["ratio"] * REFERENCE_S[args.workload] for s in samples],
                  "setup_s": [r * REFERENCE_SETUP_S for r in setup],
                  "peak_rss_mb": [kb / 1024 for kb in bench.rss_kb]}
    metrics = {}
    if samples:
        for name, unit in units.items():
            values = series[name]
            statistic = pick.get(name, statistics.median)
            metrics[name] = {"value": statistic(values), "unit": unit}
            lo, hi = quartiles(values)
            print(f"{name} = {metrics[name]['value']:.6g} {unit} ({statistic.__name__} "
                  f"of {len(values)}; quartiles {lo:.6g}..{hi:.6g})")
        if not args.trace:
            for key in ("program_cpu_s", "reference_cpu_s"):
                print(f"{key} = {statistics.median(s[key] for s in samples):.6g} s "
                      f"(median of {len(samples)} iterations, side by side)")
    print(f"fail_ratio = {bench.failed / max(bench.attempted, 1):.6g} ratio "
          f"({bench.failed} of {bench.attempted} checks)")
    ok = bench.failed == 0 and bool(samples)
    print(json.dumps({"correct": ok, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
