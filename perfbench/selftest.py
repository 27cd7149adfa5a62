"""The benchmark's own tests.  They run the benchmark, so they take minutes;
run them from the root of a source checkout:

    python3 perfbench/selftest.py

Checked: the fixture relabelling is consistent and rejects a broken one; a
side that ends first is started again until the other ends, and no process is
left behind; two seeds give the pinned verdicts; two traced runs of one seed give equal counts,
with the known values; the metric names printed are those of BENCHMARK.json; and with
no program beside it the benchmark fails without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import fixtures
import run
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

ROOT = os.getcwd()
KNOWN_COUNTS = {
    "burkhardt-suite": {
        "burkhardt.plane_pair_meet.calls": 780,
        "lattice.invariant_dimension_via_trace.perms": 1200,
    },
    "barth-suite": {"barth.transport_surface.calls": 1280},
    "single-checks": {"lattice.determinant.calls": 110},
}


def bench(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_relabelling_is_checked():
    pinned = fixtures.load(os.path.join(ROOT, fixtures.FIXTURE_DIR))
    for seed in (7, 11):
        relabelled = fixtures.relabel(pinned, seed)
        fixtures.check_consistent(pinned, relabelled)
        assert relabelled["xi_planes.json"]["labels"] != pinned["xi_planes.json"]["labels"]
    broken = fixtures.relabel(pinned, 7)
    rows = broken["table2.json"]["rows"]
    broken["table2.json"]["rows"] = rows[1:] + rows[:1]  # rows moved, columns not
    try:
        fixtures.check_consistent(pinned, broken)
    except ValueError:
        return
    raise AssertionError("a table2 with permuted rows only passed the check")


def test_side_by_side_restarts_the_side_that_ends_first():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="pair-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        bench = run.Bench(ROOT, work, {})
        starts = {"program": 0, "reference": 0}

        def make(side):
            starts[side] += 1
            spin = 0.05 if side == "program" else 1.0
            return [sys.executable, "-c",
                    f"import time\nt = time.process_time()\nwhile time.process_time() - t < {spin}: pass"]

        ran = bench.side_by_side(make, run.ORDERS[0])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert starts["program"] > 1 and starts["reference"] == 1, starts
    cpu = {side: usage.ru_utime + usage.ru_stime for side, (_, usage, _) in ran.items()}
    assert 0.04 < cpu["program"] < 0.5 and cpu["reference"] >= 0.95, cpu
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError("a process of the pair was left running")


def test_trace_counts_repeat_and_names_match():
    per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    counts = {k for k, unit in per_layer.items() if unit == "count"}
    for workload, known in KNOWN_COUNTS.items():
        first, second = (result_of(bench(workload, 7, 1))["metrics"] for _ in range(2))
        assert {k: v["unit"] for k, v in first.items()} == per_layer
        differ = {k for k in counts if first[k]["value"] != second[k]["value"]}
        assert not differ, f"{workload}: counts differ between runs: {sorted(differ)}"
        for name, value in known.items():
            assert first[name]["value"] == value, (workload, name, first[name]["value"])


def test_two_seeds_give_the_pinned_verdicts():
    # result_of requires every verdict to match verdicts.json
    for workload in ("barth-suite", "single-checks"):
        for seed in (7, 11):
            result_of(bench(workload, seed, 0))


def test_end_to_end_names_match():
    end_to_end = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    metrics = result_of(bench("burkhardt-suite", 5, 0))["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == end_to_end
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    assert set(tracer.metric_names()) == {m["name"] for m in spec()["per_layer"]}


def test_fails_without_the_program():
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("barth-suite", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    assert not last.startswith("{"), last


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}", flush=True)
        else:
            print(f"ok   {test.__name__}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
