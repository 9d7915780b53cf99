#!/usr/bin/env python3
"""The repository benchmark: four workloads against the release binaries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

`--trace 0` runs the workload's binary in a closed loop of one (the next
run starts when the previous one exits) for S seconds, with tracing off,
and reports the end-to-end metrics of BENCHMARK.json. `--trace 1` runs
the in-process traced tour of `perfbench-probe` and reports the per-layer
metrics. Either way, every run's output is checked outside the timed
interval, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload repro_cold --seed 1 --seconds 15 --trace 0 --record
appends the stamped result to perfbench/history.jsonl as well.

    python3 perfbench/run.py --selfcheck --workload repro_cold --seconds 30
checks that the harness flags an injected ~10% slowdown and does not flag
a no-op rerun. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
SNAPSHOT = os.path.join(ROOT, "tests", "snapshots", "all_experiments.txt")
HISTORY = os.path.join(HERE, "history.jsonl")
SERVING_REQUESTS = 1_000_000
SERVING_FLAGS = [
    "--requests", str(SERVING_REQUESTS),
    "--tenant", "alexnet:3", "--tenant", "mobilenet:1", "--tenant", "resnet50:1",
    "--load", "0.6", "--batch", "4", "--window-us", "20", "--quantum", "8",
]
# Spawns of a `--list` call (about 1 ms each) that setup_s is the median of.
LIST_REPS = 201
# Cold `--cache-dir` runs, or in-process serving set-ups, per setup_s.
SETUP_REPS = 15
# Fewest timed runs of one measurement, whatever --seconds says.
MIN_RUNS = 3
# A paired comparison flags a slowdown when its median ratio exceeds
# 1 + this: the 5% change the harness must tell from noise.
PAIRED_THRESHOLD = 0.05
# --selfcheck attempts, each of which must flag the delay.
SELFCHECK_ATTEMPTS = 3
JOBS = min(2, len(os.sched_getaffinity(0)))


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Builds the three entry-point binaries and the probe, from source."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "smart-bench",
         "--bin", "all_experiments", "--bin", "pareto_search", "--bin", "serving_sim"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def binary(name):
    return os.path.join(target_dir(), "release", name)


class Harness:
    """Child-process runs through `perfbench-probe spawn`, plus checks."""

    def __init__(self, work):
        self.work = work
        self.out = os.path.join(work, "stdout")
        self.err = os.path.join(work, "stderr")

    def probe(self, args):
        done = subprocess.run([binary("perfbench-probe")] + args, capture_output=True, text=True)
        if done.returncode != 0:
            raise BenchError(f"perfbench-probe {args[0]} failed: {done.stderr.strip()}")
        return json.loads(done.stdout)

    def spawn(self, argv, delay_ms=0):
        """One timed child run; returns (measurement, stdout bytes)."""
        r = self.probe(["spawn", "--delay-ms", str(delay_ms), "--stdout", self.out,
                        "--stderr", self.err, "--"] + argv)
        with open(self.out, "rb") as f:
            return r, f.read()

    def stderr_text(self):
        with open(self.err, encoding="utf-8", errors="replace") as f:
            return f.read()

    def stderr_tail(self):
        return self.stderr_text()[-2000:]

    def checked(self, argv, expect, delay_ms=0):
        """One run, then its output check outside the timed interval.
        Returns the measurement, or None for a failed run."""
        r, out = self.spawn(argv, delay_ms)
        if r["exit"] != 0:
            log(f"run failed (exit {r['exit']}): {' '.join(argv)}\n{self.stderr_tail()}")
            return None
        if out != expect:
            log(f"wrong output from: {' '.join(argv)}")
            return None
        return r

    def loop(self, argv, expect, seconds):
        """Closed loop of one for `seconds`; failed runs are counted,
        never sampled."""
        samples, attempted = [], 0
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or attempted < MIN_RUNS:
            attempted += 1
            r = self.checked(argv, expect)
            if r is not None:
                samples.append(r)
        return samples, attempted


class Workload:
    """One named workload: its timed command, output reference and set-up."""

    def __init__(self, name, seed, harness):
        self.name, self.seed, self.h = name, seed, harness
        self.store = os.path.join(harness.work, "store")
        self.expect = None

    def argv(self, jobs):
        if self.name in ("repro_cold", "repro_warm"):
            argv = [binary("all_experiments"), "--jobs", str(jobs)]
            return argv + (["--cache-dir", self.store] if self.name == "repro_warm" else [])
        if self.name == "pareto_1000":
            return [binary("pareto_search"), "--jobs", str(jobs)]
        return [binary("serving_sim"), "--jobs", str(jobs), "--seed", str(self.seed)] + SERVING_FLAGS

    def setup(self, reps):
        """Prepares the timed runs; returns the setup_s samples."""
        if self.name in ("repro_cold", "repro_warm"):
            with open(SNAPSHOT, "rb") as f:
                self.expect = f.read()
        if self.name in ("repro_cold", "pareto_1000"):
            lister = [self.argv(JOBS)[0], "--list"]
            times = []
            for _ in range(LIST_REPS if reps > 1 else 1):
                r, out = self.h.spawn(lister)
                if r["exit"] != 0 or not out:
                    raise BenchError(f"{' '.join(lister)} failed")
                times.append(r["wall_s"])
            setup = [statistics.median(times)]
        elif self.name == "repro_warm":
            setup = []
            for _ in range(reps):
                shutil.rmtree(self.store, ignore_errors=True)
                r = self.h.checked(self.argv(JOBS), self.expect)
                if r is None:
                    raise BenchError("the cold --cache-dir run that writes the stores failed")
                setup.append(r["wall_s"])
        else:
            flags = ["--seed", str(self.seed), "--requests", str(SERVING_REQUESTS)]
            setup = [self.h.probe(["serving-setup"] + flags)["setup_s"] for _ in range(reps)]
        if self.name in ("pareto_1000", "serving_1e6"):
            r, out = self.h.spawn(self.argv(JOBS) + ["--check"])
            if r["exit"] != 0 or not out:
                raise BenchError(f"reference --check run failed:\n{self.h.stderr_tail()}")
            self.expect = out
        return setup


def percentile_note(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}", q
    return None, None


def measure(w, seconds):
    """The --trace 0 run: end-to-end metrics plus the stamp's extras."""
    setup = w.setup(SETUP_REPS)
    samples, attempted = w.h.loop(w.argv(JOBS), w.expect, seconds)
    failed = attempted - len(samples)
    med = lambda key, scale=1.0: statistics.median(s[key] for s in samples) * scale if samples else 0.0
    metrics = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("rss_kb", 1 / 1024),
        "setup_s": statistics.median(setup),
    }
    walls = [s["wall_s"] for s in samples]
    pname, pval = percentile_note(walls) if len(walls) > 1 else (None, None)
    extra = {"samples": len(samples), "failed_frac": failed / attempted}
    if pname:
        extra[f"wall_s_{pname}"] = pval
    return failed == 0, attempted, failed, metrics, extra


def counter_lines(text):
    return sorted(l.split() for l in text.splitlines() if l.startswith(("counter ", "gauge ")))


def table_rows(text):
    """`label value` rows of a text table, keyed by label."""
    rows = {}
    for line in text.splitlines():
        label, _, value = line.rpartition(" ")
        if label.strip():
            rows[label.strip()] = value
    return rows


def is_count(name):
    """Per-layer values that must repeat exactly from tour to tour."""
    return not (name.endswith("_s") or name in ("serving.ns_per_request",))


def traced(w, seconds):
    """The --trace 1 run: per-layer metrics from the probe's tours, the
    counter checks, and the untraced --jobs 1 runs for the overhead."""
    w.setup(1)
    ok = True
    # The counters the binary itself reports at --jobs 1.
    extra_flags = ["--json"] if w.name == "pareto_1000" else []
    r, out = w.h.spawn(w.argv(1) + ["--metrics"] + extra_flags)
    if r["exit"] != 0:
        raise BenchError(f"--metrics run failed:\n{w.h.stderr_tail()}")
    binary_counters = counter_lines(w.h.stderr_text())
    search_stats = json.loads(out)["stats"] if w.name == "pareto_1000" else None
    reference = table_rows(w.expect.decode())

    tours, walls, attempted, failed = [], [], 0, 0
    tour_dir = os.path.join(w.h.work, "tour")
    os.makedirs(tour_dir, exist_ok=True)
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(tours) < 2:
        attempted += 2
        t = w.h.probe(["traced", "--workload", w.name, "--seed", str(w.seed),
                       "--requests", str(SERVING_REQUESTS), "--store", w.store,
                       "--work", tour_dir])
        good = counter_lines(t["counters"]) == binary_counters
        if not good:
            log("tour counters differ from the binary's --jobs 1 --metrics")
        if w.name != "serving_1e6" and t["output"].encode() != w.expect:
            log("the tour's in-process output differs from the reference")
            good = False
        if w.name == "serving_1e6" and (not t["serving"] or any(
                str(v) != reference.get(k) for k, v in t["serving"].items())):
            log(f"tour serving counts {t['serving']} differ from serving_sim --check")
            good = False
        if search_stats and any(t["values"][f"search.{k}"] != search_stats[k]
                                for k in ("pruned", "survivors", "frontier", "ilp_compiles")):
            log("tour search stats differ from pareto_search --json")
            good = False
        if tours and any(t["values"][k] != tours[0]["values"][k]
                         for k in t["values"] if is_count(k)):
            log("tour counters differ from the first tour's")
            good = False
        tours.append(t)
        failed += not good
        ok &= good
        u = w.h.checked(w.argv(1), w.expect)
        if u is None:
            failed += 1
        else:
            walls.append(u["wall_s"])
    metrics = {k: v if is_count(k) else statistics.median(t["values"][k] for t in tours)
               for k, v in tours[0]["values"].items()}
    own = statistics.median(t["own_s"] for t in tours)
    metrics["trace.overhead_frac"] = own / statistics.median(walls) - 1 if walls else 0.0
    extra = {"samples": len(tours), "untraced_jobs1_wall_s": statistics.median(walls) if walls else None,
             "failed_frac": failed / attempted,
             "counters": {name: int(v) for _, name, v in counter_lines(tours[0]["counters"])}}
    return ok and failed == 0, attempted, failed, metrics, extra


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def provenance(seed, extra):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        rev = "unknown"
    model = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "rev": rev,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "jobs": JOBS,
        "seed": seed,
        **extra,
    }


def run_once(args, work):
    bench = spec()
    names = [m["name"] for m in bench["end_to_end" if args.trace == 0 else "per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    w = Workload(args.workload, args.seed, Harness(work))
    if args.trace:
        correct, attempted, failed, values, extra = traced(w, args.seconds)
    else:
        correct, attempted, failed, values, extra = measure(w, args.seconds)
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    return result, provenance(args.seed, extra)


def paired_ratio(w, seconds, delay_ms):
    """Median over alternating pairs of wall(delayed) / wall(plain): both
    sides of a pair run back to back, so the machine's slow phases, which
    last longer than a run, cancel. Failed runs void their pair."""
    argv, ratios, i = w.argv(JOBS), [], 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(ratios) < MIN_RUNS:
        sides = [(0, 0), (1, delay_ms)]
        wall = {side: w.h.checked(argv, w.expect, d) for side, d in sides[:: 1 if i % 2 == 0 else -1]}
        if None not in wall.values():
            ratios.append(wall[1]["wall_s"] / wall[0]["wall_s"])
        i += 1
    return statistics.median(ratios), len(ratios)


def selfcheck(args, work):
    """Sensitivity self-check: a delay of 10% of the median wall_s,
    slept by the harness inside the timed interval, must be flagged on
    every attempt, and a no-op comparison never."""
    ok = True
    for attempt in range(1, SELFCHECK_ATTEMPTS + 1):
        w = Workload(args.workload, args.seed + attempt, Harness(work))
        w.setup(1)
        base = statistics.median(s["wall_s"] for s in w.h.loop(w.argv(JOBS), w.expect, 3)[0])
        delay = max(1, round(base * 100))  # 10% of the median, in ms
        slow, n_slow = paired_ratio(w, args.seconds, delay)
        noop, n_noop = paired_ratio(w, args.seconds, 0)
        flag_slow, flag_noop = slow - 1 > PAIRED_THRESHOLD, noop - 1 > PAIRED_THRESHOLD
        ok &= flag_slow and not flag_noop
        log(f"attempt {attempt}: median wall_s {base:.4f}s; +{delay} ms: ratio {slow:.4f} "
            f"over {n_slow} pairs, flagged={flag_slow}; no-op: ratio {noop:.4f} "
            f"over {n_noop} pairs, flagged={flag_noop}")
    log(f"selfcheck {'passed' if ok else 'FAILED'} (flag: paired median ratio > {1 + PAIRED_THRESHOLD})")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true", help="append the stamped result to history.jsonl")
    ap.add_argument("--selfcheck", action="store_true", help="sensitivity self-check of the harness")
    args = ap.parse_args()

    try:
        build()
        os.makedirs(target_dir(), exist_ok=True)
        work = tempfile.mkdtemp(prefix="perfbench-", dir=target_dir())
        try:
            if args.selfcheck:
                return 0 if selfcheck(args, work) else 1
            result, stamp = run_once(args, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    if args.record:
        with open(HISTORY, "a") as f:
            f.write(json.dumps({"workload": args.workload, "trace": args.trace,
                                "seconds": args.seconds, "stamp": stamp, "result": result}) + "\n")
    print("provenance: " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
