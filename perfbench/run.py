"""cusplab benchmark harness.

One measured run of one workload, the form BENCHMARK.json's command takes:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, one child process after another, with every metric by
name and unit; exits 1 on any oracle mismatch:

    python3 perfbench/run.py --all [--trace 1] [--seed N] [--seconds S]

Steadiness check, RUNS runs per workload on seeds 1..RUNS, printing the
median and quartiles of every end-to-end metric:

    python3 perfbench/run.py --steady RUNS [--workload NAME ...]

A run is a closed loop with one client: the next request starts when the
previous one returns, and no request starts that the previous one's
duration says would end past the window or after a workload's finite
inputs are used up.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; with --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  The full end-to-end record, with the
latency percentiles the sample count allows, failed_frac and failures by
label, goes to standard error on a line starting ``perfbench-detail``.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checkout

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(checkout.ROOT, "BENCHMARK.json")
DETAIL = "perfbench-detail "

# workloads the benchmark file gates; the other two run only on request
# (see README.md for why)
GATED = ("corpus-scan", "torus-queries", "lemma-suite")
ALL = ("corpus-scan", "bundle-report", "torus-queries", "cover-lifting",
       "lemma-suite")
# window for --all and --steady when --seconds is not given
DEFAULT_SECONDS = {"corpus-scan": 30, "torus-queries": 30, "lemma-suite": 30,
                   "bundle-report": 60, "cover-lifting": 90}
SETUP_TRIALS = 3
# seconds of requests per speed-kernel sample, and the kernel's time on
# the 2-core VM the benchmark was built on
KERNEL_EVERY = 0.25
KERNEL_REF_S = 0.005
CHILD_GRACE = 120       # seconds a child may run past its window
E2E_METRICS = ("setup_s", "ops_per_s", "ops_per_ref_s", "latency_p50_ms",
               "latency_p50_ref_ms", "latency_p90_ms", "latency_p99_ms",
               "peak_rss_mb", "failed_frac")


def _err(msg):
    print("perfbench: %s" % msg, file=sys.stderr, flush=True)


def peak_rss_mb():
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def import_seconds():
    """Wall time of a fresh interpreter importing cusplab from the checkout."""
    env = dict(os.environ, PYTHONPATH=checkout.SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cusplab"], env=env,
                   cwd=checkout.ROOT, check=True, timeout=60)
    return time.perf_counter() - t0


def latency_metrics(samples):
    """p50 always, p90 from 100 samples, p99 from 1000; never extrapolated."""
    if not samples:
        return {"latency_p50_ms": math.nan}
    out = {"latency_p50_ms": statistics.median(samples)}
    if len(samples) >= 100:
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        out["latency_p90_ms"] = cuts[89]
        if len(samples) >= 1000:
            out["latency_p99_ms"] = cuts[98]
    return out


def speed_kernel():
    """Fixed pure-Python work that calls no cusplab code.

    Tuple-keyed dict stores and lookups, then integer nearest-quotient
    Euclid loops.  Across a run, its time tracks the host's speed for
    the workloads better than kernels with numpy calls or fractions do.
    """
    table = {}
    acc = 0
    for i in range(4000):
        table[(i, i & 7)] = i
        acc += table.get((i - 3, (i - 3) & 7), 0) % 7
    for i in range(1, 2000):
        p, q = 987654321 + i, 123456789
        while q:
            b = (2 * p + q) // (2 * q)
            p, q = -q, p - b * q
            acc += 1
    return acc


def kernel_sample():
    """Thread CPU seconds of one kernel run, so lock waits do not count."""
    t0 = time.thread_time()
    speed_kernel()
    return time.thread_time() - t0


class HostClock:
    """Converts request time to reference time with the speed kernel.

    The kernel runs once per KERNEL_EVERY seconds of requests.  Samples
    are taken between requests, so they never interrupt one, unless the
    workload's requests are long (``sample_inside``): a corpus-scan
    request lasts the whole window, so a helper thread samples it while it
    runs.  Lemma-suite requests (3 s) are sampled between requests only;
    sampling them from a second thread made the spread worse.

    Requests are grouped into segments that end where samples are taken.
    A segment's speed is KERNEL_REF_S over the mean of its samples, and
    its request seconds and latencies are scaled by that speed.
    """

    def __init__(self, sample_inside):
        self.samples = []
        self.busy = 0.0
        self.ref_busy = 0.0
        self.ref_latencies = []
        self._used = 0          # samples already assigned to a segment
        self._speed = None
        self._seg_busy = 0.0
        self._seg_latencies = []
        self._started = None
        self._stop = threading.Event()
        self._thread = None
        if sample_inside:
            self._thread = threading.Thread(target=self._watch, daemon=True)

    def _watch(self):
        mark = None     # start of the current request, or the last sample
        while not self._stop.wait(KERNEL_EVERY / 5):
            started = self._started
            if started is None:
                continue
            if mark is None or mark < started:
                mark = started
            if time.perf_counter() - mark >= KERNEL_EVERY:
                self.samples.append(kernel_sample())
                mark = time.perf_counter()

    def __enter__(self):
        if self._thread is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self._close_segment()

    def request_started(self):
        self._started = time.perf_counter()

    def request_ended(self, seconds, latency_ms):
        """Account one request; latency_ms is None for a failed one."""
        self._started = None
        self.busy += seconds
        self._seg_busy += seconds
        if latency_ms is not None:
            self._seg_latencies.append(latency_ms)
        owed = int(self.busy / KERNEL_EVERY) - len(self.samples)
        for _ in range(owed):
            self.samples.append(kernel_sample())
        if len(self.samples) > self._used:
            self._close_segment()

    def _close_segment(self):
        fresh = self.samples[self._used:]
        if fresh:
            self._speed = KERNEL_REF_S / statistics.fmean(fresh)
            self._used += len(fresh)
        elif self._speed is None:
            self.samples.append(kernel_sample())
            return self._close_segment()
        self.ref_busy += self._seg_busy * self._speed
        self.ref_latencies.extend(x * self._speed for x in self._seg_latencies)
        self._seg_busy = 0.0
        self._seg_latencies = []


def closed_loop(work, seconds):
    """Issue steps until the window ends; returns the loop's tallies.

    Kernel time between requests is not part of the timed (busy) seconds.
    """
    from workloads import Step
    attempted = failed = mismatched = ok_ops = 0
    labels = {}
    notes = []
    latencies = []
    last = 0.0
    deadline = time.perf_counter() + seconds
    with HostClock(work.long_requests) as clock:
        while True:
            now = time.perf_counter()
            if work.exhausted or (attempted and now + last > deadline):
                break
            clock.request_started()
            t0 = time.perf_counter()
            try:
                step = work.step()
            except Exception as exc:
                # unexpected failure of the whole step: nothing predicts it
                n = work.step_ops
                step = Step(n, [type(exc).__name__] * n, n,
                            ["%s: %s" % (type(exc).__name__, exc)])
            last = time.perf_counter() - t0
            latency = None
            if len(step.failures) < step.ops:
                latency = 1000.0 * last / step.ops
                latencies.append(latency)
            clock.request_ended(last, latency)
            attempted += step.ops
            failed += len(step.failures)
            mismatched += step.mismatches
            ok_ops += step.ops - len(step.failures)
            for label in step.failures:
                labels[label] = labels.get(label, 0) + 1
            notes.extend(step.notes)
    return {"attempted": attempted, "failed": failed,
            "mismatched": mismatched, "ok_ops": ok_ops, "labels": labels,
            "notes": notes, "latencies": latencies, "busy": clock.busy,
            "ref_busy": clock.ref_busy, "ref_latencies": clock.ref_latencies,
            "kernel_samples": len(clock.samples)}


def untraced_ops_per_ref_s(args):
    """ops_per_ref_s of an untraced run of the same workload, in a child."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=args.seconds + CHILD_GRACE)
    if proc.returncode != 0:
        raise SystemExit("perfbench: untraced baseline run failed:\n%s"
                         % proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["metrics"]["ops_per_ref_s"]["value"]


def per_layer_metrics(tracer, busy_s, overhead):
    from layertrace import NAMES
    totals = tracer.totals()
    metrics = {}
    for name in NAMES:
        t = totals[name]
        metrics[name + ".calls"] = (t["calls"], "count")
        metrics[name + ".self_s"] = (t["self_s"], "s")
        metrics[name + ".errors"] = (sum(t["errors"].values()), "count")
    solve = totals["bundle.solve_shapes"]
    ok = solve["calls"] - sum(solve["errors"].values())
    metrics["bundle.solve_shapes.ok_ratio"] = (
        ok / solve["calls"] if solve["calls"] else 0.0, "ratio")
    metrics["trace.busy_s"] = (busy_s, "s")
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    errors = {n: t["errors"] for n, t in totals.items() if t["errors"]}
    return metrics, errors


def measure(args):
    """One run of one workload; prints the result and returns the exit code."""
    checkout.use_source()
    import workloads

    workdir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            baseline = untraced_ops_per_ref_s(args)
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
            t0 = time.perf_counter()
            inputs = work.build()
            setup_s = time.perf_counter() - t0
        else:
            imports = [import_seconds() for _ in range(SETUP_TRIALS)]
            builds = []
            for _ in range(SETUP_TRIALS):
                t0 = time.perf_counter()
                inputs = work.build()
                builds.append(time.perf_counter() - t0)
            setup_s = statistics.median(imports) + statistics.median(builds)
        work.start(inputs)
        trace_t0 = time.perf_counter()
        loop = closed_loop(work, args.seconds)
        if tracer is not None:
            tracer.uninstall()
        end_notes = work.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatched = loop["mismatched"] + len(end_notes)
    correct = mismatched == 0
    speed = loop["ref_busy"] / loop["busy"]
    ops_per_s = loop["ok_ops"] / loop["busy"]
    ops_per_ref_s = loop["ok_ops"] / loop["ref_busy"]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "attempted": loop["attempted"], "failed": loop["failed"],
              "failures": loop["labels"], "mismatched": mismatched,
              "mismatch_notes": (loop["notes"] + end_notes)[:10],
              "busy_s": loop["busy"], "host_speed": speed,
              "kernel_samples": loop["kernel_samples"],
              "latency_samples": len(loop["latencies"])}
    if tracer is not None:
        busy_s = setup_s + loop["busy"]
        overhead = 1.0 - ops_per_ref_s / baseline
        metrics, errors = per_layer_metrics(tracer, busy_s, overhead)
        detail["errors_by_class"] = errors
        detail["untraced_ops_per_ref_s"] = baseline
        trace_dir = os.path.join(HERE, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        span_path = os.path.join(trace_dir, "%s-seed%d.csv"
                                 % (args.workload, args.seed))
        tracer.write_spans(span_path, trace_t0)
        detail["spans"] = os.path.relpath(span_path, checkout.ROOT)
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "ops_per_s": (ops_per_s, "ops/s"),
                   "ops_per_ref_s": (ops_per_ref_s, "ops/ref-s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB"),
                   "failed_frac": (loop["failed"] / loop["attempted"],
                                   "ratio")}
        for k, v in latency_metrics(loop["latencies"]).items():
            metrics[k] = (v, "ms")
        metrics["latency_p50_ref_ms"] = (
            latency_metrics(loop["ref_latencies"])["latency_p50_ms"],
            "ref-ms")
        detail.update({k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()})
        gated = [m["name"] for m in read_benchmark()["end_to_end"]]
        metrics = {k: metrics[k] for k in gated}

    print(DETAIL + json.dumps(detail, sort_keys=True), file=sys.stderr)
    for note in detail["mismatch_notes"]:
        _err("oracle mismatch: %s" % note)
    result = {"correct": correct, "attempted": loop["attempted"],
              "failed": loop["failed"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


def read_benchmark():
    with open(BENCHMARK) as fh:
        return json.load(fh)


# ---- modes over child runs ----

def child_run(name, seed, seconds, trace):
    """Run one workload in a child; returns (exit code, detail, result)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    timeout = 2 * seconds + CHILD_GRACE if trace else seconds + CHILD_GRACE
    proc = subprocess.run(cmd, cwd=checkout.ROOT, capture_output=True,
                          text=True, timeout=timeout)
    detail = None
    for line in proc.stderr.splitlines():
        if line.startswith(DETAIL):
            detail = json.loads(line[len(DETAIL):])
        elif line.startswith("perfbench:"):
            print(line, file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, detail, result


def report_all(args):
    status = 0
    for name in args.workloads or ALL:
        seconds = args.seconds or DEFAULT_SECONDS[name]
        code, detail, result = child_run(name, args.seed, seconds, args.trace)
        status = status or (1 if code else 0)
        if detail is None:
            print("%s: run failed with exit code %d" % (name, code))
            continue
        print("%s  seed %d, %g s window, %s" % (
            name, args.seed, seconds,
            "correct" if code == 0 else "ORACLE MISMATCH"))
        print("  attempted %d, failed %d, failures %s"
              % (detail["attempted"], detail["failed"],
                 json.dumps(detail["failures"], sort_keys=True)))
        if args.trace:
            m = result["metrics"]
            busy = m["trace.busy_s"]["value"]
            rows = sorted((k[:-len(".self_s")] for k in m
                           if k.endswith(".self_s")),
                          key=lambda k: -m[k + ".self_s"]["value"])
            for k in rows:
                calls = m[k + ".calls"]["value"]
                if calls:
                    self_s = m[k + ".self_s"]["value"]
                    print("  %-36s calls %9d  self %9.3f s  %5.1f%% of "
                          "busy %.2f s  errors %d"
                          % (k, calls, self_s, 100.0 * self_s / busy, busy,
                             m[k + ".errors"]["value"]))
            for k in ("bundle.solve_shapes.ok_ratio", "trace.overhead_frac"):
                print("  %-36s %.4f %s" % (k, m[k]["value"], m[k]["unit"]))
            if detail.get("errors_by_class"):
                print("  errors by class %s"
                      % json.dumps(detail["errors_by_class"], sort_keys=True))
        else:
            print("  %-18s %14.6f  (%d kernel samples)"
                  % ("host_speed", detail["host_speed"],
                     detail["kernel_samples"]))
            for k in E2E_METRICS:
                if k in detail:
                    extra = ""
                    if k.startswith("latency"):
                        extra = "  (%d samples)" % detail["latency_samples"]
                    print("  %-18s %14.6f %s%s" % (
                        k, detail[k]["value"], detail[k]["unit"], extra))
    return status


def steady(args):
    status = 0
    for name in args.workloads or GATED:
        seconds = args.seconds or DEFAULT_SECONDS[name]
        values = {}
        for seed in range(1, args.steady + 1):
            code, detail, _ = child_run(name, seed, seconds, 0)
            status = status or (1 if code else 0)
            if detail is None:
                print("%s seed %d: run failed with exit code %d"
                      % (name, seed, code))
                continue
            values.setdefault("host_speed", []).append(detail["host_speed"])
            for k in E2E_METRICS:
                if k in detail:
                    values.setdefault(k, []).append(detail[k]["value"])
        print("%s  %d runs, %g s window" % (name, args.steady, seconds))
        for k, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            print("  %-18s median %12.6f  q1 %12.6f  q3 %12.6f  "
                  "spread %.4f" % (k, med, q1, q3, spread))
            print("  %-18s runs %s" % ("", " ".join("%.6g" % x for x in v)))
    return status


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", dest="workloads",
                   choices=ALL)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload once, in child processes")
    p.add_argument("--steady", type=int, metavar="RUNS",
                   help="repeat each gated workload on seeds 1..RUNS")
    args = p.parse_args(argv)
    if args.all:
        return report_all(args)
    if args.steady:
        return steady(args)
    if not args.workloads or len(args.workloads) != 1 or not args.seconds:
        p.error("a single run needs one --workload and --seconds")
    args.workload = args.workloads[0]
    return measure(args)


if __name__ == "__main__":
    # keep the scan's default worker count, which is min(8, nproc)
    os.environ.pop("CUSPLAB_THREADS", None)
    sys.exit(main(sys.argv[1:]))
