#!/usr/bin/env python3
"""The repository's benchmark: what operators run, end to end.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      [--results FILE]
  python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

Workloads (perfbench/README.md says why each exists):

  series31     offnet_cli series over all 31 study months (scale 0.05)
  analyze_big  offnet_cli analyze over one month at scale 1.0
  offnetd_mix  offnetd serving series31's checkpoint: an open-loop query
               mix on two connections beside a RELOAD schedule on a third

BENCHMARK.json gates series31 and offnetd_mix; analyze_big runs the same
way when asked for by name.

Run from the root of a checkout. The first run builds the shipped
binaries and the benchmark's own programs into .bench_build (or
$CARGO_TARGET_DIR) with CMake. Inputs come from --seed only; the
programs see only the exported corpus.

--trace 0 runs the shipped binaries as child processes, checks their
output against a cached --threads 1 reference, and prints every
end-to-end metric. The batch workloads' gated times are rescaled to a
reference host speed by perfbench_calibrate, timed before and after
every command (README.md, "Host speed"). --trace 1 adds the traced in-process run
(perfbench_trace) and prints the per-layer metrics. Either way the last
stdout line is one JSON object: correct, attempted, failed, metrics.
Each run also appends a record to the results file (default
.bench_build/perfbench/results.jsonl); `compare` judges two such files.
A failed correctness check exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing outside .bench_build
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MONTHS = [f"{2013 + (9 + 3 * i) // 12}-{(9 + 3 * i) % 12 + 1:02d}"
          for i in range(31)]  # 2013-10 .. 2021-04, quarterly
HYPERGIANTS = [
    "Akamai", "Alibaba", "Amazon", "Apple", "Bamtech", "Highwinds", "CDN77",
    "Cachefly", "Cdnetworks", "Chinacache", "Cloudflare", "Disney",
    "Facebook", "Fastly", "Google", "Hulu", "Incapsula", "Limelight",
    "Microsoft", "Netflix", "Twitter", "Verizon", "Yahoo"]

THREADS = 4
SERIES_SCALE = "0.05"
BIG_SCALE = "1.0"
BIG_MONTH = "2021-04"
SETUP_REPS = 3            # corpus exports per run; setup_s is their median
# The batch workloads' gated times are at the reference host speed: the
# median export and command wall times times CALIBRATION_REF_S over the
# median time of the calibration runs made before and between the timed
# commands (README.md, "Host speed"). 0.16 s is about what it took on a
# 4-CPU container. One calibration is noisier than one command, so each
# pause between commands runs it CALIBRATIONS_PER_PAUSE times.
CALIBRATION_REF_S = 0.16
CALIBRATIONS_PER_PAUSE = 3
DAEMON_STARTS = 9         # offnetd starts per offnetd_mix run (~0.1 s each)
EXPORT_JOBS = 4           # concurrent `offnet_cli export` processes

# offnetd_mix. The offered rate is an eighth of the 50.0k OK answers/s
# (median of ten 8 s runs; 19.1k to 61.8k) that two closed-loop
# connections sustained with this query mix against --workers 3 on a
# 4-CPU container at the benchmark's parent commit, and a third of the
# slowest of them. At half and at a quarter of it, slow spells of the
# host built backlogs that moved the p50 of whole runs (README.md).
OFFERED_RATE = 6250       # requests/s over the two query connections
LATENCY_LIMIT_US = 1000   # limit on query_p99_us
WORKERS = 3
QUERY_SET = 512           # fixed, seeded query set the mix draws from
RELOAD_EVERY_MS = 1000
RELOAD_DEADLINE_MS = 30000  # explicit T= on every RELOAD
CHILD_TIMEOUT_S = 150

WORKLOADS = ("series31", "analyze_big", "offnetd_mix")

# The gated metrics (BENCHMARK.json "end_to_end"). Each is defined on
# every workload; the workload-specific names behind them (wall_s,
# query_p50_us, ...) are printed and recorded too.
END_TO_END = {
    "setup_s": "s",
    "op_median_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run (BENCHMARK.json "per_layer"). A
# layer that does no work on a workload reports 0 there.
PER_LAYER = {
    "io.load_s": "s",
    "io.relationships_s": "s",
    "io.organizations_s": "s",
    "io.prefix2as_s": "s",
    "io.certificates_s": "s",
    "io.hosts_s": "s",
    "io.headers_s": "s",
    "io.unattributed_s": "s",
    "io.lines": "count",
    "io.bytes": "bytes",
    "topology.build_s": "s",
    "bgp.build_s": "s",
    "pipeline.run_s": "s",
    "pipeline.validate_certs_s": "s",
    "pipeline.pass1_onnet_s": "s",
    "pipeline.merge_s": "s",
    "pipeline.subset_rule_s": "s",
    "pipeline.pass2_candidates_s": "s",
    "pipeline.learn_headers_s": "s",
    "pipeline.confirm_s": "s",
    "pipeline.unattributed_s": "s",
    "pipeline.outside_s": "s",
    "pipeline.records": "count",
    "pipeline.candidate_ips": "count",
    "pipeline.confirmed_ips": "count",
    "pipeline.confirmed_per_candidate": "ratio",
    "series.run_s": "s",
    "series.unattributed_s": "s",
    "checkpoint.save_s": "s",
    "checkpoint.bytes": "bytes",
    "checkpoint.saves": "count",
    "checkpoint.decode_s": "s",
    "obs.export_s": "s",
    "svc.footprint_p50_us": "us",
    "svc.footprint_p99_us": "us",
    "svc.coverage_p50_us": "us",
    "svc.coverage_p99_us": "us",
    "svc.cohost_p50_us": "us",
    "svc.cohost_p99_us": "us",
    "svc.months_p50_us": "us",
    "svc.months_p99_us": "us",
    "svc.snapshot_load_s": "s",
    "svc.validate_s": "s",
    "svc.shed_busy": "count",
    "svc.shed_deadline": "count",
    "svc.generator_lag_ms": "ms",
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
}

VERBS = ("footprint", "coverage", "cohost", "months")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build.

def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds the programs; returns their paths by name."""
    for needed in ("CMakeLists.txt", "src", "tools/offnet_cli.cpp",
                   "tools/offnetd.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no repository sources: {ROOT / needed} "
                             "is missing")
    out = build_root() / "perfbench" / "cmake"
    out.mkdir(parents=True, exist_ok=True)
    # The compiler and every child keep their temporary files here too.
    os.environ["TMPDIR"] = str(out.parent / "tmp")
    Path(os.environ["TMPDIR"]).mkdir(exist_ok=True)
    log_path = out.parent / "build.log"
    with open(log_path, "w") as build_log:
        # Configure every time (cheap once cached): building a target that
        # a changed CMakeLists.txt just added needs regenerated Makefiles.
        steps = [["cmake", "-S", str(HERE), "-B", str(out),
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", str(out), "-j",
                  str(os.cpu_count() or 1), "--target", "offnet_cli",
                  "offnetd", "perfbench_trace", "perfbench_load",
                  "perfbench_calibrate"]]
        for step in steps:
            if subprocess.call(step, stdout=build_log,
                               stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return {
        "cli": out / "offnet" / "tools" / "offnet_cli",
        "offnetd": out / "offnet" / "tools" / "offnetd",
        "trace": out / "perfbench_trace",
        "load": out / "perfbench_load",
        "calibrate": out / "perfbench_calibrate",
        "cmake": out,
    }


def build_info(bins):
    """Compiler and build type of the benchmark build."""
    cache = {}
    for line in (bins["cmake"] / "CMakeCache.txt").read_text().splitlines():
        key, sep, value = line.partition("=")
        if sep and ":" in key:
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = compiler
    return {"compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


# ---------------------------------------------------------------------------
# Child processes.

class Child:
    """A finished child process: exit code, wall time, peak RSS."""

    def __init__(self, rc, wall_s, rss_mb):
        self.rc, self.wall_s, self.rss_mb = rc, wall_s, rss_mb


def reap(proc, timeout):
    """Waits for `proc` with wait4 (for its rusage); kills it after
    `timeout` seconds, or when the wait is interrupted. Returns (exit
    code, peak RSS in MB)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(argv, stdout_path=None, cwd=None, timeout=CHILD_TIMEOUT_S,
              stderr_path=None):
    out = open(stdout_path, "w") if stdout_path else subprocess.DEVNULL
    err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], stdout=out,
                                stderr=err, cwd=cwd)
        rc, rss_mb = reap(proc, timeout)
        return Child(rc, time.perf_counter() - start, rss_mb)
    finally:
        for stream, path in ((out, stdout_path), (err, stderr_path)):
            if path:
                stream.close()


def run_parallel(argvs, jobs):
    """Runs commands `jobs` at a time; raises if any fails."""
    running, pending = [], list(argvs)
    try:
        while pending or running:
            while pending and len(running) < jobs:
                running.append(subprocess.Popen(
                    [str(a) for a in pending.pop(0)],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL))
            proc = running[0]
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
                raise BenchError(f"{proc.args} exited {proc.returncode}")
            running.pop(0)
    finally:
        for proc in running:
            proc.kill()
            proc.wait()


def median(values):
    return statistics.median(values)


def calibrate(bins):
    """The time (s) one perfbench_calibrate run reports."""
    out = subprocess.run([str(bins["calibrate"])], capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        raise BenchError(f"perfbench_calibrate exited {out.returncode}")
    return float(out.stdout.split()[0])


class HostClock:
    """Calibration runs between a run's timed commands, and the
    rescaling of their wall times to the reference host speed."""

    def __init__(self, bins):
        self.bins, self.samples = bins, []

    def pause(self):
        self.samples += [calibrate(self.bins)
                         for _ in range(CALIBRATIONS_PER_PAUSE)]

    def scale(self, seconds):
        return benchlib.at_reference_speed(seconds, self.samples,
                                           CALIBRATION_REF_S)


# ---------------------------------------------------------------------------
# Corpora and references.

def export_series(bins, root, seed):
    """Exports the 31 study months; returns the export wall time in s."""
    shutil.rmtree(root, ignore_errors=True)
    argvs = []
    for month in MONTHS:
        (root / month).mkdir(parents=True)
        argvs.append([bins["cli"], "export", "--out", root / month,
                      "--scale", SERIES_SCALE, "--seed", seed,
                      "--month", month])
    start = time.perf_counter()
    run_parallel(argvs, EXPORT_JOBS)
    return time.perf_counter() - start


def export_big(bins, root, seed):
    """Exports the scale-1.0 month; returns the export wall time in s."""
    shutil.rmtree(root, ignore_errors=True)
    (root / BIG_MONTH).mkdir(parents=True)
    child = run_child([bins["cli"], "export", "--out", root / BIG_MONTH,
                       "--scale", BIG_SCALE, "--seed", seed,
                       "--month", BIG_MONTH])
    if child.rc != 0:
        raise BenchError(f"export exited {child.rc}")
    return child.wall_s


def corpus_size(root):
    files = [p for p in root.rglob("*") if p.is_file()]
    return {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}


class Output:
    """One report + metrics pair from a batch command."""

    def __init__(self, child, report, metrics):
        self.child, self.report, self.metrics = child, report, metrics


def batch_command(bins, workload, corpus, work, threads):
    """argv of the workload's command, writing into `work`."""
    metrics = work / "metrics.json"
    if workload == "series31":
        checkpoint = work / "checkpoint"
        shutil.rmtree(checkpoint, ignore_errors=True)
        return [bins["cli"], "series", "--root", corpus, "--threads", threads,
                "--checkpoint-dir", checkpoint, "--metrics-out", metrics]
    return [bins["cli"], "analyze", "--dir", corpus / BIG_MONTH, "--month",
            BIG_MONTH, "--threads", threads, "--metrics-out", metrics]


def run_batch(argv, work):
    """Runs one batch command; returns its Output (metrics minus timing,
    or None when the command failed)."""
    report_path = work / "report.txt"
    metrics_path = Path(argv[argv.index("--metrics-out") + 1])
    if metrics_path.exists():
        metrics_path.unlink()
    child = run_child(argv, stdout_path=report_path)
    report = report_path.read_text()
    metrics = None
    if child.rc == 0 and metrics_path.exists():
        metrics = metrics_path.read_text()
    return Output(child, report, metrics)


def reference(bins, workload, seed, corpus, work):
    """The --threads 1 reference for (workload, seed), cached per build
    of offnet_cli: {"report": text, "metrics": dict minus timing}."""
    digest = hashlib.sha1(Path(bins["cli"]).read_bytes()).hexdigest()[:12]
    cache = build_root() / "perfbench" / "ref" / f"{workload}-{seed}-{digest}"
    if not (cache / "done").exists():
        out = run_batch(batch_command(bins, workload, corpus, work, 1), work)
        if out.child.rc != 0 or out.metrics is None:
            raise BenchError(f"{workload} reference run exited "
                             f"{out.child.rc}")
        cache.mkdir(parents=True, exist_ok=True)
        (cache / "report.txt").write_text(out.report)
        (cache / "metrics.json").write_text(
            json.dumps(benchlib.strip_timing(out.metrics), sort_keys=True))
        (cache / "done").write_text("")
    return {"report": (cache / "report.txt").read_text(),
            "metrics": json.loads((cache / "metrics.json").read_text())}


def check_batch(workload, ref, out):
    """(attempted, failed) for one batch run against the reference."""
    ok_metrics = (out.metrics is not None
                  and benchlib.strip_timing(out.metrics) == ref["metrics"])
    if workload == "series31":
        snapshots = len(benchlib.series_rows(ref["report"])[0])
        if out.child.rc != 0 or not ok_metrics:
            return snapshots, snapshots
        return snapshots, benchlib.series_failures(ref["report"], out.report)
    return 1, int(out.child.rc != 0 or not ok_metrics
                  or out.report != ref["report"])


# ---------------------------------------------------------------------------
# Batch workloads: series31 and analyze_big.

def batch_workload(bins, workload, seed, seconds, trace, work):
    corpus = work / "corpus"
    export = export_series if workload == "series31" else export_big
    setups = [export(bins, corpus, seed)
              for _ in range(1 if trace else SETUP_REPS)]
    ref = reference(bins, workload, seed, corpus, work)
    records = ref["metrics"]["counters"]["pipeline/records"]
    lines = ref["metrics"]["counters"]["load/lines_ok"]

    attempted = failed = 0
    walls, rss, traced = [], [], []
    # The host's speed is taken in the timed phase only: calibrations
    # between the exports spread more (README.md, "Host speed").
    clock = HostClock(bins)
    clock.pause()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        out = run_batch(batch_command(bins, workload, corpus, work, THREADS),
                        work)
        a, f = check_batch(workload, ref, out)
        attempted, failed = attempted + a, failed + f
        clock.pause()
        walls.append(out.child.wall_s)
        rss.append(out.child.rss_mb)
        if trace:
            layers, a, f = traced_batch(bins, workload, corpus, work, ref)
            attempted, failed = attempted + a, failed + f
            layers["untraced_wall_s"] = out.child.wall_s
            traced.append(layers)

    wall, ref_wall = median(walls), clock.scale(median(walls))
    ref_setup = clock.scale(median(setups))
    record = {
        "corpus": dict(corpus_size(corpus), records=records, lines=lines),
        "runs": len(walls),
        "e2e": {
            "setup_s": ref_setup,
            "op_median_ms": ref_wall * 1e3,
            "throughput_per_s": records / ref_wall,
            "peak_rss_mb": median(rss),
        },
        "named": {
            "setup_s": (median(setups), "s"),
            "wall_s": (wall, "s"),
            "records_per_s": (round(records / wall), "records/s"),
            "peak_rss_mb": (median(rss), "MB"),
            "fail_frac": (failed / attempted, "ratio"),
            "calibration_s": (median(clock.samples), "s"),
            "ref_setup_s": (ref_setup, "s"),
            "ref_wall_s": (ref_wall, "s"),
        },
        "samples": {"setup_s": len(setups), "wall_s": len(walls),
                    "calibration_s": len(clock.samples),
                    "ref_setup_s": len(setups),
                    "ref_wall_s": len(walls)},
        "setups_s": setups,
        "walls_s": walls,
        "calibrations_s": clock.samples,
    }
    if trace:
        record["layers"] = batch_layer_metrics(bins, workload, work, traced)
    return record, attempted, failed


def traced_batch(bins, workload, corpus, work, ref):
    """One traced in-process run; returns (layer metrics, attempted,
    failed) with the run's output checked against the reference."""
    argv = [bins["trace"]] + [str(a) for a in batch_command(
        bins, workload, corpus, work, THREADS)[1:]]
    argv += ["--spans-out", work / "spans.json"]
    out = run_batch(argv, work)
    attempted, failed = check_batch(workload, ref, out)
    if out.child.rc != 0:
        raise BenchError(f"perfbench_trace {workload} exited {out.child.rc}")
    layers = benchlib.batch_layers(
        json.loads((work / "spans.json").read_text()), json.loads(out.metrics))
    layers["traced_wall_s"] = out.child.wall_s
    return layers, attempted, failed


def batch_layer_metrics(bins, workload, work, traced):
    layers = {name: median([t.get(name, 0) for t in traced])
              for name in PER_LAYER}
    for name, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            layers[name] = round(layers[name])
    # Parent and children from the same traced process.
    layers["cli.unattributed_s"] = median(
        [t["traced_wall_s"] - t["top_level_s"] for t in traced])
    # Each traced run directly follows an untraced one; pairing them
    # keeps the host's drift between runs out of the difference.
    layers["trace.overhead_s"] = median(
        [t["traced_wall_s"] - t["untraced_wall_s"] for t in traced])
    if workload == "series31":
        layers.update(snapshot_layers(bins, work / "checkpoint" /
                                      "checkpoint.offnet", work,
                                      with_svc=False))
    return layers


def snapshot_layers(bins, checkpoint, work, with_svc):
    """checkpoint.decode_s (and the svc load/validate spans) from three
    `perfbench_trace snapshot` runs."""
    runs = []
    for _ in range(SETUP_REPS):
        spans_path = work / "snapshot-spans.json"
        child = run_child([bins["trace"], "snapshot", "--checkpoint",
                           checkpoint, "--spans-out", spans_path])
        if child.rc != 0:
            raise BenchError(f"perfbench_trace snapshot exited {child.rc}")
        runs.append(benchlib.span_totals(
            json.loads(spans_path.read_text())["spans"]))
    names = {"checkpoint.decode_s": "checkpoint.decode"}
    if with_svc:
        names.update({"svc.snapshot_load_s": "svc.snapshot_load",
                      "svc.validate_s": "svc.validate"})
    return {key: median([r[span] for r in runs])
            for key, span in names.items()}


# ---------------------------------------------------------------------------
# offnetd_mix.

def query_set(seed, ases):
    """The fixed query set, in seeded order: an even share of each verb
    (the repository has no record of real traffic to weight them by), so
    the mix is the same for every seed. COHOST asks about ASes drawn from
    `ases`, the ASes the served checkpoint names."""
    rng = random.Random(f"offnetd_mix/{seed}")
    share = QUERY_SET // len(VERBS)
    ases = sorted(ases)
    queries = [f"FOOTPRINT {rng.choice(MONTHS)} {rng.choice(HYPERGIANTS)}"
               for _ in range(share)]
    queries += [f"COVERAGE {rng.choice(MONTHS)}" for _ in range(share)]
    queries += [f"COHOST {rng.choice(MONTHS)} {rng.choice(ases)}"
                for _ in range(share)]
    queries += ["MONTHS"] * share
    rng.shuffle(queries)
    return queries


class Daemon:
    """One offnetd child: started, waited for READY, stopped by SIGTERM."""

    def __init__(self, bins, checkpoint, work):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(bins["offnetd"]), "--socket", "offnetd.sock",
             "--checkpoint", str(checkpoint), "--workers", str(WORKERS)],
            cwd=work, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        self.rc = self.rss_mb = None
        timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self.stop()
            raise
        finally:
            timer.cancel()
        self.ready_s = time.perf_counter() - start
        if not line.startswith("READY"):
            self.stop()
            raise BenchError(f"offnetd did not start (exit {self.rc})")

    def stop(self):
        if self.rc is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.rc, self.rss_mb = reap(self.proc, 30)
            self.proc.stdout.close()
        return self.rc


def mix_workload(bins, seed, seconds, trace, work):
    corpus, checkpoint = work / "corpus", work / "checkpoint"
    export_series(bins, corpus, seed)
    prep = run_batch(batch_command(bins, "series31", corpus, work, THREADS),
                     work)
    if prep.child.rc != 0:
        raise BenchError(f"series for the checkpoint exited {prep.child.rc}")
    checkpoint_file = checkpoint / "checkpoint.offnet"
    queries_path, expected_path = work / "queries.txt", work / "expected.txt"
    queries = query_set(seed, benchlib.checkpoint_ases(
        checkpoint_file.read_text().splitlines()))
    queries_path.write_text("\n".join(queries) + "\n")

    layers = (snapshot_layers(bins, checkpoint_file, work, with_svc=True)
              if trace else {})
    setups, daemon = [], None
    try:
        for _ in range(1 if trace else DAEMON_STARTS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(bins, checkpoint_file, work)
            setups.append(daemon.ready_s)
        # The reference answers, from the idle server. A query that does
        # not answer OK is dropped, so no timed operation is meant to fail.
        if run_child([bins["load"], "record", "--socket", "offnetd.sock",
                      "--queries", queries_path.name, "--out",
                      expected_path.name], cwd=work).rc != 0:
            raise BenchError("recording the reference answers failed")
        answers = expected_path.read_text().splitlines()
        keep = [i for i, a in enumerate(answers) if a.startswith("OK ")]
        queries = [queries[i] for i in keep]
        queries_path.write_text("\n".join(queries) + "\n")
        expected_path.write_text("\n".join(answers[i] for i in keep) + "\n")

        samples_path = work / "samples.txt"
        load = run_child([bins["load"], "run", "--socket", "offnetd.sock",
                          "--queries", queries_path.name,
                          "--expected", expected_path.name,
                          "--rate", OFFERED_RATE, "--seconds", seconds,
                          "--seed", seed,
                          "--reload", checkpoint_file.relative_to(work),
                          "--reload-every-ms", RELOAD_EVERY_MS,
                          "--reload-deadline-ms", RELOAD_DEADLINE_MS,
                          "--out", samples_path.name],
                         cwd=work, timeout=seconds + 60,
                         stderr_path=work / "load.err")
        if load.rc != 0:
            raise BenchError(f"perfbench_load exited {load.rc}: "
                             f"{(work / 'load.err').read_text().strip()}")
    finally:
        if daemon is not None and daemon.stop() != 0:
            raise BenchError(f"offnetd exited {daemon.rc} after SIGTERM")

    per_query, reloads, stats, window_s = benchlib.open_loop_summary(
        samples_path.read_text().splitlines())
    latencies = [s[0] for q in per_query.values() for s in q]
    statuses = [s[2] for q in per_query.values() for s in q]
    statuses += [status for _, status in reloads]
    attempted = len(statuses)
    failed = sum(1 for s in statuses if s != 0)
    ok_answers = sum(1 for q in per_query.values() for s in q if s[2] == 0)

    p50 = benchlib.percentile(latencies, 0.50)
    p99 = benchlib.percentile(latencies, 0.99)
    if p50 is None:
        raise BenchError("too few query samples for a median")
    reload_s = median([rt for rt, _ in reloads]) if reloads else math.inf
    record = {
        "corpus": dict(corpus_size(corpus),
                       checkpoint_bytes=checkpoint_file.stat().st_size,
                       queries=len(queries)),
        "runs": 1,
        "e2e": {
            "setup_s": median(setups),
            "op_median_ms": p50[0] / 1e3,
            "throughput_per_s": ok_answers / window_s,
            "peak_rss_mb": daemon.rss_mb,
        },
        "named": {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (daemon.rss_mb, "MB"),
            "fail_frac": (failed / attempted, "ratio"),
            "query_p50_us": (p50[0], "us"),
            "query_p99_us": (p99[0] if p99 else None, "us"),
            "achieved_qps": (ok_answers / window_s, "req/s"),
            "reload_s": (reload_s, "s"),
        },
        "samples": {"setup_s": len(setups), "query_p50_us": p50[1],
                    "query_p99_us": p99[1] if p99 else len(latencies),
                    "reload_s": len(reloads)},
        "p99_within_limit": bool(p99 and p99[0] <= LATENCY_LIMIT_US),
    }
    if trace:
        layers.update(mix_layers(per_query, queries, stats))
        record["layers"] = {name: layers.get(name, 0.0)
                            for name in PER_LAYER}
    return record, attempted, failed


def mix_layers(per_query, queries, stats):
    """svc.* from the load generator's samples and the server's STATS."""
    out = {}
    by_verb = {verb: [] for verb in VERBS}
    lags = []
    for index, samples in per_query.items():
        by_verb[queries[index].split()[0].lower()].extend(
            s[0] for s in samples)
        lags.extend(s[1] for s in samples)
    for verb, latencies in by_verb.items():
        for q, tag in ((0.50, "p50"), (0.99, "p99")):
            p = benchlib.percentile(latencies, q)
            out[f"svc.{verb}_{tag}_us"] = p[0] if p else 0.0
    counters = benchlib.stats_counters(stats)
    out["svc.shed_busy"] = counters.get("shed_busy", 0)
    out["svc.shed_deadline"] = counters.get("shed_deadline", 0)
    lag = benchlib.percentile(lags, 0.99)
    out["svc.generator_lag_ms"] = lag[0] / 1e3 if lag else 0.0
    return out


# ---------------------------------------------------------------------------
# Output.

def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_record(workload, seed, record, correct):
    print(f"== {workload} (seed {seed}, {record['runs']} timed run(s)) ==")
    for name, (value, unit) in record["named"].items():
        n = record["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<16} {fmt(value):>14} {unit}{suffix}")
    if workload == "offnetd_mix":
        print(f"  offered rate {OFFERED_RATE} req/s; p99 limit "
              f"{LATENCY_LIMIT_US} us: "
              f"{'met' if record['p99_within_limit'] else 'NOT met'}")
    for name, value in record.get("layers", {}).items():
        print(f"  {name:<32} {fmt(value):>14} {PER_LAYER.get(name, '')}")
    if "layers" in record:
        print(f"  tracing overhead: "
              f"{fmt(record['layers']['trace.overhead_s'])} s "
              "(median of traced wall - untraced wall, run by run)")
    print(f"  correct: {correct}")


def append_result(path, result):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as out:
        out.write(json.dumps(result, sort_keys=True) + "\n")


def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    bins = build()
    work = build_root() / "perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "offnetd_mix":
            record, attempted, failed = mix_workload(
                bins, args.seed, args.seconds, args.trace, work)
        else:
            record, attempted, failed = batch_workload(
                bins, args.workload, args.seed, args.seconds, args.trace,
                work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = failed == 0
    print_record(args.workload, args.seed, record, correct)
    result = dict(record, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  nproc=os.cpu_count(), threads=THREADS,
                  offered_rate=OFFERED_RATE, latency_limit_us=LATENCY_LIMIT_US,
                  correct=correct, attempted=attempted, failed=failed,
                  **build_info(bins))
    append_result(Path(args.results) if args.results else
                  build_root() / "perfbench" / "results.jsonl", result)
    values, units = ((record["layers"], PER_LAYER) if args.trace
                     else (record["e2e"], END_TO_END))
    # A failed query has an infinite latency; JSON has no infinity.
    metrics = {name: {"value": values[name] if math.isfinite(values[name])
                      else None, "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def compare(parent_path, change_path):
    """Prints a verdict per workload x end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            result = json.loads(line) if line.strip() else {"trace": 1}
            if not result["trace"]:
                runs.setdefault(result["workload"], []).append(result)
        return runs

    parent, change = load(parent_path), load(change_path)
    def column(values):
        q1, q2, q3 = benchlib.quartiles(values)
        return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}] n={len(values)}"

    print(f"{'workload':<12} {'metric':<17} {'parent median [q1, q3]':<38} "
          f"{'change median [q1, q3]':<38} verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec:
            name = metric["name"]
            p = [r["e2e"][name] for r in parent[workload]]
            c = [r["e2e"][name] for r in change[workload]]
            verdict = benchlib.verdict(p, c, metric["better"], metric["bound"])
            print(f"{workload:<12} {name:<17} {column(p):<38} "
                  f"{column(c):<38} {verdict}")
    return 0


def main(argv):
    # Termination unwinds like an error, so every child is killed and
    # waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            log("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
            return 64
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
