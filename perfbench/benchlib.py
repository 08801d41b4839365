"""Pure helpers of the benchmark: percentiles, the correctness gate's
report comparisons, span aggregation and compare-mode verdicts.

Kept free of I/O and subprocesses so test_perfbench.py can cover them.
"""

import json
import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it, so that it rests on more than a handful of outliers.
MIN_BEYOND = 10


def percentile(samples, q):
    """Nearest-rank q-quantile (0 < q < 1) of `samples`.

    Returns (value, n) or None when fewer than MIN_BEYOND samples lie
    beyond the rank. Failed operations are passed as math.inf, so they
    count as slower than any latency limit.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1], n


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def at_reference_speed(seconds, calibrations, reference):
    """A wall time rescaled to the reference host speed.

    `calibrations` are the calibration's wall times taken through the
    same run; on a host where the calibration takes `reference` seconds
    the command would have taken the result. Their median, not each
    command's neighbours, is used: one calibration is as noisy as one
    command, and the host's speed swings last minutes, not seconds.
    """
    return seconds * reference / statistics.median(calibrations)


def strip_timing(metrics_text):
    """A metrics JSON document minus its wall-clock `timing` object."""
    doc = json.loads(metrics_text)
    doc.pop("timing", None)
    return doc


def series_rows(report):
    """Splits an `offnet_cli series` report into ({month: row}, rest).

    The rows are the table lines below the dashed rule up to the first
    blank line; `rest` is every other line, in order.
    """
    rows, rest = {}, []
    in_table = False
    for line in report.splitlines():
        if line.startswith("---"):
            in_table = True
            rest.append(line)
        elif in_table and line.strip():
            rows[line.split()[0]] = line
        else:
            in_table = in_table and bool(line.strip())
            rest.append(line)
    return rows, rest


def series_failures(reference, report):
    """Snapshots whose report row differs from the reference.

    Any difference outside the table fails every snapshot, as does a
    missing table.
    """
    ref_rows, ref_rest = series_rows(reference)
    rows, rest = series_rows(report)
    if rest != ref_rest or not rows:
        return len(ref_rows)
    return sum(1 for month, row in ref_rows.items() if rows.get(month) != row)


def open_loop_summary(lines):
    """Parses perfbench_load's per-request lines.

    Returns (queries, reloads, stats, window_s): queries maps the query
    index to a list of (latency_us, lag_us, status); reloads is a list
    of (round_trip_s, status); stats is the server's STATS answer;
    window_s runs from the schedule's start to the last query answer.
    """
    queries, reloads, stats, window_ns = {}, [], "", 0
    for line in lines:
        if line.startswith("STATS "):
            stats = line[len("STATS "):]
            continue
        kind, due_ns, latency_ns, lag_ns, status = line.split()
        latency_ns, status = int(latency_ns), int(status)
        if kind == "R":
            reloads.append((latency_ns / 1e9 if latency_ns >= 0 else math.inf,
                            status))
            continue
        latency = latency_ns / 1e3 if status == 0 else math.inf
        if latency_ns >= 0:
            window_ns = max(window_ns, int(due_ns) + latency_ns)
        queries.setdefault(int(kind), []).append(
            (latency, int(lag_ns) / 1e3, status))
    return queries, reloads, stats, window_ns / 1e9


def checkpoint_ases(lines):
    """Every AS id a checkpoint's `as <count> <id>...` records name."""
    ases = set()
    for line in lines:
        if line.startswith("as "):
            ases.update(int(token) for token in line.split()[2:])
    return ases


def stats_counters(stats):
    """`OK version=3 requests=9 shed_busy=0 ...` -> {"requests": 9, ...}."""
    counters = {}
    for token in stats.split():
        key, _, value = token.partition("=")
        if value.isdigit():
            counters[key] = int(value)
    return counters


# ---------------------------------------------------------------------------
# Span aggregation for the traced run.

PIPELINE_CHILDREN = {
    "pipeline.validate_certs_s": ["pipeline/validate_certs"],
    "pipeline.pass1_onnet_s": ["pipeline/pass1_onnet"],
    "pipeline.merge_s": ["pipeline/merge/pass1_shard",
                         "pipeline/merge/pass2_shard"],
    "pipeline.subset_rule_s": ["pipeline/subset_rule"],
    "pipeline.pass2_candidates_s": ["pipeline/pass2_candidates"],
    "pipeline.learn_headers_s": ["pipeline/learn_headers"],
    "pipeline.confirm_s": ["pipeline/confirm"],
}

IO_CHILDREN = ["io.relationships", "io.organizations", "io.prefix2as",
               "io.certificates", "io.hosts", "io.headers",
               "topology.build", "bgp.build"]


def span_totals(spans):
    """Sum of span durations (s) by span name."""
    totals = {}
    for span in spans:
        seconds = (span["end_ns"] - span["start_ns"]) / 1e9
        totals[span["name"]] = totals.get(span["name"], 0.0) + seconds
    return totals


def batch_layers(trace, metrics):
    """Per-layer metrics of one traced series/analyze run.

    `trace` is perfbench_trace's spans document, `metrics` the registry
    it wrote (as offnet_cli --metrics-out would). Every parent's children
    plus its `unattributed` entry add up to the parent.
    """
    spans = span_totals(trace["spans"])
    timing = metrics.get("timing", {})
    counters = metrics.get("counters", {})

    def timer(name):
        return timing.get(name, {}).get("total_seconds", 0.0)

    out = {}
    for name in IO_CHILDREN:
        key = name + "_s"
        out[key] = spans.get(name, 0.0)
    out["io.load_s"] = spans.get("io.load", 0.0)
    out["io.unattributed_s"] = out["io.load_s"] - sum(
        out[name + "_s"] for name in IO_CHILDREN)
    out["io.lines"] = trace["counts"].get("io.lines", 0)
    out["io.bytes"] = trace["counts"].get("io.bytes", 0)

    out["pipeline.run_s"] = timer("pipeline/run")
    for key, timers in PIPELINE_CHILDREN.items():
        out[key] = sum(timer(t) for t in timers)
    out["pipeline.unattributed_s"] = out["pipeline.run_s"] - sum(
        out[key] for key in PIPELINE_CHILDREN)
    out["pipeline.outside_s"] = (spans.get("pipeline.segment", 0.0)
                                 - out["pipeline.run_s"])
    out["pipeline.records"] = counters.get("pipeline/records", 0)
    out["pipeline.candidate_ips"] = counters.get("pipeline/candidate_ips", 0)
    out["pipeline.confirmed_ips"] = counters.get("pipeline/confirmed_ips", 0)
    out["pipeline.confirmed_per_candidate"] = (
        out["pipeline.confirmed_ips"] / out["pipeline.candidate_ips"]
        if out["pipeline.candidate_ips"] else 0.0)

    out["series.run_s"] = spans.get("series.run", 0.0)
    out["checkpoint.save_s"] = spans.get("checkpoint.save", 0.0)
    out["series.unattributed_s"] = (
        out["series.run_s"] - out["io.load_s"]
        - spans.get("pipeline.segment", 0.0) - out["checkpoint.save_s"]
        if out["series.run_s"] else 0.0)
    out["checkpoint.bytes"] = counters.get("checkpoint/save_bytes", 0)
    out["checkpoint.saves"] = counters.get("checkpoint/saves", 0)
    out["obs.export_s"] = spans.get("obs.export", 0.0)
    # What the CLI does outside these spans (start-up, report rendering,
    # exit) is the traced process's own wall time minus this sum.
    out["top_level_s"] = sum(
        (s["end_ns"] - s["start_ns"]) / 1e9
        for s in trace["spans"] if s["parent"] < 0)
    return out


# ---------------------------------------------------------------------------
# Compare mode.

def verdict(parent, change, better, bound):
    """Judges one workload x metric from two sets of runs.

    better | worse | unchanged | unresolved, following choosing-metrics
    section 6.5 and 8: a spread (IQR over median) wider than the bound on
    either side is unresolved unless every change run beats every parent
    run; a median worse by more than the bound is worse; a gain needs
    the change to win at least nine tenths of the pairs (i-th run
    against i-th run) and medians further apart than the parent's IQR.
    """
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else math.inf,
                 (c3 - c1) / abs(cm) if cm else math.inf)
    if spread > bound:
        return "better" if all_better else "unresolved"
    gain = sign * (cm - pm) / abs(pm) if pm else 0.0
    if gain < -bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (gain > 0 and pairs and wins >= 0.9 * len(pairs)
            and abs(cm - pm) > (p3 - p1)):
        return "better"
    return "unchanged"
