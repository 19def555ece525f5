#!/usr/bin/env python3
"""The ilat benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload gui_matrix --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  The first run builds perfbench_driver
(the repo's src/ plus driver.cc) under .bench_build/.  --trace 0 drives the
workload untraced, as a user runs it, repeating it until --seconds are
spent, with a host pace probe beside it, and reports the end-to-end
metrics over the whole run, scaled to the reference pace.  --trace 1 makes
untraced passes for reference, then the traced serial fold that times
every layer, and reports the per-layer metrics.  Every
run checks the program's outputs.  The report ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
PINS = os.path.join(BENCH_DIR, "pins.json")
TRACE_PIN = "gui_matrix.traced_sessions"  # pins.json key of the trace layer's pass

# Pinned digests hold at this seed.  HELD_OUT_SEED is never used while a
# change is written; it confirms a claim afterwards (README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 104729

# Untraced runs are a closed batch with one worker (--jobs=1), the CLI's
# default.  On a shared four-vCPU host the wall time of a --jobs=4 batch
# follows how many cores the neighbours leave free: under two busy
# background loops gui_matrix fell from 230 to 174 cells/s at --jobs=4 and
# stayed at 72-78 at --jobs=1.  The parallel path is still run, checked and
# measured (campaign.pool_busy_frac) by the traced run, with POOL_JOBS
# workers.  README.md, "Load shape".
JOBS = 1
POOL_JOBS = max(1, min(4, os.cpu_count() or 1))
MIN_REPEATS = 2

WORKLOADS = ("gui_matrix", "server_sweep", "journal_resume")
# The trace layer is measured by gui_matrix's traced run, on serial notepad
# sessions on the two NT models run with --trace-out and --explain.  They
# were once a workload of their own (gui_traced), dropped because its times
# could not be made steady on a shared host.  README.md, "Workloads".
TRACED_OSES = ("nt351", "nt40")
TRACED_SESSIONS = 40


class Failure(Exception):
    """The benchmark itself could not run (build or driver error)."""


# ---- Inputs, all derived from --seed ----


def campaign_spec(workload, seed):
    if workload == "gui_matrix":
        body = [
            "os = all",
            "app = notepad, word, powerpoint",
            "seeds = 64",
        ]
    elif workload == "server_sweep":
        body = [
            "os = nt40",
            "app = server",
            "seeds = 10",
            "params.requests = 100",
            "sweep.params.pool_size = 1, 2, 4",
            "sweep.params.users = " + ", ".join(str(u) for u in range(16, 129, 8)),
        ]
    elif workload == "journal_resume":
        # 660 cells, 330 of them run again on resume: 990 executed cells
        # per repeat, so the tail is their p95.  With 1000 cells it was the
        # p99 of 1500, and on a shared 4-vCPU host, stalls of 0.5-10 ms hit
        # 0.3-2.5% of these 0.13 ms cells, so the p99 measured the stalls.
        # README.md, "Workloads".
        body = [
            "os = nt40",
            "app = pipeline",
            "seeds = 66",
            "params.media_frames = 32",
            "fault.disk.stall_ms = 40",
            "sweep.fault.disk.stall_rate = "
            "0, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.15, 0.2, 0.25",
        ]
    else:
        raise ValueError(workload)
    return "\n".join(["name = %s" % workload, "seed = %d" % seed] + body) + "\n"


def traced_sessions(seed):
    """(os, app, session seed) for each serial traced session."""
    rng = random.Random(seed)
    return [
        (TRACED_OSES[i % 2], "notepad", rng.randrange(1, 2**31))
        for i in range(TRACED_SESSIONS)
    ]


def traced_session_plan(seed):
    return [
        "--os=%s --app=%s --seed=%d --trace-out=/dev/null --explain" % s
        for s in traced_sessions(seed)
    ]


def build_crash_image(journal_path, crash_path):
    """Write what a crash mid-run leaves of a complete journal.

    The image holds the header, the first half of the cell records, and the
    first half of the next record with no newline (a torn write).  Returns
    the number of whole records kept.  Deterministic in the journal bytes.
    """
    with open(journal_path, "rb") as f:
        lines = f.read().split(b"\n")
    header, records = lines[0], [r for r in lines[1:] if r]
    if not header.startswith(b'{"ilat_journal"') or len(records) < 2:
        raise Failure("%s is not a complete journal" % journal_path)
    keep = len(records) // 2
    torn = records[keep][: len(records[keep]) // 2]
    with open(crash_path, "wb") as f:
        f.write(b"\n".join([header] + records[:keep]) + b"\n" + torn)
    return keep


# ---- Build and driver ----


def build():
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise Failure("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver", "-j", str(POOL_JOBS)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise Failure("build failed")


def driver(*args):
    proc = subprocess.run([DRIVER] + list(args), stdout=sys.stderr)
    if proc.returncode != 0:
        raise Failure("perfbench_driver %s exited %d" % (" ".join(args), proc.returncode))


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_timing(out_dir):
    """{cell index: wall seconds} from a campaign's timing.csv."""
    walls = {}
    with open(os.path.join(out_dir, "timing.csv")) as f:
        next(f)
        for line in f:
            fields = line.rstrip("\n").split(",")
            walls[int(fields[0])] = float(fields[-3])
    return walls


def quarantined_cells(out_dir):
    with open(os.path.join(out_dir, "cells.csv")) as f:
        header = next(f).rstrip("\n").split(",")
        col = header.index("timed_out")
        return [n for n, line in enumerate(f) if line.rstrip("\n").split(",")[col] == "1"]


class E2eResult:
    """One driver process running a plan: what report.txt says."""

    def __init__(self, outdir):
        self.invocations = []  # (exit code, wall s, setup s)
        with open(os.path.join(outdir, "report.txt")) as f:
            for line in f:
                k, *v = line.split()
                if k == "inv":
                    self.invocations.append((int(v[1]), float(v[2]), float(v[3])))
                elif k == "cpu_s":
                    self.cpu_s = float(v[0])
                elif k == "peak_rss_kb":
                    self.peak_rss_kb = int(v[0])
        self.outputs = []
        for i in range(len(self.invocations)):
            with open(os.path.join(outdir, "out_%d.txt" % i)) as f:
                self.outputs.append(f.read())


def run_e2e(workdir, plan):
    os.makedirs(workdir, exist_ok=True)
    plan_path = os.path.join(workdir, "plan.txt")
    write(plan_path, "\n".join(plan) + "\n")
    driver("e2e", plan_path, workdir)
    return E2eResult(workdir)


# ---- One untraced repeat of a workload ----


class Repeat:
    def __init__(self):
        self.start = self.end = 0.0  # time.monotonic() around the repeat
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.cell_walls = []  # executed cells only
        self.attempted = 0
        self.failures = []  # one line per failed cell or check
        self.digest = None

    def add_process(self, res):
        self.wall_s += sum(w for _, w, _ in res.invocations)
        self.cpu_s += res.cpu_s
        self.peak_rss_kb = max(self.peak_rss_kb, res.peak_rss_kb)
        for rc, _, setup in res.invocations:
            if rc != 0:
                self.failures.append("ilat exited %d" % rc)
            if setup < 0:
                self.failures.append("no cell started")
            self.setup_s += max(setup, 0.0)

    def add_campaign(self, out_dir, skip_below=0):
        if not os.path.exists(os.path.join(out_dir, "timing.csv")):
            raise Failure("the campaign wrote no results to %s" % out_dir)
        walls = read_timing(out_dir)
        executed = [w for i, w in sorted(walls.items()) if i >= skip_below]
        self.cell_walls += executed
        self.attempted += len(executed)
        self.failures += ["cell %d quarantined" % i for i in quarantined_cells(out_dir)]


def run_repeat(workload, seed, workdir, jobs=JOBS):
    """Run the workload once, untraced, as a user would."""
    rep = Repeat()
    rep.start = time.monotonic()
    os.makedirs(workdir, exist_ok=True)
    spec = os.path.join(workdir, "spec.txt")
    if workload in ("gui_matrix", "server_sweep"):
        write(spec, campaign_spec(workload, seed))
        out = os.path.join(workdir, "out")
        rep.add_process(
            run_e2e(workdir, ["--campaign=%s --jobs=%d --campaign-out=%s" % (spec, jobs, out)])
        )
        rep.add_campaign(out)
        rep.digest = sha256(os.path.join(out, "aggregate.json"))
    elif workload == "journal_resume":
        write(spec, campaign_spec(workload, seed))
        journal = os.path.join(workdir, "journal.jsonl")
        crash = os.path.join(workdir, "crash.jsonl")
        out1 = os.path.join(workdir, "out1")
        out2 = os.path.join(workdir, "out2")
        rep.add_process(
            run_e2e(
                os.path.join(workdir, "p1"),
                ["--campaign=%s --jobs=%d --journal=%s --campaign-out=%s" % (spec, jobs, journal, out1)],
            )
        )
        rep.add_campaign(out1)
        kept = build_crash_image(journal, crash)
        res = run_e2e(
            os.path.join(workdir, "p2"),
            [
                "--campaign=%s --jobs=%d --resume=%s --journal=%s --campaign-out=%s"
                % (spec, jobs, crash, crash, out2)
            ],
        )
        rep.add_process(res)
        rep.add_campaign(out2, skip_below=kept)
        expect = "resume: replaying %d completed cell(s) from %s (dropped a torn final record" % (
            kept,
            crash,
        )
        if expect not in res.outputs[0]:
            rep.failures.append("resume did not replay %d cells and drop the torn record" % kept)
        rep.digest = sha256(os.path.join(out1, "aggregate.json"))
        if sha256(os.path.join(out2, "aggregate.json")) != rep.digest:
            rep.failures.append("resumed aggregate differs from the uninterrupted one")
    else:
        raise ValueError(workload)
    rep.end = time.monotonic()
    return rep


# ---- Host pace ----
#
# The host's speed drifts by up to 2.4x within minutes while neighbours load
# the machine, and a run's median over repeats cannot remove a slow state
# that lasts the whole run.  So a probe process runs a fixed kernel of the
# benchmark's own (driver.cc, PaceKernel) on another core for as long as the
# untraced run measures, and every time metric of a repeat is scaled by
# PACE_REF_S / (the probe's mean iteration time during that repeat): it
# reads as it would on a host running the kernel at the reference pace.
# README.md, "Host pace".
PACE_REF_S = 0.070


class PaceProbe:
    def __init__(self, path, seconds):
        self.path = path
        self.proc = subprocess.Popen([DRIVER, "pace", "%.3f" % seconds, path])

    def stop(self):
        """Stop the probe, wait for it, and return its (time, iteration s) samples."""
        self.proc.terminate()
        self.proc.wait()
        samples = []
        with open(self.path) as f:
            for line in f:
                fields = line.split()
                if len(fields) == 2:  # a line cut by the signal is dropped
                    samples.append((float(fields[0]), float(fields[1])))
        if not samples:
            raise Failure("the pace probe recorded nothing")
        return samples


def slowness(samples, start, end):
    """How much slower than the reference pace the host ran in [start, end].

    The mean of the probe iterations that ended in the window (the mean,
    because a repeat's time is a total and pays for every slow spell); when
    fewer than three did, of the three that ended nearest its middle.
    """
    inside = [it for t, it in samples if start <= t <= end]
    if len(inside) < 3:
        mid = (start + end) / 2
        inside = [it for _, it in sorted(samples, key=lambda s: abs(s[0] - mid))[:3]]
    return sum(inside) / len(inside) / PACE_REF_S


# ---- End-to-end metrics ----

E2E_UNITS = {
    "cells_per_s": "cells/s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "cpu_ms_per_cell": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def repeat_metrics(rep, slow):
    """A repeat's end-to-end metrics, host times divided by `slow`."""
    walls = stats.SampleStats.of(rep.cell_walls)
    return {
        "cells_per_s": slow * len(rep.cell_walls) / rep.wall_s,
        "cell_ms_p50": 1e3 * walls.median / slow,
        "cell_ms_tail": 1e3 * walls.tail / slow,
        "cpu_ms_per_cell": 1e3 * rep.cpu_s / len(rep.cell_walls) / slow,
        "setup_s": rep.setup_s / slow,
        "peak_rss_mb": rep.peak_rss_kb / 1024.0,
    }


def run_metrics(reps, slows):
    """The run's end-to-end metrics over all its repeats.

    Rates and CPU per cell are totals over the run, and the cell p50 and
    tail are taken over every cell of every repeat: the host's speed jumps
    from one second to the next, and a whole run averages more of that out
    than the median of a few repeats does.  The tail stays the percentile
    that suits one repeat's cell count.  Set-up and memory happen once per
    repeat, so they are medians over repeats.
    """
    cells = sum(len(r.cell_walls) for r in reps)
    walls = [w / sl for r, sl in zip(reps, slows) for w in r.cell_walls]
    tail_p = stats.tail_percentile(len(reps[0].cell_walls))
    return {
        "cells_per_s": cells / sum(r.wall_s / sl for r, sl in zip(reps, slows)),
        "cell_ms_p50": 1e3 * stats.median(walls),
        "cell_ms_tail": 1e3 * stats.percentile(walls, tail_p),
        "cpu_ms_per_cell": 1e3 * sum(r.cpu_s / sl for r, sl in zip(reps, slows)) / cells,
        "setup_s": stats.median([r.setup_s / sl for r, sl in zip(reps, slows)]),
        "peak_rss_mb": stats.median([r.peak_rss_kb / 1024.0 for r in reps]),
    }


def check_digests(workload, seed, reps, pins):
    """Output checks across a set of repeats; returns failure lines."""
    failures = []
    digests = {r.digest for r in reps}
    if len(digests) != 1:
        failures.append("repeats disagree: %d distinct aggregates" % len(digests))
    if seed == DEFAULT_SEED and reps[0].digest != pins.get(workload):
        failures.append("digest %s differs from the pinned %s" % (reps[0].digest, pins.get(workload)))
    return failures


def measure_e2e(workload, seed, seconds, workdir, pins, report):
    reps = []
    deadline = time.monotonic() + seconds
    # The probe's own deadline only bounds it should this process die.
    probe = PaceProbe(os.path.join(workdir, "pace.txt"), 2 * seconds + 120)
    try:
        while True:
            t0 = time.monotonic()
            rep_dir = os.path.join(workdir, "rep%d" % len(reps))
            reps.append(run_repeat(workload, seed, rep_dir))
            shutil.rmtree(rep_dir)
            now = time.monotonic()
            if len(reps) >= MIN_REPEATS and now + (now - t0) > deadline:
                break
    finally:
        samples = probe.stop()
    slows = [slowness(samples, r.start, r.end) for r in reps]
    failures = [f for r in reps for f in r.failures] + check_digests(workload, seed, reps, pins)
    attempted = sum(r.attempted for r in reps)

    metrics = run_metrics(reps, slows)
    unscaled = run_metrics(reps, [1.0] * len(reps))
    per_rep = [repeat_metrics(r, sl) for r, sl in zip(reps, slows)]
    cells = len(reps[0].cell_walls)
    report.append("workload %s  seed %d  repeats %d  cells/repeat %d  jobs %d" % (
        workload, seed, len(reps), cells, JOBS))
    report.append("digest %s" % reps[0].digest)
    pace = stats.SampleStats.of(slows)
    report.append("host pace: %.4g x the reference (%d probe iterations; repeats %.4g-%.4g x)" % (
        pace.median, len(samples), pace.min, pace.max))
    report.append("%-16s %14s %-8s %14s  %s" % (
        "metric", "run", "unit", "unscaled", "spread over repeats"))
    for name in metrics:
        s = stats.SampleStats.of([m[name] for m in per_rep])
        note = "n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g" % (s.n, s.min, s.q1, s.q3, s.max)
        if name == "cell_ms_tail":
            note += "  (p%g of %d cells)" % (stats.tail_percentile(cells), cells)
        elif name == "cell_ms_p50":
            note += "  (of %d cells)" % cells
        report.append("%-16s %14.6f %-8s %14.6f  %s" % (
            name, metrics[name], E2E_UNITS[name], unscaled[name], note))
    metrics["ok_frac"] = 1.0 - len(failures) / attempted
    report.append("%-16s %14.6f %-8s %14s  %d failure(s) in %d cells attempted" % (
        "ok_frac", metrics["ok_frac"], "ratio", "", len(failures), attempted))
    all_walls_us = [1e6 * w for r in reps for w in r.cell_walls]
    report.append("cell wall time, all repeats (log2 buckets):")
    report.append(stats.render_histogram(stats.log2_histogram(all_walls_us)))
    report.extend("FAIL: " + f for f in failures)
    return attempted, failures, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


# ---- Per-layer metrics (traced run) ----

LAYER_UNITS = {
    "sim.sched_events_per_cell": "count",
    "sim.ns_per_sched_event": "ns",
    "sim.disk_reads_per_cell": "count",
    "core.session_ms": "ms",
    "core.session_ms.gui": "ms",
    "core.session_ms.server": "ms",
    "core.session_ms.pipeline": "ms",
    "core.idle_records_per_cell": "count",
    "core.fsm_intervals_per_cell": "count",
    "input.script_gen_us": "us",
    "apps.messages_per_cell": "count",
    "server.requests_per_cell": "count",
    "server.us_per_request": "us",
    "server.cache_hit_ratio": "ratio",
    "media.frames_per_cell": "count",
    "media.us_per_frame": "us",
    "fault.injections_per_cell": "count",
    "fault.degraded_frac": "ratio",
    "campaign.spec_load_us": "us",
    "campaign.summarize_us": "us",
    "campaign.aggregate_add_us": "us",
    "campaign.finish_ms": "ms",
    "campaign.cell_json_us": "us",
    "campaign.journal_add_us_p50": "us",
    "campaign.journal_add_us_p99": "us",
    "campaign.journal_add_growth": "ratio",
    "campaign.journal_bytes_per_cell": "B",
    "campaign.journal_share": "ratio",
    "campaign.journal_base_s": "s",
    "campaign.journal_fsyncs_per_cell": "count",
    "campaign.journal_load_ms": "ms",
    "campaign.pool_busy_frac": "ratio",
    "obs.trace_events_per_session": "count",
    "obs.trace_bytes_per_session": "B",
    "obs.trace_collect_ms": "ms",
    "obs.trace_export_ms": "ms",
    "obs.trace_share": "ratio",
    "obs.trace_base_s": "s",
    "obs.metrics_json_bytes_per_cell": "B",
    "viz.explain_ms": "ms",
    "bench.unattributed_frac": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

# Spans the traced fold times; the rest of its wall time is unattributed.
SPANS = (
    "spec_load_s", "expand_s", "journal_load_s", "journal_open_s", "script_gen_s",
    "session_s_gui", "session_s_server", "session_s_pipeline", "summarize_s",
    "cell_json_s", "journal_add_s", "aggregate_add_s", "finish_s", "trace_export_s",
    "explain_s",
)


def read_layers(outdir):
    sums, samples = {}, {}
    with open(os.path.join(outdir, "layers.txt")) as f:
        for line in f:
            k, *v = line.split()
            if k.endswith("_samples_s"):
                samples[k] = [float(x) for x in v]
            else:
                sums[k] = float(v[0])
    return sums, samples


def merge_sums(a, b):
    return {k: a.get(k, 0.0) + b.get(k, 0.0) for k in set(a) | set(b)}


def ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def trace_layer(seed, workdir, pins):
    """The trace layer's pass: serial GUI sessions with --trace-out and
    --explain, run once by the CLI and once by the traced fold, whose
    explain reports must match the CLI's.  Returns (attempted, failures,
    obs.* and viz.* metrics, report lines)."""
    plan = traced_session_plan(seed)
    cli = run_e2e(os.path.join(workdir, "cli"), plan)
    failures = ["ilat exited %d" % rc for rc, _, _ in cli.invocations if rc != 0]
    digest = hashlib.sha256("\0".join(cli.outputs).encode()).hexdigest()
    if seed == DEFAULT_SEED and digest != pins.get(TRACE_PIN):
        failures.append("traced sessions' digest %s differs from the pinned %s" % (
            digest, pins.get(TRACE_PIN)))
    fold_dir = os.path.join(workdir, "trace_fold")
    os.makedirs(fold_dir)
    plan_path = os.path.join(workdir, "trace_plan.txt")
    write(plan_path, "\n".join(plan) + "\n")
    driver("layers", "gui", plan_path, fold_dir)
    sums, _ = read_layers(fold_dir)
    for i, text in enumerate(cli.outputs):
        with open(os.path.join(fold_dir, "explain_%d.txt" % i)) as f:
            if f.read() not in text:
                failures.append("traced explain report %d differs from the CLI's" % i)
    cli_wall = sum(w for _, w, _ in cli.invocations)
    m = layer_metrics(sums, [], 0.0, cli_wall)
    lines = ["trace layer: %d sessions, %.3f s through the CLI, %.3f s traced fold" % (
        len(plan), cli_wall, sums.get("wall_s", 0.0)), "trace digest %s" % digest]
    kept = {k: v for k, v in m.items() if k.startswith(("obs.trace_", "viz."))}
    return 2 * len(plan), failures, kept, lines


def traced_fold(workload, seed, workdir, spec):
    """One traced pass; returns (sums, journal Add samples by phase, failures)."""
    os.makedirs(workdir, exist_ok=True)
    if workload != "journal_resume":
        driver("layers", "campaign", spec, workdir)
        sums, _ = read_layers(workdir)
        return sums, [], []
    p1, p2 = os.path.join(workdir, "p1"), os.path.join(workdir, "p2")
    os.makedirs(p1)
    os.makedirs(p2)
    journal = os.path.join(workdir, "journal.jsonl")
    crash = os.path.join(workdir, "crash.jsonl")
    driver("layers", "campaign", spec, p1, "--journal", journal)
    build_crash_image(journal, crash)
    driver("layers", "campaign", spec, p2, "--resume", crash, "--journal", crash)
    s1, x1 = read_layers(p1)
    s2, x2 = read_layers(p2)
    failures = []
    if sha256(os.path.join(p1, "aggregate.json")) != sha256(os.path.join(p2, "aggregate.json")):
        failures.append("traced resume aggregate differs from the traced uninterrupted one")
    shutil.copy(os.path.join(p1, "aggregate.json"), os.path.join(workdir, "aggregate.json"))
    sums = merge_sums(s1, s2)
    sums["phases"] = 2
    return sums, [x1.get("journal_add_samples_s", []), x2.get("journal_add_samples_s", [])], failures


def layer_metrics(sums, adds, base_busy, base_wall_s):
    g = sums.get
    cells = g("cells", 0.0)
    phases = g("phases", 1.0)
    wall = g("wall_s", 0.0)
    session_s = g("session_s_gui", 0) + g("session_s_server", 0) + g("session_s_pipeline", 0)
    all_adds = adds[0] + adds[1] if adds else []
    first = adds[0] if adds else []
    tenth = max(1, len(first) // 10)
    collect_s = g("session_s_gui", 0) - g("untraced_session_s", 0) if g("trace_events") else 0.0
    m = {
        "sim.sched_events_per_cell": ratio(g("sched_events", 0), cells),
        "sim.ns_per_sched_event": ratio(session_s, g("sched_events", 0), 1e9),
        "sim.disk_reads_per_cell": ratio(g("disk_reads", 0), cells),
        "core.session_ms": ratio(session_s, cells, 1e3),
        "core.idle_records_per_cell": ratio(g("idle_records", 0), cells),
        "core.fsm_intervals_per_cell": ratio(g("fsm_intervals", 0), cells),
        "input.script_gen_us": ratio(g("script_gen_s", 0), g("script_gen_calls", 0), 1e6),
        "apps.messages_per_cell": ratio(g("app_messages", 0), cells),
        "server.requests_per_cell": ratio(g("server_requests", 0), cells),
        "server.us_per_request": ratio(g("session_s_server", 0), g("server_requests", 0), 1e6),
        "server.cache_hit_ratio": ratio(
            g("server_cache_hits", 0), g("server_cache_hits", 0) + g("server_cache_misses", 0)),
        "media.frames_per_cell": ratio(g("media_frames", 0), cells),
        "media.us_per_frame": ratio(g("session_s_pipeline", 0), g("media_frames", 0), 1e6),
        "fault.injections_per_cell": ratio(g("fault_injections", 0), cells),
        "fault.degraded_frac": ratio(g("degraded_cells", 0), cells),
        "campaign.spec_load_us": ratio(g("spec_load_s", 0), phases, 1e6),
        "campaign.summarize_us": ratio(g("summarize_s", 0), cells, 1e6),
        "campaign.aggregate_add_us": ratio(
            g("aggregate_add_s", 0), cells + g("replayed", 0), 1e6),
        "campaign.finish_ms": ratio(g("finish_s", 0), phases, 1e3),
        "campaign.cell_json_us": ratio(g("cell_json_s", 0), cells, 1e6),
        "campaign.journal_add_us_p50": 1e6 * stats.percentile(all_adds, 50) if all_adds else 0.0,
        "campaign.journal_add_us_p99": 1e6 * stats.percentile(all_adds, 99) if all_adds else 0.0,
        "campaign.journal_add_growth": ratio(sum(first[-tenth:]), sum(first[:tenth])),
        "campaign.journal_bytes_per_cell": ratio(g("journal_add_bytes", 0), len(all_adds)),
        "campaign.journal_share": ratio(g("journal_add_s", 0), wall),
        "campaign.journal_base_s": wall if all_adds else 0.0,
        "campaign.journal_fsyncs_per_cell": ratio(g("fsyncs", 0), len(all_adds)),
        "campaign.journal_load_ms": 1e3 * g("journal_load_s", 0),
        "campaign.pool_busy_frac": base_busy,
        "obs.trace_events_per_session": ratio(g("trace_events", 0), cells),
        "obs.trace_bytes_per_session": ratio(g("trace_bytes", 0), cells),
        "obs.trace_collect_ms": ratio(collect_s, cells, 1e3),
        "obs.trace_export_ms": ratio(g("trace_export_s", 0), cells, 1e3),
        "obs.trace_share": ratio(collect_s + g("trace_export_s", 0), wall),
        "obs.trace_base_s": wall if g("trace_events") else 0.0,
        "obs.metrics_json_bytes_per_cell": ratio(g("metrics_json_bytes", 0), cells),
        "viz.explain_ms": ratio(g("explain_s", 0), cells, 1e3),
        "bench.unattributed_frac": 1.0 - ratio(sum(g(k, 0) for k in SPANS), wall),
        "bench.trace_overhead_frac": ratio(wall, base_wall_s) - 1.0,
    }
    for kind in ("gui", "server", "pipeline"):
        m["core.session_ms." + kind] = ratio(g("session_s_" + kind, 0), g("cells_" + kind, 0), 1e3)
    return m


def measure_layers(workload, seed, seconds, workdir, pins, report):
    deadline = time.monotonic() + seconds
    spec = os.path.join(workdir, "spec.txt")
    failures = []
    # Untraced references: the end-to-end configuration (--jobs=1), whose
    # aggregate the traced fold must reproduce and whose wall time is the
    # base of bench.trace_overhead_frac; and, for campaigns, a --jobs=POOL_JOBS
    # repeat that must agree with it and gives the pool's occupancy.
    base = run_repeat(workload, seed, os.path.join(workdir, "base"))
    failures += base.failures + check_digests(workload, seed, [base], pins)
    attempted = base.attempted
    pool = run_repeat(workload, seed, os.path.join(workdir, "pool"), jobs=POOL_JOBS)
    failures += pool.failures
    attempted += pool.attempted
    if pool.digest != base.digest:
        failures.append("--jobs=%d aggregate differs from --jobs=%d" % (POOL_JOBS, JOBS))
    busy = ratio(sum(pool.cell_walls), POOL_JOBS * pool.wall_s)
    write(spec, campaign_spec(workload, seed))
    trace_metrics, trace_lines = {}, []
    if workload == "gui_matrix":
        n, fs, trace_metrics, trace_lines = trace_layer(seed, workdir, pins)
        attempted += n
        failures += fs

    passes = []
    while True:
        t0 = time.monotonic()
        fold_dir = os.path.join(workdir, "fold%d" % len(passes))
        sums, adds, fold_failures = traced_fold(workload, seed, fold_dir, spec)
        failures += fold_failures
        attempted += int(sums.get("cells", 0))
        if sha256(os.path.join(fold_dir, "aggregate.json")) != base.digest:
            failures.append("traced serial fold aggregate differs from RunCampaign's")
        passes.append(layer_metrics(sums, adds, busy, base.wall_s))
        shutil.rmtree(fold_dir)
        now = time.monotonic()
        if now + (now - t0) > deadline:
            break

    report.append("workload %s  seed %d  traced passes %d  cells/pass %d" % (
        workload, seed, len(passes), int(sums.get("cells", 0))))
    report.append("untraced base: %.3f s with %d job(s), %.3f s with %d" % (
        base.wall_s, JOBS, pool.wall_s, POOL_JOBS))
    report.extend(trace_lines)
    metrics = {}
    for name in LAYER_UNITS:
        if name in trace_metrics:
            value, n = trace_metrics[name], 1
        else:
            value, n = stats.median([p[name] for p in passes]), len(passes)
        metrics[name] = (value, LAYER_UNITS[name])
        report.append("%-34s %16.6f %-6s n=%d" % (name, value, LAYER_UNITS[name], n))
    report.extend("FAIL: " + f for f in failures)
    return attempted, failures, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # Paths handed to the driver are relative to the checkout root, so that
    # plan lines split on whitespace whatever the checkout is called.
    os.chdir(ROOT)
    try:
        build()
        with open(PINS) as f:
            pins = json.load(f)
        workdir = os.path.join(".bench_build", "runs", "%s-%d" % (args.workload, os.getpid()))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        report = []
        try:
            measure = measure_layers if args.trace else measure_e2e
            attempted, failures, metrics = measure(
                args.workload, args.seed, args.seconds, workdir, pins, report)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (Failure, OSError, ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
