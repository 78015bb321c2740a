#!/usr/bin/env python3
"""The zTX benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Workloads (perfbench/README.md says why each exists):
  paper-eval  the 12 paper-evaluation binaries at a fixed reduced size
  zec12-144   one 144-CPU zEC12 machine of private-region transactions
  checked     litmus corpus, op-logged ADT runners under the chaos
              mixes, large-history points, contended-transaction probe

The first run builds the benchmark package (perfbench/CMakeLists.txt)
on the `perf` preset's settings into $CARGO_TARGET_DIR (default
.bench_build) under the checkout. Human-readable lines start with '#';
the last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics, or with --trace 1 the per-layer
ones). With --trace 1 the spans are also written under the build
directory.

--self-test runs every workload once with one expected value
corrupted and exits non-zero unless each reports a failed check.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("paper-eval", "zec12-144", "checked")
PAPER_BINARIES = ("fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f",
                  "overhead", "queue", "ablation", "sensitivity",
                  "stamp_lite", "list_set")
# Operations per CPU of the paper binaries (ZTX_BENCH_ITERS), on the
# coarse FAST CPU sweep.
PAPER_ITERS = 10
# Unit preparations per paper-eval set-up sample (one takes tens of
# us).
PAPER_SETUP_BATCH = 2000
BUILD_TYPE = "Release"
# Longest a paper binary may take, and a harness run beyond its
# --seconds, before the run gives up.
CHILD_TIMEOUT_S = 150
# Report keys that hold host time, not simulated results.
HOST_KEYS = ("host", "seconds", "mips", "prof", "phase", "speedup")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "sim_mips": "MIPS",
                    "peak_rss_mb": "MB"}
SPAN_LAYERS = ("perfbench", "bench", "isa", "sim", "common", "workload",
               "litmus")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


class Checks:
    """Output-check tally: attempted, failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def pinned_env(extra):
    """The environment minus every inherited ZTX_* knob, plus extra."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZTX_")}
    env.update(extra)
    return env


def run_child(argv, env, stdout, timeout=CHILD_TIMEOUT_S):
    """Run argv to completion; return (exit code, peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdout=stdout, env=env, cwd=ROOT)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# ------------------------------------------------------------------
# build
# ------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(bdir):
    """Configure once, then bring the benchmark's targets up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no zTX source tree next to perfbench/ (expected %s)"
             % os.path.join(ROOT, "src"), code=2)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        # Ninja checks an up-to-date tree in well under a second, where
        # Makefiles take about 7 s per run.
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir, *generator,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                      "-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_harness", "json_check", *PAPER_BINARIES])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed (log: %s)" % log_path)


# ------------------------------------------------------------------
# in-process workloads (the C++ harness)
# ------------------------------------------------------------------

def run_harness(bdir, mode, args, corrupt):
    argv = [os.path.join(bdir, "perfbench_harness"), mode,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if args.trace else "0"]
    if corrupt:
        argv.append("--corrupt")
    with tempfile.TemporaryFile(dir=bdir) as out:
        code, rss = run_child(argv, pinned_env({}), out,
                              timeout=args.seconds + CHILD_TIMEOUT_S)
        out.seek(0)
        text = out.read().decode()
    if code != 0:
        fail("%s exited with %d" % (" ".join(argv), code))
    doc = json.loads(text.strip().splitlines()[-1])
    doc["peak_rss_mb"] = rss
    return doc


# ------------------------------------------------------------------
# paper-eval (the paper binaries as a user runs them)
# ------------------------------------------------------------------

def strip_host(node):
    """node without the keys that hold host time."""
    if isinstance(node, dict):
        return {k: strip_host(v) for k, v in node.items()
                if not any(h in k for h in HOST_KEYS)}
    if isinstance(node, list):
        return [strip_host(v) for v in node]
    return node


def paper_inputs(bdir, unit_dir, base_env):
    """A unit's inputs: per binary, its name, argv, report dir and env.

    The unit makes each report directory just before it runs the
    binary, as a user does.
    """
    inputs = []
    for name in PAPER_BINARIES:
        out_dir = os.path.join(unit_dir, name)
        inputs.append((name, [os.path.join(bdir, "ztx", "bench", name)],
                       out_dir, dict(base_env, ZTX_BENCH_JSON=out_dir)))
    return inputs


def paper_prepare(bdir, unit_dir, base_env):
    """A unit's inputs and a set-up sample: the mean time of a batch of
    preparations, the last of which is kept."""
    t0 = time.perf_counter()
    for _ in range(PAPER_SETUP_BATCH):
        inputs = paper_inputs(bdir, unit_dir, base_env)
    return inputs, (time.perf_counter() - t0) / PAPER_SETUP_BATCH


def paper_unit(bdir, inputs, unit, traced, corrupt, spans, checks):
    """One pass over the paper binaries; returns the unit record."""
    origin = time.perf_counter()
    unit_span = len(spans)
    if traced:
        spans.append({"layer": "perfbench", "name": "unit", "unit": unit,
                      "point": 0, "parent": -1, "start": origin})
    runs = []
    parts = []
    for point, (name, argv, out_dir, env) in enumerate(inputs):
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        code, rss = run_child(argv, env, subprocess.DEVNULL)
        t1 = time.perf_counter()
        if traced:
            spans.append({"layer": "bench", "name": name, "unit": unit,
                          "point": point, "parent": unit_span, "start": t0,
                          "end": t1})
        runs.append((name, out_dir, code, rss))
        parts.append(t1 - t0)
    end = time.perf_counter()
    if traced:
        spans[unit_span]["end"] = end

    digest = hashlib.sha256()
    counts = {"bench.records": 0, "bench.sim_instructions": 0,
              "bench.tx_commits": 0, "bench.tx_aborts": 0}
    check_bin = os.path.join(bdir, "ztx", "bench", "json_check")
    peak = 0.0
    for i, (name, out_dir, code, rss) in enumerate(runs):
        peak = max(peak, rss)
        checks.expect(code == 0, "%s exited with %d" % (name, code))
        reports = [f for f in os.listdir(out_dir) if f.endswith(".json")]
        checks.expect(len(reports) == 1, "%s wrote %d reports"
                      % (name, len(reports)))
        if len(reports) != 1:
            continue
        path = os.path.join(out_dir, reports[0])
        if corrupt and i == 0:
            with open(path, "r+") as f:
                f.truncate(os.path.getsize(path) // 2)
        ok = subprocess.call([check_bin, path], stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL) == 0
        checks.expect(ok, "%s: report fails json_check" % name)
        if not ok:
            continue
        with open(path) as f:
            doc = json.load(f)
        records = doc.get("records", [])
        speed = doc.get("sim_speed", {})
        digest.update(name.encode())
        digest.update(json.dumps(
            strip_host({"meta": doc.get("meta"), "records": records,
                        "sim_speed": speed}),
            sort_keys=True).encode())
        counts["bench.records"] += len(records)
        counts["bench.sim_instructions"] += speed.get("instructions", 0)
        for r in records:
            counts["bench.tx_commits"] += r.get("commits", 0)
            counts["bench.tx_aborts"] += r.get("aborts", 0)
    return {"wall_s": end - origin, "parts_s": parts, "traced": traced,
            "unit": unit,
            "digest": digest.hexdigest(),
            "instructions": counts["bench.sim_instructions"],
            "counts": counts, "peak_rss_mb": peak}


def run_paper_eval(bdir, args, corrupt):
    checks = Checks()
    spans = []
    units = []
    base_env = pinned_env({"ZTX_BENCH_FAST": "1",
                           "ZTX_BENCH_ITERS": str(PAPER_ITERS)})
    setup_s = []
    tmp = tempfile.mkdtemp(prefix="reports-", dir=bdir)
    try:
        start = time.perf_counter()
        while True:
            traced = args.trace and len(units) % 2 == 1
            inputs, sample = paper_prepare(
                bdir, os.path.join(tmp, "unit%d" % len(units)), base_env)
            setup_s.append(sample)
            units.append(paper_unit(bdir, inputs, len(units), traced,
                                    corrupt, spans, checks))
            checks.expect(units[-1]["digest"] == units[0]["digest"],
                          "paper-eval: simulated digest changed between "
                          "units")
            if time.perf_counter() - start >= args.seconds and (
                    not args.trace or len(units) >= 2):
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {"setup_s": setup_s, "units": units, "spans": [],
            "driver_spans": spans,
            "peak_rss_mb": max(u["peak_rss_mb"] for u in units),
            "checks": checks.attempted, "failed": checks.failed,
            "failures": checks.failures}


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------

def span_trees(spans):
    """Per unit: ({span name: summed duration}, {layer: self time})."""
    by_unit = {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        names, selfs = by_unit.setdefault(s["unit"], ({}, {}))
        dur = s["end"] - s["start"]
        names[s["name"]] = names.get(s["name"], 0.0) + dur
        selfs[s["layer"]] = selfs.get(s["layer"], 0.0) + dur - child_time[i]
    return by_unit


def best_unit_s(units):
    """A unit's time at the host's full speed: each part's fastest time
    over the run's units, summed.

    Every unit does the same simulated work (the digest checks it), so
    a part can only be slowed, never sped up, by the host. Other
    tenants slow this host by up to 1.5x, in spells of seconds to a
    minute. The fastest time of each part finds the moments between
    them.
    """
    return sum(min(parts) for parts in zip(*[u["parts_s"] for u in units]))


def end_to_end(doc):
    plain = [u for u in doc["units"] if not u["traced"]]
    wall_s = best_unit_s(plain)
    return {
        "wall_s": wall_s,
        "setup_s": min(doc["setup_s"]),
        "sim_mips": plain[0]["instructions"] / wall_s / 1e6,
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(doc):
    units = doc["units"]
    traced = [u for u in units if u["traced"]]
    plain = [u for u in units if not u["traced"]]
    counts = dict(units[0]["counts"])
    harness = span_trees(doc["spans"])
    # paper-eval's units are timed by this driver, the others by the
    # harness, which records each set-up preparation and each traced
    # unit under an id of its own.
    by_driver = "driver_spans" in doc
    unit_tree = span_trees(doc["driver_spans"]) if by_driver else harness
    traced_units = [u["unit"] for u in traced]
    setup_units = [p for p in harness if p not in traced_units]

    def unit_time(name):
        return median([unit_tree[p][0].get(name, 0.0)
                       for p in traced_units])

    def unit_self(layer):
        return median([unit_tree[p][1].get(layer, 0.0)
                       for p in traced_units])

    def setup_time(name):
        return median([harness[p][0].get(name, 0.0) for p in setup_units])

    m = {}
    for name in PAPER_BINARIES:
        m["bench.%s.wall_s" % name] = unit_time(name)
    for k in ("bench.records", "bench.sim_instructions", "bench.tx_commits",
              "bench.tx_aborts"):
        m[k] = counts.get(k, 0)

    m["isa.assemble_s"] = setup_time("isa::Assembler")
    m["sim.construct_s"] = setup_time("sim::Machine::Machine")
    run_s = unit_time("sim::Machine::run")
    m["sim.run_s"] = run_s
    m["sim.steps"] = counts.get("sim.steps", 0)
    m["sim.host_ns_per_step"] = ratio(run_s * 1e9, m["sim.steps"])
    m["sim.cycles"] = counts.get("sim.cycles", 0)
    m["core.instructions"] = counts.get("core.instructions", 0)
    m["core.host_ns_per_instr"] = ratio(run_s * 1e9, m["core.instructions"])
    m["core.fetch_rejected"] = counts.get("core.fetch_rejected", 0)
    for k in ("fetch_total", "fetch_l1_hit", "fetch_l2_hit", "fetch_miss"):
        m["mem." + k] = counts.get("mem." + k, 0)
    m["mem.l1_hit_ratio"] = ratio(m["mem.fetch_l1_hit"],
                                  m["mem.fetch_total"])
    for k in ("xi_exclusive", "xi_demote", "xi_rejected"):
        m["mem." + k] = counts.get("mem." + k, 0)
    for k in ("begins", "commits", "aborts"):
        m["tx." + k] = counts.get("tx." + k, 0)
    m["tx.commit_ratio"] = ratio(m["tx.commits"], m["tx.begins"])
    m["millicode.solo_requests"] = counts.get("millicode.solo_requests", 0)
    m["millicode.ppa"] = counts.get("millicode.ppa", 0)
    m["common.stats_json_s"] = unit_time("sim::Machine::statsJson")
    m["workload.adt_run_s"] = sum(
        unit_time("workload::run%sBench" % n)
        for n in ("ListSet", "HashTable", "Queue"))
    for k in ("adt_ops", "tx_commits", "tx_aborts"):
        m["workload." + k] = counts.get("workload." + k, 0)
    m["inject.histories"] = counts.get("inject.histories", 0)
    m["inject.history_ops"] = counts.get("inject.history_ops", 0)
    m["inject.inferred_ratio"] = ratio(counts.get("inject.inferred", 0),
                                       m["inject.histories"])
    m["inject.watchdog_fired"] = counts.get("inject.watchdog_fired", 0)
    m["litmus.parse_s"] = setup_time("litmus::parse")
    m["litmus.compile_s"] = setup_time("litmus::compile")
    m["litmus.enumerate_s"] = unit_time("litmus::enumerate")
    m["litmus.schedules"] = counts.get("litmus.schedules", 0)
    m["litmus.host_us_per_schedule"] = ratio(m["litmus.enumerate_s"] * 1e6,
                                             m["litmus.schedules"])
    for layer in SPAN_LAYERS:
        m[layer + ".self_s"] = unit_self(layer)
    m["trace.overhead_s"] = (median([u["wall_s"] for u in traced]) -
                             median([u["wall_s"] for u in plain]))
    m["trace.spans"] = len(doc["spans"]) + len(doc.get("driver_spans", []))
    m["check.fail_ratio"] = ratio(doc["failed"], doc["checks"])
    return m


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if "host_ns_per" in name:
        return "ns"
    if "host_us_per" in name:
        return "us"
    return "count"


# ------------------------------------------------------------------
# main
# ------------------------------------------------------------------

def run_workload(args, corrupt=False):
    bdir = build_dir()
    build(bdir)
    if args.workload == "paper-eval":
        doc = run_paper_eval(bdir, args, corrupt)
    else:
        doc = run_harness(bdir, args.workload, args, corrupt)
    doc["build_dir"] = bdir
    return doc


def report(args, doc):
    units = doc["units"]
    print("# perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# build: %s + LTO (the perf preset), host_cpus=%d"
          % (BUILD_TYPE, os.cpu_count() or 0))
    if args.workload == "paper-eval":
        print("# note: the paper binaries take no seed; --seed changes "
              "nothing on this workload")
    print("# units=%d (traced %d), set-up samples=%d"
          % (len(units), sum(u["traced"] for u in units),
             len(doc["setup_s"])))
    fail_ratio = ratio(doc["failed"], doc["checks"])
    print("# fail_ratio %.6g (%d of %d checks failed)"
          % (fail_ratio, doc["failed"], doc["checks"]))
    for what in doc["failures"][:10]:
        print("# FAILED: " + what)
    print("# digest %s seed=%d %s" % (args.workload, args.seed,
                                     units[0]["digest"]))
    if args.trace:
        metrics = per_layer(doc)
        trace_dir = os.path.join(doc["build_dir"], "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, "%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump({"harness": doc["spans"],
                       "driver": doc.get("driver_spans", [])}, f)
        print("# spans written to " + os.path.relpath(path, ROOT))
    else:
        metrics = end_to_end(doc)
    for name, value in metrics.items():
        print("# %-34s %.6g %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["checks"],
        "failed": doc["failed"],
        "metrics": {n: {"value": v, "unit": unit_of(n)}
                    for n, v in metrics.items()},
    }))


def self_test(args):
    """Every workload must report a failure when one expectation lies."""
    ok = True
    for workload in WORKLOADS:
        args.workload, args.seed, args.seconds, args.trace = \
            workload, 1, 1, 0
        doc = run_workload(args, corrupt=True)
        detected = doc["failed"] > 0
        print("# self-test %-10s fail_ratio=%.6g (%d of %d) %s"
              % (workload, ratio(doc["failed"], doc["checks"]),
                 doc["failed"], doc["checks"],
                 "ok" if detected else "NOT DETECTED"))
        ok = ok and detected
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test(args)
    if not args.workload:
        p.error("--workload is required")
    report(args, run_workload(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
