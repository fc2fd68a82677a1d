#!/usr/bin/env python3
"""emibench: the repository's benchmark.

Run from the repository root:

    python3 emibench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is flow_buck, serve_mixed or large_board (the gated ones listed in
BENCHMARK.json) or serve_mixed_fsync (same output, not gated).

Builds emibench/ (with the library tree it pulls in) into .bench_build/emibench,
runs one workload in emibench_runner, checks every operation's output against
the committed references in emibench/refs/, and prints provenance, the
metrics with their units, and as the last line one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones. `--make-refs` regenerates the
references. emibench/README.md documents the metrics and workloads.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "emibench")
WORK = os.path.join(BUILD, "work")
RESULTS = os.path.join(BUILD, "results")
RUNNER = os.path.join(BUILD, "emibench_runner")
REFS = os.path.join(HERE, "refs", "references.json")

# Workloads BENCHMARK.json lists (gated), and serve_mixed_fsync, which runs
# the same way but is not gated: it is serve_mixed with every fsync
# performed, whose wall times follow the host disk's flush latency and spread
# past any allowed bound (README.md, "serve_mixed").
WORKLOADS = ("flow_buck", "serve_mixed", "large_board")
UNGATED = ("serve_mixed_fsync",)
SERVE = ("serve_mixed", "serve_mixed_fsync")
RUNNER_TIMEOUT_S = 170

# (name, unit) of every metric. END_TO_END and PER_LAYER are what
# BENCHMARK.json lists; every workload prints all of them.
END_TO_END = [
    ("op_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# Printed and recorded with every run but not gated: on a shared host the
# tail and the mean-based throughput of the flow workloads follow host
# contention (README.md, "End-to-end metrics").
UNGATED_METRICS = [
    ("op_p90_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
]
PER_LAYER = [
    ("trace.overhead_pct", "%"),
    ("self.root_ms", "ms"),
    ("self.flow_ms", "ms"),
    ("self.peec_ms", "ms"),
    ("self.ckt_ms", "ms"),
    ("self.svc_ms", "ms"),
    ("flow.sensitivity_ms", "ms"),
    ("flow.initial_prediction_ms", "ms"),
    ("flow.rule_derivation_ms", "ms"),
    ("flow.placement_ms", "ms"),
    ("flow.verification_ms", "ms"),
    ("peec.extract_ms", "ms"),
    ("ckt.sweep_ms", "ms"),
    ("ckt.point_ms", "ms"),
    ("svc.ack_p50_ms", "ms"),
    ("svc.ack_p95_ms", "ms"),
    ("svc.recover_ms", "ms"),
    ("svc.records_recovered", "count"),
    ("io.bytes_per_job", "B"),
    ("io.fsyncs_per_job", "count"),
    ("peec.kernel_sample_evals", "count"),
    ("peec.kernel_exact_pairs", "count"),
    ("peec.kernel_cluster_pairs", "count"),
    ("peec.kernel_cluster_skipped", "count"),
    ("peec.mutual_cache_hits", "count"),
    ("peec.mutual_cache_misses", "count"),
    ("peec.global_mutual_hits", "count"),
    ("peec.global_mutual_misses", "count"),
    ("place.candidates_evaluated", "count"),
    ("sweep.full_solves", "count"),
    ("sweep.interp_points", "count"),
    ("sweep.surrogate_evals", "count"),
    ("sweep.escalations", "count"),
    ("pool.batches", "count"),
    ("pool.chunks", "count"),
    ("pool.steals", "count"),
    ("pool.serial_fallbacks", "count"),
    ("ckt.unknowns", "count"),
]
FLOW_STAGES = ("sensitivity", "initial_prediction", "rule_derivation",
               "placement", "verification")

# Per-operation work counters taken from solo calls (never from concurrent
# serve jobs, whose process-global deltas mix jobs), and the serve counters
# taken from Service::stats() and the fsync count, per job.
SOLO_COUNTERS = {
    "flow_buck": [
        "peec.kernel_sample_evals", "peec.kernel_exact_pairs",
        "peec.kernel_cluster_pairs", "peec.kernel_cluster_skipped",
        "peec.mutual_cache_hits", "peec.mutual_cache_misses",
        "place.candidates_evaluated", "sweep.full_solves",
        "sweep.interp_points", "sweep.surrogate_evals", "sweep.escalations",
        "pool.batches", "pool.chunks", "pool.steals", "pool.serial_fallbacks",
    ],
    "large_board": [
        "peec.kernel_sample_evals", "peec.kernel_exact_pairs",
        "peec.kernel_cluster_pairs", "peec.kernel_cluster_skipped",
        "pool.batches", "pool.chunks", "pool.steals", "pool.serial_fallbacks",
        "ckt.unknowns",
    ],
}
SERVE_PER_JOB = [
    "peec.global_mutual_hits", "peec.global_mutual_misses",
    "sweep.full_solves", "sweep.interp_points", "sweep.surrogate_evals",
    "sweep.escalations",
]
# Counts that must repeat exactly between two runs of one workload, seed and
# length, and between the operations of one run of a solo workload (asserted
# by emibench/selftest.py). pool.steals depends on scheduling and is left out.
DETERMINISTIC = {w: [c for c in cs if c != "pool.steals"]
                 for w, cs in SOLO_COUNTERS.items()}
for w in SERVE:
    DETERMINISTIC[w] = SERVE_PER_JOB + ["io.bytes_per_job", "io.fsyncs_per_job",
                                        "svc.records_recovered"]

# Output-check tolerances for large_board (flows and jobs compare result
# fingerprints exactly). A numerically equivalent solver stays far inside
# them; a wrong one does not.
LEVEL_TOL_DB = 1e-6
K_REL_TOL = 1e-6


def die(msg, code):
    print("emibench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build the runner; the build log goes to BUILD/build.log."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join("emibench", "CMakeLists.txt")):
        die("src/CMakeLists.txt and emibench/CMakeLists.txt not found: run from the root of a full checkout", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Configure every time (about a second when cached), so a build directory
    # left by other sources still learns about new or renamed targets.
    steps = [["cmake", "-S", "emibench", "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "emibench_runner", "-j", str(nproc())]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed: " + " ".join(cmd), 2)


def run_lines(args_list, env):
    try:
        proc = subprocess.run([RUNNER] + args_list, stdout=subprocess.PIPE,
                              env=env, timeout=RUNNER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("emibench_runner timed out after %d s" % RUNNER_TIMEOUT_S, 1)
    if proc.returncode != 0:
        die("emibench_runner exited with code %d" % proc.returncode, 1)
    return proc.stdout.splitlines()


def run_workload(args_list, env):
    """The runner's record of one workload: one JSON line per operation, then
    the run document, returned with the operations under "ops"."""
    lines = run_lines(args_list, env)
    doc = json.loads(lines[-1])
    doc["ops"] = [json.loads(line) for line in lines[:-1]]
    return doc


def source_digest():
    """sha256 over the sources the runner is built from."""
    h = hashlib.sha256()
    files = ["CMakeLists.txt"]
    for top in ("src", "emibench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        if os.path.isfile(path):
            h.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    """HEAD of the repository whose root is the working directory, if any."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return None
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        return head.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def fs_type(path):
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def quantile(values, q):
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- output checks -----------------------------------------------------------

def check_flow(op, refs, kind):
    return (op["complete"] == 1 and op["diagnostics"] == 0 and
            op["fingerprint"] == refs["fingerprints"][kind])


def check_job(op, refs):
    return (op["reply"] == "OK" and op["state"] == "done" and op["complete"] == "1" and
            op["fingerprint"] == refs["fingerprints"][op["kind"]])


def check_board(op, ref):
    if op["pairs"] != ref["pairs"] or len(op["levels_dbuv"]) != len(ref["levels_dbuv"]):
        return False
    if any(abs(a - b) > LEVEL_TOL_DB
           for a, b in zip(op["levels_dbuv"], ref["levels_dbuv"])):
        return False
    # The same strongest pairs, each with its own coupling factor. Pairs are
    # matched by name, so near-ties may swap places in the ranking.
    got = {(a, b): k for a, b, k in op["top"]}
    want = {(a, b): k for a, b, k in ref["top"]}
    return got.keys() == want.keys() and all(
        abs(got[pair] - k) <= K_REL_TOL * abs(k) for pair, k in want.items())


def count_failures(doc, refs):
    w = doc["workload"]
    if w == "flow_buck":
        ok = [check_flow(op, refs, "buck_exact") for op in doc["ops"]]
    elif w in SERVE:
        ok = [check_job(op, refs) for op in doc["ops"]]
    else:
        ref = refs["large_board"][str(doc["board_seed"])]
        ok = [check_board(op, ref) for op in doc["ops"]]
    return len(ok), ok.count(False)


# --- metrics -----------------------------------------------------------------

def end_to_end(doc):
    """Gated end-to-end metrics and the ungated ones, in one dict."""
    ms = [op["ms"] for op in doc["ops"]]
    return {
        "op_p50_ms": quantile(ms, 50),
        "setup_s": statistics.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "op_p90_ms": quantile(ms, 90),
        "op_p95_ms": quantile(ms, 95),
        "ops_per_s": len(ms) / doc["measured_s"],
    }


def self_times(spans):
    """Per operation: self time (ms) per layer. A span's self time is its
    duration minus its children's; roots count as layer `root`, every other
    span as the layer named before the first dot of its name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, op in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    per_op = {}
    for i, (name, t0, t1, parent, op) in enumerate(spans):
        layer = "root" if parent < 0 else name.split(".")[0]
        layers = per_op.setdefault(op, {})
        layers[layer] = layers.get(layer, 0.0) + (t1 - t0 - child[i]) / 1000.0
    return per_op


def span_p50(spans, name):
    durations = [(t1 - t0) / 1000.0 for n, t0, t1, _, _ in spans if n == name]
    return quantile(durations, 50) if durations else 0.0


def per_layer(doc):
    """Every per-layer metric. A layer call the workload never makes from the
    benchmark reads 0."""
    w = doc["workload"]
    spans = doc["spans"]
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0)

    traced = [op["ms"] for op in doc["ops"] if op["traced"]]
    bare = [op["ms"] for op in doc["ops"] if not op["traced"]]
    if traced and bare:
        m["trace.overhead_pct"] = 100.0 * (quantile(traced, 50) / quantile(bare, 50) - 1.0)
    per_op = self_times(spans)
    for name in m:
        if name.startswith("self."):
            layer = name[len("self."):-len("_ms")]
            vals = [layers.get(layer, 0.0) for layers in per_op.values()]
            m[name] = quantile(vals, 50) if vals else 0.0

    if w in SOLO_COUNTERS:
        for c in SOLO_COUNTERS[w]:
            m[c] = statistics.median_low([op["counters"][c] for op in doc["ops"]])
    if w == "flow_buck":
        for stage in FLOW_STAGES:
            m["flow.%s_ms" % stage] = span_p50(spans, "flow." + stage)
    elif w in SERVE:
        acks = [op["ack_ms"] for op in doc["ops"]]
        m["svc.ack_p50_ms"] = quantile(acks, 50)
        m["svc.ack_p95_ms"] = quantile(acks, 95)
        counters = doc["counters"]
        jobs = counters["jobs"]
        m["io.bytes_per_job"] = counters["state_bytes"] / jobs
        m["io.fsyncs_per_job"] = counters["fsyncs"] / jobs
        for c in SERVE_PER_JOB:
            m[c] = counters[c] / jobs
        m["svc.recover_ms"] = doc["recover_ms"]
        m["svc.records_recovered"] = counters["svc.records_recovered"]
    else:
        m["peec.extract_ms"] = span_p50(spans, "peec.extract")
        m["ckt.sweep_ms"] = span_p50(spans, "ckt.sweep")
        m["ckt.point_ms"] = m["ckt.sweep_ms"] / doc["sweep_points"]
    return m


def provenance(doc, args, env):
    prov = {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "build_type": doc["build_type"],
        "compiler": doc["compiler"],
        "cxx_flags": doc["cxx_flags"].strip(),
        "nproc": nproc(),
        "emi_threads": env.get("EMI_THREADS"),
        "pool_lanes": doc["pool_lanes"],
        "seed": args.seed,
        "host": platform.node(),
        "machine": platform.machine(),
        "work_dir_fs": fs_type(WORK),
    }
    if "board_seed" in doc:
        prov["board_seed"] = doc["board_seed"]
    if "jobs_per_client" in doc:
        prov["jobs_per_client"] = doc["jobs_per_client"]
        prov["fsync"] = doc["fsync"]
    return prov


def record_path(workload, seed, trace):
    """Where a run's full record (provenance, metrics, raw document) goes."""
    return os.path.join(RESULTS, "%s-seed%d-trace%d.json" % (workload, seed, trace))


def make_refs(env):
    doc = json.loads(run_lines(["--workload", "refs", "--seed", "0", "--seconds", "1",
                                "--trace", "0", "--work-dir", WORK], env)[-1])
    with open(REFS, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + os.path.relpath(REFS))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + UNGATED)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-refs", action="store_true",
                    help="regenerate emibench/refs/references.json and exit")
    args = ap.parse_args()
    os.chdir(ROOT)
    if not args.make_refs and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build()
    env = dict(os.environ)
    env.setdefault("EMI_THREADS", str(nproc()))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(RESULTS, exist_ok=True)
    if args.make_refs:
        make_refs(env)
        return

    with open(REFS) as f:
        refs = json.load(f)
    doc = run_workload(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace),
                      "--work-dir", WORK], env)
    prov = provenance(doc, args, env)
    shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed = count_failures(doc, refs)
    e2e = end_to_end(doc)
    if args.trace:
        values, units = per_layer(doc), dict(PER_LAYER)
    else:
        values, units = e2e, dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    ungated = {name: {"value": e2e[name], "unit": unit} for name, unit in UNGATED_METRICS}

    record = record_path(args.workload, args.seed, args.trace)
    with open(record, "w") as f:
        json.dump({"provenance": prov, "attempted": attempted, "failed": failed,
                   "metrics": metrics, "ungated": ungated, "raw": doc}, f)

    print("emibench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print("%-30s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, m in ungated.items():
        print("%-30s %16.6g %s (not gated)" % (name, m["value"], m["unit"]))
    print("%-30s %16d" % ("operations", len(doc["ops"])))
    print("%-30s %16.6g (%d failed of %d attempted)" %
          ("fail_ratio", failed / attempted, failed, attempted))
    print("record " + record)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
