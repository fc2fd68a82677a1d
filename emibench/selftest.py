#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the repository root:

    python3 emibench/selftest.py

1. The metric names and units run.py prints match BENCHMARK.json.
2. Determinism: every workload runs twice, traced, with the same seed and
   length. Both runs pass their output checks, and every count run.py lists
   as deterministic repeats exactly across the two runs and, for the solo
   workloads, across every operation of a run.
3. Wrong references: the records of those runs are checked again, with
   run.count_failures, against deliberately corrupted copies of
   emibench/refs/references.json; exactly the operations the corruption
   affects must be counted as failed. A copy shifted by far less than the
   stated tolerance must still pass.

Exits 0 when every assertion holds.
"""

import copy
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own constants and checks)

SECONDS = "2"
SEED = 7
failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(workload):
    """One traced run; returns its result line and its full record."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("selftest: %s exited with %d" % (" ".join(cmd), out.returncode))
    with open(run.record_path(workload, SEED, 1)) as f:
        record = json.load(f)
    return json.loads(out.stdout.strip().splitlines()[-1]), record


def op_counts(op, names):
    return {name: op["counters"][name] for name in names}


def check_determinism(workload, first, second):
    (res_a, rec_a), (res_b, rec_b) = first, second
    expect(res_a["correct"] and res_b["correct"],
           "%s: traced runs pass their output checks" % workload)
    names = run.DETERMINISTIC[workload]
    for name in names:
        a = res_a["metrics"][name]["value"]
        b = res_b["metrics"][name]["value"]
        expect(a == b, "%s: %s repeats exactly across runs (%s, %s)" % (workload, name, a, b))
    if workload in run.SOLO_COUNTERS:
        ref = op_counts(rec_a["raw"]["ops"][0], names)
        for label, rec in (("first", rec_a), ("second", rec_b)):
            differing = [i for i, op in enumerate(rec["raw"]["ops"])
                         if op_counts(op, names) != ref]
            expect(not differing,
                   "%s: every operation of the %s run has the same counts (%d of %d differ)"
                   % (workload, label, len(differing), len(rec["raw"]["ops"])))


def flip(hex_fp):
    return ("0" if hex_fp[0] != "0" else "1") + hex_fp[1:]


def shifted_levels(refs, delta_db):
    out = copy.deepcopy(refs)
    for board in out["large_board"].values():
        board["levels_dbuv"][len(board["levels_dbuv"]) // 2] += delta_db
    return out


def swapped_k(refs):
    """The strongest and the weakest top pair keep their names but trade
    coupling factors."""
    out = copy.deepcopy(refs)
    for board in out["large_board"].values():
        top = board["top"]
        top[0][2], top[-1][2] = top[-1][2], top[0][2]
    return out


def check_wrong_refs(records, refs):
    bad = copy.deepcopy(refs)
    bad["fingerprints"]["buck_exact"] = flip(bad["fingerprints"]["buck_exact"])
    attempted, failed = run.count_failures(records["flow_buck"]["raw"], bad)
    expect(failed == attempted > 0,
           "flow_buck: wrong buck_exact fingerprint fails every flow (%d of %d)"
           % (failed, attempted))

    bad = copy.deepcopy(refs)
    bad["fingerprints"]["boost_adaptive"] = flip(bad["fingerprints"]["boost_adaptive"])
    for workload in run.SERVE:
        attempted, failed = run.count_failures(records[workload]["raw"], bad)
        # Every client runs each of the four job kinds (the fingerprint keys)
        # equally often.
        expect(failed > 0 and failed * len(refs["fingerprints"]) == attempted,
               "%s: wrong boost_adaptive fingerprint fails exactly those jobs (%d of %d)"
               % (workload, failed, attempted))

    board = records["large_board"]["raw"]
    attempted, failed = run.count_failures(board, shifted_levels(refs, 1e-3))
    expect(failed == attempted > 0,
           "large_board: spectrum 1e-3 dB off fails every board (%d of %d)"
           % (failed, attempted))
    attempted, failed = run.count_failures(board, swapped_k(refs))
    expect(failed == attempted > 0,
           "large_board: top pairs with swapped coupling factors fail every board "
           "(%d of %d)" % (failed, attempted))
    attempted, failed = run.count_failures(board, shifted_levels(refs, run.LEVEL_TOL_DB / 100))
    expect(failed == 0 and attempted > 0,
           "large_board: spectrum within tolerance passes (%d of %d)" % (failed, attempted))


def main():
    os.chdir(run.ROOT)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end matches run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads match run.py")

    records = {}
    for workload in run.WORKLOADS + run.UNGATED:
        first = bench(workload)
        second = bench(workload)
        check_determinism(workload, first, second)
        records[workload] = second[1]

    with open(run.REFS) as f:
        check_wrong_refs(records, json.load(f))

    if failures:
        print("%d assertion(s) failed" % len(failures))
        sys.exit(1)
    print("all assertions hold")


if __name__ == "__main__":
    main()
