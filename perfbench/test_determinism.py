#!/usr/bin/env python3
"""Determinism test of the benchmark's generator and traced replay.

    python3 perfbench/test_determinism.py

For every workload, makes the traced run (--trace 1, which replays a fixed
number of ops at the benchmark's scale factor) through perfbench/run.py:
twice with one seed, once with another. The two same-seed runs must agree
exactly on the op stream (its digest) and on every exact per-layer counter
(unit "count" or "ratio": ivm/deferred/exec row counts,
serve.publish_rows_copied and the ratios built from them). The other seed
must change the stream. Exits nonzero if any check fails.
"""

import json
import os
import re
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("oltp_immediate", "deferred_batch", "serve_fresh_read")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout
    digest = re.search(r"stream_digest=([0-9a-f]+)", out).group(1)
    result = json.loads(out.strip().splitlines()[-1])
    exact = {name: m["value"] for name, m in result["metrics"].items()
             if m["unit"] in ("count", "ratio")}
    return digest, result["correct"], exact


def main():
    failures = []
    for workload in WORKLOADS:
        a_digest, a_correct, a = run(workload, 7)
        b_digest, b_correct, b = run(workload, 7)
        c_digest, _, _ = run(workload, 8)
        before = len(failures)
        if not (a_correct and b_correct):
            failures.append("%s: run not correct" % workload)
        if a_digest != b_digest:
            failures.append("%s: same seed, different stream" % workload)
        if a != b:
            diff = {k: (v, b.get(k)) for k, v in a.items() if b.get(k) != v}
            failures.append("%s: counters differ %s" % (workload, diff))
        if a_digest == c_digest:
            failures.append("%s: another seed, same stream" % workload)
        print("%-18s digest %s / %s  counters %d  %s" % (
            workload, a_digest, c_digest, len(a),
            "ok" if len(failures) == before else "FAIL"))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
