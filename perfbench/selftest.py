#!/usr/bin/env python3
"""Self-test of the payment-service benchmark.

    python3 perfbench/selftest.py

Runs a 1-second pass of every workload in BENCHMARK.json, traced and
untraced, and checks that each pass is correct and emits exactly the metrics BENCHMARK.json names, each with
its unit.  Then injects two faults -- an `err` reply and a corrupted pay
digest -- and checks that each one raises error_rate (failed > 0) and
makes the run exit nonzero.
Exits nonzero on any failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seed", "7", "--seconds", "1"]


def run(args):
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + args,
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in [w["name"] for w in bench["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{w} --trace {trace}"
            code, res, err = run(["--workload", w, "--trace", trace] + TINY)
            check(code == 0 and res is not None, f"{name}: exits 0 with a result")
            if res is None:
                sys.stderr.write(err)
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{name}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, f"{name}: every {key} metric emitted with its unit")

    for inject in ("err", "digest"):
        name = f"edit-flood --inject {inject}"
        code, res, _ = run(["--workload", "edit-flood", "--trace", "0", "--inject", inject] + TINY)
        check(code != 0 and res is not None and res["failed"] > 0 and not res["correct"],
              f"{name}: error_rate > 0 and a nonzero exit")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
