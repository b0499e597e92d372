#!/usr/bin/env python3
"""Build and run the end-to-end payment-service benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `unicast` and the load generator
with dune (build output goes to stderr), then hands over to the load
generator, whose last stdout line is the JSON result.  Exits nonzero,
printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def dune_env():
    env = dict(os.environ)
    if shutil.which("dune", path=env.get("PATH")) is None and shutil.which("opam"):
        # A fresh shell without `eval $(opam env)`: put the switch on PATH.
        out = subprocess.run(["opam", "var", "bin"], capture_output=True, text=True)
        if out.returncode == 0 and out.stdout.strip():
            env["PATH"] = out.stdout.strip() + os.pathsep + env.get("PATH", "")
    return env


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dune_env()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", root, "bin/unicast.exe", "perfbench/load.exe"],
            cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    build_dir = os.path.join(root, "_build", "default")
    load = os.path.join(build_dir, "perfbench", "load.exe")
    server = os.path.join(build_dir, "bin", "unicast.exe")
    work = os.path.join(root, ".perfbench")
    sys.stdout.flush()
    os.chdir(root)
    os.execve(load, [load, "--server", server, "--work", work] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
