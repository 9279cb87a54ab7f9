#!/usr/bin/env python3
"""Build the perfbench module and run it.

Run from the repository root:

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark binary. The build cache, the
binary, per-run scratch files and traces all live under .bench_build/
at the repository root, so nothing is read or written outside it.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.stderr.write("perfbench: %s holds no go.mod; run from a full checkout of the repository\n" % ROOT)
        return 2
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(WORK, sub)
        os.makedirs(env[key], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=readonly"
    binary = os.path.join(WORK, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execve(binary, [binary, "--workdir", WORK] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
