#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload trace-1m --seed 1 --seconds 12 --trace 0

The script builds the Go program in perfbench/ from source with the local
toolchain and runs it with the given arguments. Everything the build writes
(binary, build cache, module cache, Go's own config and telemetry) stays in
the build directory: $CARGO_TARGET_DIR when set, else .bench_build, relative
to the current directory. The program's standard output is passed through;
its last line is the JSON result. A failed build exits non-zero without
printing a result.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gomodcache", "gopath", "tmp", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)

    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
