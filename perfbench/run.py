#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload batch-bin --seed 1 --seconds 20 --trace 0

The benchmark is the Go program in this directory (its own module,
which imports the repository's packages through a replace directive).
It is built from the checkout's sources into .bench_build/perfbench,
with the Go build cache, temporary files and durable test data kept
there too, so a run reads and writes nothing outside the checkout
except the Go toolchain it runs. Every argument is passed to the
program; see main.go for the flags and README.md for the metrics.
The program's last line of output is the JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# A cold build compiles the standard library too; build and run together
# stay under fifteen minutes, a run alone under three.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def go_env():
    env = dict(os.environ)
    for name in ("gocache", "tmp", "home", "work"):
        os.makedirs(os.path.join(BUILD, name), exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "home", "go"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    return env


def flag_value(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def main(args):
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod beside perfbench/: run from a repository checkout")
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")

    cmd = [binary] + args + ["--workdir", os.path.join(BUILD, "work")]
    if flag_value(args, "--trace") == "1":
        name = "spans-%s-%s.jsonl" % (flag_value(args, "--workload"), flag_value(args, "--seed"))
        cmd += ["--spans", os.path.join(BUILD, name)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
