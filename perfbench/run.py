#!/usr/bin/env python3
"""Benchmark entry point: build the engine from source, then run one
measurement of one workload.

    python3 perfbench/run.py --workload report|oltp|publish --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds
bin/gapply_server.exe and perfbench/perfbench.exe with dune (no dune
cache, no user configuration, temporary files under .perfbench_tmp), then
runs the benchmark program in its own process group and relays its
output; the last line is the result object.  Whatever the program
leaves running when it ends or times out is killed and reaped.

Exit codes: 0 a correct run; 1 a wrong answer or failed check (the
result line says "correct": false); 2 the checkout cannot be built or
the arguments are bad; 3 the run timed out or died without a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

BUILD_TIMEOUT_S = 850
FIRST_RUN_LIMIT_S = 895
RUN_LIMIT_S = 170
TARGETS = ["./bin/gapply_server.exe", "./perfbench/perfbench.exe"]


def env_for(root):
    tmp = os.path.join(root, ".perfbench_tmp", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(TMPDIR=tmp, DUNE_CACHE="disabled")
    return env


def build(root):
    """Build both executables; return their paths or None."""
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isfile(os.path.join(root, "bin", "gapply_server.ml"))):
        print("perfbench: no engine sources here (dune-project, bin/)",
              file=sys.stderr)
        return None
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return None
    cmd = [dune, "build", "--root", ".", "--no-config", "--cache=disabled",
           "--display=quiet"] + TARGETS
    try:
        done = subprocess.run(cmd, cwd=root, env=env_for(root),
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    exes = [os.path.join(root, "_build", "default", t[2:]) for t in TARGETS]
    return exes if all(os.path.isfile(e) for e in exes) else None


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(root, exes, args, limit_s):
    """Run the benchmark program; relay its stdout; return its exit code
    and its last stdout line."""
    server, bench = exes
    cmd = [bench, args.mode, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--server", server]
    proc = subprocess.Popen(cmd, cwd=root, env=env_for(root),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(limit_s, kill_group, [proc.pid])
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line.strip()
        code = proc.wait()
    finally:
        timer.cancel()
        # a server orphaned by a crash of the program is still in its group
        kill_group(proc.pid)
        proc.stdout.close()
    sys.stdout.flush()
    if code == -signal.SIGKILL:
        print("perfbench: run timed out", file=sys.stderr)
    return code, last


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["report", "oltp", "publish"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = p.parse_args(argv)
    args.mode = "run"
    return args


def main(argv):
    start = time.monotonic()
    args = parse_args(argv)
    root = os.getcwd()
    exes = build(root)
    if exes is None:
        return 2
    # the first run in a fresh checkout pays for the build; the
    # measurement itself must finish within the run limit
    limit = min(RUN_LIMIT_S, FIRST_RUN_LIMIT_S - (time.monotonic() - start))
    code, last = run(root, exes, args, limit)
    if code in (0, 1) and last.startswith("{"):
        return code
    print("perfbench: no result (exit %s)" % code, file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
