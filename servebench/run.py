#!/usr/bin/env python3
"""Serving benchmark for AMbER over HTTP.

Run from the repository root:

    python3 servebench/run.py --workload complex-solo --seed 1 --seconds 10 --trace 0

Builds servebench/ (and with it the repository's `amber` library) into
.bench_build/servebench, then for one run:

  1. starts the server process five times (`servebench serve`). Each one
     generates the dataset, then builds the engine, saves and reopens the
     AMF artifact and starts QueryService + HttpServer. setup_s is the time
     from the "generated" line to the first GET /healthz 200, the median of
     the five; the first four servers are stopped again.
  2. runs the load generator (`servebench drive`) against the last server:
     reference answers, warm-up, then the timed phase (--trace 0) or the
     traced replay (--trace 1).
  3. stops the server and prints one JSON line: the end-to-end metrics
     (--trace 0) or the per-layer metrics (--trace 1).

Exits non-zero without a result line when anything fails, including a
checkout without the AMbER sources next to servebench/.
"""

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "servebench")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
EXE = os.path.join(BUILD_DIR, "servebench")
WORKLOADS = ("complex-solo", "star-hot", "fanout-stream")
# With four or more CPUs the server and the load generator run on disjoint
# pairs, so neither migrates onto the other's CPUs between requests, and the
# load generator busy-polls its sockets instead of sleeping in recv().
CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = set(CPUS[:2]) if len(CPUS) >= 4 else None
DRIVER_CPUS = set(CPUS[2:4]) if len(CPUS) >= 4 else None
SETUPS = 5
# Fields of the server's "listening" line after the port, as per-layer
# metrics (name, unit).
SETUP_LAYERS = (
    ("build.encode_s", "s"),
    ("build.graph_s", "s"),
    ("build.index_s", "s"),
    ("amf.save_s", "s"),
    ("amf.open_s", "s"),
    ("amf.bytes", "bytes"),
    ("server.ready_s", "s"),
)


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   check=True, stdout=sys.stderr)


def pin(cpus):
    """A preexec_fn that restricts the child to `cpus` (None: no change)."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class Server:
    """One `servebench serve` process; stdin closing stops it."""

    def __init__(self, amf):
        self.proc = subprocess.Popen([EXE, "serve", "--amf", amf],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=pin(SERVER_CPUS))
        try:
            if self.proc.stdout.readline().strip() != "generated":
                raise RuntimeError("server did not generate its dataset")
            t0 = time.monotonic()
            fields = self.proc.stdout.readline().split()
            if len(fields) != 2 + len(SETUP_LAYERS) or fields[0] != "listening":
                raise RuntimeError("server did not start: %r" % fields)
            self.port = int(fields[1])
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            conn.request("GET", "/healthz")
            reply = conn.getresponse()
            reply.read()
            if reply.status != 200:
                raise RuntimeError("GET /healthz: HTTP %d" % reply.status)
            self.setup_s = time.monotonic() - t0
            conn.close()
            self.layers = [float(v) for v in fields[2:]]
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def run(args, run_dir):
    amf = os.path.join(run_dir, "dataset.amf")
    setups = []
    layers = []
    server = None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            server = Server(amf)
            setups.append(server.setup_s)
            layers.append(server.layers)
        drive = subprocess.run(
            [EXE, "drive", "--port", str(server.port),
             "--server-pid", str(server.proc.pid), "--amf", amf,
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--busy-poll", "1" if DRIVER_CPUS else "0"],
            stdout=subprocess.PIPE, text=True, timeout=150,
            preexec_fn=pin(DRIVER_CPUS))
    finally:
        if server is not None:
            server.stop()
    if drive.returncode != 0:
        raise RuntimeError("drive exited with %d" % drive.returncode)
    result = json.loads(drive.stdout.strip().splitlines()[-1])
    if args.trace:
        for i, (name, unit) in enumerate(SETUP_LAYERS):
            value = statistics.median(row[i] for row in layers)
            result["metrics"][name] = {"value": value, "unit": unit}
    else:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setups), "unit": "s"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    run_dir = os.path.join(RUN_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                   os.getpid()))
    try:
        build()
        os.makedirs(run_dir, exist_ok=True)
        result = run(args, run_dir)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log("failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for name, metric in sorted(result["metrics"].items()):
        log("%-28s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
