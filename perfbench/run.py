#!/usr/bin/env python3
"""Closed-loop serving benchmark for rtb_server.

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 15 --trace 0

Builds rtb_server and the rtb_loadgen load generator from the checkout's
sources (CMake, into .bench_build/), serves the workload's spec with
rtb_server at its shipped defaults (five server lifetimes of --seconds/5
each), drives it with rtb_loadgen and prints one
JSON object as the last line of stdout: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. perfbench/NOTES.md says why
each workload exists and where each per-layer metric comes from.

Exits non-zero, naming the workload and the step, when a step fails or a
reply is wrong; every process it starts is stopped and reaped first, and the
run's files are removed.
"""

import argparse
import ctypes
import fcntl
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The paper's TIGER surrogate, bulk-loaded HS at fanout 50 into a
# file-backed store (~20k pages). Fixed for every seed: the seed drives the
# request streams.
DATASET = {"kind": "tiger", "n": 1000000, "seed": 1998}
FANOUT = 50
# An end-to-end run splits its --seconds over this many server lifetimes.
# Each start-up is a setup_s sample, and each lifetime logs only its share of
# the writes: write_mixed appends ~130 MB/s of WAL, which only the shutdown
# checkpoint truncates, so one 15 s lifetime would leave a ~2 GB log on disk.
SEGMENTS = 5
RUN_BUDGET_S = 165   # Everything after the build must fit in this.
# Free disk the run directory needs: a store (~115 MB) and a segment's WAL
# (~0.5 GB on write_mixed), with room to spare.
MIN_FREE_BYTES = 1 << 30

WORKLOADS = {
    "search_cold": {
        "outstanding": 256,   # Per connection; there are two.
        "mix": {"search": 0.9, "knn": 0.1},
        "pool_pages": 256,
        "wal": False,
        "warm_tiles": 0,
    },
    # Run by hand only; not in BENCHMARK.json (perfbench/NOTES.md says why).
    "search_hot": {
        "outstanding": 8,
        "mix": {"search": 0.9, "knn": 0.1},
        "pool_pages": 32768,  # Holds the whole tree.
        "wal": False,
        "warm_tiles": 32,     # Touch every page before timing.
    },
    "write_mixed": {
        "outstanding": 128,
        "mix": {"search": 0.5, "insert": 0.4, "delete": 0.1},
        "pool_pages": 256,
        "wal": True,
        "warm_tiles": 0,
    },
}


def die_with_parent():
    """Runs in each child before exec: SIGKILL it when run.py dies, even
    when run.py itself is killed with SIGKILL."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)


class BenchError(Exception):
    def __init__(self, step, message):
        super().__init__(message)
        self.step = step


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self, step):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(step, "out of time")
        return left


def build(root):
    """Configures once, then builds incrementally; returns the binaries."""
    for needed in ("CMakeLists.txt", "src", "tools/rtb_server.cc"):
        if not (root / needed).exists():
            raise BenchError("build", f"the checkout has no {needed}")
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    with open(build_dir.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = build_dir / "CMakeCache.txt"
        source = f"CMAKE_HOME_DIRECTORY:INTERNAL={root / 'perfbench'}\n"
        if cache.exists() and source not in cache.read_text():
            # A build tree copied from another checkout would go on building
            # that checkout's sources; start over.
            shutil.rmtree(build_dir)
        commands = []
        if not cache.exists():
            commands.append(["cmake", "-S", str(root / "perfbench"), "-B",
                             str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
        commands.append(["cmake", "--build", str(build_dir), "--target",
                         "rtb_server", "rtb_loadgen", "-j",
                         str(min(4, os.cpu_count() or 1))])
        for command in commands:
            done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                  stdin=subprocess.DEVNULL, timeout=850)
            if done.returncode != 0:
                raise BenchError("build", f"{command[:2]} exited "
                                 f"{done.returncode}")
    return (build_dir / "rtb" / "tools" / "rtb_server",
            build_dir / "rtb_loadgen")


def write_spec(path, workload, seed, store):
    spec = {
        "name": "perfbench",
        "dataset": DATASET,
        "tree": {"fanout": FANOUT, "algo": "HS"},
        "pool": {"buffer_pages": workload["pool_pages"], "policy": "LRU"},
        "storage": {"backend": "file", "path": str(store),
                    "wal": {"enabled": workload["wal"],
                            "group_commit_window": 8}},
        # Serving takes its requests from the wire; the spec format needs
        # one placeholder class.
        "workload": {"classes": [{"label": "serving", "model": "uniform",
                                  "count": 1}]},
        "run": {"threads": 1, "seed": seed},
    }
    path.write_text(json.dumps(spec))


class Server:
    """One rtb_server process; stop() or kill() must run on every path."""

    def __init__(self, binary, spec, rundir, env, deadline):
        start = time.monotonic()
        self.proc = subprocess.Popen(
            [str(binary), f"--spec={spec}", "--port=0"], cwd=rundir, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, bufsize=0,
            preexec_fn=die_with_parent)
        try:
            line = self._read_line(deadline)
            # Spawn to the "listening" line: dataset generation, bulk load
            # and, with a WAL, the initial checkpoint.
            self.setup_s = time.monotonic() - start
            match = re.search(rb"listening on 127\.0\.0\.1:(\d+)", line)
            if match is None:
                raise BenchError("setup", f"unexpected server output {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.kill()
            raise

    def _read_line(self, deadline):
        buf = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buf:
            ready, _, _ = select.select([fd], [], [], deadline.left("setup"))
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError("setup", "rtb_server exited with code "
                                 f"{self.proc.wait()} before listening")
            buf += chunk
        return buf.split(b"\n", 1)[0]

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("load", "no VmHWM for the server")

    def stop(self, deadline):
        """Graceful shutdown; returns the server's final stats document."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=deadline.left("shutdown"))
        except subprocess.TimeoutExpired:
            raise BenchError("shutdown", "rtb_server did not exit on SIGTERM")
        if self.proc.returncode != 0:
            raise BenchError("shutdown", "rtb_server exited with code "
                             f"{self.proc.returncode}")
        return json.loads(out.decode().strip().splitlines()[-1])

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_loadgen(binary, args, env, deadline, step):
    proc = subprocess.Popen([str(binary)] + args, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            preexec_fn=die_with_parent)
    try:
        out, _ = proc.communicate(timeout=deadline.left(step))
    except subprocess.TimeoutExpired:
        raise BenchError(step, "rtb_loadgen timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(step, f"rtb_loadgen exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def stream_args(workload, seed, spec):
    mix = workload["mix"]
    return [f"--spec={spec}", f"--seed={seed}",
            f"--search={mix.get('search', 0)}", f"--knn={mix.get('knn', 0)}",
            f"--insert={mix.get('insert', 0)}",
            f"--delete={mix.get('delete', 0)}",
            f"--warm_tiles={workload['warm_tiles']}"]


def stream_seed(seed, segment):
    """The request streams' seed for one segment of a run."""
    return seed * SEGMENTS + segment


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(workload, live, replay):
    s0, s1 = live["stats_start"], live["stats_end"]

    def d(section, key):
        return s1.get(section, {}).get(key, 0) - s0.get(section, {}).get(key, 0)

    searches = d("server", "searches")
    updates = d("server", "inserts") + d("server", "deletes")
    # The workload's non-SEARCH class: kNN on reads, INSERT/DELETE on writes.
    if workload["wal"]:
        other_us = ratio(replay["update_s"], replay["updates"]) * 1e6
    else:
        other_us = ratio(replay["knn_s"], replay["knns"]) * 1e6
    spans = sum(replay[k] for k in
                ("decode_s", "update_s", "search_s", "knn_s", "encode_s"))
    logical = (replay["search_node_accesses"] + replay["knn_node_accesses"] +
               replay["update_node_accesses"])
    server_s_per_op = ratio(live["window_s"], live["window_ops"])
    replay_s_per_op = ratio(replay["processing_s"], replay["ops"])
    m = {
        "net.effective_batch": (ratio(d("server", "requests_admitted"),
                                      d("server", "batches")), "requests"),
        "net.decode_us_per_op": (ratio(replay["decode_s"], replay["ops"]) * 1e6,
                                 "us"),
        "net.encode_us_per_op": (ratio(replay["encode_s"], replay["ops"]) * 1e6,
                                 "us"),
        "net.reply_bytes_per_op": (ratio(replay["reply_bytes"], replay["ops"]),
                                   "bytes"),
        "net.outside_layers_share": (1.0 - ratio(replay_s_per_op,
                                                 server_s_per_op), "ratio"),
        "net.stack_open_s": (replay["stack_open_s"], "s"),
        "rtree.search_us_per_query": (ratio(replay["search_s"],
                                            replay["searches"]) * 1e6, "us"),
        "rtree.search_nodes_per_query": (ratio(d("executor",
                                                 "search_node_accesses"),
                                               searches), "count"),
        "rtree.search_pages_per_query": (ratio(d("executor",
                                                 "search_page_visits"),
                                               searches), "count"),
        "rtree.results_per_query": (live["results_per_search"], "count"),
        "rtree.other_us_per_op": (other_us, "us"),
        "rtree.pages_mutated_per_update": (ratio(d("executor",
                                                   "update_pages_mutated"),
                                                 updates), "count"),
        "rtree.splits_per_update": (ratio(replay["update_splits"],
                                          replay["updates"]), "count"),
        "storage.pool_hit_rate": (ratio(d("pool", "hits"),
                                        d("pool", "requests")), "ratio"),
        "storage.effective_hit_rate": (1.0 - ratio(replay["pool_misses"],
                                                   logical), "ratio"),
        "storage.misses_per_search": (ratio(replay["search_misses"],
                                            replay["searches"]), "count"),
        "storage.file_reads_per_op": (ratio(replay["store_read_syscalls"],
                                            replay["ops"]), "count"),
        "storage.pages_per_read_batch": (ratio(replay["store_batch_pages"],
                                               replay["store_read_batches"]),
                                         "count"),
        "storage.writebacks_per_update": (ratio(d("pool", "writebacks"),
                                                updates), "count"),
        "storage.wal_bytes_per_update": (ratio(d("wal", "bytes"), updates),
                                         "bytes"),
        "storage.wal_sync_points_per_commit": (ratio(d("wal", "fsyncs"),
                                                     d("wal", "commits")),
                                               "count"),
        "model.predicted_disk_per_search": (replay["predicted_disk_per_search"],
                                            "count"),
        "engine.prepare_tree_s": (replay["prepare_tree_s"], "s"),
        "driver.cpu_share": (ratio(live["cpu_s"], live["window_s"]), "ratio"),
        "driver.replay_uncovered_share": (1.0 - ratio(spans,
                                                      replay["processing_s"]),
                                          "ratio"),
    }
    log(f"server STATS: latency_p50_us={s1['server']['latency_p50_us']} "
        f"latency_p99_us={s1['server']['latency_p99_us']} (lifetime, "
        f"log-bucket midpoints); replay {replay['ops']} ops in windows of "
        f"{replay['window']}")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def run(args, root):
    workload = WORKLOADS[args.workload]
    server_bin, loadgen_bin = build(root)
    deadline = Deadline(RUN_BUDGET_S)
    rundir = root / ".bench_build" / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = dict(os.environ)
    # No fdatasync: the benchmark measures the serving path, not the disk.
    # WAL sync points are still counted (storage.wal_sync_points_per_commit).
    env["RTB_NO_FSYNC"] = "1"
    server = None
    try:
        free = shutil.disk_usage(rundir).free
        if free < MIN_FREE_BYTES:
            raise BenchError("setup", f"only {free >> 20} MB free on the "
                             f"checkout's disk, {MIN_FREE_BYTES >> 20} MB "
                             "needed")
        spec = rundir / "server.json"
        write_spec(spec, workload, args.seed, rundir / "server.store")
        segment_s = args.seconds / SEGMENTS
        setups, rss_mb, segments = [], [], []
        for i in range(1 if args.trace else SEGMENTS):
            server = Server(server_bin, spec, rundir, env, deadline)
            setups.append(server.setup_s)
            load_args = ["load", f"--port={server.port}",
                         f"--outstanding={workload['outstanding']}",
                         f"--seconds={segment_s}", f"--trace={args.trace}"]
            live = run_loadgen(
                loadgen_bin,
                load_args + stream_args(workload, stream_seed(args.seed, i),
                                        spec), env, deadline, "load")
            rss_mb.append(server.peak_rss_mb())
            final = server.stop(deadline)
            server = None
            if final["server"]["protocol_errors"] != live["errors"]:
                raise BenchError("shutdown", "server and client disagree on "
                                 "the error-reply count")
            live["effective_batch"] = final["server"]["effective_batch"]
            segments.append(live)
        attempted = sum(live["sent"] + live["checks"] for live in segments)
        failed = sum(live["errors"] + live["mismatches"] for live in segments)

        if args.trace:
            live = segments[0]
            replay_spec = rundir / "replay.json"
            write_spec(replay_spec, workload, args.seed,
                       rundir / "replay.store")
            window = max(1, round(ratio(
                live["stats_end"]["server"]["requests_admitted"] -
                live["stats_start"]["server"]["requests_admitted"],
                live["stats_end"]["server"]["batches"] -
                live["stats_start"]["server"]["batches"])))
            replay = run_loadgen(
                loadgen_bin,
                ["replay", f"--window={window}"] +
                stream_args(workload, stream_seed(args.seed, 0), replay_spec),
                env, deadline, "replay")
            failed += replay["delete_missing"]
            metrics = per_layer_metrics(workload, live, replay)
        else:
            # Every figure is the median over the slices of all segments.
            slices = [sl for live in segments for sl in live["slices"]]

            def median(key):
                return statistics.median(sl[key] for sl in slices)

            other = "update" if workload["wal"] else "knn"
            summary = "; ".join(
                f"{label} n={sum(sl[key + '_n'] for sl in slices)} " +
                " ".join(f"{p}={median(f'{key}_{p}_ms'):.3f}"
                         for p in ("p50", "p99")) + " ms"
                for label, key in (("search", "search"), (other, "other")))
            log(f"{args.workload} seed {args.seed}: "
                f"{sum(live['window_ops'] for live in segments)} ops in "
                f"{SEGMENTS} x {segment_s:g} s; ops/s per slice " +
                " ".join(f"{sl['ops_per_s']:.0f}" for sl in slices) +
                "; server effective batch " +
                " ".join(f"{live['effective_batch']:.1f}" for live in segments)
                + f"; {summary}; setups " +
                " ".join(f"{s:.3f}" for s in setups) + " s")
            metrics = {
                "ops_per_s": {"value": median("ops_per_s"), "unit": "ops/s"},
                "search_p50_ms": {"value": median("search_p50_ms"),
                                  "unit": "ms"},
                "search_p99_ms": {"value": median("search_p99_ms"),
                                  "unit": "ms"},
                "other_p50_ms": {"value": median("other_p50_ms"), "unit": "ms"},
                "other_p99_ms": {"value": median("other_p99_ms"), "unit": "ms"},
                "ok_frac": {"value": 1.0 - ratio(failed, attempted),
                            "unit": "ratio"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "server_rss_mb": {"value": statistics.median(rss_mb),
                                  "unit": "MB"},
            }
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(rundir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so the server is stopped and reaped.
    def on_sigterm(*_):
        raise BenchError("run", "terminated by SIGTERM")
    signal.signal(signal.SIGTERM, on_sigterm)
    root = Path(__file__).resolve().parent.parent
    try:
        result = run(args, root)
    except BenchError as e:
        log(f"{args.workload}: {e.step} failed: {e}")
        return 1
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"{args.workload}: driver error: {e!r}")
        return 1
    if not result["correct"]:
        log(f"{args.workload}: check failed: {result['failed']} of "
            f"{result['attempted']} requests failed or were wrong")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
