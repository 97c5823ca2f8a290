#!/usr/bin/env python3
"""End-to-end benchmark of simrankpp: closed-loop TopK clients over TCP
against the deployed `simrankpp serve-daemon`, plus the offline click
graph -> engine -> snapshot -> reload path. See perfbench/README.md for
the workloads and the metric catalog.

    python3 perfbench/run.py --workload warm_topk --seed 1 --seconds 18 \
        --trace 0

Run from the root of a checkout. The first run builds the repository and
the helper tool into .bench_build/; inputs, logs, spans and full results
go to .bench_work/. The last stdout line is the result JSON; the run exits
nonzero, without it, when it cannot build or run.
"""

import argparse
import json
import math
import os
import random
import re
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstats as bs  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"
CLI = BUILD / "simrankpp" / "tools" / "simrankpp"
TOOL = BUILD / "perfbench_tool"

NPROC = os.cpu_count() or 1
K = 10
# ~2.7k-query click graphs: linearized Prepare takes a few seconds, the
# sparse engine a tenth of one, and 2.7k rows are 2.6x the row cache.
GRAPH_ARGS = ["--queries", "8000", "--ads", "2666"]
# The click graphs and their editions are one fixed synthetic dataset:
# graphs from different generator seeds differ in row cost by up to 2x,
# and an edition's re-draw in its reload cost by up to 1.6x (linearized
# Prepare, 3.0-4.8 s), which would swamp any change. Traffic follows each
# query's impressions in its graph (the generator's live-traffic
# popularity). --seed drives the traffic: each request's tenant and query.
DATASET_SEED = 2024
# The clients: one connection each, each keeping DEPTH requests in
# flight (a front end pipelining its rewrite requests). Enough to keep
# the daemon's CPU busy throughout, so that no request waits for the
# hypervisor to wake an idle virtual CPU (see README.md, Why a closed
# loop).
CONNECTIONS = min(4, NPROC)
DEPTH = 16
# The generator's one thread gets CPU 0 to itself, the serving daemon
# CPU 1, the compute child and run.py itself the rest. On a shared
# virtual machine a request path that wakes threads on several CPUs
# waits for the hypervisor to schedule each of them (see README.md,
# Processes and load).
GEN_CPUS = {0}
DAEMON_CPUS = {1 % NPROC}
COMPUTE_CPUS = set(range(2, NPROC)) or DAEMON_CPUS
# An edition runs on these: the compute child and run.py, then the
# daemon's reload.
EDITION_CPUS = COMPUTE_CPUS | DAEMON_CPUS
# Large enough that nothing is shed: the clients hold 64 requests in
# flight, and the daemon bills a cold row 8 queue units.
MAX_QUEUE = 65536
# An edition's leaf spans must add up to its duration within this share.
EDITION_COVERAGE_TOLERANCE = 0.05

WORKLOADS = {
    # Two precomputed tenants: IO, admission and batching do the work.
    "warm_topk": dict(warmup_s=2.0, setup_repeats=15, post_editions=15),
    # One on-demand tenant, queries over 2.6x the row cache. The longer
    # warm-up brings the row cache to its steady state (the share of cold
    # rows settles 5-6 s after a cold start).
    "cold_topk": dict(warmup_s=6.0, setup_repeats=3, post_editions=2),
    # Editions of the live tenant back to back through the window; reads
    # hit it and a steady tenant.
    "refresh": dict(warmup_s=2.0, setup_repeats=15, post_editions=0),
}


END_TO_END_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "p99_ms": "ms", "capacity_qps": "1/s",
    "ok_ratio": "ratio", "refresh_s": "s", "cpu_ms_per_kreq": "ms",
    "rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "serve.admission_us": "us", "serve.queue_us": "us",
    "serve.batch_us": "us", "serve.score_us": "us", "serve.flush_us": "us",
    "serve.batch_size": "count", "serve.shed_ratio": "ratio",
    "net.transport_us": "us", "rewrite.row_cache_hit_ratio": "ratio",
    "rewrite.row_cache_lookups": "count", "rewrite.rows_per_kreq": "count",
    "serve.cold_ratio": "ratio", "gen.late_ms": "ms", "serve.reload_s": "s",
    "graph.load_s": "s", "core.snapshot_load_s": "s", "rewrite.build_s": "s",
    "core.prepare_s": "s", "core.scored_row_us": "us",
    "core.scored_rows": "count", "core.engine_run_s": "s",
    "core.engine_iterations": "count", "core.rescored_pairs": "count",
    "core.threads_used": "count", "core.export_s": "s",
    "core.snapshot_save_s": "s", "core.snapshot_bytes": "bytes",
    "trace.edition_leaf_coverage": "ratio",
    "trace.edition_leaf_coverage_min": "ratio", "host.steal_ratio": "ratio",
}


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("run from the root of a simrankpp checkout "
                         "(CMakeLists.txt and src/ not found)")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    with open(logfile, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD)],
                           stdout=out, stderr=subprocess.STDOUT, check=False)
        done = subprocess.run(
            ["cmake", "--build", str(BUILD), "-j", str(NPROC), "--target",
             "simrankpp_cli", "perfbench_tool"],
            stdout=out, stderr=subprocess.STDOUT, check=False)
    if done.returncode != 0 or not CLI.exists() or not TOOL.exists():
        raise BenchError(f"build failed, see {logfile}")


def machine_block(simd_level):
    cpu = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = {}
    for line in open(BUILD / "CMakeCache.txt"):
        match = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                         line.strip())
        if match:
            cache[match.group(1)] = match.group(2)
    compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                               "--version"], capture_output=True,
                              text=True).stdout.splitlines()
    return {"nproc": NPROC, "cpu_model": cpu, "simd_level": simd_level,
            "compiler": compiler[0] if compiler else "unknown",
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "kernel": os.uname().release}


# --- wire protocol (probes and scrapes; load comes from perfbench_tool) ----

HEADER = struct.Struct("<IBBHII")
MAGIC = 0x31505253


def fnv1a(data):
    value = 0xcbf29ce484222325
    for byte in data:
        value = ((value ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return value


class Client:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.request_id = 0

    def close(self):
        self.sock.close()

    def _read(self, n):
        data = b""
        while len(data) < n:
            chunk = self.sock.recv(n - len(data))
            if not chunk:
                raise BenchError("daemon closed the connection")
            data += chunk
        return data

    def call(self, frame_type, payload=b""):
        self.request_id += 1
        self.sock.sendall(HEADER.pack(MAGIC, frame_type, 0, 0, len(payload),
                                      self.request_id) + payload)
        _, reply_type, _, code, size, _ = HEADER.unpack(self._read(16))
        return reply_type, code, self._read(size)

    def topk(self, tenant, query):
        t, q = tenant.encode(), query.encode()
        _, code, body = self.call(0x01, struct.pack("<H", len(t)) + t +
                                  struct.pack("<H", len(q)) + q +
                                  struct.pack("<H", K))
        return code, body

    def metrics(self):
        _, code, body = self.call(0x05)
        if code != 0:
            raise BenchError("metrics scrape refused")
        (size,) = struct.unpack_from("<I", body)
        return body[4:4 + size].decode()


def host_cpu_times():
    """The machine's cumulative CPU time fields from /proc/stat (user ...
    steal)."""
    with open("/proc/stat") as stat:
        return [int(x) for x in stat.readline().split()[1:9]]


def steal_ticks(cpus):
    """Steal ticks so far of the CPUs in `cpus`, from their "cpuN" lines
    of /proc/stat."""
    total = 0
    with open("/proc/stat") as stat:
        for line in stat:
            fields = line.split()
            if fields[0][3:].isdigit() and int(fields[0][3:]) in cpus:
                total += int(fields[8])
    return total


def steal_ratio(before, after):
    """Share of CPU time the hypervisor gave to others between two
    host_cpu_times() readings: the run's own noise floor."""
    delta = [b - a for a, b in zip(before, after)]
    return bs.ratio(delta[7], sum(delta))


def generation_of(text, tenant):
    for line in text.splitlines():
        if line.startswith("srpp_tenant_info{") and f'tenant="{tenant}"' in line:
            return int(re.search(r'generation="(\d+)"', line).group(1))
    return None


# --- inputs ----------------------------------------------------------------

def generate_graph(path, seed):
    subprocess.run([str(CLI), "generate", *GRAPH_ARGS, "--seed", str(seed),
                    "--out", str(path)], check=True, stdout=subprocess.DEVNULL)


def compute_snapshot(graph, snapshot):
    subprocess.run([str(CLI), "compute", str(graph), "--snapshot-out",
                    str(snapshot)], check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


def graph_queries(path):
    """(queries in file order, each query's summed edge impressions): the
    generator draws each query's impressions from its popularity, so they
    weight the read traffic."""
    impressions = {}
    for line in open(path):
        if not line.startswith("#"):
            query, _, count, _ = line.split("\t", 3)
            impressions[query] = impressions.get(query, 0) + int(count)
    return list(impressions), list(impressions.values())


def write_lines(path, lines):
    Path(path).write_text("".join(f"{line}\n" for line in lines))


def manifest_text(tenants):
    """tenants: {name: {"graph": path, "snapshot": path or None,
    "on_demand": bool}} in a fixed order."""
    out = ["manifest-version 1"]
    for name, entry in tenants.items():
        out.append(f"tenant {name}")
        out.append(f"  graph {entry['graph']}")
        if entry.get("snapshot"):
            out.append(f"  snapshot {entry['snapshot']}")
        if entry.get("on_demand"):
            out.append("  scoring on-demand")
    return "\n".join(out) + "\n"


def edition_graph(base_lines, seed, edition):
    """The text of the base click graph with every edge's click rate and
    clicks re-drawn: same vocabulary, different scores."""
    rng = random.Random(f"{seed}:{edition}")
    out = []
    for line in base_lines:
        if line.startswith("#"):
            out.append(line)
            continue
        query, ad, impressions, clicks, rate = line.rstrip("\n").split("\t")
        clicks = max(1, round(int(clicks) * rng.lognormvariate(0.0, 0.3)))
        impressions = max(int(impressions), clicks)
        rate = min(1.0, float(rate) * rng.lognormvariate(0.0, 0.2))
        out.append(f"{query}\t{ad}\t{impressions}\t{clicks}\t{rate:.17g}\n")
    return "".join(out)


# --- processes -------------------------------------------------------------

def pin(cpus):
    """preexec_fn placing a child on `cpus`."""
    return lambda: os.sched_setaffinity(0, cpus)


# Every child process started, so a failed run can stop them all.
CHILDREN = []


def spawn(args, **kwargs):
    proc = subprocess.Popen(args, **kwargs)
    CHILDREN.append(proc)
    return proc


def stop_children():
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


class Daemon:
    """One `simrankpp serve-daemon` process under test."""

    def __init__(self, work, manifest, tenants_probe):
        self.port_file = work / "daemon.port"
        self.port_file.unlink(missing_ok=True)
        self.log = open(work / "daemon.log", "a")
        start = time.monotonic()
        host_before = host_cpu_times()
        self.proc = spawn(
            [str(CLI), "serve-daemon", "--manifest", str(manifest),
             "--port", "0", "--port-file", str(self.port_file),
             "--max-queue", str(MAX_QUEUE)],
            stdout=subprocess.DEVNULL, stderr=self.log)
        try:
            self.port = self._wait_port()
            client = Client(self.port)
            for tenant, query in tenants_probe:
                while True:
                    code, _ = client.topk(tenant, query)
                    if code == 0:
                        break
                    if time.monotonic() - start > 120:
                        raise BenchError(f"tenant {tenant} never answered")
                    time.sleep(0.001)
            client.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - start
        # Steal ticks the whole machine lost meanwhile.
        self.setup_steal = host_cpu_times()[7] - host_before[7]
        # Start-up may use every CPU; serving keeps off the generator's.
        # Threads the daemon starts later inherit their creator's mask.
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            os.sched_setaffinity(int(tid), DAEMON_CPUS)

    def _wait_port(self):
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("serve-daemon exited during start-up")
            try:
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.001)
        raise BenchError("serve-daemon did not start")

    def peak_rss_mb(self):
        for line in open(f"/proc/{self.proc.pid}/status"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM")

    def stop(self):
        """Graceful drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Generator:
    """The perfbench_tool load process: the closed-loop clients."""

    def __init__(self, work, daemon, targets, seed, trace):
        self.dir = work / "load"
        self.dir.mkdir(exist_ok=True)
        plan = [f"connections {CONNECTIONS}", f"k {K}", f"seed {seed}"]
        for i, (tenant, queries, weights) in enumerate(targets):
            qfile = self.dir / f"target{i}.txt"
            write_lines(qfile, [f"{w}\t{q}" for q, w in zip(queries, weights)])
            plan.append(f"target {tenant} {qfile}")
        write_lines(self.dir / "plan.txt", plan)
        self.proc = spawn(
            [str(TOOL), "load", "--port", str(daemon.port), "--pid",
             str(daemon.proc.pid), "--plan", str(self.dir / "plan.txt"),
             "--out", str(self.dir), "--trace", str(int(trace)),
             "--cpus", ",".join(map(str, sorted(GEN_CPUS | DAEMON_CPUS)))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin(GEN_CPUS))

    def _send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("load generator exited")
        return json.loads(line)

    def start_step(self, name, seconds):
        """Starts a closed-loop step: each client keeps DEPTH requests in
        flight for `seconds`."""
        self._send(f"step {name} {DEPTH} {seconds}")

    def finish_step(self):
        """The step's summary plus, per request in issue order, its due
        offset `dues`, latency from due in ms `latency_ms` (inf when it
        failed) and the generator's own delay from due to send `late_ms`."""
        reply = self._reply()
        pairs = read_doubles(reply["lat_file"])
        reply["dues"] = pairs[0::2]
        reply["latency_ms"] = [x * 1e3 for x in pairs[1::2]]
        reply["late_ms"] = [x * 1e3 for x in read_doubles(reply["late_file"])]
        reply["host"] = read_doubles(reply["host_file"])
        reply["failed"] = reply["issued"] - reply["ok"]
        return reply

    def step(self, name, seconds):
        self.start_step(name, seconds)
        return self.finish_step()

    def quit(self):
        self._send("quit")
        self.proc.stdin.close()
        if self.proc.wait(timeout=120) != 0:
            raise BenchError("load generator failed")
        rows = []
        for line in open(self.dir / "replies.tsv"):
            target, query, digest, count, max_sent, min_done = line.split("\t")
            rows.append((int(target), int(query), int(digest, 16), int(count),
                         float(max_sent), float(min_done)))
        return rows


def read_doubles(path):
    data = Path(path).read_bytes()
    return list(struct.unpack(f"<{len(data) // 8}d", data))


# --- editions ---------------------------------------------------------------

class Editions:
    """Click-graph editions of one tenant, one in flight at a time: graph
    write -> compute child -> atomic manifest swap -> watcher reload ->
    first TopK answered from the new generation."""

    def __init__(self, ctx, tenant, compute, probe_query):
        self.ctx = ctx
        self.tenant = tenant
        self.compute = compute
        self.probe = probe_query
        self.base_lines = open(ctx.tenants[tenant]["graph"]).readlines()
        self.history = []  # one dict per edition; edition 0 is the start
        self.history.append({"edition": 0, "manifest": ctx.manifest_copy,
                             "start": -math.inf, "visible": -math.inf,
                             "ok": True})

    def run_one(self, client):
        ctx = self.ctx
        number = len(self.history)
        folder = ctx.work / "editions" / f"e{number}"
        folder.mkdir(parents=True)
        graph = folder / "graph.tsv"
        snapshot = folder / "scores.snap" if self.compute else None
        spans = []
        # Drawing the edition is the benchmark's input generation: it
        # happens before the edition's clock starts at the graph write.
        drawn = edition_graph(self.base_lines, DATASET_SEED, number)
        t0 = time.monotonic()
        steal_before = steal_ticks(EDITION_CPUS)
        graph.write_text(drawn)
        t1 = time.monotonic()
        spans.append(("graph_write", t0, t1))
        child = None
        if self.compute:
            done = subprocess.run([str(TOOL), "compute", "--graph", str(graph),
                                   "--snapshot-out", str(snapshot)],
                                  capture_output=True, text=True,
                                  preexec_fn=pin(COMPUTE_CPUS))
            if done.returncode != 0:
                raise BenchError(f"compute child failed: {done.stderr}")
            child = json.loads(done.stdout.splitlines()[-1])
        t2 = time.monotonic()
        spans.append(("compute", t1, t2))
        tenants = dict(ctx.tenants)
        tenants[self.tenant] = dict(tenants[self.tenant], graph=str(graph),
                                    snapshot=str(snapshot) if snapshot else None)
        text = manifest_text(tenants)
        (folder / "manifest.txt").write_text(text)
        tmp = ctx.work / "manifest.tmp"
        tmp.write_text(text)
        os.replace(tmp, ctx.manifest)
        t3 = time.monotonic()
        spans.append(("manifest_swap", t2, t3))
        expected = ctx.generations[self.tenant] + 1
        ok = True
        while True:
            generation = generation_of(client.metrics(), self.tenant)
            if generation is not None and generation >= expected:
                break
            if time.monotonic() - t3 > 60:
                ok = False
                break
            # Each scrape renders the exposition on the daemon's CPU; 5 ms
            # is well under the watcher's 30 ms debounce.
            time.sleep(0.005)
        t_visible = time.monotonic()
        code, body = client.topk(self.tenant, self.probe)
        t4 = time.monotonic()
        spans.append(("first_visible", t3, t4))
        ok = ok and code == 0 and generation == expected
        ctx.generations[self.tenant] = expected
        record = {"edition": number, "manifest": str(folder / "manifest.txt"),
                  "start": t2, "visible": t_visible, "ok": ok,
                  "span": (t0, t4), "children": spans,
                  "child": child, "reload_s": t_visible - t3,
                  "refresh_s": t4 - t0, "probe_digest": fnv1a(body),
                  "steal": steal_ticks(EDITION_CPUS) - steal_before}
        self.history.append(record)
        return record

    def live_window(self, index):
        """(earliest, latest) time edition `index` can have been serving:
        from the start of its manifest swap until its successor showed
        up in the daemon's tenant generation."""
        start = self.history[index]["start"]
        later = self.history[index + 1:]
        return start, later[0]["visible"] if later else math.inf


def leaf_spans(record):
    """The edition's finest spans: its own steps, with the compute step
    replaced by the child's spans plus the child's process start-up
    (before its first span) and exit (after its last)."""
    leaves = []
    for name, start, end in record["children"]:
        if name == "compute" and record["child"]:
            spans = record["child"]["spans"]
            leaves.append(("child_start", start, spans[0]["start"]))
            leaves += [(s["name"], s["start"], s["end"]) for s in spans]
            leaves.append(("child_exit", spans[-1]["end"], end))
        elif name != "compute":
            leaves.append((name, start, end))
    return leaves


# --- the run ----------------------------------------------------------------

def setup(ctx, repeats):
    """Starts the daemon `repeats` times (keeping the last) and returns
    the median start-up time of the quiet starts."""
    probes = [(t, ctx.queries[t][0]) for t in ctx.tenants]
    starts = []
    daemon = None
    for i in range(repeats):
        daemon = Daemon(ctx.work, ctx.manifest, probes)
        starts.append((daemon.setup_s, daemon.setup_steal))
        if i + 1 < repeats:
            if daemon.stop() != 0:
                raise BenchError("serve-daemon drain failed")
    ctx.setup_times = starts
    return daemon, statistics.median(
        t for t, _ in bs.quiet(starts, lambda start: start[1]))


def make_inputs(ctx, workload):
    work = ctx.work
    inputs = work / "inputs"
    inputs.mkdir()
    names = {"warm_topk": ["web", "shop"], "cold_topk": ["tail"],
             "refresh": ["live", "steady"]}[workload]
    ctx.tenants = {}
    ctx.queries = {}
    ctx.weights = {}
    for i, name in enumerate(names):
        graph = inputs / f"{name}.tsv"
        generate_graph(graph, DATASET_SEED + i)
        entry = {"graph": str(graph), "snapshot": None, "on_demand": False}
        if workload == "cold_topk":
            entry["on_demand"] = True
        else:
            entry["snapshot"] = str(inputs / f"{name}.snap")
            compute_snapshot(graph, entry["snapshot"])
        ctx.tenants[name] = entry
        ctx.queries[name], ctx.weights[name] = graph_queries(graph)
    ctx.manifest = work / "manifest.txt"
    ctx.manifest.write_text(manifest_text(ctx.tenants))
    ctx.manifest_copy = str(inputs / "manifest.txt")
    Path(ctx.manifest_copy).write_text(manifest_text(ctx.tenants))


def window_layers(before, after, window):
    """Per-layer serving metrics from the window's scrapes."""
    delta = bs.diff_samples(before, after)
    stages = bs.stage_means_us(delta)
    served = bs.family_total(delta, "srpp_served_requests_total")
    batches = bs.family_total(delta, "srpp_batches_total")
    decisions = bs.family_total(delta, "srpp_requests_total")
    admitted = bs.family_total(delta, "srpp_requests_total", code="ok")
    hits = bs.family_total(delta, "srpp_row_cache_hits_total")
    misses = bs.family_total(delta, "srpp_row_cache_misses_total")
    rows = bs.family_total(delta, "srpp_rows_computed_total")
    cold = bs.family_total(delta, "srpp_cold_requests_total")
    server_mean_us = bs.ratio(
        bs.family_total(delta, "srpp_request_duration_seconds_sum"),
        bs.family_total(delta, "srpp_request_duration_seconds_count")) * 1e6
    rtt_us = bs.ratio(window["rtt_sum_s"], window["ok"]) * 1e6
    return {
        "serve.admission_us": stages.get("admission", 0.0),
        "serve.queue_us": stages.get("queue", 0.0),
        "serve.batch_us": stages.get("batch", 0.0),
        "serve.score_us": stages.get("score", 0.0),
        "serve.flush_us": stages.get("flush", 0.0),
        "serve.batch_size": bs.ratio(served, batches),
        "serve.shed_ratio": bs.ratio(decisions - admitted, decisions),
        "net.transport_us": rtt_us - server_mean_us,
        "rewrite.row_cache_hit_ratio": bs.ratio(hits, hits + misses),
        "rewrite.row_cache_lookups": hits + misses,
        "rewrite.rows_per_kreq": bs.ratio(rows, served) * 1000.0,
        "serve.cold_ratio": bs.ratio(cold, served),
        "gen.late_ms": bs.percentile(window["late_ms"], 0.99),
    }


def run_editions_until(editions, client, deadline, records):
    while time.monotonic() < deadline:
        records.append(editions.run_one(client))


def measure(ctx, workload, spec):
    """One pass of a workload: set-up, warm-up, the window, post-window
    editions, answer check. Returns (metrics, layers, details,
    correct, attempted, failed, editions)."""
    seconds = ctx.seconds
    daemon, setup_s = setup(ctx, spec["setup_repeats"])
    # (seconds, steal ticks) of each daemon start.
    details = {"setup_times_s": ctx.setup_times}
    layers = {}
    attempted = 0
    failed = 0
    all_cpus = os.sched_getaffinity(0)
    # run.py's own work (edition graph writes, scrapes) keeps off the
    # generator's and the daemon's CPUs while they measure.
    os.sched_setaffinity(0, COMPUTE_CPUS)
    try:
        control = Client(daemon.port)
        ctx.generations = {t: generation_of(control.metrics(), t)
                           for t in ctx.tenants}
        simd = re.search(r'srpp_simd_info\{level="([^"]+)"\}',
                         control.metrics())
        ctx.simd_level = simd.group(1) if simd else "unknown"
        targets = [(t, ctx.queries[t], ctx.weights[t]) for t in ctx.tenants]
        gen = Generator(ctx.work, daemon, targets, ctx.seed, ctx.trace)
        editions = None
        if workload == "refresh":
            editions = Editions(ctx, "live", True, ctx.queries["live"][0])
        edition_records = []

        warm = gen.step("warmup", spec["warmup_s"])
        attempted += warm["issued"]
        failed += warm["failed"]
        before = bs.parse_exposition(control.metrics())
        host_before = host_cpu_times()
        gen.start_step("window", seconds)
        if editions:
            run_editions_until(editions, control, time.monotonic() + seconds,
                               edition_records)
        window = gen.finish_step()
        after = bs.parse_exposition(control.metrics())
        layers["host.steal_ratio"] = steal_ratio(host_before, host_cpu_times())
        attempted += window["issued"]
        failed += window["failed"]
        layers.update(window_layers(before, after, window))
        rss_mb = daemon.peak_rss_mb()
        rows = gen.quit()

        post = []
        if spec["post_editions"]:
            # Precomputed tenants refresh through the compute child; an
            # on-demand tenant has no snapshot and prepares on reload.
            tenant = next(iter(ctx.tenants))
            editions = Editions(ctx, tenant,
                                not ctx.tenants[tenant]["on_demand"],
                                ctx.queries[tenant][0])
            for _ in range(spec["post_editions"]):
                post.append(editions.run_one(control))
        all_editions = edition_records + post
        attempted += len(all_editions)
        failed += sum(1 for r in all_editions if not r["ok"])
        control.close()
    finally:
        os.sched_setaffinity(0, all_cpus)
        exit_code = daemon.stop()
    if exit_code != 0:
        failed += 1

    # The answer check, from the saved edition files, after the window.
    correct, check_notes = check_answers(ctx, targets, rows, editions)
    details["check"] = check_notes

    # Latency and capacity come from the quarter-second windows in which
    # the hypervisor took at most one tick from the generator's and the
    # daemon's CPUs (README.md, Quiet windows); CPU time excludes steal
    # anyway.
    windows = bs.split_windows(window["dues"], window["latency_ms"],
                               window["host"])
    kept = bs.quiet(windows, lambda w: w.steal, allowed=1)
    p50, p99, n = bs.latency_percentiles(
        [value for w in kept for value in w.latencies])
    refresh_sample = edition_records if workload == "refresh" else post
    if not refresh_sample:
        raise BenchError("no edition completed inside the window")
    quiet_editions = bs.quiet(refresh_sample, lambda r: r["steal"])
    # The generator's first and last host samples span the window.
    cpu_s = (window["host"][-1] - window["host"][3]) / \
        os.sysconf("SC_CLK_TCK")
    metrics = {
        "setup_s": setup_s,
        "p50_ms": p50,
        "p99_ms": p99,
        "capacity_qps": bs.window_rate(kept),
        "ok_ratio": (attempted - failed) / attempted,
        "refresh_s": statistics.median(r["refresh_s"]
                                       for r in quiet_editions),
        "cpu_ms_per_kreq": cpu_s * 1e3 / (window["ok"] / 1e3),
        "rss_mb": rss_mb,
    }
    details.update({
        "clients": CONNECTIONS, "depth": DEPTH, "samples": n,
        "windows": len(windows), "quiet_windows": sum(
            1 for w in windows if w.steal == 0), "windows_kept": len(kept),
        "host_steal_ratio": layers["host.steal_ratio"],
        "editions": len(refresh_sample),
        "editions_kept": len(quiet_editions),
        "editions_total": len(all_editions), "attempted": attempted,
        "failed": failed, "window_t0": window["t0"],
        # (manifest swap, new generation seen) of each measured edition.
        "reload_windows": [(r["start"], r["visible"])
                           for r in refresh_sample],
    })
    layers.update(edition_layers(refresh_sample, workload))
    return metrics, layers, details, correct, attempted, failed, \
        all_editions


def edition_layers(records, workload):
    out = {"serve.reload_s": statistics.median(r["reload_s"]
                                               for r in records)}
    children = [r["child"] for r in records if r["child"]]
    if workload == "refresh" and children:
        def span_median(name):
            return statistics.median(
                s["end"] - s["start"] for c in children for s in c["spans"]
                if s["name"] == name)
        out.update({
            "core.engine_run_s": span_median("engine_run"),
            "core.export_s": span_median("export"),
            "core.snapshot_save_s": span_median("snapshot_save"),
            "core.engine_iterations": statistics.median(
                c["iterations"] for c in children),
            "core.rescored_pairs": statistics.median(
                c["rescored_pairs"] for c in children),
            "core.threads_used": statistics.median(
                c["threads_used"] for c in children),
            "core.snapshot_bytes": statistics.median(
                c["snapshot_bytes"] for c in children),
        })
    return out


def edition_windows(ctx, editions, tenant):
    """[(manifest, (earliest, latest) serving time)] per edition of
    `tenant`; a tenant without editions served its inputs throughout."""
    if editions and editions.tenant == tenant:
        return [(record["manifest"], editions.live_window(e))
                for e, record in enumerate(editions.history)]
    return [(ctx.manifest_copy, (-math.inf, math.inf))]


def check_answers(ctx, targets, rows, editions):
    """Every TopK reply must be bit-identical to an in-process
    RewriteService over an edition that was live while the request was
    in flight; every edition's first probe must match that edition."""
    ref_dir = ctx.work / "reference"
    ref_dir.mkdir()
    reads = {}  # target index -> [(query, digest, count, max_sent, min_done)]
    for target, *reply in rows:
        reads.setdefault(target, []).append(tuple(reply))
    jobs = []
    keys = {}  # (tenant, edition) -> sorted query indices
    for index, (tenant, queries, _) in enumerate(targets):
        mine = reads.get(index, [])
        last_sent = max((r[3] for r in mine), default=-math.inf)
        for e, (manifest, (start, _)) in enumerate(
                edition_windows(ctx, editions, tenant)):
            # Every read key for an edition that began before the last
            # read was sent; later editions only answered their probe
            # (query 0).
            wanted = {r[0] for r in mine} if start < last_sent else set()
            if e > 0:
                wanted.add(0)
            if not wanted:
                continue
            keys[(tenant, e)] = sorted(wanted)
            stem = ref_dir / f"{tenant}_e{e}"
            write_lines(f"{stem}.keys", [queries[q] for q in keys[(tenant, e)]])
            jobs.append(f"{manifest}\t{tenant}\t{K}\t{stem}.keys\t{stem}.out")
    # Each job builds one service (on `cold_topk` a linearized Prepare of
    # a few seconds): spread them over one process per CPU.
    procs = []
    for i in range(min(NPROC, len(jobs))):
        path = ref_dir / f"jobs{i}.tsv"
        write_lines(path, jobs[i::NPROC])
        procs.append(spawn([str(TOOL), "reference", "--jobs", str(path)],
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                           text=True))
    for proc in procs:
        _, err = proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"reference services failed: {err}")
    reference = {}
    for (tenant, e), wanted in keys.items():
        digests = (ref_dir / f"{tenant}_e{e}.out").read_text().split()
        for key, digest in zip(wanted, digests):
            reference[(tenant, e, key)] = int(digest, 16)

    mismatches = 0
    checked = 0
    for index, (tenant, _, _) in enumerate(targets):
        windows = [w for _, w in edition_windows(ctx, editions, tenant)]
        for query, digest, count, max_sent, min_done in reads.get(index, []):
            checked += count
            # Replies with one digest must all fall inside the span of
            # the editions that give exactly that answer.
            live = [windows[e] for e in range(len(windows))
                    if reference.get((tenant, e, query)) == digest]
            if not (live and max_sent <= max(w[1] for w in live) and
                    min_done >= min(w[0] for w in live)):
                mismatches += count
    invisible = 0
    if editions:
        for record in editions.history[1:]:
            if (not record["ok"] or record["probe_digest"] !=
                    reference.get((editions.tenant, record["edition"], 0))):
                invisible += 1
    notes = {"replies_checked": checked, "reply_mismatches": mismatches,
             "editions_not_visible": invisible}
    return mismatches == 0 and invisible == 0 and checked > 0, notes


def layer_timings(ctx, workload):
    """In-process timings of the daemon's (and compute's) public calls on
    this workload's primary tenant, made after the window."""
    tenant = {"warm_topk": "web", "cold_topk": "tail",
              "refresh": "live"}[workload]
    sample = ctx.work / "layer_queries.txt"
    write_lines(sample, random.Random(ctx.seed).choices(
        ctx.queries[tenant], ctx.weights[tenant], k=200))
    done = subprocess.run(
        [str(TOOL), "layers", "--manifest", ctx.manifest_copy, "--tenant",
         tenant, "--queries", str(sample), "--scratch-snapshot",
         str(ctx.work / "layers.snap")], capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"layer timings failed: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def write_spans(ctx, editions_list):
    """Edition spans with self times; written once, after the run."""
    out = []
    for record in editions_list:
        children = [(s, e) for _, s, e in record["children"]]
        leaves = leaf_spans(record)
        out.append({
            "edition": record["edition"], "start": record["span"][0],
            "end": record["span"][1],
            "self_s": bs.self_time(record["span"], children),
            "children": [
                {"name": name, "start": s, "end": e,
                 "self_s": bs.self_time((s, e), [
                     (x["start"], x["end"]) for x in
                     (record["child"]["spans"] if name == "compute" and
                      record["child"] else [])])}
                for name, s, e in record["children"]],
            "leaves": [{"name": n, "start": s, "end": e} for n, s, e in leaves],
            "leaf_coverage": bs.coverage(record["span"],
                                         [(s, e) for _, s, e in leaves]),
        })
    (ctx.work / "edition_spans.json").write_text(json.dumps(out, indent=1))
    return out


def run_pass(args, trace):
    ctx = types.SimpleNamespace()
    ctx.seed = args.seed
    ctx.seconds = args.seconds
    ctx.trace = trace
    ctx.work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    if ctx.work.exists():
        subprocess.run(["rm", "-rf", str(ctx.work)], check=True)
    ctx.work.mkdir(parents=True)
    make_inputs(ctx, args.workload)
    result = measure(ctx, args.workload, WORKLOADS[args.workload])
    return ctx, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON",
                        help="compare two saved results instead of running")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        ctx, (metrics, layers, details, correct, attempted, failed,
              editions) = run_pass(args, trace=False)
        output_metrics = metrics
        if args.trace:
            # Same workload and seed with the span recorder on; the
            # difference to the untraced pass is the tracing overhead.
            tctx, (tmetrics, tlayers, tdetails, tcorrect, tattempted,
                   tfailed, teditions) = run_pass(args, trace=True)
            correct = correct and tcorrect
            attempted += tattempted
            failed += tfailed
            spans = write_spans(tctx, teditions)
            tlayers.update({k: v for k, v in layer_timings(
                tctx, args.workload).items()
                if not (args.workload == "refresh" and k in tlayers)})
            coverages = [s["leaf_coverage"] for s in spans]
            if any(abs(c - 1.0) > EDITION_COVERAGE_TOLERANCE
                   for c in coverages):
                raise BenchError("edition leaf spans do not add up to the "
                                 f"edition within 5%: {coverages}")
            tlayers["trace.edition_leaf_coverage"] = statistics.median(
                coverages)
            tlayers["trace.edition_leaf_coverage_min"] = min(coverages)
            for name, value in metrics.items():
                tlayers[f"overhead.{name}"] = tmetrics[name] - value
            expected = set(PER_LAYER_UNITS) | {
                f"overhead.{name}" for name in END_TO_END_UNITS}
            if set(tlayers) != expected:
                raise BenchError("per-layer metric set is incomplete: "
                                 f"{sorted(expected ^ set(tlayers))}")
            output_metrics = tlayers
            details["traced"] = tdetails
            details["layers"] = tlayers
    except BenchError as err:
        log(f"perfbench: {err}")
        return 1
    except (OSError, subprocess.SubprocessError, ValueError) as err:
        log(f"perfbench: {type(err).__name__}: {err}")
        return 1
    finally:
        stop_children()

    machine = machine_block(ctx.simd_level)
    print(f"machine: {json.dumps(machine)}")
    for name, value in metrics.items():
        extra = ""
        if name in ("p50_ms", "p99_ms"):
            extra = (f"  (n={details['samples']}, {details['clients']} "
                     f"clients x {details['depth']} in flight)")
        if name in ("p50_ms", "p99_ms", "capacity_qps"):
            extra += (f"  ({details['windows_kept']} of "
                      f"{details['windows']} windows, "
                      f"{details['quiet_windows']} quiet)")
        if name == "refresh_s":
            extra = (f"  (editions={details['editions']}, "
                     f"{details['editions_kept']} kept)")
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{extra}")
    if args.trace:
        for name, value in sorted(details["layers"].items()):
            print(f"{name} = {value:.6g}")
    print(f"host steal during the window: "
          f"{details['host_steal_ratio']:.1%}")
    print(f"check: {json.dumps(details['check'])}")
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine, "correct": correct,
              "attempted": attempted, "failed": failed,
              "metrics": metrics,
              "details": details}
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in output_metrics.items()}}))
    # A wrong answer fails the run, after its result line is printed.
    return 0 if correct else 1


def unit_of(name):
    if name.startswith("overhead."):
        name = name[len("overhead."):]
    return END_TO_END_UNITS.get(name) or PER_LAYER_UNITS[name]


def compare(path_a, path_b):
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if not bs.machines_comparable(a["machine"], b["machine"]):
        print("NOT COMPARABLE: machine blocks differ")
        for key in bs.MACHINE_KEYS:
            if a["machine"].get(key) != b["machine"].get(key):
                print(f"  {key}: {a['machine'].get(key)!r} vs "
                      f"{b['machine'].get(key)!r}")
    for name, value in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is not None and value:
            print(f"{name}: {value:.6g} -> {other:.6g} "
                  f"({(other - value) / value * 100:+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
