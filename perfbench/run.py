#!/usr/bin/env python3
"""End-to-end benchmark for cyclestream: four CLI workloads, timed from outside.

    python3 perfbench/run.py --workload edge-mixed --seed 1 --seconds 12 --trace 0

Run from the repository root. The first run builds the CLI, edge2bin and the
in-process probe (perfbench_trace) from source into .bench_build/, then every
run generates its seeded fixtures there (once per seed, untimed), runs one
discarded warm-up, and repeats the workload's CLI command until --seconds have
passed. Each repetition uses fresh query seeds derived from --seed, so the
accuracy figure pools every repetition's estimates.

--trace 0 prints the end-to-end metrics (medians over repetitions); --trace 1
prints the per-layer split from perfbench_trace's spans instead. Either way the
last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, the metrics and the layer map.
"""

import argparse
import inspect
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import zlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
CLI = os.path.join(CMAKE_DIR, "tools", "cyclestream_cli")
EDGE2BIN = os.path.join(CMAKE_DIR, "tools", "edge2bin")
TRACER = os.path.join(CMAKE_DIR, "perfbench_trace")

THREADS = 4
MIN_REPS = 3
CHILD_TIMEOUT_S = 150

EDGE_KINDS = ["arb-f2", "random-order", "triest", "cormode-jowhari"]
# Kinds whose state lives in src/baselines; the rest are src/core estimators.
BASELINE_KINDS = ["triest", "cormode-jowhari"]
CORE_KINDS = ["random-order", "arb-f2", "turnstile-f2-c4",
              "turnstile-f2-triangle", "adj-f2", "adj-diamond", "adj-l2"]
WINDOW = 32768
WINDOW_BUCKETS = 8


class BenchError(Exception):
    """A failure that makes the run's result meaningless (build, fixtures)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Child:
    """Outcome of one child process: exit status and wait4 resource usage.

    wait4 reports the child's own usage plus that of every descendant it
    reaped, so cpu_s covers shard workers and max_rss_kb is the largest
    resident set anywhere in the process tree.
    """

    def __init__(self, returncode, wall_s, rusage, log_path):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.max_rss_kb = rusage.ru_maxrss
        self.log_path = log_path

    def tail(self, lines=5):
        try:
            with open(self.log_path, errors="replace") as f:
                return "".join(f.readlines()[-lines:])
        except OSError:
            return ""


def spawn(argv, log_path, stdout_path=None):
    """Runs argv to completion in its own process group and returns a Child.

    The wall clock runs from just before the spawn to the return of wait4. A
    child that outlives CHILD_TIMEOUT_S is killed with its whole group.
    """
    with open(log_path, "w") as err, \
            open(stdout_path or os.devnull, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out if stdout_path else err,
                                stderr=err,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True, cwd=ROOT)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, rusage, log_path)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_checked(argv, log_path, what):
    child = spawn(argv, log_path)
    if child.returncode != 0:
        raise BenchError(f"{what} failed (exit {child.returncode}):\n"
                         f"{child.tail()}")
    return child


# ---------------------------------------------------------------------------
# Build and host
# ---------------------------------------------------------------------------

def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator,
                    log_path, "cmake configure")
    run_checked(["cmake", "--build", CMAKE_DIR, "-j", str(THREADS)],
                log_path, "build")


def host_info(shard_dir):
    """Build and host facts recorded beside the result. Refuses a build
    without NDEBUG: its numbers would not be comparable."""
    info_path = os.path.join(BUILD_ROOT, "build_info.json")
    child = spawn([TRACER, "info"], os.path.join(BUILD_ROOT, "info.log"),
                  stdout_path=info_path)
    with open(info_path) as f:
        info = json.load(f)
    if child.returncode != 0 or not info.get("ndebug"):
        raise BenchError("refusing to time a build without NDEBUG "
                         f"(build type {info.get('build_type')!r})")
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type = subprocess.run(["stat", "-f", "-c", "%T", shard_dir],
                             capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "kernel": platform.release(),
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "git_describe": info["git"],
        "shard_dir_fs": fs_type or "unknown",
    }


# ---------------------------------------------------------------------------
# Fixtures (untimed, built once per seed)
# ---------------------------------------------------------------------------

def generate_graph(work, name, model_args, seed):
    txt = os.path.join(work, name + ".txt")
    binary = os.path.join(work, name + ".bin")
    run_checked([CLI, "generate"] + model_args +
                ["--seed", str(seed), "--out", txt],
                os.path.join(work, "fixture.log"), "generate")
    run_checked([EDGE2BIN, txt, binary], os.path.join(work, "fixture.log"),
                "edge2bin")
    os.remove(txt)
    return binary


def generate_churn(work, model_args, seed, num_vertices):
    """A v2 turnstile stream over a generated graph: the edges are inserted
    in shuffled order, and after each insert, with probability 0.3, a
    uniformly random live edge is deleted. No in-repo generator emits
    deletes, so this one does. Returns (stream.bin, live-graph.bin)."""
    txt = os.path.join(work, "base.txt")
    run_checked([CLI, "generate"] + model_args +
                ["--seed", str(seed), "--out", txt],
                os.path.join(work, "fixture.log"), "generate")
    with open(txt) as f:
        edges = [tuple(line.split()) for line in f if not line.startswith("#")]
    os.remove(txt)
    rng = random.Random(seed)
    rng.shuffle(edges)
    live, updates = [], []
    for edge in edges:
        updates.append("+ %s %s\n" % edge)
        live.append(edge)
        if rng.random() < 0.3:
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            updates.append("- %s %s\n" % live.pop())
    stream_txt = os.path.join(work, "stream.txt")
    live_txt = os.path.join(work, "live.txt")
    with open(stream_txt, "w") as f:
        f.writelines(updates)
    with open(live_txt, "w") as f:
        f.writelines("%s %s\n" % e for e in live)
    stream_bin = os.path.join(work, "stream.bin")
    live_bin = os.path.join(work, "live.bin")
    n = ["--num_vertices", str(num_vertices)]
    run_checked([EDGE2BIN, "--turnstile", stream_txt, stream_bin] + n,
                os.path.join(work, "fixture.log"), "edge2bin --turnstile")
    run_checked([EDGE2BIN, live_txt, live_bin] + n,
                os.path.join(work, "fixture.log"), "edge2bin")
    os.remove(stream_txt)
    os.remove(live_txt)
    return stream_bin, live_bin


def dodg_truth(work, graph_bin):
    """Exact triangle and 4-cycle counts through the DODG backend."""
    out = os.path.join(work, "truth.json")
    run_checked([CLI, "exact", "--graph", graph_bin, "--exact_backend", "dodg",
                 "--json_out", out], os.path.join(work, "truth.log"),
                "exact --exact_backend dodg")
    with open(out) as f:
        metrics = json.load(f)["metrics"]
    return {"triangles": float(metrics["exact.triangles"]),
            "c4": float(metrics["exact.c4"])}


def load_fixture(workload, seed):
    """Sets workload.input to the seed's fixture, building it on first use,
    and returns the DODG truth of the graph its estimates approximate.
    The directory is keyed by the workload's source as well as the seed, so
    a fixture cached before its generator changed is never reused."""
    version = zlib.crc32(inspect.getsource(type(workload)).encode())
    fixture_dir = os.path.join(BUILD_ROOT, "fixtures",
                               f"{workload.name}-{seed}-{version:08x}")
    done = os.path.join(fixture_dir, "fixture.json")
    if not os.path.exists(done):
        tmp = fixture_dir + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(fixture_dir, ignore_errors=True)
        os.makedirs(tmp)
        stream, truth_graph = workload.prepare(tmp, seed + 1)
        fixture = {"input": os.path.basename(stream),
                   "truth": dodg_truth(tmp, truth_graph)}
        with open(os.path.join(tmp, "fixture.json"), "w") as f:
            json.dump(fixture, f)
        os.rename(tmp, fixture_dir)
    with open(done) as f:
        fixture = json.load(f)
    workload.input = os.path.join(fixture_dir, fixture["input"])
    return fixture["truth"]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """One named workload: how to build its fixture, the CLI command of one
    repetition, the equivalent spec file for perfbench_trace, and its
    workload-specific correctness check."""

    name = ""
    order = "file"
    shards = 1

    def prepare(self, fixture_dir, seed):
        """Builds the fixture in `fixture_dir`; returns the paths of the
        stream the CLI reads and of the graph the truth is counted on."""
        raise NotImplementedError

    def specs(self, qseed):
        """Spec lines (name, kind, extra key=value) for one repetition."""
        raise NotImplementedError

    def cli_argv(self, rep):
        raise NotImplementedError

    def extra_check(self, rep, result):
        """Workload-specific check on one repetition's (Child, manifest);
        returns a list of failure messages."""
        return []

    def write_spec(self, path, qseed):
        with open(path, "w") as f:
            for name, kind, extra in self.specs(qseed):
                f.write(f"name={name} kind={kind} seed={qseed_of(qseed, name)}"
                        f"{extra}\n")


def qseed_of(qseed, name):
    return qseed + int(name.rsplit("-", 1)[1])


class EdgeMixed(Workload):
    name = "edge-mixed"
    order = "shuffled"

    def prepare(self, fixture_dir, seed):
        graph = generate_graph(
            fixture_dir, "chung-lu",
            ["--model", "chung-lu", "--n", "2000", "--deg", "60",
             "--beta", "2.5"], seed)
        return graph, graph

    def specs(self, qseed):
        return [(f"{kind}-{i}", kind, "") for i, kind in enumerate(EDGE_KINDS)]

    def cli_argv(self, rep):
        return [CLI, "sweep", "--graph", self.input,
                "--algorithms", ",".join(EDGE_KINDS), "--queries", "4",
                "--seed", str(rep.qseed), "--threads", str(THREADS)]


class ShardW4(Workload):
    name = "shard-w4"
    shards = 4
    T_GUESS = "300000"

    def prepare(self, fixture_dir, seed):
        graph = generate_graph(
            fixture_dir, "er",
            ["--model", "er", "--n", "2000", "--m", "100000"], seed)
        return graph, graph

    def specs(self, qseed):
        return [(f"arb-f2-{i}", "arb-f2", f" t_guess={self.T_GUESS}")
                for i in range(4)]

    def common(self, rep):
        return ["--graph", self.input, "--algorithms", "arb-f2",
                "--queries", "4", "--order", "file", "--t-guess",
                self.T_GUESS, "--no-exact", "--seed", str(rep.qseed),
                "--threads", str(THREADS)]

    def cli_argv(self, rep):
        return [CLI, "shard", "--shard-dir", rep.shard_dir, "--shards", "4",
                "--launch", "subprocess"] + self.common(rep)

    def extra_check(self, rep, result):
        # The sharded batch must be bit-identical to the in-process broker.
        sweep = run_cli(rep, [CLI, "sweep"] + self.common(rep), "sweep")
        if sweep is None:
            return ["sweep of the same specs failed"]
        return compare_estimates(result, sweep, None, "shard vs sweep")


class TurnstileWindow(Workload):
    name = "turnstile-window"
    N = 1000

    def prepare(self, fixture_dir, seed):
        return generate_churn(
            fixture_dir, ["--model", "er", "--n", str(self.N), "--m", "100000"],
            seed, self.N)

    def specs(self, qseed):
        window = f" window={WINDOW} window_buckets={WINDOW_BUCKETS}"
        return [("c4-0", "turnstile-f2-c4", ""),
                ("triangle-1", "turnstile-f2-triangle", ""),
                ("c4-window-2", "turnstile-f2-c4", window),
                ("triangle-window-3", "turnstile-f2-triangle", window)]

    def cli_argv(self, rep, threads=THREADS):
        return [CLI, "serve", "--graph", self.input, "--spec", rep.spec,
                "--seed", str(rep.qseed), "--threads", str(threads)]

    def extra_check(self, rep, result):
        # Windowed estimates must not depend on the thread count.
        serial = run_cli(rep, self.cli_argv(rep, threads=1), "threads1")
        if serial is None:
            return ["--threads 1 run failed"]
        return compare_estimates(result, serial, "window",
                                 "windowed --threads 4 vs --threads 1")


class Adjacency(Workload):
    name = "adjacency"
    order = "shuffled"

    def prepare(self, fixture_dir, seed):
        # Dense, so that C4 >> n^2 and adj-l2 sits at its floor of ~200
        # sampler copies at epsilon 0.5 (a ~4 MB bank); ER n=200, m=1500
        # needs ~400 copies (8 MB) and drifted more with the host's load.
        graph = generate_graph(
            fixture_dir, "er", ["--model", "er", "--n", "80", "--m", "1000"],
            seed)
        return graph, graph

    def specs(self, qseed):
        # Four adj-l2 queries, so the broker gives one to each of the four
        # threads. A lone adj-l2 runs on one core, and its time follows what
        # other tenants of a shared host run on that core: 25-second window
        # medians spread by 0.12 of their median, against 0.05 for four.
        return [("adj-f2-0", "adj-f2", " epsilon=0.2"),
                ("adj-diamond-1", "adj-diamond", " epsilon=0.2")] + \
            [(f"adj-l2-{i}", "adj-l2", " epsilon=0.5") for i in range(2, 6)]

    def cli_argv(self, rep):
        return [CLI, "serve", "--graph", self.input, "--spec", rep.spec,
                "--seed", str(rep.qseed), "--threads", str(THREADS)]


WORKLOADS = {w.name: w for w in
             (EdgeMixed(), ShardW4(), TurnstileWindow(), Adjacency())}


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

class Rep:
    """Files and seeds of one repetition. Query seeds are spaced so no two
    repetitions of a run share a (kind, seed) pair."""

    def __init__(self, work, workload, seed, index):
        self.index = index
        self.qseed = seed * 1000 + index * 10 + 1
        self.dir = os.path.join(work, f"rep{index}")
        os.makedirs(self.dir, exist_ok=True)
        self.spec = os.path.join(self.dir, "spec.txt")
        workload.write_spec(self.spec, self.qseed)
        self.shard_dir = os.path.join(self.dir, "shards")


def run_cli(rep, argv, tag):
    """Runs one CLI command with a manifest; returns (Child, manifest) or
    None when the process failed or wrote no manifest."""
    manifest_path = os.path.join(rep.dir, tag + ".json")
    if os.path.exists(manifest_path):
        os.remove(manifest_path)
    child = spawn(argv + ["--json_out", manifest_path],
                  os.path.join(rep.dir, tag + ".log"))
    if child.returncode != 0:
        log(f"{tag}: exit {child.returncode}\n{child.tail()}")
        return None
    try:
        with open(manifest_path) as f:
            return child, json.load(f)
    except (OSError, ValueError) as e:
        log(f"{tag}: no manifest ({e})")
        return None


def compare_estimates(a, b, only, what):
    """Estimates and space audits of the queries in both manifests must be
    identical; `only` restricts the comparison to names containing it."""
    qa, qb = a[1]["queries"], b[1]["queries"]
    names = [n for n in qa if only is None or only in n]
    bad = [n for n in names
           if n not in qb or qa[n]["estimate"] != qb[n]["estimate"]
           or qa[n]["space_words"] != qb[n]["space_words"]]
    if not names or bad:
        return [f"{what}: estimates differ for {bad or 'no queries'}"]
    return []


def check_manifest(workload, result, truth, expected):
    """Checks shared by every workload: every query admitted and not
    poisoned, the CLI's own exact counts (when it printed them) equal to the
    DODG truth, and finite estimates. Returns failure messages."""
    failures = []
    manifest = result[1]
    queries = manifest.get("queries", {})
    if sorted(queries) != sorted(expected):
        failures.append(f"queries {sorted(queries)} != {sorted(expected)}")
    for name, q in queries.items():
        if q.get("admission") != "admitted" or q.get("poisoned", False):
            failures.append(f"{name}: {q.get('admission')}, "
                            f"poisoned={q.get('poisoned', False)}")
        if not math.isfinite(float(q.get("estimate", math.nan))):
            failures.append(f"{name}: estimate {q.get('estimate')}")
    metrics = manifest.get("metrics", {})
    for key, target in (("exact.triangles", "triangles"), ("exact.c4", "c4")):
        if key in metrics and float(metrics[key]) != truth[target]:
            failures.append(f"{key} {metrics[key]} != DODG {truth[target]}")
    if metrics.get("engine.queries_admitted") != len(expected):
        failures.append("engine.queries_admitted "
                        f"{metrics.get('engine.queries_admitted')}")
    return failures


def relative_errors(result, truth):
    errors = []
    for name, q in result[1]["queries"].items():
        if "window" in name:
            continue
        t = truth["triangles" if q["target"] == "triangles" else "c4"]
        errors.append(abs(q["estimate"] - t) / t)
    return errors


def run_rep(workload, work, seed, index, truth, stats, check_extra):
    """One repetition of the workload's CLI command with its checks.
    Returns the Rep and, when every check passed, (Child, manifest); else
    (Rep, None)."""
    rep = Rep(work, workload, seed, index)
    stats["attempted"] += 1
    try:
        result = run_cli(rep, workload.cli_argv(rep), "cli")
        failures = ["CLI run failed"] if result is None else check_manifest(
            workload, result, truth,
            [name for name, _, _ in workload.specs(rep.qseed)])
        if not failures and check_extra:
            failures += workload.extra_check(rep, result)
    finally:
        shutil.rmtree(rep.shard_dir, ignore_errors=True)
    if failures:
        stats["failed"] += 1
        log(f"{workload.name} rep {index} FAILED: " + "; ".join(failures))
        return rep, None
    return rep, result


def setup_probe(workload, rep):
    """Seconds the CLI spends before its first ingest call, replayed
    in-process by perfbench_trace (fresh process per probe)."""
    out = os.path.join(rep.dir, "setup.out")
    child = spawn(tracer_argv(workload, rep, "setup"),
                  os.path.join(rep.dir, "setup.log"), stdout_path=out)
    if child.returncode != 0:
        raise BenchError(f"setup probe failed:\n{child.tail()}")
    with open(out) as f:
        return float(f.read().split()[-1])


def tracer_argv(workload, rep, mode):
    argv = [TRACER, mode, "--graph", workload.input, "--spec", rep.spec,
            "--threads", str(THREADS), "--order", workload.order,
            "--seed", str(rep.qseed)]
    if workload.shards > 1:
        argv += ["--shards", str(workload.shards), "--shard-dir",
                 rep.shard_dir, "--cli", CLI]
    return argv


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

SETUP_LAYERS = ["graph.load", "graph.build", "graph.exact", "stream.order",
                "stream.dynamic.decode", "stream.dynamic.live"]
STATE_LAYERS = ["encode", "write", "read", "decode", "merge"]


def per_layer_names():
    names = [f"{layer}_s" for layer in SETUP_LAYERS] + ["engine.setup_s"]
    for kind in CORE_KINDS:
        names += [f"core.update.{kind}_s", f"core.finalize.{kind}_s"]
    for kind in BASELINE_KINDS:
        names += [f"baselines.update.{kind}_s", f"baselines.finalize.{kind}_s"]
    names += ["stream.window.update_s", "stream.window.result_s",
              "engine.broker_s", "engine.broker.serial_s",
              "engine.broker.efficiency", "engine.shard.worker_s"]
    names += [f"engine.state.{s}_s" for s in STATE_LAYERS]
    names += ["engine.state.bytes", "engine.coordinator_s", "util.manifest_s",
              "trace.coverage", "trace.unexplained_s"]
    return names


def layer_metrics(trace, cli_wall_s):
    """Per-layer values of one traced replay. Spans of one name are summed,
    except per-kind update/finalize spans (mean over that kind's queries:
    the cost of one serial query) and engine.shard.worker (max over ranks:
    the slowest worker)."""
    by_name = {}
    for span in trace["spans"]:
        by_name.setdefault(span["name"], []).append(span["end"] - span["start"])
    total = {name: sum(v) for name, v in by_name.items()}
    m = {f"{layer}_s": total[layer] for layer in SETUP_LAYERS}
    m["engine.setup_s"] = total["engine.setup"]
    for layer, kinds in (("core", CORE_KINDS), ("baselines", BASELINE_KINDS)):
        for kind in kinds:
            for step in ("update", "finalize"):
                spans = by_name[f"{layer}.{step}.{kind}"]
                m[f"{layer}.{step}.{kind}_s"] = sum(spans) / len(spans)
    m["stream.window.update_s"] = total["stream.window.update"]
    m["stream.window.result_s"] = total["stream.window.result"]
    # The empty spans of kinds the workload lacks add microseconds at most.
    serial = sum(v for name, v in total.items()
                 if ".update." in name or name == "stream.window.update")
    broker = total["engine.broker"]
    m["engine.broker_s"] = broker
    m["engine.broker.serial_s"] = serial
    m["engine.broker.efficiency"] = serial / (trace["threads"] * broker)
    m["engine.shard.worker_s"] = max(by_name["engine.shard.worker"])
    for step in STATE_LAYERS:
        m[f"engine.state.{step}_s"] = total[f"engine.state.{step}"]
    m["engine.state.bytes"] = trace["state_bytes"]
    m["engine.coordinator_s"] = total["engine.coordinator"]
    m["util.manifest_s"] = total["util.manifest"]
    ingest = "engine.broker" if trace["broker_on_path"] else "engine.coordinator"
    path = sum(total[layer] for layer in SETUP_LAYERS) + total[ingest] + \
        total["util.manifest"]
    m["trace.coverage"] = path / cli_wall_s
    m["trace.unexplained_s"] = cli_wall_s - path
    return m


def check_trace(workload, trace, result):
    """The in-process replay must reproduce the CLI's estimates bit for bit,
    and for W > 1 the probe's merge must reproduce the coordinator's."""
    failures = []
    cli = result[1]["queries"]
    for key in ("outcomes", "broker_outcomes"):
        for name, q in trace[key].items():
            if not q["admitted"] or cli.get(name, {}).get("estimate") != \
                    q["estimate"]:
                failures.append(f"{key}[{name}] != CLI estimate")
    if workload.shards > 1:
        merged = trace["merged_estimates"]
        expected = [trace["outcomes"][n]["estimate"] for n in trace["outcomes"]]
        if merged != expected:
            failures.append("probe merge != coordinator estimates")
    return failures


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def median_metric(values, unit):
    return {"value": statistics.median(values), "unit": unit}


def measure(workload, work, seed, seconds, truth, stats):
    """Timed repetitions (tracing off) until `seconds` have passed."""
    walls, cpus, rss, items, space, setups, errors = [], [], [], [], [], [], []
    start = time.perf_counter()
    index = 1
    while index <= MIN_REPS or time.perf_counter() - start < seconds:
        rep, result = run_rep(workload, work, seed, index, truth, stats,
                              check_extra=False)
        if result is not None:
            child, manifest = result
            walls.append(child.wall_s)
            cpus.append(child.cpu_s)
            rss.append(child.max_rss_kb / 1024.0)
            items.append(manifest["metrics"]["engine.items_delivered"] /
                         child.wall_s)
            space.append(sum(q["space_words"]
                             for q in manifest["queries"].values()))
            errors += relative_errors(result, truth)
        setups.append(setup_probe(workload, rep))
        if result is not None:
            log(f"{workload.name} rep {index}: wall {walls[-1]:.4f} s, "
                f"cpu {cpus[-1]:.4f} s, rss {rss[-1]:.1f} MB, "
                f"setup {setups[-1]:.4f} s")
        shutil.rmtree(rep.dir, ignore_errors=True)
        index += 1
    if not walls:
        return {}
    return {
        "wall_s": median_metric(walls, "s"),
        "setup_s": median_metric(setups, "s"),
        "cpu_s": median_metric(cpus, "s"),
        "peak_rss_mb": median_metric(rss, "MB"),
        "items_per_s": median_metric(items, "1/s"),
        "space_words": median_metric(space, "words"),
        ACCURACY: median_metric(errors, "ratio"),
    }


def measure_traced(workload, work, seed, seconds, truth, stats):
    """Traced replays, each beside an untraced CLI run of the same inputs,
    until `seconds` have passed."""
    samples = {name: [] for name in per_layer_names()}
    errors = []
    start = time.perf_counter()
    index = 1
    while index == 1 or time.perf_counter() - start < seconds:
        rep, result = run_rep(workload, work, seed, index, truth, stats,
                              check_extra=False)
        trace_path = os.path.join(rep.dir, "trace.json")
        os.makedirs(rep.shard_dir, exist_ok=True)
        child = spawn(tracer_argv(workload, rep, "trace") +
                      ["--out", trace_path], os.path.join(rep.dir, "trace.log"))
        shutil.rmtree(rep.shard_dir, ignore_errors=True)
        if child.returncode != 0:
            raise BenchError(f"traced replay failed:\n{child.tail()}")
        with open(trace_path) as f:
            trace = json.load(f)
        if result is not None:
            failures = check_trace(workload, trace, result)
            if failures:
                stats["failed"] += 1
                log(f"{workload.name} trace {index} FAILED: " +
                    "; ".join(failures))
            else:
                values = layer_metrics(trace, result[0].wall_s)
                for name in samples:
                    samples[name].append(values[name])
                errors += relative_errors(result, truth)
        shutil.rmtree(rep.dir, ignore_errors=True)
        index += 1
    if not errors:
        return {}
    metrics = {name: median_metric(v, per_layer_unit(name))
               for name, v in samples.items()}
    metrics[ACCURACY] = median_metric(errors, "ratio")
    return metrics


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return {"engine.state.bytes": "bytes"}.get(name, "ratio")


# Accuracy is reported with the per-layer split, not gated with the
# end-to-end metrics: its spread across seeds is the estimators' own variance
# (0.2-0.6 of its median over five seeds, far above any useful bound).
ACCURACY = "rel_err_p50"


def run_workload(workload, seed, seconds, trace):
    """One run of one workload; returns (metrics, stats)."""
    build()
    work = os.path.join(BUILD_ROOT, "work", f"{workload.name}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    host = host_info(work)
    print("host: " + json.dumps(host, sort_keys=True), flush=True)

    truth = load_fixture(workload, seed)
    stats = {"attempted": 0, "failed": 0}
    # Discarded warm-up: puts the fixture in the page cache (users re-run on
    # cached files) and runs the workload's cross-check.
    run_rep(workload, work, seed, 0, truth, stats, check_extra=True)
    measure_fn = measure_traced if trace else measure
    metrics = measure_fn(workload, work, seed, seconds, truth, stats)
    shutil.rmtree(work, ignore_errors=True)
    return metrics, stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn with a "
                             "readable table (tracing off)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args.seed,
                                         args.seconds,
                                         args.trace and args.workload != "all")
    except BenchError as e:
        log(f"error: {e}")
        return 1
    attempted = sum(stats["attempted"] for _, stats in results.values())
    failed = sum(stats["failed"] for _, stats in results.values())
    correct = failed == 0 and all(m for m, _ in results.values())
    if args.workload == "all":
        metrics = {}
        for name, (m, _) in results.items():
            for metric, v in m.items():
                print(f"{name:18s} {metric:14s} {v['value']:14.6g} {v['unit']}")
                metrics[f"{name}.{metric}"] = v
    else:
        metrics = results[args.workload][0]
        if not args.trace:
            metrics.pop(ACCURACY, None)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
