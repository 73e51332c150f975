#!/usr/bin/env python3
"""The sans benchmark: `sans mine` and `sans serve` end to end, or a
traced per-layer run.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds `sans` and perfbench_tool
from source into .bench_build (Release), makes the workload's table
and its exact truth from --seed (set-up, outside every timed window,
cached per workload and seed), then:

  --trace 0  times the real `sans` binary as a child process: `sans
             mine` at the default thread count and at --threads 1, then
             `sans index` + `sans serve` start-up, then a closed-loop
             serve load. Every mined pair and every served answer is
             checked. Prints every end-to-end metric of BENCHMARK.json,
             then values measured but not gated there.
  --trace 1  runs perfbench_tool trace, which times calls into each
             layer from outside and writes its spans. Prints every
             per-layer metric of BENCHMARK.json.

Human-readable lines go first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics (with
--workload all, metrics are keyed "<workload>/<metric>"). Any failure
to build or run exits non-zero without that line. Why each workload
exists and which layer should move which metric: workloads.json.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SANS = os.path.join(BUILD, "sans", "tools", "sans")
TOOL = os.path.join(BUILD, "perfbench_tool")
# Input directories kept per workload; the oldest beyond this go.
CACHED_INPUTS = 12
CHILD_TIMEOUT_S = 150
# Share of --seconds given to mining, half to each thread count; the
# serve load gets the rest.
MINE_SHARE = 0.5
# Fewest `sans mine` runs of each thread count, whatever the budget, so
# no mining metric rests on one sample. Two, not more: one K-MH run at
# nproc threads takes 6-7 s and one 1-thread run on serve-news 5-6 s.
MIN_MINE_RUNS = 2
# `sans index` + `sans serve` start-ups per run; setup_s is their median.
SETUP_REPEATS = 3
# Consecutive parts of the serve load, in send order; a p99 latency is
# the median of the parts' p99s, so that a burst of load from outside
# the benchmark in one part does not set it.
LOAD_PARTS = 8


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (
            " ".join(cmd[:3]), proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no sans sources next to perfbench/ in " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                    "--target", "sans_cli", "perfbench_tool"], check=True,
                   stdout=sys.stderr, timeout=900)


def host_stamp():
    stamp = json.loads(run_checked([TOOL, "host"]))
    stamp["cpu_count"] = os.cpu_count()
    stamp["affinity_cpus"] = len(os.sched_getaffinity(0))
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        fields = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, entry, key)) as f:
                    fields[key] = f.read().strip()
            except OSError:
                pass
        if fields:
            caches.append(fields)
    stamp["caches"] = caches
    return stamp


def flag(flags, key):
    """A flag's value in a `sans` command line of workloads.json. Every
    flag the benchmark reads is spelled out there, so that the traced
    run and `sans` never fall back to separate defaults."""
    if key not in flags:
        raise BenchError("workloads.json: %s is missing from %s" % (key, flags))
    return flags[flags.index(key) + 1]


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def prepare(config, name, seed):
    """The workload's table and exact truth, made once per (workload,
    seed, tool build) and reused."""
    w = config["workloads"][name]
    key = "%s-seed%d-%s" % (name, seed, file_digest(TOOL)[:12])
    inputs = os.path.join(BUILD, "inputs")
    path = os.path.join(inputs, key)
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        shutil.rmtree(path, ignore_errors=True)
        cmd = [TOOL, "prepare", "--out", path, "--seed", str(seed),
               "--threshold", flag(w["mine_flags"], "--threshold")]
        for key, value in w["table"].items():
            cmd += ["--" + key.replace("_", "-"), str(value)]
        meta = json.loads(run_checked(cmd))
        # Flush the new table now, not during the first timed run.
        with open(os.path.join(path, "table.sans"), "rb") as f:
            os.fsync(f.fileno())
        with open(meta_path, "w") as f:
            json.dump(meta, f)
    os.utime(path)
    mine = sorted((d for d in os.listdir(inputs) if d.startswith(name + "-")),
                  key=lambda d: os.path.getmtime(os.path.join(inputs, d)))
    for old in mine[:-CACHED_INPUTS]:
        shutil.rmtree(os.path.join(inputs, old), ignore_errors=True)
    with open(meta_path) as f:
        meta = json.load(f)
    # Warm the page cache, as after a fresh write.
    with open(os.path.join(path, "table.sans"), "rb") as f:
        while f.read(1 << 24):
            pass
    return path, meta


def read_exact_pairs(path):
    exact = {}
    with open(os.path.join(path, "pairs.tsv")) as f:
        for line in f:
            a, b, inter, union = map(int, line.split())
            exact[(a, b)] = inter / union
    return exact


def check_pairs(lines, exact, threshold):
    """(pairs, wrong): the emitted pairs, and how many of them are not
    exact pairs with similarity >= threshold at the printed value."""
    pairs = set()
    wrong = 0
    for line in lines:
        if not line.strip() or line.startswith("#"):
            continue
        a, b, sim = line.split("\t")
        pair = (min(int(a), int(b)), max(int(a), int(b)))
        pairs.add(pair)
        truth = exact.get(pair)
        if truth is None or truth < threshold or abs(truth - float(sim)) > 1e-6:
            wrong += 1
    return pairs, wrong


def timed_child(cmd, stdout_path):
    """Runs cmd to completion through `perfbench_tool exec`; returns
    (exit code, wall s, peak RSS MB)."""
    report = stdout_path + ".rusage"
    with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
        subprocess.run([TOOL, "exec", report] + cmd, cwd=ROOT, stdout=out,
                       stderr=err, timeout=CHILD_TIMEOUT_S, check=True)
    with open(report) as f:
        usage = json.load(f)
    return usage["exit"], usage["wall_s"], usage["peak_rss_mb"]


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_p99(values):
    """The median of the p99s of LOAD_PARTS consecutive equal parts of
    values, which are in send order."""
    parts = [values[i * len(values) // LOAD_PARTS:
                    (i + 1) * len(values) // LOAD_PARTS]
             for i in range(LOAD_PARTS)]
    return statistics.median(percentile(part, 99) for part in parts if part)


def summary(values):
    """Median, plus the highest of p99.9/p99/p90 with at least ten
    samples beyond it, and the sample count."""
    text = "median %.6g" % statistics.median(values)
    for p in (99.9, 99, 90):
        if len(values) * (1 - p / 100.0) >= 10:
            text += ", p%g %.6g" % (p, percentile(values, p))
            break
    return text + " (n=%d)" % len(values)


class Server:
    """A `sans serve` child, stopped with SIGTERM."""

    def __init__(self, index, threads, seed_dir):
        self.proc = subprocess.Popen(
            [SANS, "serve", "--index", index, "--port", "0",
             "--threads", str(threads)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            stderr=open(os.path.join(seed_dir, "serve.err"), "a"))
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError("sans serve did not start: %r" % line)
        self.port = int(line.strip().rsplit(":", 1)[1])

    def stop(self):
        """Stops the server; returns (exit code, peak RSS MB). The peak
        is VmHWM read just before the stop: a child's rusage peak would
        include the forking interpreter's memory."""
        peak = float("nan")
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = int(line.split()[1]) / 1024.0
        except OSError:
            pass
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode, peak


def end_to_end(config, name, seed, seconds, inputs, threads, out_dir):
    w = config["workloads"][name]
    threshold = float(flag(w["mine_flags"], "--threshold"))
    table = os.path.join(inputs, "table.sans")
    exact = read_exact_pairs(inputs)
    attempted = failed = 0
    samples = {"mine_s": [], "mine_1t_s": [], "peak_rss_mb": []}
    reference = None
    recall = None

    # Mining: the default thread count, then --threads 1, each for half
    # the mining share of --seconds and at least MIN_MINE_RUNS runs.
    mine_budget = seconds * MINE_SHARE
    for one_thread in (False, True):
        times = samples["mine_1t_s" if one_thread else "mine_s"]
        while (len(times) < MIN_MINE_RUNS or
               sum(times) * (1 + 1 / len(times)) <= mine_budget / 2):
            cmd = [SANS, "mine", "--in", table, "--seed", str(seed)]
            cmd += w["mine_flags"]
            if w["stream"]:
                cmd += ["--checkpoint-dir",
                        os.path.join(out_dir, "ck%d" % attempted)]
            if one_thread:
                cmd += ["--threads", "1"]
            out = os.path.join(out_dir, "mine.out")
            code, wall, rss = timed_child(cmd, out)
            attempted += 1
            with open(out) as f:
                pairs, wrong = check_pairs(f, exact, threshold)
            if reference is None:
                reference = pairs
                recall = len(pairs & set(exact)) / len(exact)
            if code != 0 or wrong or pairs != reference:
                failed += 1
                log("mine failure: exit %d, %d wrong pairs, %s output as "
                    "the first run" % (
                        code, wrong,
                        "same" if pairs == reference else "not the same"))
            times.append(wall)
            if not one_thread:
                samples["peak_rss_mb"].append(rss)

    # Serving: set-up several times, keep the last server for the load.
    setups = []
    digest = None
    server = None
    try:
        for i in range(SETUP_REPEATS):
            index = os.path.join(out_dir, "index%d.idx" % i)
            begin = time.perf_counter()
            run_checked([SANS, "index", "--in", table, "--out", index,
                         "--seed", str(seed)] + config["index_flags"])
            server = Server(index, threads, out_dir)
            setups.append(time.perf_counter() - begin)
            attempted += 1
            if digest is None:
                digest = file_digest(index)
            elif file_digest(index) != digest:
                failed += 1
                log("index build is not deterministic")
            if i + 1 < SETUP_REPEATS:
                code, _ = server.stop()
                server = None
                failed += code != 0
                os.remove(index)
        load = json.loads(run_checked([
            TOOL, "load", "--port", str(server.port), "--index", index,
            "--truth", os.path.join(inputs, "topk.tsv"),
            "--connections", str(threads), "--seed", str(seed),
            "--seconds", str(seconds - mine_budget)]))
    finally:
        code, serve_rss = server.stop() if server else (0, float("nan"))
        # Indexes and checkpoints are large; the run keeps its outputs.
        for entry in os.listdir(out_dir):
            path = os.path.join(out_dir, entry)
            if entry.startswith("ck"):
                shutil.rmtree(path)
            elif entry.startswith("index"):
                os.remove(path)
    attempted += load["attempted"]
    failed += load["rpc_errors"] + load["pair_mismatches"] + load["topk_mismatches"]
    if code != 0:
        failed += 1
        log("sans serve exited with %d" % code)

    topk = load["topk_latency_s"]
    pair = load["pair_latency_s"]
    if not topk or not pair:
        raise BenchError("the serve load completed no TopK or no Pair request")
    n_topk, n_pair = len(topk), len(pair)
    values = {
        "mine_s": (statistics.median(samples["mine_s"]), "s",
                   summary(samples["mine_s"])),
        "mine_1t_s": (statistics.median(samples["mine_1t_s"]), "s",
                      summary(samples["mine_1t_s"])),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB",
                        summary(samples["peak_rss_mb"])),
        "recall": (recall, "ratio", "%d of %d exact pairs with S >= %g" % (
            len(reference & set(exact)), len(exact), threshold)),
        "setup_s": (statistics.median(setups), "s",
                    summary(setups) + ", sans index + serve start-up"),
        # Not in BENCHMARK.json: a few MB, and bimodal from run to run.
        "serve_peak_rss_mb": (serve_rss, "MB", "sans serve VmHWM"),
        "recall_at_10": (load["recall_at_10"], "ratio",
                         "%d TopK answers on %d distinct columns" % (
                             n_topk, load["topk_columns"])),
        "topk_qps": (n_topk / load["elapsed_s"], "1/s",
                     "%d TopK in %.2f s" % (n_topk, load["elapsed_s"])),
        "topk_p50_ms": (statistics.median(topk) * 1e3, "ms",
                        summary([t * 1e3 for t in topk])),
        "topk_p99_ms": (windowed_p99(topk) * 1e3, "ms",
                        "median of %d parts' p99, n=%d" % (LOAD_PARTS, n_topk)),
        # Not in BENCHMARK.json: on a shared host the loopback round trip
        # moves by up to 40% between runs, more than any allowed bound.
        "pair_p50_us": (statistics.median(pair) * 1e6, "us",
                        summary([t * 1e6 for t in pair])),
        "pair_p99_us": (windowed_p99(pair) * 1e6, "us",
                        "median of %d parts' p99, n=%d" % (LOAD_PARTS, n_pair)),
    }
    return values, attempted, failed


def traced(config, name, seed, seconds, inputs, out_dir):
    w = config["workloads"][name]
    flags = w["mine_flags"]
    index_flags = config["index_flags"]
    threshold = flag(flags, "--threshold")
    spans_path = os.path.join(out_dir, "spans.json")
    pairs_path = os.path.join(out_dir, "trace_pairs.tsv")
    cmd = [TOOL, "trace", "--table", os.path.join(inputs, "table.sans"),
           "--algorithm", flag(flags, "--algorithm"),
           "--stream", "1" if w["stream"] else "0",
           "--k", flag(flags, "--k"), "--r", flag(flags, "--r"),
           "--l", flag(flags, "--l"),
           "--threshold", threshold, "--seed", str(seed),
           "--index-k", flag(index_flags, "--k"),
           "--index-r", flag(index_flags, "--r"),
           "--index-l", flag(index_flags, "--l"),
           "--index", os.path.join(out_dir, "trace.idx"),
           "--request-seed", str(seed), "--seconds", str(seconds),
           "--spans", spans_path, "--pairs-out", pairs_path]
    start = time.perf_counter()
    values = json.loads(run_checked(cmd))
    wall = time.perf_counter() - start
    os.remove(os.path.join(out_dir, "trace.idx"))
    with open(spans_path) as f:
        spans = json.load(f)["spans"]
    top_level = sum(s["end_s"] - s["start_s"] for s in spans if s["parent"] == 0)
    values["trace.unattributed_s"] = wall - top_level
    with open(pairs_path) as f:
        _, wrong = check_pairs(f, read_exact_pairs(inputs), float(threshold))
    print("spans written to %s" % spans_path)
    return ({name: (value, None, "") for name, value in values.items()},
            len(spans), wrong)


def run_workload(bench, config, host, name, seed, seconds, trace):
    """Runs one workload; prints its human-readable lines and returns
    its result object."""
    inputs, meta = prepare(config, name, seed)
    print("workload %s seed %d: %d rows x %d cols, %d ones, %d exact pairs "
          "(set-up, untimed: generate %.2f s, truth %.2f s)" % (
              name, seed, meta["rows"], meta["cols"], meta["ones"],
              meta["exact_pairs"], meta["generate_s"], meta["truth_s"]))
    out_dir = os.path.join(BUILD, "runs", "%s-seed%d-trace%d" % (
        name, seed, trace))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if trace:
        values, attempted, failed = traced(
            config, name, seed, seconds, inputs, out_dir)
    else:
        values, attempted, failed = end_to_end(
            config, name, seed, seconds, inputs,
            host["hardware_concurrency"] or 1, out_dir)
    metrics = {}
    for declared in bench["per_layer" if trace else "end_to_end"]:
        value, unit, detail = values[declared["name"]]
        if unit not in (None, declared["unit"]):
            raise BenchError("unit mismatch for " + declared["name"])
        metrics[declared["name"]] = {"value": value, "unit": declared["unit"]}
        print("  %-36s %-14.6g %-6s %s" % (
            declared["name"], value if value is not None else math.nan,
            declared["unit"], detail))
    for extra in sorted(set(values) - set(metrics)):
        value, unit, detail = values[extra]
        print("  %-36s %-14.6g %-6s %s (not gated)" % (extra, value, unit, detail))
    print("  %-36s %-14.6g %-6s %d of %d operations failed" % (
        "fail_ratio", failed / attempted, "ratio", failed, attempted))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(out_dir, "result.json"), "w") as f:
        json.dump({"host": host, "workload": name, "seed": seed,
                   "input": meta, "result": result, "values": values}, f,
                  indent=1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    names = (list(config["workloads"]) if args.workload == "all"
             else [args.workload])
    for name in names:
        if name not in config["workloads"]:
            raise BenchError("unknown workload " + name)

    build()
    host = host_stamp()
    print("host: " + json.dumps(host))
    if host["hardware_concurrency"] == 1:
        print("warning: 1 hardware thread; default-thread runs equal "
              "1-thread runs and no scaling is reported")
    results = {name: run_workload(bench, config, host, name, args.seed,
                                  args.seconds, args.trace)
               for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (name, metric): value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()}}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        log("perfbench: %s" % error)
        sys.exit(1)
