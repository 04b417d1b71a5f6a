#!/usr/bin/env python3
"""hiermeans benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the daemon and
the benchmark's two programs (perfbench/CMakeLists.txt) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``); later runs reuse the
build. Inputs are generated from ``--seed`` into a scratch directory
under the build directory and removed afterwards.

Workloads (see perfbench/README.md for why each exists, and why
BENCHMARK.json lists only fleet_1000 and serve_hot):
  paper_sar    offline: 13 workloads x 220 SAR counters, one caller thread
  fleet_1000   offline: generated suites of 1000 workloads x 34 features
  serve_hot    hmserved without a data dir, open-loop cache-hit traffic
  serve_mixed  hmserved with a data dir: hits, fresh-seed misses, observes

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
run. A ``detail`` line before it carries workload-specific figures
(digests, recovery ARI, observe latency, the rate ladder). The exit code
is non-zero, with no result line, when the build or a run step fails.
"""

import argparse
import http.client
import itertools
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

WORKLOADS = ("paper_sar", "fleet_1000", "serve_hot", "serve_mixed")

# Serving settings. The nominal rate is where latency is reported; the
# ladder above it finds the sustained rate under the tail limit.
NOMINAL_RPS = {"serve_hot": 6000.0, "serve_mixed": 1500.0}
NOMINAL_SHARE = 0.4         # of --seconds at the nominal rate; the ladder
                            # takes the rest
RUNGS = 8
OFFLINE_PASS_RPS = 100.0    # the traced serving pass of offline workloads
MISS_PERMILLE = 50          # serve_mixed: 5% of scores carry a fresh seed
OBSERVE_PERMILLE = 50       # serve_mixed: 5% of requests are observes
# An untraced serving run is cut into rounds, so that its set-ups and its
# nominal-rate latency sample the whole run rather than one stretch of
# it: on a shared host the speed drifts over seconds. Each round times a
# burst of daemon set-ups (at least SETUP_MIN_REPEATS and SETUP_BURST_S)
# and then drives the burst's last daemon at the nominal rate; the
# ladder follows, one fresh daemon per rung.
ROUNDS = 4
SETUP_MIN_REPEATS = 3
SETUP_BURST_S = 0.5
DAEMON_START_TIMEOUT_S = 30.0

E2E = ("setup_s", "suites_per_s", "suite_ms_p50", "suite_ms_tail",
       "peak_rss_mb")
E2E_UNITS = {"setup_s": "s", "suites_per_s": "1/s", "suite_ms_p50": "ms",
             "suite_ms_tail": "ms", "peak_rss_mb": "MiB"}


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    """Configure and build the daemon plus the benchmark programs."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "hmserved", "perfbench", "openload"],
                   check=True, stdout=sys.stderr)
    return {name: os.path.join(out, name)
            for name in ("hmserved", "perfbench", "openload")}


def cpu_split():
    """Daemon CPUs and load-generator CPUs, disjoint when possible."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def analysis_cpus():
    """The CPU the single-threaded offline runs and the in-process probe
    are pinned to, so the scheduler never moves them mid-run."""
    return cpu_split()[0][-1:]


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


def last_json(text):
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise RuntimeError("no JSON result in output:\n" + text)
    return json.loads(lines[-1])


def run_json(cmd, cpus=None):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          preexec_fn=pinned(cpus) if cpus else None)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d" % (cmd[1] if len(cmd) > 1
                                             else cmd[0], proc.returncode))
    return last_json(proc.stdout)


class Daemon:
    """One hmserved process, pinned, stopped and reaped on close()."""

    def __init__(self, binary, cpus, log_path, data_dir=None):
        self.log_path = log_path
        args = [binary, "--port=0", "--threads=%d" % max(1, len(cpus)),
                "--queue-depth=8", "--quiet"]
        if data_dir:
            args.append("--data-dir=" + data_dir)
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(args, stdout=self.log,
                                     stderr=subprocess.STDOUT,
                                     preexec_fn=pinned(cpus))
        self.port = self._wait_port()

    def _wait_port(self):
        deadline = time.monotonic() + DAEMON_START_TIMEOUT_S
        prefix = "listening on port "
        while time.monotonic() < deadline:
            with open(self.log_path) as f:
                for line in f:
                    if line.startswith(prefix):
                        return int(line[len(prefix):])
            if self.proc.poll() is not None:
                raise RuntimeError("hmserved exited during start-up")
            time.sleep(0.002)
        raise RuntimeError("hmserved did not start listening")

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def register_suites(port, scratch):
    """POST each suite's manifest to /v1/suites (serve_mixed only)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    names = []
    with open(os.path.join(scratch, "suites.tsv")) as f:
        for row in f:
            name, path = row.rstrip("\n").split("\t")
            with open(path) as m:
                body = m.read()
            conn.request("POST", "/v1/suites?name=" + name, body,
                         {"Content-Type": "text/plain"})
            response = conn.getresponse()
            response.read()
            if response.status not in (200, 201):
                raise RuntimeError("registering %s answered %d"
                                   % (name, response.status))
            names.append(name)
    conn.close()
    return names


def serving_session(tools, workload, seed, seconds, scratch, rate,
                    rounds, ladder):
    """Set daemons up, verify the first one's outputs, and drive each at
    the nominal rate. With `ladder`, the rounds take NOMINAL_SHARE of
    `seconds` and the rate ladder the rest; without, the rounds take all
    of it. With one round, the set-up runs once. Returns (set-up seconds
    of every set-up, load result of every round, warm result, and with
    `ladder` the sustained rate and the rungs)."""
    daemon_cpus, load_cpus = cpu_split()
    requests = os.path.join(scratch, "requests.tsv")
    persistent = workload == "serve_mixed"
    # Senders + the scraper + the main thread stay within nproc.
    workers = max(1, min(len(load_cpus),
                         len(daemon_cpus) + len(load_cpus) - 2))
    setups = []
    checks = []
    daemon = None
    suites = []

    def start():
        """Start, register (serve_mixed) and warm a fresh daemon, timing
        it; it replaces the one that was up."""
        nonlocal daemon, suites
        if daemon is not None:
            daemon.close()
            daemon = None
        data_dir = None
        if persistent:
            data_dir = os.path.join(scratch, "data")
            shutil.rmtree(data_dir, ignore_errors=True)
        started = time.monotonic()
        daemon = Daemon(tools["hmserved"], daemon_cpus,
                        os.path.join(scratch, "hmserved.log"), data_dir)
        suites = register_suites(daemon.port, scratch) if persistent \
            else []
        ready_s = time.monotonic() - started
        warm = run_json([tools["openload"], "warm",
                         "--port=%d" % daemon.port,
                         "--requests=" + requests], load_cpus)
        setups.append(ready_s + warm["send_ms"] / 1000.0)
        checks.append(warm["correct"])

    def drive(phase, phase_rate, phase_s):
        # Each phase's request mix has its own seed; a run has fewer
        # than 16 phases (ROUNDS + RUNGS).
        cmd = [tools["openload"], "run", "--port=%d" % daemon.port,
               "--requests=" + requests,
               "--seed=%d" % (seed * 16 + phase), "--rate=%g" % phase_rate,
               "--seconds=%g" % phase_s, "--workers=%d" % workers,
               "--daemon-pid=%d" % daemon.proc.pid]
        if persistent:
            cmd += ["--miss-permille=%d" % MISS_PERMILLE,
                    "--observe-permille=%d" % OBSERVE_PERMILLE,
                    "--observe-suites=" + ",".join(suites)]
        load = run_json(cmd, load_cpus)
        checks.append(load["correct"])
        return load

    share = NOMINAL_SHARE if ladder else 1.0
    loads = []
    climbed = None
    try:
        for r in range(rounds):
            burst_start = time.monotonic()
            for count in itertools.count(1):
                start()
                if rounds == 1 or (
                        count >= SETUP_MIN_REPEATS and
                        time.monotonic() - burst_start >= SETUP_BURST_S):
                    break
            if r == 0:
                # Checked against the in-process pipeline before any load.
                verified = run_json([tools["openload"], "warm",
                                     "--port=%d" % daemon.port,
                                     "--requests=" + requests, "--verify"],
                                    load_cpus)
            loads.append(drive(r, rate, share * seconds / rounds))
        if ladder:
            # Double the rate until a rung misses the limit, then bisect.
            # Each rung gets a fresh daemon: the daemon keeps every
            # latency sample and each scrape sorts them, so on one daemon
            # a rung's capacity fell with the rungs before it (18000/s
            # went from a 4 ms to a 400 ms tail over seven rungs).
            rung_s = (1.0 - NOMINAL_SHARE) * seconds / RUNGS
            lo = rate if loads[-1]["within_limit"] else 0.0
            hi = sustained = 0.0
            rungs = []
            for r in range(RUNGS):
                if hi:
                    rung_rate = math.sqrt(lo * hi) if lo else hi / 2.0
                else:
                    rung_rate = 2.0 * lo if lo else rate / 2.0
                start()
                load = drive(ROUNDS + r, rung_rate, rung_s)
                if load["within_limit"]:
                    lo, sustained = rung_rate, load["completed_rps"]
                else:
                    hi = rung_rate
                rungs.append({"rate": round(rung_rate, 1),
                              "tail_ms": round(load["score_tail_ms"], 3),
                              "pass": load["within_limit"]})
            climbed = (sustained, rungs)
    finally:
        if daemon is not None:
            daemon.close()
    verified["correct"] = verified["correct"] and all(checks)
    return setups, loads, verified, climbed


def metric(name, value, unit):
    return name, {"value": value, "unit": unit}


def run_untraced(tools, workload, seed, seconds, scratch):
    if workload in ("paper_sar", "fleet_1000"):
        r = run_json([tools["perfbench"], "offline", "--workload=" + workload,
                      "--seed=%d" % seed, "--seconds=%g" % seconds],
                     analysis_cpus())
        values = {k: r[k] for k in E2E}
        detail = {k: r[k] for k in ("digests", "suites", "setups")}
        detail.update({k: r[k] for k in ("recovery_ari", "recovery_ari_p50",
                                         "recovery_floor_misses") if k in r})
        return r["correct"], int(r["attempted"]), 0, values, detail

    setups, loads, warm, (sustained, rungs) = serving_session(
        tools, workload, seed, seconds, scratch, NOMINAL_RPS[workload],
        ROUNDS, True)
    windows_p50 = [v for load in loads for v in load["window_p50_ms"]]
    windows_tail = [v for load in loads for v in load["window_tail_ms"]]
    # The tail is the lower quartile of the windows' p90s. Stretches of
    # host interference lasting seconds put most of some runs' windows
    # at 3-10x the quiet p90 (a median over windows then read 1.24 ms
    # against 0.26 ms on the same host); a slowdown of the daemon itself
    # moves every window, the quiet quarter too.
    values = {"setup_s": statistics.median(setups),
              "suites_per_s": sustained,
              "suite_ms_p50": statistics.median(windows_p50),
              "suite_ms_tail": statistics.quantiles(windows_tail, n=4)[0],
              "peak_rss_mb": statistics.median(
                  load["daemon_rss_mib"] for load in loads)}
    detail = {k: sum(load[k] for load in loads) for k in
              ("score_samples", "observes", "scrapes", "refused",
               "misses_checked")}
    detail.update({k: statistics.median(load[k] for load in loads) for k in
                   ("observe_p99_ms", "scrape_ms_p50")})
    detail.update({"tail_percentile": loads[-1]["tail_percentile"],
                   "windows": len(windows_tail), "rungs": rungs,
                   "verified": warm["verified"], "setups": len(setups)})
    correct = warm["correct"] and sustained > 0
    attempted = int(warm["attempted"] +
                    sum(load["attempted"] for load in loads))
    failed = int(warm["failed"] +
                 sum(load["failed"] + load["refused"] for load in loads))
    return correct, attempted, failed, values, detail


LAYER_FROM_LOAD = (
    "engine.cache_hit_ratio", "engine.executions", "engine.pipeline_ms_mean",
    "wire.bytes_per_request.json", "wire.bytes_per_request.binary",
    "server.score_p50_ms.json", "server.score_p50_ms.binary",
    "server.request_ms_mean", "server.shed", "server.queue_depth_max",
    "server.malformed", "loadgen.lag_p99_ms")
LAYER_FROM_TRACE = (
    "linalg.pca_fit_ms", "som.init_ms", "som.train_ms", "som.map_ms",
    "som.bmu_us", "cluster.agglomerate_ms", "cluster.sweep_ms",
    "scoring.report_ms", "core.characterize_ms", "gen.generate_ms",
    "engine.parse_us", "engine.fingerprint_us", "engine.cache_hit_us",
    "wire.decode_us", "wire.encode_report_us", "wire.render_json_us",
    "obs.record_ns", "obs.percentile_ms", "store.record_score_us",
    "store.wal_bytes_per_record", "drift.absorb_us", "trace.suite_ms_p50",
    "trace.unattributed_share", "trace.overhead_share")


def layer_unit(name):
    parts = set(name.replace(".", "_").split("_"))
    for token, unit in (("ms", "ms"), ("us", "us"), ("ns", "ns"),
                        ("share", "share"), ("ratio", "ratio"),
                        ("bytes", "bytes")):
        if token in parts:
            return unit
    return "count"


def run_traced(tools, workload, seed, seconds, scratch):
    """The per-layer run: the workload's serving traffic (for offline
    workloads, their own suites served at a low rate) with /metrics
    deltas, then the in-process layer probe on the same inputs. Each
    half takes about half of `seconds` (the serving pass of an offline
    workload a third)."""
    serving = workload in NOMINAL_RPS
    rate = NOMINAL_RPS[workload] if serving else OFFLINE_PASS_RPS
    pass_s = max(1.0, seconds / (2.0 if serving else 3.0))
    _, loads, warm, _ = serving_session(tools, workload, seed, pass_s,
                                        scratch, rate, 1, False)
    load = loads[0]
    trace = run_json([tools["perfbench"], "trace", "--workload=" + workload,
                      "--seed=%d" % seed, "--seconds=%g" % (seconds / 2.0),
                      "--dir=" + scratch,
                      "--histogram-samples=%d"
                      % max(1000, int(load["obs.histogram_samples"]))],
                     analysis_cpus())
    values = {k: load[k] for k in LAYER_FROM_LOAD}
    values["server.scrape_ms_p50"] = load["scrape_ms_p50"]
    values.update({k: trace[k] for k in LAYER_FROM_TRACE})
    detail = {"histogram_samples": trace["obs.histogram_samples"]}
    correct = warm["correct"] and trace["correct"]
    attempted = int(warm["attempted"] + load["attempted"])
    failed = int(warm["failed"] + load["failed"] + load["refused"])
    return correct, attempted, failed, values, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    try:
        tools = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    scratch = os.path.join(out, "run-%s-%d-%d" % (args.workload, args.seed,
                                                  os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        run_json([tools["perfbench"], "inputs", "--workload=" + args.workload,
                  "--seed=%d" % args.seed, "--dir=" + scratch])
        runner = run_traced if args.trace else run_untraced
        correct, attempted, failed, values, detail = runner(
            tools, args.workload, args.seed, args.seconds, scratch)
    except (RuntimeError, OSError, KeyError, ValueError) as e:
        log("run failed: %s" % e)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = dict(metric(k, v, layer_unit(k)) for k, v in values.items())
    else:
        metrics = dict(metric(k, values[k], E2E_UNITS[k]) for k in E2E)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
