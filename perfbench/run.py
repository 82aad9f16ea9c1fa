#!/usr/bin/env python3
"""The what-if answer benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 15 --trace 0

Builds the Release `daydream` CLI and the replay harness into .bench_build/,
then times what-if answers through a real transport (`--trace 0`) or replays
the same seeded requests in-process with a span around every layer call
(`--trace 1`). Every answer is checked against an independent computation.
The last line of stdout is the result object; the line before it holds the
run metadata.
"""

import argparse
import gc
import json
import math
import os
import random
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout's perfbench/ as committed
import check  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DAYDREAM = os.path.join(BUILD, "daydream", "daydream")
REPLAY = os.path.join(BUILD, "perfbench_replay")

WORKLOADS = ("serve-warm", "serve-cold", "cli-predict")
MODEL = "BERT_Large"
SERVE_JOBS = 2          # daemon workers; the client is the machine's other busy thread
OUTSTANDING = 2         # requests in flight: two connections (TCP) or a window (stdio)
CACHE_CAPACITY = 64     # SessionOptions::plan_cache_capacity
SETUP_REPS = {"serve-warm": 5, "serve-cold": 5, "cli-predict": 21}
STALL_S = 20.0          # no answer for this long: the daemon is treated as hung

# One cost class per workload (a percentile over mixed costs lands between
# classes). These what-ifs are all one clone-free dispatch of ~14.6k tasks
# once warm, and one clone + transform + compile when cold.
WARM_SIGNATURES = (
    {"what_if": "amp"}, {"what_if": "rbn"}, {"what_if": "gist"}, {"what_if": "vdnn"},
    {"what_if": "metaflow"},
    {"what_if": "distributed", "cluster": "2x2", "gbps": 25},
    {"what_if": "distributed", "cluster": "4x2", "gbps": 10},
    {"what_if": "distributed", "cluster": "8x4", "gbps": 40},
)
# The sweep replayed in the cli-predict traced run: a 2-iteration trace and
# one fixed matrix of 2 cluster shapes x 2 bandwidths (10 ranked cases).
SWEEP_CLUSTER = "4x2,8x4"
SWEEP_GBPS = "10,40"


def fail(message):
    """Refuses to produce a result: message on stderr, nonzero exit."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def now():
    return time.perf_counter()


# --------------------------------------------------------------------------
# Build and metadata
# --------------------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no daydream sources next to perfbench/ (expected CMakeLists.txt and src/)")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE + "/harness", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "daydream_cli", "perfbench_replay",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    build_type = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("refusing to time a %r build; %s must be a Release build" % (build_type, BUILD))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: the version the binary was built with.
    out = subprocess.run([DAYDREAM, "version", "--json"], capture_output=True, text=True)
    try:
        return "daydream-" + json.loads(out.stdout)["version"]
    except (ValueError, KeyError):
        return "unknown"


# --------------------------------------------------------------------------
# Statistics
# --------------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile (the replay harness uses the same rule); 0
    when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail(values, nominal):
    """The nominal percentile when at least 10 samples lie beyond it; else the
    highest percentile that has 10 beyond it, but never below the median.
    Returns (value, effective percentile)."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    rank = min(n, max(1, math.ceil(nominal / 100.0 * n)))
    if n - rank < 10:
        rank = max(n - 10, math.ceil(n / 2.0), 1)
    return sorted(values)[rank - 1], 100.0 * rank / n


# --------------------------------------------------------------------------
# Processes
# --------------------------------------------------------------------------

def run_cli(argv):
    """Runs one CLI process with its output discarded; returns (wall seconds,
    exit ok, cpu seconds, maxrss MB)."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]
    start = now()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = now() - start
    ok = os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    return wall, ok, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def proc_cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Channel:
    """Line-oriented reads and writes over a pipe pair or a socket."""

    def __init__(self, read_fd, write_fd=None, sock=None):
        self.read_fd = read_fd
        self.write_fd = write_fd
        self.sock = sock
        self.buffer = b""
        self.lines = []
        self.sent_at = {}      # id -> send time, for requests in flight

    def fileno(self):
        return self.read_fd

    def send(self, line):
        data = (line + "\n").encode()
        if self.sock is not None:
            self.sock.sendall(data)
        else:
            while data:
                data = data[os.write(self.write_fd, data):]

    def pump(self):
        """Reads what is available; returns False on EOF."""
        chunk = self.sock.recv(1 << 16) if self.sock is not None else os.read(self.read_fd, 1 << 16)
        if not chunk:
            return False
        self.buffer += chunk
        *done, self.buffer = self.buffer.split(b"\n")
        self.lines.extend(line.decode() for line in done)
        return True

    def read_line(self, timeout=STALL_S):
        deadline = now() + timeout
        while not self.lines:
            remaining = deadline - now()
            if remaining <= 0 or not selectors_wait([self], remaining):
                raise TimeoutError("no line from the daemon within %.0f s" % timeout)
            if not self.pump():
                raise EOFError("daemon closed its output")
        return self.lines.pop(0)

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def selectors_wait(channels, timeout):
    with selectors.DefaultSelector() as sel:
        for channel in channels:
            sel.register(channel.fileno(), selectors.EVENT_READ, channel)
        return [key.data for key, _ in sel.select(timeout)]


class Daemon:
    """A `daydream serve --jobs 2` process with its client channels."""

    def __init__(self, transport, trace_path):
        self.transport = transport
        argv = [DAYDREAM, "serve", "--jobs", str(SERVE_JOBS)]
        if transport == "tcp":
            argv += ["--port", "0"]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, bufsize=0)
        self.usage = None
        self.needed_eof = False
        self.channels = []
        try:
            self._connect(trace_path)
        except BaseException:
            self.kill()
            raise

    def _connect(self, trace_path):
        out = Channel(self.proc.stdout.fileno(), self.proc.stdin.fileno())
        if self.transport == "tcp":
            banner = out.read_line()
            port = int(re.search(r":(\d+)\s*$", banner).group(1))
            for _ in range(OUTSTANDING):
                sock = socket.create_connection(("127.0.0.1", port))
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.channels.append(Channel(sock.fileno(), sock=sock))
        else:
            self.channels = [out]
        for channel in self.channels:
            channel.read_line()  # hello banner
        opened = self.call({"id": 0, "verb": "open", "trace": trace_path})
        if opened.get("session") != "s1":
            raise RuntimeError("open failed: %r" % opened)

    def call(self, request, channel=None):
        channel = channel or self.channels[0]
        channel.send(json.dumps(request))
        return json.loads(channel.read_line())

    def cpu_seconds(self):
        return proc_cpu_seconds(self.proc.pid)

    def _reap(self, timeout):
        if self.usage is not None:
            return True  # already reaped
        deadline = now() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = status
                self.usage = usage
                return True
            if now() > deadline:
                return False
            time.sleep(0.005)

    def shutdown(self):
        """shutdown verb, then close the client side, then a bounded wait.

        On stdio the daemon can stay blocked reading stdin after answering
        `shutting_down` (its reader re-enters the line read before a worker
        handles the verb); each time that happens is counted, then stdin is
        closed to release it.
        """
        try:
            reply = self.call({"id": -1, "verb": "shutdown"})
            ok = reply.get("shutting_down") is True
        except (OSError, TimeoutError, EOFError, ValueError):
            ok = False
        if self.transport == "stdio":
            if not self._reap(0.5):
                self.needed_eof = True
            self.proc.stdin.close()
        else:
            for channel in self.channels:
                channel.close()
            self.proc.stdin.close()
        if not self._reap(10.0):
            self.kill()
            return False
        self.proc.stdout.close()
        return ok and os.WIFEXITED(self.proc.returncode) and \
            os.WEXITSTATUS(self.proc.returncode) == 0

    def kill(self):
        if self.usage is None:
            self.proc.kill()
            _, status, self.usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = status
        for channel in self.channels:
            channel.close()
        self.proc.stdin.close()
        self.proc.stdout.close()


# --------------------------------------------------------------------------
# Request streams (seeded)
# --------------------------------------------------------------------------

def predict_line(request_id, signature):
    request = {"id": request_id, "verb": "predict", "session": "s1"}
    request.update(signature)
    return request


def request_stream(signatures, first_id):
    for request_id, signature in enumerate(signatures, start=first_id):
        yield predict_line(request_id, signature)


def warm_signatures(rng):
    """Seeded order with a balanced mix: every block of 8 requests is a
    shuffle of the 8 signatures, so the seed changes the order, never the
    share of each signature."""
    while True:
        block = list(WARM_SIGNATURES)
        rng.shuffle(block)
        yield from block


def cold_signatures(rng):
    """Distinct distributed signatures, in seeded order: MxG with M*G >= 2 and
    an integer bandwidth. Every one costs a clone, a transform and a compile."""
    space = [(m, g, gbps) for m in range(1, 17) for g in (1, 2, 4, 8)
             for gbps in range(1, 401) if m * g >= 2]
    for m, g, gbps in rng.sample(space, len(space)):
        yield {"what_if": "distributed", "cluster": "%dx%d" % (m, g), "gbps": gbps}


def write_lines(path, requests):
    with open(path, "w") as f:
        for request in requests:
            f.write(json.dumps(request) + "\n")


def oracle(work, trace_path, fmt, requests):
    """Expected answers from a fresh in-process session (perfbench_replay)."""
    path = os.path.join(work, "oracle-requests.jsonl")
    write_lines(path, requests)
    out = subprocess.run([REPLAY, "oracle", "--trace", trace_path, "--format", fmt,
                          "--requests", path], capture_output=True, text=True)
    if out.returncode != 0:
        fail("oracle failed: " + out.stderr.strip())
    return check.parse_oracle(out.stdout)


# --------------------------------------------------------------------------
# Workloads. Each returns a Run the reporting code turns into metrics.
# --------------------------------------------------------------------------

def collect(work, iterations=1, chrome=False):
    trace_path = os.path.join(work, "bert_large_%dit.ddtrace" % iterations)
    argv = [DAYDREAM, "collect", "--model", MODEL, "--iterations", str(iterations),
            "--out", trace_path]
    chrome_path = None
    if chrome:
        chrome_path = os.path.join(work, "bert_large.chrome.json")
        argv += ["--chrome", chrome_path]
    if not run_cli(argv)[1]:
        fail("daydream collect failed")
    return trace_path, chrome_path


class Run:
    """Timed-phase results shared by every workload."""

    def __init__(self):
        self.setup_s = []
        self.latencies_ms = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.answers = 0           # ok answers
        self.verdict = check.Verdict()
        self.extra = {}            # workload facts the traced report uses
        self.trace_path = None
        self.chrome_path = None
        self.replay_requests = []  # timed requests, in send order
        self.warmup_requests = []


def serve_setup(work, transport, warmup, run):
    """One set-up: collect, spawn the daemon, open, warm-up pass."""
    start = now()
    run.trace_path, _ = collect(work)
    daemon = Daemon(transport, run.trace_path)
    try:
        in_flight = {}
        pending = list(warmup)
        channel = daemon.channels[0]
        while pending or in_flight:
            while pending and len(in_flight) < OUTSTANDING:
                request = pending.pop(0)
                in_flight[request["id"]] = request
                channel.send(json.dumps(request))
            answer = json.loads(channel.read_line())
            if answer.get("ok") is not True:
                raise RuntimeError("warm-up request refused: %r" % answer)
            in_flight.pop(answer.get("id"), None)
    except Exception:
        daemon.kill()
        raise
    run.setup_s.append(now() - start)
    return daemon


def serve_timed(daemon, stream, seconds, run):
    """Closed loop: each channel keeps its share of OUTSTANDING requests in
    flight until `seconds` pass, then drains. Latency is write to read."""
    share = OUTSTANDING // len(daemon.channels)
    requests = {}
    responses = []
    stats_before = daemon.call({"id": -2, "verb": "stats", "session": "s1"})
    cpu_before = daemon.cpu_seconds()
    start = now()
    end = start + seconds
    for channel in daemon.channels:
        for _ in range(share):
            request = next(stream)
            requests[request["id"]] = request
            channel.sent_at[request["id"]] = now()
            channel.send(json.dumps(request))
    in_flight = len(requests)
    last = start
    sel = selectors.DefaultSelector()
    for channel in daemon.channels:
        sel.register(channel.fileno(), selectors.EVENT_READ, channel)
    gc.disable()  # a collection pause here would show as answer latency
    # The client polls instead of sleeping in select: it is the one busy
    # client thread the load is sized for, and waking a sleeping client adds
    # a VM wake-up to every answer (README.md, "Noise on a shared host").
    idle_since = now()
    while in_flight:
        ready = sel.select(0)
        if not ready:
            if now() - idle_since > STALL_S:
                break  # hung: the requests still in flight count as failed
            continue
        idle_since = now()
        for key, _ in ready:
            channel = key.data
            alive = channel.pump()
            arrived = now()
            for line in channel.lines:
                in_flight -= 1
                last = arrived
                request_id = json.loads(line).get("id")
                sent = channel.sent_at.pop(request_id, None)
                if sent is not None:
                    run.latencies_ms.append((arrived - sent) * 1e3)
                responses.append((request_id, line))
                if arrived < end:
                    request = next(stream)
                    requests[request["id"]] = request
                    channel.sent_at[request["id"]] = now()
                    channel.send(json.dumps(request))
                    in_flight += 1
            channel.lines = []
            if not alive:
                in_flight -= len(channel.sent_at)
                channel.sent_at = {}
    gc.enable()
    sel.close()
    # After a stall the phase lasted until the client gave up.
    run.wall_s = (now() if in_flight else last) - start
    try:
        stats_after = daemon.call({"id": -3, "verb": "stats", "session": "s1"})
    except (OSError, TimeoutError, EOFError, ValueError):
        stats_after = stats_before  # the daemon died; its answers count as failed
    run.cpu_s = -cpu_before
    for key in ("hits", "misses", "compiles", "retimes", "evictions"):
        run.extra["plan_cache_" + key] = stats_after["plan_cache_" + key] - \
            stats_before["plan_cache_" + key]
    run.replay_requests = sorted(requests.values(), key=lambda r: r["id"])
    return requests, responses


def run_serve(work, workload, seed, seconds):
    rng = random.Random("%s:%d" % (workload, seed))
    run = Run()
    if workload == "serve-warm":
        transport = "tcp"
        warmup = list(request_stream(WARM_SIGNATURES, 1))
        signatures = warm_signatures(rng)
    else:
        transport = "stdio"
        # The warm-up fills both capacity-64 caches, so every timed answer
        # also evicts: the steady state of a daemon fed new questions.
        signatures = cold_signatures(rng)
        warmup = list(request_stream((next(signatures) for _ in range(CACHE_CAPACITY)), 1))
    stream = request_stream(signatures, len(warmup) + 1)
    run.warmup_requests = warmup
    needed_eof = 0
    clean = True
    for _ in range(SETUP_REPS[workload] - 1):
        daemon = serve_setup(work, transport, warmup, run)
        clean &= daemon.shutdown()
        needed_eof += daemon.needed_eof
    daemon = serve_setup(work, transport, warmup, run)
    try:
        requests, responses = serve_timed(daemon, stream, seconds, run)
    finally:
        clean &= daemon.shutdown()
        needed_eof += daemon.needed_eof
    usage = daemon.usage
    run.cpu_s += usage.ru_utime + usage.ru_stime
    run.peak_rss_mb = usage.ru_maxrss / 1024.0
    run.extra["shutdown_needed_eof"] = needed_eof

    # Output check: every id answered once; values equal the oracle's. The
    # warm workload has 8 signatures, so every answer is checked; cold
    # answers are all distinct, so a seeded sample of 200 is recomputed.
    ids = sorted(requests)
    checked = set(ids) if workload == "serve-warm" else \
        set(random.Random(seed).sample(ids, min(200, len(ids))))
    if workload == "serve-warm":
        expected_by_sig = oracle(work, run.trace_path, "ddtrace", warmup)
        expected = {}
        for request_id in ids:
            signature = requests[request_id]
            index = WARM_SIGNATURES.index({k: v for k, v in signature.items()
                                           if k not in ("id", "verb", "session")})
            expected[request_id] = expected_by_sig[warmup[index]["id"]]
    else:
        expected = oracle(work, run.trace_path, "ddtrace", [requests[i] for i in sorted(checked)])
    check.check_predict(requests, responses, expected, run.verdict, checked)
    run.answers = run.verdict.ok
    if not clean:
        run.verdict.note("daemon did not shut down cleanly")
        run.verdict.wrong += 1
    return run


def run_cli_predict(work, seed, seconds):
    rng = random.Random("cli-predict:%d" % seed)
    run = Run()
    for _ in range(SETUP_REPS["cli-predict"]):
        start = now()
        run.trace_path, run.chrome_path = collect(work, chrome=True)
        run.setup_s.append(now() - start)
    out_path = os.path.join(work, "predict.json")
    requests = {}
    responses = []
    start = now()
    end = start + seconds
    stream = request_stream(warm_signatures(rng), 1)
    while now() < end:
        request = next(stream)
        request_id = request["id"]
        requests[request_id] = request
        argv = [DAYDREAM, "predict", "--format", "chrome", "--trace", run.chrome_path,
                "--what-if", request["what_if"], "--json", out_path]
        if "cluster" in request:
            argv += ["--cluster", request["cluster"], "--gbps", str(request["gbps"])]
        if os.path.exists(out_path):
            os.unlink(out_path)
        wall, ok, cpu, rss = run_cli(argv)
        run.latencies_ms.append(wall * 1e3)
        run.cpu_s += cpu
        run.peak_rss_mb = max(run.peak_rss_mb, rss)
        line = None
        if ok and os.path.exists(out_path):
            with open(out_path) as f:
                line = f.read()
        responses.append((request_id, line))
    run.wall_s = now() - start
    run.replay_requests = list(requests.values())
    # The CLI's JSON carries baseline_ms and predicted_ms (no tasks).
    expected = oracle(work, run.chrome_path, "chrome", list(requests.values()))
    for values in expected.values():
        del values["tasks"]
    check.check_predict(requests, responses, expected, run.verdict)
    run.answers = run.verdict.ok
    return run


def run_workload(work, workload, seed, seconds):
    if workload.startswith("serve-"):
        return run_serve(work, workload, seed, seconds)
    return run_cli_predict(work, seed, seconds)


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run):
    lat = run.latencies_ms
    p90, p90_eff = tail(lat, 90)
    p99, p99_eff = tail(lat, 99)
    answers = max(run.answers, 1)
    metrics = {
        "setup_s": metric(statistics.median(run.setup_s), "s"),
        "answer_ms_p50": metric(percentile(lat, 50), "ms"),
        "answer_ms_p90": metric(p90, "ms"),
        "answers_per_s": metric(run.answers / run.wall_s if run.wall_s > 0 else 0.0, "1/s"),
        "cpu_ms_per_answer": metric(run.cpu_s * 1e3 / answers, "ms"),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB"),
        "ok_frac": metric(run.verdict.ok / max(run.verdict.attempted, 1), "ratio"),
    }
    samples = {"answer_ms": len(lat), "answer_ms_p90_effective_pct": round(p90_eff, 2),
               "answer_ms_p99_effective_pct": round(p99_eff, 2), "setup_s": len(run.setup_s)}
    # p99 is reported but not gated: on a shared host it follows CPU-speed
    # drift more than anything else (README.md, "Noise on a shared host").
    ungated = {"answer_ms_p99": metric(p99, "ms")}
    return metrics, samples, ungated


def replay(args):
    out = subprocess.run(args, capture_output=True, text=True)
    if out.returncode != 0:
        fail("replay failed: " + out.stderr.strip())
    return json.loads(out.stdout.strip().splitlines()[-1])


def traced(work, workload, run):
    """The per-layer report: the real run's facts plus the in-process replay."""
    args = [REPLAY, "replay", "--workload", workload, "--trace", run.trace_path]
    if workload.startswith("serve-"):
        requests_path = os.path.join(work, "replay-requests.jsonl")
        warmup_path = os.path.join(work, "replay-warmup.jsonl")
        write_lines(requests_path, run.replay_requests)
        write_lines(warmup_path, run.warmup_requests)
        count = 1000 if workload == "serve-warm" else 150
        args += ["--requests", requests_path, "--warmup", warmup_path, "--count", str(count)]
    else:
        requests_path = os.path.join(work, "replay-requests.jsonl")
        write_lines(requests_path, run.replay_requests)
        args += ["--chrome", run.chrome_path, "--requests", requests_path, "--count", "12"]
    report = replay(args)
    mismatches = report["mismatches"]
    if workload == "cli-predict":
        # runtime.sweep, the other one-shot CLI path: SweepRunner::Run at
        # `daydream sweep --jobs 2` width on a fixed matrix, checked against
        # the same cases answered one by one through the core calls.
        sweep_trace, _ = collect(work, iterations=2)
        sweep = replay([REPLAY, "replay", "--workload", "sweep", "--trace", sweep_trace,
                        "--iterations", "2", "--cluster", SWEEP_CLUSTER, "--gbps", SWEEP_GBPS])
        report["stages"]["runtime.sweep"] = sweep["stages"]["runtime.sweep"]
        mismatches += sweep["mismatches"]

    metrics = {}
    for stage, row in report["stages"].items():
        metrics[stage + ".calls"] = metric(row["calls"], "count")
        metrics[stage + ".busy_ms"] = metric(row["busy_ms"], "ms")
        metrics[stage + ".ms_p50"] = metric(row["ms_p50"], "ms")
    spawn_ms = [run_cli([DAYDREAM, "version"])[0] * 1e3 for _ in range(20)]
    metrics["cli.spawn.calls"] = metric(len(spawn_ms), "count")
    metrics["cli.spawn.busy_ms"] = metric(sum(spawn_ms), "ms")
    metrics["cli.spawn.ms_p50"] = metric(percentile(spawn_ms, 50), "ms")

    metrics["service.plan_cache_hit_ratio"] = metric(report["plan_cache_hit_ratio"], "ratio")
    metrics["service.plan_cache_compiles"] = metric(report["plan_cache_compiles"], "count")
    metrics["service.plan_cache_retimes"] = metric(report["plan_cache_retimes"], "count")
    metrics["service.plan_cache_evictions"] = metric(report["plan_cache_evictions"], "count")
    lookups = run.extra.get("plan_cache_hits", 0) + run.extra.get("plan_cache_misses", 0)
    metrics["serve.plan_cache_hit_ratio"] = metric(
        run.extra.get("plan_cache_hits", 0) / lookups if lookups else 0.0, "ratio")
    metrics["serve.shutdown_needed_eof"] = metric(run.extra.get("shutdown_needed_eof", 0), "count")
    metrics["core.tasks_per_answer"] = metric(report["tasks_per_answer"], "count")
    metrics["core.dispatch_tasks_per_s"] = metric(report["dispatch_tasks_per_s"], "1/s")
    metrics["trace.events_per_s"] = metric(report["events_per_s"], "1/s")
    # What the transport adds to an answer: the real p50 minus the p50 of the
    # in-process call that does the same work (Handle for serve; for the CLI
    # workload the whole process is the transport of an in-process answer).
    answer_p50 = percentile(run.latencies_ms, 50)
    if workload.startswith("serve-"):
        inner = report["stages"]["service.handle"]["ms_p50"]
    else:
        inner = report["stages"]["service.session_create"]["ms_p50"] + \
            report["stages"]["service.predict"]["ms_p50"]
    metrics["service.transport_ms"] = metric(answer_p50 - inner, "ms")
    metrics["replay.whole_ms"] = metric(report["whole_ms"], "ms")
    metrics["replay.unattributed_ms"] = metric(report["unattributed_ms"], "ms")
    metrics["replay.overhead_pct"] = metric(report["overhead_pct"], "%")
    return metrics, mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work)
    try:
        # A traced run spends half its time on the real transport (for the
        # transport share and the daemon's counters) and the rest replaying.
        seconds = args.seconds / 2.0 if args.trace else args.seconds
        run = run_workload(work, args.workload, args.seed, seconds)
        correct = run.verdict.correct
        if args.trace:
            metrics, mismatches = traced(work, args.workload, run)
            correct = correct and mismatches == 0
            samples = {"answer_ms": len(run.latencies_ms)}
            ungated = {}
        else:
            metrics, samples, ungated = end_to_end(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in run.verdict.errors:
        print("check: " + message, file=sys.stderr)
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "revision": git_revision(), "samples": samples, "ungated": ungated, "model": MODEL,
            "serve_jobs": SERVE_JOBS, "outstanding": OUTSTANDING,
            "shutdown_needed_eof": run.extra.get("shutdown_needed_eof", 0)}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": bool(correct), "attempted": run.verdict.attempted,
                      "failed": run.verdict.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
