#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload batch|incremental|service \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds ``xgcc`` and ``xgccd``
(Release) and the traced replay under ``$CARGO_TARGET_DIR`` (default
``.bench_build``); every run generates its corpus from ``--seed`` under
``.bench_work/``, drives the real binaries through the workload, checks every
output against the generator's ground truth, and prints one JSON object as
its last line of standard output. ``--trace 1`` replaces the end-to-end
measurement with the traced in-process replay and prints the per-layer
metrics instead. README.md in this directory documents every metric.
"""

import argparse
import bisect
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import spans  # noqa: E402

# Service latency limit for max_rps: about three times the run time of a
# one-file request that follows an edit (40-50 ms on a 4-vCPU VM), so that
# the ladder finds the executor's capacity rather than one slow edit.
LIMIT_MS = 150.0
# Rates: the knee is near 170 req/s on a quiet 4-vCPU VM but falls to about
# 60 req/s while the disk is busy (edit requests write ~150 store files), so
# `low` stays well under both.
LOW_RPS = 20
HIGH_RPS = 100
LADDER_RPS = [40, 60, 80, 100, 120, 140, 160, 180, 200, 230, 260]
BACKLOG_GROWTH = 0.15   # share of a window's requests still outstanding
                        # by trend at its end that counts as growing
CONNECTIONS = 4
# The service corpus keeps half the helper files (1,240 roots): its set-up,
# repeated three times per run, dominates the run otherwise.
SERVICE_HELPER_FILES = 42
SPIN_S = 0.001
JOBS = 4
SETUP_REPS = 3


class BenchError(Exception):
    pass


def log(*a):
    print(*a, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Build


def build(bdir):
    """Builds xgcc/xgccd with the repository's own CMake (Release) and the
    replay package. Returns (bin dir, replay path or None)."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise BenchError("run from the repository root (CMakeLists.txt and "
                         "src/ not found)")
    repo_b = os.path.join(bdir, "repo")
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")

    def sh(args):
        with open(logf, "ab") as lf:
            r = subprocess.run(args, stdout=lf, stderr=lf)
        if r.returncode:
            with open(logf, "rb") as lf:
                tail = lf.read()[-3000:].decode("utf-8", "replace")
            raise BenchError("build step failed: %s\n%s" % (" ".join(args), tail))

    if not os.path.isfile(os.path.join(repo_b, "CMakeCache.txt")):
        sh(["cmake", "-S", ".", "-B", repo_b, "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", repo_b, "--target", "xgcc", "xgccd",
        "-j", str(JOBS)])
    bins = os.path.join(repo_b, "src", "driver")

    replay_b = os.path.join(bdir, "replay")
    replay = os.path.join(replay_b, "replay")
    try:
        if not os.path.isfile(os.path.join(replay_b, "CMakeCache.txt")):
            sh(["cmake", "-S", os.path.join(HERE, "replay"), "-B", replay_b,
                "-DCMAKE_BUILD_TYPE=Release"])
        sh(["cmake", "--build", replay_b, "--target", "replay",
            "-j", str(JOBS)])
    except BenchError as e:
        log("perfbench: traced replay did not build: %s" % e)
        replay = None
    return bins, replay


# ----------------------------------------------------------------------
# Helpers


def run_tool(args, cwd, errpath):
    """Runs a program to completion; returns (seconds, stdout, exit code,
    rusage)."""
    with open(errpath, "wb") as err:
        t = time.perf_counter()
        p = subprocess.Popen(args, cwd=cwd, stdout=subprocess.PIPE, stderr=err)
        try:
            out = p.stdout.read()
            p.stdout.close()
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        dt = time.perf_counter() - t
        p.returncode = os.waitstatus_to_exitcode(status)
    return dt, out.decode("utf-8", "replace"), p.returncode, ru


def tail_of(values):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples). Fewer than eleven samples give the maximum.
    """
    v = sorted(values)
    n = len(v)
    if n >= 11:
        return v[n - 11], 100.0 * (n - 10) / n, n
    return v[-1], 100.0, n


def dir_bytes(path):
    total = files = 0
    for root, _, names in os.walk(path):
        for n in names:
            try:
                total += os.path.getsize(os.path.join(root, n))
                files += 1
            except OSError:
                pass
    return total, files


def parse_json_reports(text):
    """Report tuples from ``--format json`` output."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if isinstance(doc, dict):
        doc = doc.get("reports", [])
    return {(r["file"], r["line"], r["checker"], r["message"])
            for r in doc if isinstance(r, dict) and "checker" in r}


def parse_text_run(text):
    """Report tuples and the baseline delta from text output."""
    reps, delta = set(), None
    for line in text.splitlines():
        if line.startswith("baseline: "):
            f = line[len("baseline: "):].split(", ")
            delta = tuple(int(x.split()[0]) for x in f[:3])
        elif line.startswith("[") and "] " in line and ": in " in line:
            body = line.split("] ", 1)[1]
            loc, rest = body.split(": in ", 1)
            file, ln = loc.rsplit(":", 1)
            chk = rest.split("[", 1)[1].split("]", 1)[0]
            msg = rest.split("] ", 1)[1].rsplit(" {rule", 1)[0]
            reps.add((file, int(ln), chk, msg))
    return reps, delta


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)
        return ok


# ----------------------------------------------------------------------
# Workloads (end to end, tracing off)


class Work:
    def __init__(self, args, bins, replay):
        self.args = args
        self.xgcc = os.path.abspath(os.path.join(bins, "xgcc"))
        self.xgccd = os.path.abspath(os.path.join(bins, "xgccd"))
        self.replay = replay and os.path.abspath(replay)
        self.root = os.path.abspath(os.path.join(".bench_work", args.workload))
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.src = os.path.join(self.root, "src")
        self.err = os.path.join(self.root, "stderr.log")
        self.tally = Tally()
        self.corpus = corpus.Corpus(args.seed, SERVICE_HELPER_FILES
                                    if args.workload == "service"
                                    else corpus.HELPER_FILES)
        self.expected = self.corpus.write(self.src)
        self.files = list(self.corpus.files)
        # --plant: a deliberately wrong ground truth, to show a mismatch
        # fails the command.
        self.planted_new = 1 if args.plant == "delta" else 0
        if args.plant == "report":
            self.expected = self.expected | {
                ("h000.c", 1, corpus.FREE, "planted report")}

    def xgcc_run(self, extra, fmt="json"):
        args = [self.xgcc, "--jobs", str(JOBS), "--format", fmt] + extra
        return run_tool(args + self.files, self.src, self.err)


def batch(w, seconds):
    """Nightly whole-program run: uncached, --jobs 4, full suite."""
    m = {}
    mast = os.path.join(w.root, "corpus.mast")
    setup = []
    for _ in range(SETUP_REPS):
        dt, out, rc, _ = run_tool([w.xgcc, "--emit-ast", mast] + w.files,
                                  w.src, w.err)
        w.tally.check(rc == 0, "emit-ast exit %d" % rc)
        setup.append(dt)
    m["setup_s"] = statistics.median(setup)
    m["store_mb"] = os.path.getsize(mast) / 1e6
    times, rss = [], 0
    t_end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < t_end:
        f = w.corpus.edit_root()
        corpus.write_file(os.path.join(w.src, f), w.corpus.render(f)[0])
        dt, out, rc, ru = w.xgcc_run([])
        got = parse_json_reports(out)
        w.tally.check(rc == 0 and got == w.expected,
                      "batch run: exit %d, %s reports" %
                      (rc, len(got) if got is not None else "unparsable"))
        times.append(dt)
        rss = max(rss, ru.ru_maxrss)
    m["run_s"] = statistics.median(times)
    m["op_p50_ms"] = m["run_s"] * 1e3
    m["op_tail_ms"], pct, n = tail_of([t * 1e3 for t in times])
    m["throughput"] = w.corpus.roots() / m["run_s"]
    m["peak_rss_mb"] = rss / 1024.0
    w.summary = "batch: %d runs, tail is p%.1f of %d" % (len(times), pct, n)
    return m


def incremental(w, seconds):
    """CI loop: cold populate, then one-function edits each followed by a
    warm --cache-dir/--baseline re-run."""
    m = {}
    setup, rss = [], 0
    for i in range(SETUP_REPS):
        cache = os.path.join(w.root, "cache%d" % i)
        base = os.path.join(w.root, "baseline%d" % i)
        dt, out, rc, ru = w.xgcc_run(["--cache-dir", cache, "--baseline", base],
                                     fmt="text")
        reps, delta = parse_text_run(out)
        w.tally.check(rc == 0 and reps == w.expected and
                      delta == (len(w.expected) + w.planted_new, 0, 0),
                      "populate: exit %d delta %s" % (rc, delta))
        setup.append(dt)
        rss = max(rss, ru.ru_maxrss)
        if i < SETUP_REPS - 1:
            shutil.rmtree(cache)
            shutil.rmtree(base)
    m["setup_s"] = statistics.median(setup)
    m["store_mb"] = (dir_bytes(cache)[0] + dir_bytes(base)[0]) / 1e6
    flags = ["--cache-dir", cache, "--baseline", base]

    def rerun(expected, delta):
        dt, out, rc, ru = w.xgcc_run(flags, fmt="text")
        reps, got = parse_text_run(out)
        w.tally.check(rc == 0 and reps == expected and got == delta,
                      "rerun: exit %d delta %s want %s" % (rc, got, delta))
        return dt, ru.ru_maxrss

    # No-edit re-runs (run_s) are spread over the run, three first and one
    # after every fifth edit cycle, so a slow spell of the machine weighs on
    # them no more than on the edit cycles.
    steady, times, busy = [], [], 0.0
    cur = w.expected

    def steady_rerun():
        dt, r = rerun(cur, (0, len(cur), 0))
        steady.append(dt)
        return r

    for _ in range(3):
        rss = max(rss, steady_rerun())
    plan = corpus.edit_plan(w.corpus, 10 ** 6)
    t_end = time.perf_counter() + seconds
    # Whole blocks of ten edits keep the edit mix identical in every run.
    while len(times) < 40 or len(times) % 10 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        kind, f, cur, delta = next(plan)
        corpus.write_file(os.path.join(w.src, f), w.corpus.render(f)[0])
        dt, r = rerun(cur, delta)
        busy += time.perf_counter() - t0
        times.append(dt * 1e3)
        rss = max(rss, r)
        if len(times) % 5 == 0:
            rss = max(rss, steady_rerun())
    m["run_s"] = statistics.median(steady)
    m["op_p50_ms"] = statistics.median(times)
    m["op_tail_ms"], pct, n = tail_of(times)
    m["throughput"] = len(times) / busy
    m["peak_rss_mb"] = rss / 1024.0
    w.summary = "incremental: %d edit cycles, tail is p%.1f of %d" % (
        len(times), pct, n)
    return m


# ----------------------------------------------------------------------
# Service


class Daemon:
    def __init__(self, w, tag):
        self.w = w
        # Relative socket paths: the checkout may sit deeper than a Unix
        # socket path may be long.
        self.sock = os.path.relpath(os.path.join(w.root, "d%s.sock" % tag))
        self.cache = os.path.join(w.root, "dcache%s" % tag)
        self.proc = None
        self.rusage = None

    def start(self):
        t = time.perf_counter()
        self.errf = open(os.path.join(self.w.root, "xgccd.log"), "ab")
        self.proc = subprocess.Popen(
            [self.w.xgccd, "--socket", os.path.relpath(self.sock, self.w.src),
             "--cache-dir", self.cache,
             "--jobs", str(JOBS)],
            cwd=self.w.src, stdout=self.errf, stderr=self.errf)
        while True:
            if self.proc.poll() is not None:
                raise BenchError("xgccd exited during start")
            try:
                s = self.connect()
                break
            except OSError:
                if time.perf_counter() - t > 30:
                    raise BenchError("xgccd did not accept within 30 s")
                time.sleep(0.002)
        self.conns = [s] + [self.connect() for _ in range(CONNECTIONS - 1)]
        self.bufs = [b""] * CONNECTIONS
        return time.perf_counter() - t

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(self.sock)
        except OSError:
            s.close()
            raise
        return s

    def call(self, line):
        s = self.conns[0]
        s.sendall(line.encode() + b"\n")
        while b"\n" not in self.bufs[0]:
            chunk = s.recv(1 << 16)
            if not chunk:
                raise BenchError("xgccd closed the connection")
            self.bufs[0] += chunk
        ln, self.bufs[0] = self.bufs[0].split(b"\n", 1)
        return json.loads(ln)

    def stop(self):
        if not self.proc:
            return
        for s in getattr(self, "conns", []):
            s.close()
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            pass
        self.proc.returncode = 0
        self.proc = None
        self.errf.close()


def request_line(rid, files, jobs=1):
    return json.dumps({"schema": "mc.service-request.v1", "id": rid,
                       "files": files, "jobs": jobs, "format": "json"})


def status_line(rid):
    return json.dumps({"schema": "mc.service-status.v1", "id": rid})


def check_response(w, resp, files):
    ok = resp.get("status") == "ok" and resp.get("exit_code") == 0
    exp = w.expected if len(files) > 1 else w.per_file[files[0]]
    got = parse_json_reports(resp.get("output", "")) if ok else None
    return w.tally.check(ok and got == exp, "response %s: status %s, %s" % (
        resp.get("id"), resp.get("status"),
        "reports differ" if ok else resp.get("error", "")))


def service_setup(w, d):
    """Daemon start until it accepts, a cold whole-corpus request, and a
    priming pass of one request per file."""
    t = d.start()
    t0 = time.perf_counter()
    check_response(w, d.call(request_line("cold", w.files, JOBS)), w.files)
    for i, f in enumerate(w.files):
        check_response(w, d.call(request_line("prime%d" % i, [f])), [f])
    return t + time.perf_counter() - t0


def open_loop(w, d, rate, count, probe_every=0):
    """Fixed-interval open loop over at most CONNECTIONS connections. Every
    request is timed from its due time. With ``probe_every``, a status RPC
    rides the same connections after every that many requests. Returns a
    dict of samples."""
    sched = corpus.request_schedule(w.corpus, count)
    sel = selectors.DefaultSelector()
    for i, s in enumerate(d.conns):
        s.setblocking(False)
        sel.register(s, selectors.EVENT_READ, i)
    free = list(range(CONNECTIONS - 1, -1, -1))
    inflight = {}
    pending = deque()
    due = [0.0] * count
    done = [None] * count
    resp_of = [None] * count
    late, probes, probe_ms, peak = [], 0, [], 0
    t0 = time.perf_counter() + 0.002
    nxt = ndone = 0
    try:
        while ndone < count or inflight:
            now = time.perf_counter()
            if nxt < count and not pending and \
                    t0 + nxt / rate - now < SPIN_S:
                # Spin the last stretch: a select() wake-up can be late by
                # more than a warm request takes.
                while time.perf_counter() < t0 + nxt / rate:
                    pass
                now = time.perf_counter()
            while nxt < count and t0 + nxt / rate <= now:
                due[nxt] = t0 + nxt / rate
                pending.append(nxt)
                nxt += 1
            while pending and free:
                i = pending.popleft()
                c = free.pop()
                f, edit = sched[i]
                if edit:
                    w.corpus.edit_file(f)
                    corpus.write_file(os.path.join(w.src, f),
                                      w.corpus.render(f)[0])
                d.conns[c].setblocking(True)
                d.conns[c].sendall(request_line("q%d" % i, [f]).encode()
                                   + b"\n")
                d.conns[c].setblocking(False)
                late.append((time.perf_counter() - due[i]) * 1e3)
                inflight[c] = i
                if probe_every and i % probe_every == probe_every - 1:
                    probes += 1
            while probes and free and not pending:
                c = free.pop()
                d.conns[c].setblocking(True)
                d.conns[c].sendall(status_line("s").encode() + b"\n")
                d.conns[c].setblocking(False)
                inflight[c] = -time.perf_counter()
                probes -= 1
            timeout = max(0.0, t0 + nxt / rate - time.perf_counter() - SPIN_S) \
                if nxt < count else 0.05
            for key, _ in sel.select(timeout):
                c = key.data
                chunk = d.conns[c].recv(1 << 16)
                if not chunk:
                    raise BenchError("xgccd closed the connection")
                d.bufs[c] += chunk
                while b"\n" in d.bufs[c]:
                    ln, d.bufs[c] = d.bufs[c].split(b"\n", 1)
                    i = inflight.pop(c)
                    free.append(c)
                    if i < 0:
                        probe_ms.append((time.perf_counter() + i) * 1e3)
                        peak = max(peak, json.loads(ln).get(
                            "peak_queue_depth", 0))
                        continue
                    done[i] = time.perf_counter()
                    resp_of[i] = json.loads(ln)
                    ndone += 1
    finally:
        sel.close()
        for s in d.conns:
            s.setblocking(True)
    lat, qms, rms, refused = [], [], [], 0
    cls = {"warm": [], "edit": []}
    for i in range(count):
        f, edit = sched[i]
        r = resp_of[i]
        good = check_response(w, r, [f])
        ms = (done[i] - due[i]) * 1e3
        lat.append(ms if good else float("inf"))
        if r.get("status") in ("overloaded", "retriable", "error"):
            refused += 1
        qms.append(r.get("queue_ms", 0))
        rms.append(r.get("run_ms", 0))
        cls["edit" if edit else "warm"].append(r.get("run_ms", 0))

    # Backlog trend: least-squares slope of the requests outstanding at each
    # due time, times the window. Periodic edit requests raise the backlog
    # briefly; only a trend across the window counts as growing.
    ends = sorted(done)
    backlog = [k + 1 - bisect.bisect_right(ends, t) for k, t in
               enumerate(due)]
    mt, mb = statistics.fmean(due), statistics.fmean(backlog)
    var = sum((t - mt) ** 2 for t in due)
    slope = sum((t - mt) * (b - mb) for t, b in zip(due, backlog)) / var
    window = due[-1] - due[0]
    completed_rps = (count - 1) / (ends[-1] - due[0])
    return {"lat": lat, "late": late, "queue_ms": qms, "run_ms": rms,
            "run_cls": cls, "refused": refused, "window_s": window,
            "probe_ms": probe_ms, "peak_queue": peak,
            "completed_rps": completed_rps,
            "backlog_growth": slope * window}


def rate_met(res):
    tail = tail_of(res["lat"])[0]
    growing = res["backlog_growth"] > max(5, BACKLOG_GROWTH * len(res["lat"]))
    return tail <= LIMIT_MS and not growing, tail


def ladder(w, d, step_s):
    """Climbs LADDER_RPS until a rate misses the limit. Returns the request
    rate completed at the highest rate met (its offered rate, as measured)
    and every step's samples."""
    best, steps = None, {}
    for rate in LADDER_RPS:
        res = open_loop(w, d, rate, max(40, int(rate * step_s)))
        steps[rate] = res
        if not rate_met(res)[0]:
            break
        best = res["completed_rps"]
    # No rate met: the lowest step's completed rate bounds max_rps above.
    return best or steps[LADDER_RPS[0]]["completed_rps"], steps


def service(w, seconds):
    m = {}
    w.per_file = {f: w.corpus.expected([f]) for f in w.files}
    setup, daemons = [], []
    try:
        for i in range(SETUP_REPS):
            d = Daemon(w, str(i))
            daemons.append(d)
            setup.append(service_setup(w, d))
            if i < SETUP_REPS - 1:
                d.stop()
                shutil.rmtree(d.cache)
        m["setup_s"] = statistics.median(setup)
        m["store_mb"] = dir_bytes(d.cache)[0] / 1e6
        whole = []
        for i in range(5):
            t = time.perf_counter()
            check_response(w, d.call(request_line("whole%d" % i, w.files,
                                                  JOBS)), w.files)
            whole.append(time.perf_counter() - t)
        m["run_s"] = statistics.median(whole)
        # 150 requests at 10 s: the tail (11th largest) falls inside the
        # edit requests, away from the boundary with the warm ones.
        low = open_loop(w, d, LOW_RPS, int(LOW_RPS * seconds * 0.75))
        m["op_p50_ms"] = statistics.median(low["lat"])
        m["op_tail_ms"], pct, n = tail_of(low["lat"])
        m["throughput"], steps = ladder(w, d, seconds / 12)
        d.stop()
        m["peak_rss_mb"] = d.rusage.ru_maxrss / 1024.0 if d.rusage else 0
    finally:
        for d in daemons:
            d.stop()
    hi = steps.get(HIGH_RPS)
    w.summary = "service: low tail is p%.1f of %d; ladder %s" % (
        pct, n, ", ".join("%d:%s" % (r, "%.1f" % rate_met(s)[1])
                          for r, s in steps.items()))
    if hi:
        w.summary += "; high p50 %.2f ms tail %.2f ms" % (
            statistics.median(hi["lat"]), tail_of(hi["lat"])[0])
    return m


# ----------------------------------------------------------------------
# Traced replay (--trace 1)

PER_LAYER = [
    ("cfront.preprocess_ms", "ms"), ("cfront.hash_ms", "ms"),
    ("cfront.parse_ms", "ms"), ("cfront.bytes_per_s", "B/s"),
    ("store.ast_load_ms", "ms"), ("store.summary_probe_ms", "ms"),
    ("store.record_ms", "ms"), ("store.ast_hit_ratio", "ratio"),
    ("store.summary_hit_ratio", "ratio"), ("store.files", "count"),
    ("store.bytes", "B"), ("store.failures", "count"),
    ("cfg.build_ms", "ms"), ("cfg.blocks", "count"), ("cfg.roots", "count"),
    ("metal.compile_ms", "ms"), ("metal.tried", "count"),
    ("metal.fired", "count"), ("metal.fire_ratio", "ratio"),
    ("metal.index_skip_ratio", "ratio"), ("metal.callout_ms", "ms"),
    ("fpp.pruned", "count"), ("fpp.prune_ratio", "ratio"),
    ("fpp.overhead_ms", "ms"),
    ("engine.analyze_ms", "ms"), ("engine.root_p50_us", "us"),
    ("engine.root_tail_us", "us"), ("engine.root_max_ms", "ms"),
    ("engine.points", "count"), ("engine.blocks", "count"),
    ("engine.paths", "count"), ("engine.fn_analyses", "count"),
    ("engine.block_hit_ratio", "ratio"),
    ("engine.summary_hit_ratio", "ratio"), ("engine.arena_bytes", "B"),
    ("engine.retries", "count"),
    ("driver.run_self_ms", "ms"), ("driver.parallel_eff", "ratio"),
    ("driver.cpu_s", "s"),
    ("report.rank_ms", "ms"), ("report.render_ms", "ms"),
    ("report.count", "count"),
    ("lifecycle.open_ms", "ms"), ("lifecycle.classify_ms", "ms"),
    ("lifecycle.save_ms", "ms"), ("lifecycle.entries", "count"),
    ("service.wire_ms", "ms"), ("service.queue_p50_ms", "ms"),
    ("service.queue_tail_ms", "ms"), ("service.run_ms.warm", "ms"),
    ("service.run_ms.edit", "ms"), ("service.busy_ratio", "ratio"),
    ("service.peak_queue", "count"), ("service.refused", "count"),
    ("service.lat_p50_ms.high", "ms"), ("service.lat_tail_ms.high", "ms"),
    ("loadgen.late_ms", "ms"),
    ("trace.overhead", "ratio"), ("trace.unattributed_ms", "ms"),
]

TRACED_EDITS = 20       # incremental edit cycles replayed, half traced
TRACED_REQUESTS = 200   # service requests replayed, traced in blocks of 10
FPP_EVERY = 16          # the FPP probe times every 16th root


def plan_batch(w):
    lines, expect = [], {}
    for op in (1, 2, 3, 4):
        lines.append("run\t%d\t%d" % (op, op % 2))
        expect[op] = ("main", w.expected, None)
    lines.append("fpp\t5\t%d" % FPP_EVERY)
    expect[5] = ("probe", None, None)
    return lines, expect


def plan_incremental(w):
    cache = os.path.join(w.root, "cache")
    base = os.path.join(w.root, "baseline")
    edits = os.path.join(w.root, "edits")
    os.makedirs(edits)
    lines = ["cached\t1\t1\t%s\t%s" % (cache, base)]
    expect = {1: ("setup", w.expected, (len(w.expected), 0, 0))}
    plan = corpus.edit_plan(w.corpus, TRACED_EDITS)
    for i, (kind, f, exp, delta) in enumerate(plan):
        path = os.path.join(edits, "%d_%s" % (i, f))
        corpus.write_file(path, w.corpus.render(f)[0])
        op = i + 2
        lines.append("edit\t%s\t%s" % (f, path))
        lines.append("cached\t%d\t%d\t%s\t%s" % (op, i % 2 == 0, cache, base))
        expect[op] = ("main", exp, delta)
    w.store_dir = cache
    return lines, expect


def plan_service(w):
    cache = os.path.join(w.root, "rcache")
    edits = os.path.join(w.root, "edits")
    os.makedirs(edits)
    lines = ["serve\t%s\t%s" % (os.path.join("..", "r.sock"), cache),
             "request\t1\t1\t%d\t%s" % (JOBS, "\t".join(w.files))]
    expect = {1: ("setup", w.expected, None)}
    op = 2
    for f in w.files:
        lines.append("request\t%d\t0\t1\t%s" % (op, f))
        expect[op] = ("prime", w.per_file[f], None)
        op += 1
    sched = corpus.request_schedule(w.corpus, TRACED_REQUESTS)
    for i, (f, edit) in enumerate(sched):
        if edit:
            w.corpus.edit_file(f)
            path = os.path.join(edits, "%d_%s" % (i, f))
            corpus.write_file(path, w.corpus.render(f)[0])
            lines.append("edit\t%s\t%s" % (f, path))
        lines.append("request\t%d\t%d\t1\t%s" % (op, (i // 10) % 2 == 0, f))
        expect[op] = ("edit" if edit else "main", w.per_file[f], None)
        op += 1
    lines.append("stop")
    w.store_dir = cache
    return lines, expect


def check_op(w, o, want):
    cls, exp, delta = want
    if cls == "probe":
        return w.tally.check(o.get("fpp_sampled", 0) > 0, "fpp probe empty")
    if "status" in o:
        ok = o["status"] == "ok"
        got = parse_json_reports(o["output"]) if ok else None
    else:
        ok = True
        got = {tuple(r) for r in o["reports"]}
    if delta is not None:
        ok = ok and tuple(o.get("delta", ())) == delta
    return w.tally.check(ok and got == exp, "replay op %d (%s): %s" % (
        o["op"], o["kind"], "wrong delta %s" % o.get("delta")
        if got == exp else "reports differ"))


def op_metrics(o):
    if "manifest" in o:
        try:
            return json.loads(o["manifest"]).get("metrics", {})
        except ValueError:
            return {}
    return o["metrics"]


def layer_metrics(w, ops, per, expect):
    """Reduces the replay's ops and spans to the per-layer metrics."""
    med = statistics.median
    main = [o for o in ops if expect[o["op"]][0] in ("main", "edit")]
    traced_main = [o for o in main if o["traced"]]
    tm = [per[o["op"]] for o in traced_main if o["op"] in per]
    setup = [per[o["op"]] for o in ops
             if expect[o["op"]][0] == "setup" and o["op"] in per]
    nfiles = len(w.files)
    m = {k: 0.0 for k, _ in PER_LAYER}

    def busy_ms(name, group=tm):
        return med([p["busy"].get(name, 0) for p in group]) / 1e6 \
            if group else 0.0

    def counter(fn):
        vals = [fn(op_metrics(o)) for o in traced_main]
        return med(vals) if vals else 0.0

    def total(mx, prefix, suffix):
        return sum(v for k, v in mx.items()
                   if k.startswith(prefix) and k.endswith(suffix))

    def ratio(a, b):
        return a / b if b else 0.0

    m["cfront.preprocess_ms"] = busy_ms("cfront.preprocess")
    m["cfront.hash_ms"] = busy_ms("cfront.hash")
    m["cfront.parse_ms"] = busy_ms("cfront.parse")
    full = [p for p in tm + setup if p["count"].get("cfront.parse") == nfiles]
    if full:
        m["cfront.bytes_per_s"] = ratio(
            sum(p["bytes"]["cfront.preprocess"] for p in full),
            sum(p["busy"]["cfront.parse"] for p in full) / 1e9)
    m["store.ast_load_ms"] = med(
        [p["busy"].get("store.ast_load", 0) + p["busy"].get("store.ast_decode",
                                                             0)
         for p in tm]) / 1e6 if tm else 0.0
    m["store.summary_probe_ms"] = busy_ms("store.summary_probe")
    m["store.record_ms"] = busy_ms("store.record", setup)
    m["store.ast_hit_ratio"] = counter(lambda x: ratio(
        x.get("cache.ast.hits", 0),
        x.get("cache.ast.hits", 0) + x.get("cache.ast.misses", 0)))
    m["store.summary_hit_ratio"] = counter(lambda x: ratio(
        x.get("cache.summary.hits", 0),
        x.get("cache.summary.hits", 0) + x.get("cache.summary.misses", 0)))
    if getattr(w, "store_dir", None):
        b, n = dir_bytes(w.store_dir)
        m["store.files"], m["store.bytes"] = float(n), float(b)
    m["store.failures"] = counter(lambda x: x.get("cache.evictions.corrupt", 0)
                                  + x.get("cache.write.failures", 0))
    m["cfg.build_ms"] = busy_ms("cfg.build")
    if traced_main and "cfg_blocks" in traced_main[0]:
        m["cfg.blocks"] = float(med([o["cfg_blocks"] for o in traced_main]))
        m["cfg.roots"] = float(med([o["cfg_roots"] for o in traced_main]))
    m["metal.compile_ms"] = busy_ms("metal.compile")
    m["metal.tried"] = counter(lambda x: total(x, "checker.",
                                               ".transitions.tried"))
    m["metal.fired"] = counter(lambda x: total(x, "checker.",
                                               ".transitions.fired"))
    m["metal.fire_ratio"] = ratio(m["metal.fired"], m["metal.tried"])
    m["metal.index_skip_ratio"] = counter(lambda x: ratio(
        x.get("index.transitions.skipped", 0),
        x.get("index.transitions.skipped", 0)
        + x.get("index.candidates.tried", 0)))
    m["metal.callout_ms"] = counter(
        lambda x: total(x, "checker.", ".callout_ns")) / 1e6
    m["fpp.pruned"] = counter(lambda x: x.get("engine.paths.pruned", 0))
    m["fpp.prune_ratio"] = counter(lambda x: ratio(
        x.get("engine.paths.pruned", 0),
        x.get("engine.paths.pruned", 0) + x.get("engine.paths.explored", 0)))
    for o in ops:
        if o["kind"] == "fpp":
            m["fpp.overhead_ms"] = (o["fpp_on_ns"] - o["fpp_off_ns"]) / 1e6
            w.summary += "; FPP probe: %d of %d sampled (root, checker) " \
                "pairs pruned nothing" % (o["fpp_pairs"], o["fpp_sampled"])
    m["engine.analyze_ms"] = busy_ms("engine.analyze_root")
    roots = sorted(d for p in tm for d in p["durations"]["engine.analyze_root"])
    if roots:
        m["engine.root_p50_us"] = med(roots) / 1e3
        m["engine.root_tail_us"] = tail_of(roots)[0] / 1e3
        m["engine.root_max_ms"] = roots[-1] / 1e6
    m["engine.points"] = counter(lambda x: x.get("engine.points.visited", 0))
    m["engine.blocks"] = counter(lambda x: x.get("engine.blocks.visited", 0))
    m["engine.paths"] = counter(lambda x: x.get("engine.paths.explored", 0))
    m["engine.fn_analyses"] = counter(
        lambda x: x.get("engine.functions.analyzed", 0))
    m["engine.block_hit_ratio"] = counter(lambda x: ratio(
        x.get("engine.cache.block_hits", 0), x.get("engine.blocks.visited", 0)))
    m["engine.summary_hit_ratio"] = counter(lambda x: ratio(
        x.get("engine.cache.function_hits", 0),
        x.get("engine.cache.function_hits", 0)
        + x.get("engine.functions.analyzed", 0)))
    m["engine.arena_bytes"] = counter(lambda x: x.get("arena.bytes", 0))
    m["engine.retries"] = counter(lambda x: x.get("ladder.retries", 0)
                                  + x.get("ladder.roots.degraded", 0)
                                  + x.get("ladder.roots.quarantined", 0))
    if tm:
        m["driver.run_self_ms"] = med(
            [p["self"].get("driver.run", 0) for p in tm]) / 1e6
        m["driver.parallel_eff"] = med(
            [ratio(p["busy"].get("engine.analyze_root", 0),
                   JOBS * p["busy"].get("driver.run", 0)) for p in tm])
    if traced_main:
        m["driver.cpu_s"] = med([o["cpu_ns"] for o in traced_main]) / 1e9
        m["report.count"] = float(med([
            len(o["reports"]) if "status" not in o else
            len(parse_json_reports(o["output"]) or ()) for o in traced_main]))
    m["report.rank_ms"] = busy_ms("report.rank")
    m["report.render_ms"] = busy_ms("report.render")
    m["lifecycle.open_ms"] = busy_ms("lifecycle.open")
    m["lifecycle.classify_ms"] = busy_ms("lifecycle.classify")
    m["lifecycle.save_ms"] = busy_ms("lifecycle.save")
    if traced_main and "entries" in traced_main[0]:
        m["lifecycle.entries"] = float(med([o["entries"]
                                            for o in traced_main]))
    untraced = [o["wall_ns"] for o in main if not o["traced"]]
    if untraced and traced_main:
        m["trace.overhead"] = ratio(med([o["wall_ns"] for o in traced_main]),
                                    med(untraced))
    if tm:
        m["trace.unattributed_ms"] = med([p["unattributed"] for p in tm]) / 1e6
    return m, tm


def service_layer(w, m):
    """Response and status-RPC metrics of an untraced xgccd at HIGH_RPS."""
    d = Daemon(w, "t")
    try:
        service_setup(w, d)
        res = open_loop(w, d, HIGH_RPS, max(100, HIGH_RPS * 2), probe_every=10)
    finally:
        d.stop()
    m["service.wire_ms"] = statistics.median(res["probe_ms"])
    m["service.queue_p50_ms"] = statistics.median(res["queue_ms"])
    m["service.queue_tail_ms"] = tail_of(res["queue_ms"])[0]
    m["service.run_ms.warm"] = statistics.median(res["run_cls"]["warm"])
    m["service.run_ms.edit"] = statistics.median(res["run_cls"]["edit"])
    m["service.busy_ratio"] = sum(res["run_ms"]) / 1e3 / res["window_s"]
    m["service.peak_queue"] = float(res["peak_queue"])
    m["service.refused"] = float(res["refused"])
    m["service.lat_p50_ms.high"] = statistics.median(res["lat"])
    m["service.lat_tail_ms.high"] = tail_of(res["lat"])[0]
    m["loadgen.late_ms"] = tail_of(res["late"])[0]


def traced(w, seconds):
    """Per-layer metrics from the in-process replay (see spans.py)."""
    if not w.replay:
        raise BenchError("the traced replay is not built")
    w.summary = "%s traced" % w.args.workload
    w.per_file = {f: w.corpus.expected([f]) for f in w.files}
    lines, expect = {"batch": plan_batch, "incremental": plan_incremental,
                     "service": plan_service}[w.args.workload](w)
    plan = os.path.join(w.root, "plan.tsv")
    with open(plan, "w") as f:
        f.write("files\t%s\n" % "\t".join(w.files))
        f.write("\n".join(lines) + "\n")
    trace = os.path.abspath(w.args.trace_out or
                            os.path.join(w.root, "trace.json"))
    opsf = os.path.join(w.root, "ops.jsonl")
    _, _, rc, _ = run_tool([w.replay, plan, trace, opsf], w.src, w.err)
    if rc:
        with open(w.err, "rb") as f:
            raise BenchError("replay exited %d: %s" % (
                rc, f.read()[-2000:].decode("utf-8", "replace")))
    with open(opsf) as f:
        ops = [json.loads(line) for line in f]
    if len(ops) != len(expect):
        raise BenchError("replay ran %d of %d ops" % (len(ops), len(expect)))
    for o in ops:
        check_op(w, o, expect[o["op"]])
    sp = spans.load(trace)
    per = spans.per_op(sp, spans.attribute(sp))
    m, tm = layer_metrics(w, ops, per, expect)
    # The service layer's metrics ride on incremental too, the workload the
    # benchmark runs over the same corpus (see README.md, "Workloads").
    if w.args.workload in ("incremental", "service"):
        # The replayed edits moved the ground truth (bugs added and fixed).
        w.expected = w.corpus.expected()
        w.per_file = {f: w.corpus.expected([f]) for f in w.files}
        service_layer(w, m)
    log(spans.table(w.args.workload, tm))
    log(w.summary)
    log("trace written to %s" % trace)
    return m, dict(PER_LAYER)


WORKLOADS = {"batch": batch, "incremental": incremental, "service": service}
END_TO_END = ["setup_s", "run_s", "op_p50_ms", "op_tail_ms", "throughput",
              "peak_rss_mb", "store_mb"]
UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "throughput": "1/s", "peak_rss_mb": "MB", "store_mb": "MB"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--plant", choices=("report", "delta"),
                    help="check against a wrong ground truth: one extra "
                         "expected report, or (incremental) one extra new "
                         "report in the set-up baseline delta; the command "
                         "must then fail")
    ap.add_argument("--trace-out", default=None,
                    help="where the traced run writes its Chrome trace "
                         "(default .bench_work/<workload>/trace.json)")
    args = ap.parse_args()
    # A terminated run still stops the daemons it started (the finally
    # clauses run on SystemExit).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bins, replay = build(bdir)
        w = Work(args, bins, replay)
        if args.trace:
            metrics, units = traced(w, args.seconds)
        else:
            metrics = WORKLOADS[args.workload](w, args.seconds)
            units = UNITS
            log(w.summary)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    t = w.tally
    for n in t.notes:
        log("perfbench: FAILED %s" % n)
    log("perfbench: %d operations, %d failed (fail_ratio %.4f)" % (
        t.attempted, t.failed, t.failed / max(1, t.attempted)))
    for k in sorted(metrics):
        log("  %-28s %14.4f %s" % (k, metrics[k], units[k]))
    print(json.dumps({
        "correct": t.failed == 0, "attempted": t.attempted, "failed": t.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in metrics}}))
    return 0 if t.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
