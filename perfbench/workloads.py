"""The three closed-loop workloads, each with a timed run (end-to-end
metrics, tracing off) and a traced run (per-layer metrics)."""

import json
import os
import selectors
import shutil
import signal
import statistics
import time

import inputs
import layers
import serve

# Fixed tail percentile per workload: the highest with at least ten
# samples beyond it at the workload's op count. analyze_corpus takes it
# over all ops of a run (~1,000 in 25 s on a 4-core host: p99); the serve
# workloads take it per BLOCK_S block and report the median over blocks,
# so one stalled second does not set it. edit_churn has ~2,600 ops a
# block (p99.5). serve_mixed has ~57,000, which would give p99.98; it
# uses p99.5 too, since over ten seeds its p99.9 already spread 0.34,
# beyond the metric's bound, where p99.5 spread 0.11
# (perfbench/RATIONALE.md).
TAIL = {"analyze_corpus": 99.0, "edit_churn": 99.5, "serve_mixed": 99.5}

# analyze_corpus: systems per shape; a cold set-up pass is measured every
# ANALYZE_SETUP_EVERY timed passes; every COLD_EVERY-th timed op analyzes
# into an empty store; the per-op time limit.
PER_SHAPE = 8
ANALYZE_SETUP_EVERY = 5
COLD_EVERY = 4
OP_LIMIT_S = 2.0

# Serve workloads: the timed drive runs in blocks of BLOCK_S, with one
# set-up measured before and after each. Streams loop, so their length
# only sets how often they repeat. The traced run drives a fixed prefix of
# each, so its counts repeat exactly.
BLOCK_S = 2.0
CHURN_CLIENTS, CHURN_K, CHURN_EXTRA, CHURN_ROUNDS = 4, 32, 3, 1000
MIXED_CLIENTS, MIXED_RING, MIXED_STREAM = 4, 24, 5000
TRACE_CHURN_PREFIX = 400
TRACE_MIXED_PREFIX = 2000
RESPONSE_LIMIT_S = 5.0


class Run:
    """Tallies one run: ops attempted and failed, and the safety verdicts
    seen, plus the first few error messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.verdicts = 0
        self.errors = []

    def op(self, error=None):
        """Counts one op; a failed one carries its error message."""
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def verdict(self, got, expect):
        """Counts a safety verdict; returns True iff it contradicts the
        known answer."""
        self.verdicts += 1
        if got in (inputs.SAFE, inputs.UNSAFE):
            self.decided += 1
            return got != expect
        return got != "UNKNOWN"


def percentile(values, p):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# ---- processes --------------------------------------------------------------

def spawn(args, limit_s):
    """Runs `args` to completion; returns (exit code or None on timeout,
    stdout, stderr, wall seconds spawn to exit, rusage)."""
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=[
        (os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2),
        (os.POSIX_SPAWN_CLOSE, out_r), (os.POSIX_SPAWN_CLOSE, err_r)])
    os.close(out_w)
    os.close(err_w)
    chunks = {out_r: [], err_r: []}
    sel = selectors.DefaultSelector()
    for fd in chunks:
        sel.register(fd, selectors.EVENT_READ)
    deadline = start + limit_s
    timed_out = False
    open_fds = 2
    while open_fds:
        left = deadline - time.perf_counter()
        events = sel.select(timeout=max(left, 0))
        if not events:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
            break
        for key, _ in events:
            data = os.read(key.fd, 1 << 16)
            if data:
                chunks[key.fd].append(data)
            else:
                sel.unregister(key.fd)
                open_fds -= 1
    _, status, rusage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    sel.close()
    os.close(out_r)
    os.close(err_r)
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return (code, b"".join(chunks[out_r]).decode(),
            b"".join(chunks[err_r]).decode(), wall, rusage)


# Passes every report must list: the verdict rests on the first two, the
# budget-cliff guard on the last.
REQUIRED_PASSES = ("pair-safety", "system-safety", "deadlock")


def analyze_verdict(report):
    """(the system verdict the report states, its rules), or (None, rules)
    when it states none. Every corpus system has three or more
    transactions, so the system-safety pass must say SAFE itself (DL008),
    UNSAFE (DL006) or UNKNOWN (DL007); it is silent only when the
    pair-safety pass found an unsafe pair (DL002/DL004). The absence of
    an UNSAFE rule never reads as SAFE."""
    rules = {d["rule"] for d in report["analysis"]["diagnostics"]}
    unsafe = rules & {"DL002", "DL004", "DL006"}
    if unsafe and "DL008" not in rules:
        return inputs.UNSAFE, rules
    if "DL008" in rules and not unsafe and "DL007" not in rules:
        return inputs.SAFE, rules
    if rules & {"DL006", "DL007", "DL008"} == {"DL007"}:
        return "UNKNOWN", rules
    return None, rules


# ---- analyze_corpus ---------------------------------------------------------

class Corpus:
    def __init__(self, env, seed):
        self.env = env
        self.systems = inputs.corpus(seed, PER_SHAPE)
        self.paths = []
        os.makedirs(env.path("systems"), exist_ok=True)
        for s in self.systems:
            path = env.path("systems", s.name + ".dlk")
            with open(path, "w") as f:
                f.write(s.text)
            self.paths.append(path)
        self.digest = inputs.digest(s.text for s in self.systems)
        self.states = {}

    def op(self, run, i, store, extra=()):
        """One `dislock analyze` of system i into `store`; returns (wall
        seconds, peak RSS MB, report or None)."""
        system = self.systems[i]
        code, out, err, wall, ru = spawn(
            [self.env.dislock, "analyze", self.paths[i], "--format=json",
             "--cache-dir=" + store] + list(extra), OP_LIMIT_S)
        rss = ru.ru_maxrss / 1024.0
        if code is None:
            run.op("%s: over the %.1f s op limit" % (system.name, OP_LIMIT_S))
            return wall, rss, None
        if code != 0:
            run.op("%s: exit %d: %s" % (system.name, code, err.strip()[:200]))
            return wall, rss, None
        try:
            report = json.loads(out)
        except ValueError:
            run.op("%s: unparsable report" % system.name)
            return wall, rss, None
        missing = [p for p in REQUIRED_PASSES
                   if p not in report["analysis"]["passes"]]
        if missing:
            run.op("%s: report lacks pass %s" % (system.name,
                                                 ", ".join(missing)))
            return wall, rss, None
        verdict, rules = analyze_verdict(report)
        if verdict is None:
            run.op("%s: no system verdict (rules %s)" %
                   (system.name, " ".join(sorted(rules))))
            return wall, rss, None
        if "DL206" in rules or "deadlock" not in report:
            run.op("%s: deadlock search over its state budget" % system.name)
            return wall, rss, None
        states = report["deadlock"]["states_explored"]
        if self.states.setdefault(system.name, states) != states:
            run.op("%s: states_explored %d, earlier %d" %
                   (system.name, states, self.states[system.name]))
            return wall, rss, None
        wrong = run.verdict(verdict, system.expect)
        run.op("%s: %s, expected %s" % (system.name, verdict, system.expect)
               if wrong else None)
        return wall, rss, report

    def fresh_store(self, name):
        path = self.env.path("stores", name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path


def is_cold(i, shift):
    """Whether op i of pass `shift` analyzes into an empty store: one op
    in COLD_EVERY, every shape in every pass, and each system once every
    COLD_EVERY passes."""
    return (i + i // len(inputs.SHAPES) + shift) % COLD_EVERY == 0


def analyze_corpus(env, seed, seconds):
    """Passes over the corpus until `seconds` of them are timed, each pass
    a block; every ANALYZE_SETUP_EVERY passes, and once before, one more
    cold set-up pass into an empty store is measured. Reports per-pass
    medians."""
    corpus = Corpus(env, seed)
    n = len(corpus.systems)
    env.info("inputs analyze_corpus seed=%d systems=%d digest=%s" %
             (seed, n, corpus.digest))
    setup_run, run = Run(), Run()
    setups = []

    def setup():
        store = corpus.fresh_store("warm")
        start = time.perf_counter()
        for i in range(n):
            corpus.op(setup_run, i, store)
        setups.append(time.perf_counter() - start)
        return store

    warm = setup()
    env.info("states_explored " + " ".join(
        "%s=%d" % kv for kv in sorted(corpus.states.items())))
    blocks, all_lat, rss = [], [], []
    timed_s, cpu = 0.0, 0.0
    while timed_s < seconds:
        reads, writes = [], []
        cpu0 = time.process_time()
        start = time.perf_counter()
        for i in range(n):
            cold = is_cold(i, len(blocks))
            store = corpus.fresh_store("cold") if cold else warm
            wall, peak, _ = corpus.op(run, i, store)
            (writes if cold else reads).append(wall * 1000.0)
            rss.append(peak)
        elapsed = time.perf_counter() - start
        cpu += time.process_time() - cpu0
        timed_s += elapsed
        blocks.append({
            "ops_per_s": n / elapsed,
            "latency_p50_ms": statistics.median(reads + writes),
            "read_p50_ms": statistics.median(reads),
            "write_p50_ms": statistics.median(writes),
        })
        all_lat += reads + writes
        if len(blocks) % ANALYZE_SETUP_EVERY == 0 and timed_s < seconds:
            setup()
    env.loadgen(cpu, len(all_lat), statistics.median(all_lat), threads=1,
                connections=1)
    env.info("ops %d" % len(all_lat))
    run_tails = tails(all_lat)
    print_tails(env, [run_tails])
    metrics = block_medians(env, blocks)
    metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss),
        "latency_tail_ms": run_tails[TAIL["analyze_corpus"]],
    })
    return finish(setup_run, run, metrics)


def analyze_corpus_traced(env, seed, seconds):
    corpus = Corpus(env, seed)
    env.info("inputs analyze_corpus seed=%d systems=%d digest=%s" %
             (seed, len(corpus.systems), corpus.digest))
    n = len(corpus.systems)
    cold = [is_cold(i, 0) for i in range(n)]
    warm = corpus.fresh_store("warm")
    setup_run = Run()
    for i in range(n):
        corpus.op(setup_run, i, warm)
    os.makedirs(env.path("traces"), exist_ok=True)

    def traced_pass(run):
        def one_pass(traced):
            walls = []
            cpu0 = time.process_time()
            start = time.perf_counter()
            for i in range(n):
                store = corpus.fresh_store("cold") if cold[i] else warm
                extra = []
                if traced:
                    extra = ["--trace=" + env.path("traces", "%d.json" % i),
                             "--metrics=" +
                             env.path("traces", "%d.m.json" % i)]
                wall, _, report = corpus.op(run, i, store, extra)
                walls.append(wall * 1000.0)
                if traced and report:
                    states.append(report["deadlock"]["states_explored"])
            return (walls, time.perf_counter() - start,
                    time.process_time() - cpu0)

        states = []
        plain, plain_s, _ = one_pass(False)
        walls, traced_s, cpu = one_pass(True)

        spans = layers.Spans()
        totals = {}
        for i in range(n):
            spans.add_file(env.path("traces", "%d.json" % i))
            counters = layers.counters(env.path("traces", "%d.m.json" % i))
            for k, v in counters.items():
                totals[k] = totals.get(k, 0) + v

        # In-process layer times: every timed call of a cold system starts
        # from an empty store, of a warm one from a copy of the warm store
        # (the probe opens a fresh store on it per call and never flushes
        # into it).
        probe = {}
        for is_cold in (True, False):
            files = [corpus.paths[i] for i in range(n) if cold[i] == is_cold]
            store = corpus.fresh_store("probe")
            if not is_cold:
                shutil.rmtree(store)
                shutil.copytree(warm, store)
            for rec in env.probe(["analyze", "3", store] + files):
                probe[rec["file"]] = rec
        recs = [probe[p] for p in corpus.paths]
        startup = statistics.median(
            spawn([env.dislock, "passes"], OP_LIMIT_S)[3] * 1000.0
            for _ in range(21))

        v = {}

        def mean(xs):
            return sum(xs) / n

        v["txn.parse_ms"] = mean(r["parse_ms"] for r in recs)
        v["txn.parse_mb_per_s"] = (sum(r["bytes"] for r in recs) / 1e6 /
                                   (sum(r["parse_ms"] for r in recs) / 1000.0))
        for p in layers.PASSES:
            v["analysis.%s_ms" % p] = mean(r["passes"].get(p, 0) for r in recs)
        v["analysis.emit_ms"] = mean(r["emit_ms"] for r in recs)
        v["deadlock.search_ms"] = spans.total.get("deadlock.search", 0) / n
        v["deadlock.entry_ms"] = mean(r["deadlock_ms"] for r in recs)
        v["multi.entry_ms"] = mean(r["multi_ms"] for r in recs)
        v["deadlock.searches_per_op"] = spans.count.get("deadlock.search",
                                                        0) / n
        v["deadlock.states"] = sum(states)
        v["deadlock.states_max"] = max(states) if states else 0
        v["multi.pairs_ms"] = spans.total.get("multi.pairs", 0) / n
        v["multi.cycles_ms"] = spans.total.get("multi.cycles", 0) / n
        v["multi.pairs_checked"] = sum(r["pairs_checked"] for r in recs)
        v["multi.cycles_checked"] = sum(r["cycles_checked"] for r in recs)
        for s in layers.STAGES:
            v["decision.%s_ms" % s] = spans.total.get("stage." + s, 0) / n
            v["decision.%s.attempts" % s] = totals.get(
                "pipeline.%s.attempts" % s, 0)
            v["decision.%s.decided" % s] = totals.get(
                "pipeline.%s.decided" % s, 0)
        v["cache.tier1.hits"] = totals.get("cache.hits", 0)
        v["cache.tier1.misses"] = totals.get("cache.misses", 0)
        v["cache.tier2.disk_hits"] = totals.get("cache.disk_hits", 0)
        v["cache.tier2.records_flushed"] = totals.get(
            "cache.records_flushed", 0)
        v["cache.tier2.open_ms"] = mean(r["open_ms"] for r in recs)
        v["cache.tier2.flush_ms"] = mean(r["flush_ms"] for r in recs)
        v["proc.startup_ms"] = startup

        self_ms = dict(spans.self_ms)
        self_ms["tools"] = startup * n
        self_ms["txn"] = sum(r["parse_ms"] for r in recs)
        self_ms["analysis"] = (self_ms.get("analysis", 0) +
                               sum(r["emit_ms"] for r in recs))
        self_ms["cache"] = sum(r["open_ms"] + r["flush_ms"] for r in recs)
        wall = sum(walls)
        for layer in layers.LAYERS:
            v["layer.%s.self_ms" % layer] = self_ms.get(layer, 0) / n
        v["trace.unaccounted_frac"] = 1 - sum(self_ms.values()) / wall
        v["trace.overhead_frac"] = traced_s / plain_s - 1
        v["loadgen.cpu_ms_per_op"] = cpu * 1000.0 / n
        v["loadgen.cpu_share"] = (v["loadgen.cpu_ms_per_op"] /
                                  statistics.median(plain))
        v["loadgen.threads"] = 1
        v["loadgen.connections"] = 1
        return v

    return repeat_traced(env, "analyze_corpus", seed, seconds, traced_pass,
                         setup_run)


# ---- serve workloads --------------------------------------------------------

def serve_setup(env, run, base_text, extra=()):
    """Spawn -> listening -> `system` base -> first `check` answered;
    returns (seconds, server). The set-up connection is closed; both
    answers are checked and counted in `run`."""
    start = time.perf_counter()
    server = serve.Server(env.serve_bin, extra)
    try:
        with server.connect() as conn:
            conn.sock.settimeout(RESPONSE_LIMIT_S * 10)
            loaded = conn.call(serve.envelope("system", block=base_text))
            line = conn.call(serve.envelope("check"))
            elapsed = time.perf_counter() - start
    except BaseException:
        server.kill()
        raise
    run.op(None if serve.OK in loaded else "system: %r" % loaded[:200])
    m = serve.VERDICT.search(line)
    verdict = m.group(1).decode() if m and serve.OK in line else None
    wrong = verdict is None or run.verdict(verdict, inputs.SAFE)
    run.op("first check: %r" % line[:200] if wrong else None)
    return elapsed, server


class Drive:
    """One drive of `streams` (a request list per connection, each request
    a (verb, envelope, expected substrings) tuple) by the closed-loop load
    generator (perfbench_loadgen) against the server on `port`: for
    `seconds` with the streams looping, each connection resuming at its
    entry of `offsets`; or once through them when `seconds` is None."""

    def __init__(self, env, run, port, streams, seconds, offsets=None):
        wrap = seconds is not None
        offsets = offsets or [0] * len(streams)
        files = []
        for c, stream in enumerate(streams):
            path = env.path("stream%d.txt" % c)
            if not os.path.exists(path):
                with open(path, "wb") as f:
                    for verb, req, expect in stream:
                        f.write(b"%s\t%s\t%s" % (verb.encode(),
                                                  b"\x1f".join(expect), req))
            files.append("%s@%d" % (path, offsets[c]))
        out = env.path("responses.txt")
        code, _, err, _, ru = spawn(
            [env.loadgen_bin, str(port),
             str(seconds if wrap else 3600), "1" if wrap else "0",
             str(RESPONSE_LIMIT_S), out] + files,
            (seconds if wrap else 600) + 4 * RESPONSE_LIMIT_S)
        if code != 0:
            raise RuntimeError("load generator failed: %s" % err.strip())
        run.errors += err.splitlines()[:5]
        self.rtt = {v: [] for v in layers.VERBS}
        self.offsets = list(offsets)
        with open(out) as f:
            lines = f.read().splitlines()
        self.elapsed = float(lines.pop().split()[1])
        for line in lines:
            conn, index, ms, status = line.split()
            stream = streams[int(conn)]
            verb = stream[int(index)][0]
            self.offsets[int(conn)] = (int(index) + 1) % len(stream)
            self.rtt[verb].append(float(ms))
            if verb == "check":
                run.verdict({"S": inputs.SAFE, "U": "UNKNOWN",
                             "X": inputs.UNSAFE}.get(status[1], "?"),
                            inputs.SAFE)
            run.op({"e": "%s: error response" % verb,
                    "w": "%s: wrong answer" % verb}.get(status[0]))
        self.cpu = ru.ru_utime + ru.ru_stime
        self.connections = len(streams)
        self.all = [x for v in self.rtt.values() for x in v]


def timed_serve(env, name, base, streams, seconds, reads):
    """Drives `streams` closed-loop for `seconds`, in blocks of about
    BLOCK_S; between blocks, and once before, measures one more set-up on
    a separate server. Reports per-block medians."""
    setup_run, run = Run(), Run()

    def setup():
        elapsed, server = serve_setup(env, setup_run, base.text)
        setups.append(elapsed)
        return server

    setups = []
    server = setup()
    blocks = max(1, int(round(seconds / BLOCK_S)))
    offsets, per_block, block_tails, all_lat, cpu = None, [], [], [], 0.0
    try:
        for _ in range(blocks):
            d = Drive(env, run, server.port, streams, seconds / blocks,
                      offsets)
            offsets = d.offsets
            block_tails.append(tails(d.all))
            per_block.append({
                "ops_per_s": len(d.all) / d.elapsed,
                "latency_p50_ms": statistics.median(d.all),
                "latency_tail_ms": block_tails[-1][TAIL[name]],
                "read_p50_ms": statistics.median(
                    [x for v in reads for x in d.rtt[v]]),
                "write_p50_ms": statistics.median(
                    [x for v in ("add", "replace", "remove")
                     for x in d.rtt[v]]),
            })
            all_lat += d.all
            cpu += d.cpu
            other = setup()
            if other.shutdown() != 0:
                setup_run.op("dislock_serve exited nonzero")
    finally:
        code = server.shutdown()
    if code != 0:
        run.op("dislock_serve exited %s" % code)
    env.loadgen(cpu, len(all_lat), statistics.median(all_lat), threads=1,
                connections=len(streams))
    env.info("ops %d in %d blocks" % (len(all_lat), len(per_block)))
    print_tails(env, block_tails)
    metrics = block_medians(env, per_block)
    metrics.update({
        "setup_s": statistics.median(setups),
        "peak_rss_mb": server.peak_rss_mb(),
    })
    return finish(setup_run, run, metrics)


def tails(values):
    """Nearest-rank p95, p99, p99.5 and p99.9 of `values` (every TAIL
    percentile among them)."""
    return {p: percentile(values, p) for p in (95.0, 99.0, 99.5, 99.9)}


def print_tails(env, per_block):
    """Prints each tail percentile, median over `per_block` (one tails()
    dict per block), beside the op count it was taken over."""
    env.info("tails " + " ".join(
        "p%g=%.4f" % (p, statistics.median(t[p] for t in per_block))
        for p in per_block[0]))


def block_medians(env, blocks):
    """Per-metric medians over blocks; prints each block's ops/s."""
    env.info("blocks ops_per_s " + " ".join(
        "%.4g" % b["ops_per_s"] for b in blocks))
    return {k: statistics.median(b[k] for b in blocks) for k in blocks[0]}


def clients(wanted):
    """Connections for a serve workload: `wanted`, at most nproc."""
    return min(wanted, os.cpu_count() or 1)


def churn_streams(seed):
    base, cmds = inputs.churn_streams(seed, clients(CHURN_CLIENTS), CHURN_K,
                                      CHURN_ROUNDS, CHURN_EXTRA)
    return base, [[(v, serve.envelope(v, a, b), ()) for v, a, b in client]
                  for client in cmds]


def mixed_streams(seed):
    base, cmds = inputs.mixed_streams(seed, MIXED_RING,
                                      clients(MIXED_CLIENTS), MIXED_STREAM)
    streams = [[(v, serve.envelope(v, a, b),
                 [b'"name": "%s"' % n.encode() for n in names]
                 if v == "list" else ())
                for v, a, b, names in client] for client in cmds]
    return base, streams


def stream_digest(base, streams):
    return inputs.digest([base.text] + [r.decode() for s in streams
                                        for _, r, _ in s])


def edit_churn(env, seed, seconds):
    base, streams = churn_streams(seed)
    env.info("inputs edit_churn seed=%d clients=%d commands=%d digest=%s" %
             (seed, len(streams), sum(map(len, streams)),
              stream_digest(base, streams)))
    return timed_serve(env, "edit_churn", base, streams, seconds, ["check"])


def serve_mixed(env, seed, seconds):
    base, streams = mixed_streams(seed)
    env.info("inputs serve_mixed seed=%d clients=%d commands=%d digest=%s" %
             (seed, len(streams), sum(map(len, streams)),
              stream_digest(base, streams)))
    return timed_serve(env, "serve_mixed", base, streams, seconds,
                       ["list", "stats", "check"])


def serve_traced(env, name, seed, seconds, base, streams, prefix):
    """Drives the first `prefix` requests of every stream untraced, then
    traced, then replays them through the probe's in-process SessionCore
    (round-robin across streams, one order, so its counts repeat
    exactly); repeated until `seconds` pass."""
    streams = [s[:prefix] for s in streams]
    os.makedirs(env.path("traces"), exist_ok=True)
    trace_file = env.path("traces", "serve.json")
    metrics_file = env.path("traces", "serve.m.json")
    def traced_pass(run):
        drives = []
        traced = ["--trace=" + trace_file, "--metrics=" + metrics_file]
        for extra in ([], traced):
            _, server = serve_setup(env, run, base.text, extra)
            try:
                drives.append(Drive(env, run, server.port, streams, None))
            finally:
                if server.shutdown() != 0:
                    run.op("dislock_serve exited nonzero")
        plain, d = drives
        spans = layers.Spans()
        spans.add_file(trace_file)
        totals = layers.counters(metrics_file)

        base_path = env.path("base.dlk")
        with open(base_path, "w") as f:
            f.write(base.text)
        req_path = env.path("requests.jsonl")
        with open(req_path, "wb") as f:
            f.write(serve.envelope("system", block=base.text))
            for i in range(prefix):
                for s in streams:
                    f.write(s[i][1])
        replay = env.probe(["session", base_path, req_path])
        for r in replay:
            if not r["ok"]:
                run.op("in-process %s failed" % r["verb"])

        v = {}
        ops = len(d.all)
        blocks = [r for r in replay if r["parse_ms"] > 0]
        if blocks:
            v["txn.parse_ms"] = statistics.median(r["parse_ms"]
                                                  for r in blocks)
            size = sum(len(req) for s in streams for verb, req, _ in s
                       if verb in ("add", "replace"))
            v["txn.parse_mb_per_s"] = size / 1e6 / (
                sum(r["parse_ms"] for r in blocks) / 1000.0)
        for verb in layers.VERBS:
            execs = [r["exec_ms"] for r in replay if r["verb"] == verb]
            if execs:
                v["session.%s_ms" % verb] = statistics.median(execs)
            if d.rtt[verb]:
                v["serve.rtt.%s_ms" % verb] = statistics.median(d.rtt[verb])

        def add(key, x):
            v[key] = v.get(key, 0) + x

        for r in replay:
            if r["verb"] != "check":
                continue
            rep = r["response"]["report"]
            add("multi.pairs_checked", rep["pairs_checked"])
            add("multi.cycles_checked", rep["cycles_checked"])
            for stage in rep["pipeline"]:
                for k in ("attempts", "decided"):
                    add("decision.%s.%s" % (stage["stage"], k), stage[k])
            for k in ("pairs_reused", "pairs_recomputed", "cycles_reused",
                      "cycles_recomputed"):
                add("incremental." + k, rep["delta"][k])
        for p in ("diff", "invalidate", "pairs", "cycles"):
            v["incremental.%s_ms" % p] = spans.total.get("incremental." + p,
                                                         0) / ops
        v["multi.pairs_ms"] = spans.total.get("multi.pairs", 0) / ops
        v["multi.cycles_ms"] = spans.total.get("multi.cycles", 0) / ops
        for s in layers.STAGES:
            v["decision.%s_ms" % s] = spans.total.get("stage." + s, 0) / ops
        rtt_total = sum(d.all)
        outside = rtt_total - spans.total.get("session.command", 0)
        v["serve.overhead_ms"] = outside / ops
        v["serve.queue_peak"] = totals.get("serve.queue_peak", 0)
        self_ms = dict(spans.self_ms)
        self_ms["serve"] = outside
        for layer in layers.LAYERS:
            v["layer.%s.self_ms" % layer] = self_ms.get(layer, 0) / ops
        v["trace.unaccounted_frac"] = outside / rtt_total
        v["trace.overhead_frac"] = d.elapsed / plain.elapsed - 1
        v["loadgen.cpu_ms_per_op"] = d.cpu * 1000.0 / ops
        v["loadgen.cpu_share"] = (v["loadgen.cpu_ms_per_op"] /
                                  statistics.median(d.all))
        v["loadgen.threads"] = 1
        v["loadgen.connections"] = d.connections
        return v

    return repeat_traced(env, name, seed, seconds, traced_pass)


def edit_churn_traced(env, seed, seconds):
    base, streams = churn_streams(seed)
    env.info("inputs edit_churn seed=%d clients=%d commands=%d digest=%s" %
             (seed, len(streams), sum(map(len, streams)),
              stream_digest(base, streams)))
    return serve_traced(env, "edit_churn", seed, seconds, base, streams,
                        TRACE_CHURN_PREFIX)


def serve_mixed_traced(env, seed, seconds):
    base, streams = mixed_streams(seed)
    env.info("inputs serve_mixed seed=%d clients=%d commands=%d digest=%s" %
             (seed, len(streams), sum(map(len, streams)),
              stream_digest(base, streams)))
    return serve_traced(env, "serve_mixed", seed, seconds, base, streams,
                        TRACE_MIXED_PREFIX)


# ---- results ----------------------------------------------------------------

def finish(setup_run, timed, metrics):
    """The timed run's tallies (set-up and timed ops together) and its
    metrics, with decided_frac taken over the timed verdicts."""
    for k in ("attempted", "failed"):
        setattr(timed, k, getattr(timed, k) + getattr(setup_run, k))
    timed.errors = setup_run.errors + timed.errors
    metrics["decided_frac"] = (timed.decided / timed.verdicts
                               if timed.verdicts else 0.0)
    return timed, metrics


def repeat_traced(env, name, seed, seconds, one, run=None):
    """Runs the traced pass `one(run)` until `seconds` pass (at least
    once). Times are medians over the passes; counts come from the first
    pass and must repeat in every later one and in any earlier traced run
    of the seed in this checkout."""
    run = run or Run()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(one(run))
    values = {}
    for key in set().union(*passes):
        got = [p.get(key, 0) for p in passes]
        values[key] = (got[0] if layers.UNITS.get(key) == "count"
                       else statistics.median(got))
    counts = {k: values.get(k, 0) for k in layers.REPEATING}
    same = all(p.get(k, 0) == counts[k] for p in passes for k in counts)
    if not same:
        env.info("COUNTS DIFFER between traced passes of seed %d" % seed)
    values["counts.repeat_ok"] = float(
        env.repeat_check(name, seed, counts) and same)
    env.info("traced passes=%d counts %s" % (len(passes), " ".join(
        "%s=%s" % kv for kv in counts.items())))
    return run, values


WORKLOADS = {
    "analyze_corpus": (analyze_corpus, analyze_corpus_traced),
    "edit_churn": (edit_churn, edit_churn_traced),
    "serve_mixed": (serve_mixed, serve_mixed_traced),
}
