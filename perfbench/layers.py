"""Per-layer metric names and the span arithmetic behind them.

A layer's self time is its spans' duration minus the part their child
spans cover. Spans come from the program's own `--trace` files (Chrome
trace_event JSON); the benchmark adds its own timings of process spawns,
request round trips and the probe's in-process calls.
"""

import json

STAGES = ["theorem1-scc", "theorem2-two-site", "corollary2-closure",
          "sat-exhaustive", "brute-force-lemma1"]
PASSES = ["two-phase", "pair-safety", "system-safety", "lints", "deadlock",
          "protocols"]
VERBS = ["system", "add", "replace", "remove", "check", "list", "stats"]
LAYERS = ["tools", "txn", "analysis", "core.deadlock", "core.multi",
          "core.decision", "core.incremental", "session", "cache", "serve"]

# (name, unit) of every per-layer metric, in BENCHMARK.json order. A
# metric a workload never touches reads 0 there.
METRICS = (
    [("txn.parse_ms", "ms"), ("txn.parse_mb_per_s", "MB/s")] +
    [("analysis.%s_ms" % p, "ms") for p in PASSES] +
    [("analysis.emit_ms", "ms"),
     ("deadlock.search_ms", "ms"), ("deadlock.entry_ms", "ms"),
     ("deadlock.searches_per_op", "count"),
     ("deadlock.states", "count"), ("deadlock.states_max", "count"),
     ("multi.entry_ms", "ms"), ("multi.pairs_ms", "ms"),
     ("multi.cycles_ms", "ms"),
     ("multi.pairs_checked", "count"), ("multi.cycles_checked", "count")] +
    [m for s in STAGES for m in (("decision.%s_ms" % s, "ms"),
                                 ("decision.%s.attempts" % s, "count"),
                                 ("decision.%s.decided" % s, "count"))] +
    [("incremental.%s_ms" % p, "ms")
     for p in ("diff", "invalidate", "pairs", "cycles")] +
    [("incremental.%s" % c, "count")
     for c in ("pairs_reused", "pairs_recomputed", "cycles_reused",
               "cycles_recomputed")] +
    [("session.%s_ms" % v, "ms") for v in VERBS] +
    [("cache.tier1.hits", "count"), ("cache.tier1.misses", "count"),
     ("cache.tier2.disk_hits", "count"), ("cache.tier2.open_ms", "ms"),
     ("cache.tier2.flush_ms", "ms"),
     ("cache.tier2.records_flushed", "count")] +
    [("serve.rtt.%s_ms" % v, "ms") for v in VERBS] +
    [("serve.overhead_ms", "ms"), ("serve.queue_peak", "count"),
     ("proc.startup_ms", "ms")] +
    [("layer.%s.self_ms" % l, "ms") for l in LAYERS] +
    [("trace.unaccounted_frac", "ratio"), ("trace.overhead_frac", "ratio"),
     ("loadgen.cpu_ms_per_op", "ms"), ("loadgen.cpu_share", "ratio"),
     ("loadgen.threads", "count"), ("loadgen.connections", "count"),
     ("counts.repeat_ok", "count")])

UNITS = dict(METRICS)

# Counts that must repeat exactly between runs with the same seed.
REPEATING = ["multi.pairs_checked", "multi.cycles_checked", "deadlock.states",
             "incremental.pairs_recomputed", "cache.tier2.disk_hits"]


def layer_of(span):
    if span == "analysis.pass" or span.startswith("repair."):
        return "analysis"
    if span == "deadlock.search":
        return "core.deadlock"
    if span.startswith("multi."):
        return "core.multi"
    if span.startswith(("stage.", "closure.", "sat.")):
        return "core.decision"
    if span.startswith("incremental."):
        return "core.incremental"
    if span == "session.command":
        return "session"
    return None


class Spans:
    """Inclusive time and count per span name, and self time per layer,
    summed over any number of trace files (all in ms)."""

    def __init__(self):
        self.total = {}
        self.count = {}
        self.self_ms = {}

    def add_file(self, path):
        with open(path) as f:
            events = [e for e in json.load(f)["traceEvents"]
                      if e.get("ph") == "X"]
        events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        stack = []  # [event, child_us]

        def close(item):
            e, child = item
            layer = layer_of(e["name"])
            if layer:
                self.self_ms[layer] = (self.self_ms.get(layer, 0.0) +
                                       (e["dur"] - child) / 1000.0)

        for e in events:
            while stack and (stack[-1][0]["tid"] != e["tid"] or
                             e["ts"] >= stack[-1][0]["ts"] +
                             stack[-1][0]["dur"]):
                close(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0])
            name = e["name"]
            self.total[name] = self.total.get(name, 0.0) + e["dur"] / 1000.0
            self.count[name] = self.count.get(name, 0) + 1
        while stack:
            close(stack.pop())


def counters(path):
    with open(path) as f:
        doc = json.load(f)
    out = dict(doc.get("counters", {}))
    out.update(doc.get("gauges", {}))
    return out


def fill(values):
    """Every per-layer metric, as the result's `metrics` object."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in METRICS}
