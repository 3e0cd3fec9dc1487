"""Span attribution for the traced replay.

The replay writes Chrome trace-event JSON: one complete ("X") event per span,
with args {id, parent, op, bytes}. Each workload operation (a run, an edit
cycle, a request) has one root span named ``op``; every other span belongs to
the layer named before the first dot of its name.

Self time is attributed on the wall clock: at each instant of an operation,
the open spans that have no open child share that instant equally. A span on
one thread therefore gets its duration minus the part its children cover, and
parallel spans split the time they overlap, so the layer self times of an
operation plus its unattributed time (the ``op`` span's own share) add up to
the operation's wall time exactly.
"""

import json
from collections import defaultdict


def load(path):
    with open(path) as f:
        doc = json.load(f)
    out = []
    for e in doc["traceEvents"]:
        a = e["args"]
        start = round(e["ts"] * 1000)
        out.append({"name": e["name"], "start": start,
                    "end": start + round(e["dur"] * 1000), "tid": e["tid"],
                    "id": int(a["id"]), "parent": int(a["parent"]),
                    "op": int(a["op"]), "bytes": int(a.get("bytes", 0))})
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def attribute(spans):
    """Returns {span id: attributed self time in ns}."""
    by_op = defaultdict(list)
    for s in spans:
        by_op[s["op"]].append(s)
    self_ns = {}
    for group in by_op.values():
        self_ns.update(_sweep(group))
    return self_ns


def _sweep(spans):
    events = []
    for s in spans:
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()  # ends (0) before starts (1) at equal times
    parent = {s["id"]: s["parent"] for s in spans}
    active, frontier = set(), set()
    open_children = defaultdict(int)
    out = {s["id"]: 0.0 for s in spans}
    last = events[0][0] if events else 0
    for t, is_start, sid in events:
        if t > last and frontier:
            share = (t - last) / len(frontier)
            for f in frontier:
                out[f] += share
        last = t
        p = parent[sid]
        if is_start:
            active.add(sid)
            frontier.add(sid)
            if p in active:
                open_children[p] += 1
                frontier.discard(p)
        else:
            active.discard(sid)
            frontier.discard(sid)
            if p in active:
                open_children[p] -= 1
                if open_children[p] == 0:
                    frontier.add(p)
    return out


def per_op(spans, self_ns):
    """{op: {"wall": ns, "unattributed": ns, "layers": {layer: ns},
    "self": {name: ns}, "busy": {name: ns}, "count": {name: n},
    "bytes": {name: n}}}."""
    ops = {}
    for s in spans:
        o = ops.setdefault(s["op"], {
            "wall": 0, "unattributed": 0.0, "layers": defaultdict(float),
            "self": defaultdict(float), "busy": defaultdict(int),
            "count": defaultdict(int), "bytes": defaultdict(int),
            "durations": defaultdict(list)})
        if s["name"] == "op":
            o["wall"] = s["end"] - s["start"]
            o["unattributed"] = self_ns[s["id"]]
            continue
        o["layers"][layer_of(s["name"])] += self_ns[s["id"]]
        o["self"][s["name"]] += self_ns[s["id"]]
        o["busy"][s["name"]] += s["end"] - s["start"]
        o["count"][s["name"]] += 1
        o["bytes"][s["name"]] += s["bytes"]
        o["durations"][s["name"]].append(s["end"] - s["start"])
    return ops


def table(title, ops):
    """Self time per layer, summed over ``ops``, as text."""
    total = sum(o["wall"] for o in ops) or 1
    layers = defaultdict(float)
    for o in ops:
        for k, v in o["layers"].items():
            layers[k] += v
        layers["(unattributed)"] += o["unattributed"]
    lines = ["%s: self time per layer over %d traced operation(s)" % (
        title, len(ops)), "  %-16s %12s %7s" % ("layer", "ms/op", "share")]
    for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append("  %-16s %12.3f %6.1f%%" % (
            k, v / 1e6 / max(1, len(ops)), 100.0 * v / total))
    return "\n".join(lines)
