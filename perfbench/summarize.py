#!/usr/bin/env python3
"""Summarizes the span file of a traced benchmark run.

Usage: python3 perfbench/summarize.py <spans.jsonl>

The file holds a context line, one line per span (name, start, end,
parent, statement id, counts) and a counters line. This prints every
per-layer metric by name with its unit, the self time of each layer (span
time minus the time its child spans cover), and the traced against
untraced throughput of the same run. run.py imports `summarize` to produce
the metrics of a `--trace 1` run, so the numbers here are the ones the
benchmark reports.
"""

import json
import sys
from collections import defaultdict

# (name, unit, better): the per_layer section of BENCHMARK.json, in order.
# A metric a workload's operations never produce reads 0 on that workload.
PER_LAYER = [
    ("query.parse_us", "us", "lower"),
    ("query.optimize_us", "us", "lower"),
    ("query.execute_us", "us", "lower"),
    ("query.rows_scanned_per_row", "count", "lower"),
    ("query.rows_materialized_per_stmt", "count", "lower"),
    ("query.compiled_share", "ratio", "higher"),
    ("query.op.scan_self_ms", "ms", "lower"),
    ("query.op.filter_self_ms", "ms", "lower"),
    ("query.op.aggregate_self_ms", "ms", "lower"),
    ("query.op.join_self_ms", "ms", "lower"),
    ("query.op.sort_self_ms", "ms", "lower"),
    ("query.cpu_util", "ratio", "higher"),
    ("resource.admit_us", "us", "lower"),
    ("resource.rejected", "count", "lower"),
    ("txn.insert_us", "us", "lower"),
    ("txn.commit_us", "us", "lower"),
    ("txn.write_txn_p50_us", "us", "lower"),
    ("txn.write_txn_p99_us", "us", "lower"),
    ("txn.log_records_per_commit", "count", "lower"),
    ("txn.log_file_bytes_per_commit", "B", "lower"),
    ("storage.merge_ms", "ms", "lower"),
    ("storage.merges", "count", "lower"),
    ("storage.delta_rows_mean", "count", "lower"),
    ("storage.bytes_per_row", "B", "lower"),
    ("storage.scan_rows_per_s", "rows/s", "higher"),
    ("soe.bind_us", "us", "lower"),
    ("soe.parse_us", "us", "lower"),
    ("soe.optimize_us", "us", "lower"),
    ("soe.plan_us", "us", "lower"),
    ("soe.fragments_ms", "ms", "lower"),
    ("soe.residual_ms", "ms", "lower"),
    ("soe.fragments_per_query", "count", "lower"),
    ("soe.shuffle_kb_per_query", "KB", "lower"),
    ("soe.coordinator_kb_per_query", "KB", "lower"),
    ("soe.virtual_makespan_ms", "ms", "lower"),
    ("soe.retries", "count", "lower"),
    ("soe.failovers", "count", "lower"),
    ("soe.gather_fallbacks", "count", "lower"),
    ("soe.commit_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

# Operator span labels (from the executor and the compiled engine) per kind.
OP_KINDS = {
    "scan": ("op.Scan(", "op.FusedScan("),
    "filter": ("op.Filter",),
    "aggregate": ("op.Aggregate", "op.GroupAggregate", "op.CompiledAggregate",
                  "op.CompiledGroupAggregate", "op.PartialAggregate",
                  "op.FinalAggregate"),
    "join": ("op.HashJoin",),
    "sort": ("op.Sort",),
}


def load(path):
    context, counters, spans = {}, {}, []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            kind = rec.pop("type")
            if kind == "context":
                context = rec
            elif kind == "counters":
                counters = rec
            else:
                spans.append(rec)
    return context, counters, spans


def self_times(spans):
    """Span id -> its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, cur_start, cur_end = 0, None, None
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, s["start"]), min(end, s["end"])
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def summarize(path):
    """Returns (metrics, lines): {name: (value, unit)} for every PER_LAYER
    metric, and the human-readable report."""
    context, counters, spans = load(path)
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name[name])

    def mean_ns(name):
        group = by_name[name]
        return sum(dur(s) for s in group) / len(group) if group else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    stmts = len(by_name["query.stmt"])
    executes = by_name["query.execute"]
    op_spans = [s for s in spans if s["name"].startswith("op.")]
    op_self = {}
    for kind, prefixes in OP_KINDS.items():
        total = sum(selfs[s["id"]] for s in op_spans if s["name"].startswith(prefixes))
        op_self[kind] = ratio(total, stmts) / 1e6
    scans = [s for s in op_spans if s["name"].startswith(OP_KINDS["scan"])]
    fragments = by_name["soe.fragments"]
    n_frag = len(fragments)
    soe_stmts = by_name["soe.stmt"]
    clients = counters.get("clients", 1)

    def throughput(phase):
        busy = counters.get(phase + "_busy_ns", 0)
        return ratio(counters.get(phase + "_ops", 0) * clients, busy / 1e9)

    untraced, traced = throughput("untraced"), throughput("traced")
    values = {
        "query.parse_us": mean_ns("query.parse") / 1e3,
        "query.optimize_us": mean_ns("query.optimize") / 1e3,
        "query.execute_us": ratio(sum(dur(s) for s in executes), stmts) / 1e3,
        "query.rows_scanned_per_row": ratio(attr_sum("query.execute", "scanned"),
                                            attr_sum("query.execute", "returned")),
        "query.rows_materialized_per_stmt": ratio(attr_sum("query.execute", "materialized"),
                                                  stmts),
        "query.compiled_share": ratio(sum(1 for s in executes
                                          if s["attrs"].get("compiled") and
                                          not s["attrs"].get("bailed")), stmts),
        "query.op.scan_self_ms": op_self["scan"],
        "query.op.filter_self_ms": op_self["filter"],
        "query.op.aggregate_self_ms": op_self["aggregate"],
        "query.op.join_self_ms": op_self["join"],
        "query.op.sort_self_ms": op_self["sort"],
        "query.cpu_util": ratio(attr_sum("query.execute", "cpu_ns"),
                                sum(dur(s) * s["attrs"].get("threads", 1) for s in executes)),
        "resource.admit_us": mean_ns("resource.admit") / 1e3,
        "resource.rejected": attr_sum("resource.admit", "rejected"),
        "txn.insert_us": mean_ns("txn.insert") / 1e3,
        "txn.commit_us": mean_ns("txn.commit") / 1e3,
        "txn.write_txn_p50_us": counters.get("write_txn_p50_us", 0),
        "txn.write_txn_p99_us": counters.get("write_txn_p99_us", 0),
        "txn.log_records_per_commit": ratio(counters.get("log_records", 0),
                                            counters.get("commits", 0)),
        "txn.log_file_bytes_per_commit": ratio(counters.get("log_file_bytes", 0),
                                               counters.get("commits", 0)),
        "storage.merge_ms": counters.get("merge_ms_mean", 0),
        "storage.merges": counters.get("merges", 0),
        "storage.delta_rows_mean": ratio(attr_sum("query.stmt", "delta_rows"), stmts),
        "storage.bytes_per_row": ratio(counters.get("memory_bytes", 0),
                                       counters.get("live_rows", 0)),
        "storage.scan_rows_per_s": ratio(sum(s["attrs"].get("rows_in", 0) for s in scans),
                                         sum(dur(s) for s in scans) / 1e9),
        "soe.bind_us": mean_ns("soe.bind") / 1e3,
        "soe.parse_us": mean_ns("soe.parse") / 1e3,
        "soe.optimize_us": mean_ns("soe.optimize") / 1e3,
        "soe.plan_us": mean_ns("soe.plan") / 1e3,
        "soe.fragments_ms": mean_ns("soe.fragments") / 1e6,
        "soe.residual_ms": ratio(sum(selfs[s["id"]] for s in soe_stmts), len(soe_stmts)) / 1e6,
        "soe.fragments_per_query": ratio(attr_sum("soe.fragments", "fragments"), n_frag),
        "soe.shuffle_kb_per_query": ratio(attr_sum("soe.fragments", "shuffle_bytes"),
                                          n_frag) / 1024,
        "soe.coordinator_kb_per_query": ratio(attr_sum("soe.fragments", "coordinator_bytes"),
                                              n_frag) / 1024,
        "soe.virtual_makespan_ms": ratio(attr_sum("soe.fragments", "virtual_makespan_ns"),
                                         n_frag) / 1e6,
        "soe.retries": attr_sum("soe.fragments", "retries"),
        "soe.failovers": attr_sum("soe.fragments", "failovers"),
        "soe.gather_fallbacks": attr_sum("soe.stmt", "gather_fallback"),
        "soe.commit_ms": mean_ns("soe.commit") / 1e6,
        "trace.overhead_pct": 100 * ratio(untraced - traced, untraced),
    }
    metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}

    lines = ["# traced run: %s seed %s, %d spans in %d statements" % (
        context.get("workload"), context.get("seed"), len(spans),
        len({s["stmt"] for s in spans}))]
    for name, unit, _ in PER_LAYER:
        lines.append("metric %s %.6g %s" % (name, values[name], unit))
    layer_self = defaultdict(int)
    layer_spans = defaultdict(int)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layer_self[layer] += selfs[s["id"]]
        layer_spans[layer] += 1
    total = sum(layer_self.values())
    lines.append("# self time per layer (span time minus child spans):")
    for layer in sorted(layer_self, key=layer_self.get, reverse=True):
        lines.append("#   %-9s %8d spans %12.3f ms %6.1f%%" % (
            layer, layer_spans[layer], layer_self[layer] / 1e6,
            100 * ratio(layer_self[layer], total)))
    lines.append("# ops_per_s untraced %.6g, traced %.6g (%+.2f%% overhead), "
                 "from %d untraced and %d traced operations of the same run" % (
                     untraced, traced, values["trace.overhead_pct"],
                     counters.get("untraced_ops", 0), counters.get("traced_ops", 0)))
    return metrics, lines


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    _, lines = summarize(sys.argv[1])
    print("\n".join(lines))


if __name__ == "__main__":
    main()
