"""Per-layer metrics shared by more than one workload.

Each function reads a finished trace (:class:`spans.Summary`) and returns
``metric name -> value``; a layer the workload never entered reports 0.
"""

from __future__ import annotations

from spans import Summary, med

TEMPLATES = ("point", "conf", "role", "position", "lap", "temporal")
QUERY_KINDS = tuple(f"q_{template}" for template in TEMPLATES)


def query_layers(trace: Summary, records: float) -> dict[str, float]:
    """The COQL path: parse → preprocess → execute → MetadataStore.events →
    BAT.tails. ``records`` is how many records the traced queries returned."""
    kinds = QUERY_KINDS
    queries = trace.ops(kinds)
    tails_calls, tails_seconds, _ = trace.tally("monet.tails", kinds)
    _, _, event_rows = trace.tally("cobra.event_rows", kinds)
    out = {
        "cobra.parse_us": med(trace.durations("cobra.parse", kinds), 1e6),
        "cobra.preprocess_ms": med(trace.durations("cobra.preprocess", kinds), 1e3),
        "cobra.execute_ms": med(trace.durations("cobra.execute", kinds), 1e3),
        "cobra.events_ms": med(trace.durations("cobra.events", kinds), 1e3),
        "cobra.events_calls": len(trace.durations("cobra.events", kinds)) / queries,
        "cobra.rows_per_result": event_rows / records if records else 0.0,
        "monet.tails_calls": tails_calls / queries,
        "monet.tails_ms": tails_seconds * 1e3 / queries,
    }
    for template in TEMPLATES:
        out[f"cobra.q_{template}_ms"] = med(trace.durations(f"op.q_{template}"), 1e3)
    return out


def write_layers(trace: Summary, kinds, register_span: str) -> dict[str, float]:
    """The write path under one registration: BAT inserts, the transaction's
    commit at scope exit, the WAL group commit and its fsyncs."""
    writes = trace.ops(kinds)
    inserts, insert_seconds, _ = trace.tally("monet.insert", kinds)
    fsyncs, fsync_seconds, _ = trace.tally("durability.fsync", kinds)
    commit_fsyncs, _, _ = trace.tally("durability.fsync", kinds, under="durability.commit")
    commits = trace.durations("durability.commit", kinds)
    return {
        "cobra.register_ms": med(trace.durations(register_span, kinds), 1e3),
        "monet.insert_calls": inserts / writes,
        "monet.insert_us": insert_seconds * 1e6 / inserts if inserts else 0.0,
        "monet.txn_commit_ms": med(trace.durations("monet.txn_commit", kinds), 1e3),
        "durability.commit_ms": med(commits, 1e3),
        "durability.fsyncs_per_commit": commit_fsyncs / len(commits) if commits else 0.0,
        "durability.fsyncs_per_write": fsyncs / writes,
        "durability.fsync_ms": fsync_seconds * 1e3 / fsyncs if fsyncs else 0.0,
    }
