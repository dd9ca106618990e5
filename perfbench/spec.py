"""What each metric says, and which end-to-end metric a layer should move.

``BENCHMARK.json`` at the repository root names every metric with its
unit and direction; its schema has no room for a layer metric's
*target*, so the targets live here and the report prints them.  A target
names the end-to-end metric and the workload(s) a change to that layer
should move; "none" marks a workload on which the prediction is no
change.  Per-layer times are medians over the traced query operations
(writes for ``pxml.spine_splice_s``); span-derived times are self times
except the inclusive rewrite phases.
"""

TARGETS = {
    # End to end, measured with tracing off (--trace 0), in CPU seconds
    # at the reference speed (see measure.py)
    "qps": "verified query answers per second of operation time",
    "latency_p50_s": "median time of a query operation",
    "latency_tail_s":
        "nearest-rank p75 of the query operations (a run makes >= 40, so "
        ">= 10 lie beyond it)",
    "setup_s":
        "median of 3 set-ups: everything before the first timed operation",
    "peak_rss_mb": "peak resident memory of the workload's process",
    # repro.pxml
    "pxml.parse_s": "latency_p50_s @ disk-restart",
    "pxml.digest_index_s":
        "latency_p50_s @ disk-restart (structural + anchor index)",
    "pxml.spine_splice_s": "pxml.write_p50_s @ churn",
    "pxml.write_p50_s":
        "churn only: edit + mark_mutated(node), untraced, CPU time "
        "(not scaled)",
    # repro.tp
    "tp.parse_s": "latency_p50_s @ all workloads",
    "tp.candidates_s": "latency_p50_s @ disk-restart; none @ view-cache",
    "tp.candidates_share": "latency_p50_s @ disk-restart, churn",
    # repro.prob / repro.probability
    "prob.traversal_s": "latency_p50_s @ disk-restart, churn",
    "prob.refresh_s": "latency_p50_s @ churn",
    "prob.node_visits": "latency_p50_s @ all",
    "prob.memo_hits": "latency_p50_s @ all",
    "prob.memo_misses": "latency_p50_s @ all",
    "prob.neutral_skips": "latency_p50_s @ all",
    "prob.subtree_skips": "latency_p50_s @ all",
    "prob.spine_refreshes": "latency_p50_s @ churn",
    "prob.survived_local": "latency_p50_s @ churn",
    "prob.cold_latency_s":
        "disk-restart comparator: cold in-memory batch, traced",
    "prob.cold_traversal_s":
        "disk-restart comparator: its traversal self time",
    # repro.store
    "store.open_s": "latency_p50_s @ disk-restart; setup_s @ churn",
    "store.close_s": "latency_p50_s @ disk-restart, churn",
    "store.prefetch_s":
        "latency_p50_s @ disk-restart, churn; none @ view-cache",
    "store.hits": "latency_p50_s @ disk-restart, churn",
    "store.misses": "latency_p50_s @ disk-restart, churn",
    "store.puts": "latency_p50_s @ disk-restart, churn",
    "store.hit_ratio": "latency_p50_s @ disk-restart, churn",
    "store.prefetch_keys":
        "latency_p50_s @ disk-restart, churn; none @ view-cache",
    "store.sql_statements":
        "latency_p50_s @ disk-restart, churn (finding: bulk vs per-key)",
    "store.flushes": "latency_p50_s @ churn",
    "store.survived_entries": "latency_p50_s @ churn",
    "store.bytes_per_entry":
        "disk-restart, churn: SQLite file bytes / entries at run end",
    "store.perkey_latency_s":
        "disk-restart comparator: the restart with bulk_store=False",
    "store.perkey_sql_statements":
        "disk-restart comparator: its SQL statements",
    # repro.views / repro.rewrite / repro.cache
    "views.extension_build_s": "setup_s @ view-cache",
    "rewrite.first_pass_s": "setup_s @ view-cache",
    "rewrite.decide_s": "latency_p50_s @ view-cache",
    "rewrite.plan_s": "latency_p50_s @ view-cache",
    "rewrite.t1_numerators_s": "latency_p50_s @ view-cache",
    "rewrite.t1_denominators_s": "latency_p50_s @ view-cache",
    "rewrite.t2_alpha_s": "latency_p50_s @ view-cache",
    "rewrite.source_single": "latency_p50_s @ view-cache",
    "rewrite.source_multi": "latency_p50_s @ view-cache",
    "rewrite.source_direct": "latency_p50_s @ view-cache",
    "rewrite.direct_equiv_s":
        "§7 comparator @ view-cache: same batch, fresh base session",
    "rewrite.tpi_product_s":
        "§7 comparator @ view-cache: tpi_rewrite + evaluate()",
    # repro.obs
    "obs.trace_overhead": "traced latency_p50_s / untraced - 1, per workload",
    # Named ROADMAP findings: ratios over 5 interleaved comparator rounds
    "finding.cold_candidates_share":
        "disk-restart comparator: candidate generation's share of a cold "
        "in-memory batch",
    "finding.restart_over_cold":
        "disk-restart latency / cold in-memory batch (warm-from-disk x1.2)",
    "finding.restart_traversal_over_cold":
        "disk-restart traversal self time (0 misses) / cold batch's",
    "finding.bulk_over_perkey":
        "disk-restart bulk probing / per-key probing latency",
}
