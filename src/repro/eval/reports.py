"""Plain-text report tables mirroring the paper's tables.

Renderers take measured results (plus the paper's published numbers where
available) and produce aligned ASCII tables, used by the benchmark
harness and recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from ..datasets.tasks import TASKS
from ..obs import format_span_tree

__all__ = [
    "format_table",
    "render_table3",
    "render_table4",
    "render_edge_report",
    "render_profile_report",
    "render_faults_report",
    "render_alert_report",
    "render_slo_report",
    "aggregate_fold_metrics",
]


def format_table(headers, rows, title=None) -> str:
    """Render a list-of-rows table with aligned columns."""
    rendered = [[str(h) for h in headers]] + [
        [str(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in rendered) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(rendered[0], widths)))
    lines.append(sep)
    for row in rendered[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def aggregate_fold_metrics(fold_results) -> dict:
    """Average accuracy/precision/recall/F1 over CV folds (as percentages)."""
    keys = ("accuracy", "precision", "recall", "f1")
    return {
        k: 100.0 * float(np.mean([fr.metrics[k] for fr in fold_results]))
        for k in keys
    }


#: Paper Table III values: {window_ms: {model: (acc, prec, rec, f1)}} (%).
PAPER_TABLE3 = {
    200: {
        "MLP": (96.76, 51.24, 50.00, 49.18),
        "LSTM": (97.28, 80.92, 68.62, 72.98),
        "ConvLSTM2D": (97.12, 81.24, 61.61, 66.37),
        "CNN (Proposed)": (97.93, 85.61, 78.85, 81.75),
    },
    300: {
        "MLP": (96.62, 53.02, 55.39, 54.13),
        "LSTM": (97.43, 82.51, 72.08, 75.93),
        "ConvLSTM2D": (97.21, 83.67, 63.55, 68.53),
        "CNN (Proposed)": (98.01, 86.38, 80.03, 82.85),
    },
    400: {
        "MLP": (96.45, 60.23, 54.63, 54.25),
        "LSTM": (97.60, 85.97, 75.74, 79.81),
        "ConvLSTM2D": (97.10, 85.57, 65.36, 70.75),
        "CNN (Proposed)": (98.28, 90.40, 83.95, 86.69),
    },
}

#: Paper Table IVa (falls missed, %) and IVb (ADL false positives, %).
PAPER_TABLE4_FALL_MISS = {
    39: 16.00, 40: 12.00, 21: 9.47, 22: 8.42, 41: 8.00, 33: 6.95, 27: 5.35,
    29: 4.42, 37: 4.00, 42: 4.00, 30: 3.85, 31: 3.37, 32: 3.17, 28: 2.73,
    34: 2.72, 26: 2.19, 23: 2.17, 24: 1.61, 25: 1.60, 20: 1.60, 38: 0.00,
}
PAPER_TABLE4_ADL_FP = {
    44: 20.00, 15: 11.29, 19: 6.74, 4: 6.35, 5: 2.16, 10: 2.13, 14: 1.63,
    8: 1.62, 18: 1.10, 9: 0.56, 16: 0.56, 3: 0.54, 1: 0.00, 2: 0.00, 6: 0.00,
    7: 0.00, 11: 0.00, 12: 0.00, 13: 0.00, 17: 0.00, 35: 0.00, 36: 0.00,
    43: 0.00,
}
PAPER_TABLE4_SUMMARY = {"fall_miss": 4.17, "adl_fp": 2.04,
                        "red_fp": 3.34, "green_fp": 0.46}


def render_table3(measured: dict, title="Table III") -> str:
    """``measured``: {window_ms: {model: metrics-%-dict}} -> ASCII table."""
    headers = ["Model", "WS (ms)",
               "Acc (meas/paper)", "Prec (meas/paper)",
               "Rec (meas/paper)", "F1 (meas/paper)"]
    rows = []
    for window in sorted(measured):
        for model, metrics in measured[window].items():
            paper = PAPER_TABLE3.get(window, {}).get(model)
            cells = []
            for i, key in enumerate(("accuracy", "precision", "recall", "f1")):
                got = f"{metrics[key]:6.2f}"
                ref = f"{paper[i]:6.2f}" if paper else "   n/a"
                cells.append(f"{got} / {ref}")
            rows.append([model, window, *cells])
    return format_table(headers, rows, title=title)


def render_table4(event_report, title="Table IV") -> str:
    """Event-level per-task table with the paper's numbers alongside."""
    rows = []
    miss = event_report.per_task_miss()
    for tid in sorted(miss, key=lambda t: -miss[t]):
        paper = PAPER_TABLE4_FALL_MISS.get(tid)
        rows.append(
            [f"T{tid:02d}", "fall missed", f"{miss[tid]:6.2f}",
             f"{paper:6.2f}" if paper is not None else "   n/a",
             TASKS[tid].description[:48]]
        )
    fp = event_report.per_task_false_positive()
    for tid in sorted(fp, key=lambda t: -fp[t]):
        paper = PAPER_TABLE4_ADL_FP.get(tid)
        rows.append(
            [f"T{tid:02d}", "ADL false pos", f"{fp[tid]:6.2f}",
             f"{paper:6.2f}" if paper is not None else "   n/a",
             TASKS[tid].description[:48]]
        )
    rg = event_report.red_green_false_positive()
    rows.append(["all", "falls missed", f"{event_report.fall_miss_rate:6.2f}",
                 f"{PAPER_TABLE4_SUMMARY['fall_miss']:6.2f}", "average"])
    rows.append(["all", "ADL false pos",
                 f"{event_report.adl_false_positive_rate:6.2f}",
                 f"{PAPER_TABLE4_SUMMARY['adl_fp']:6.2f}", "average"])
    rows.append(["red", "ADL false pos", f"{rg['red']:6.2f}",
                 f"{PAPER_TABLE4_SUMMARY['red_fp']:6.2f}",
                 "unconventional ADLs"])
    rows.append(["green", "ADL false pos", f"{rg['green']:6.2f}",
                 f"{PAPER_TABLE4_SUMMARY['green_fp']:6.2f}", "everyday ADLs"])
    return format_table(
        ["Task", "Kind", "Measured %", "Paper %", "Description"], rows,
        title=title,
    )


#: Paper Section IV-C deployment figures.
PAPER_EDGE = {"flash_kib": 67.03, "ram_kib": 16.87, "latency_ms": 4.0,
              "fusion_ms": 3.0}


def render_edge_report(report: dict, title="On-edge deployment") -> str:
    """Footprint/latency table with the paper's measurements alongside."""
    rows = [
        ["model flash", f"{report['flash_kib']:.2f} KiB",
         f"{PAPER_EDGE['flash_kib']:.2f} KiB"],
        ["activation RAM", f"{report['ram_kib']:.2f} KiB",
         f"{PAPER_EDGE['ram_kib']:.2f} KiB"],
        ["inference latency", f"{report['latency_ms']:.2f} ms",
         f"{PAPER_EDGE['latency_ms']:.1f} ms"],
        ["sensor fusion", f"{report.get('fusion_ms', 0.0):.2f} ms",
         f"{PAPER_EDGE['fusion_ms']:.1f} ms"],
    ]
    energy = report.get("energy")
    if energy:
        rows.append(["energy / inference",
                     f"{energy['inference_energy_uj']:.0f} uJ",
                     "not reported"])
        rows.append(["mean detector power",
                     f"{energy['mean_power_mw']:.2f} mW",
                     "not reported"])
    return format_table(["Quantity", "Measured (model)", "Paper (STM32F722)"],
                        rows, title=title)


def render_profile_report(result: dict, title="Profile report") -> str:
    """Paper-vs-measured view of a ``run_profile_workload`` result.

    Three blocks: the span tree (per-stage wall-clock totals), the
    detector's per-window inference latency histogram summary against the
    real-time deadline, and the airbag-margin statistics against the
    paper's 150 ms inflation budget / 4 ms STM32F722 inference latency.
    """
    latency = result["latency"]
    margin = result["margin"]
    lines = [title, ""]
    lines.append(format_span_tree(result["records"],
                                  title="Span tree (per-stage totals)"))
    lines.append("")
    latency_rows = [
        ["window inferences", f"{latency['inferences']}", "-"],
        ["latency p50", f"{latency['p50_ms']:8.3f} ms",
         f"{PAPER_EDGE['latency_ms']:.1f} ms"],
        ["latency p95", f"{latency['p95_ms']:8.3f} ms", "-"],
        ["latency p99", f"{latency['p99_ms']:8.3f} ms", "-"],
        ["latency max", f"{latency['max_ms']:8.3f} ms", "-"],
        ["deadline", f"{latency['deadline_ms']:8.3f} ms", "hop interval"],
        ["deadline violations",
         f"{latency['violations']} ({100 * latency['violation_rate']:.2f} %)",
         "0 expected"],
    ]
    lines.append(format_table(
        ["Quantity", "Measured", "Paper (STM32F722)"], latency_rows,
        title="Detector inference latency (per 400 ms window)",
    ))
    lines.append("")
    block = result.get("block")
    int8 = result.get("int8")
    if block is not None:
        blk = block["latency"]
        arms = [latency, blk]
        headers = ["Quantity", "push (1-row blocks)", "push_block (vectorized)"]
        detections = [result["stream_detections"], block["detections"]]
        if int8 is not None:
            arms.append(int8["latency"])
            headers.append("push_block (int8)")
            detections.append(int8["detections"])
        block_rows = [
            ["window inferences"] + [f"{a['inferences']}" for a in arms],
            ["latency p50"] + [f"{a['p50_ms']:8.3f} ms" for a in arms],
            ["latency p99"] + [f"{a['p99_ms']:8.3f} ms" for a in arms],
            ["deadline violations"] + [f"{a['violations']}" for a in arms],
            ["detections"] + [f"{d}" for d in detections],
        ]
        lines.append(format_table(
            headers, block_rows,
            title="Serving paths (same stream, hop-sized blocks)",
        ))
        lines.append("")
    if int8 is not None:
        op_rows = [
            [row["name"], row["kind"], f"{row['macs']}",
             f"{row['weight_bytes']}", f"{row['bias_bytes']}"]
            for row in int8["table"]
        ]
        op_rows.append(["total", "-", f"{int8['macs']}",
                        f"{int8['weight_bytes']}", "-"])
        lines.append(format_table(
            ["Op", "Kind", "MACs", "Weight B", "Bias B"], op_rows,
            title="Lowered int8 graph (per-op cost)",
        ))
        lines.append("")
    margin_rows = [
        ["inflation budget", f"{margin['inflation_budget_ms']:8.1f} ms",
         "150 ms"],
        ["reaction p50 (inflate + infer)",
         f"{margin['reaction_p50_ms']:8.3f} ms", "~154 ms"],
        ["reaction p99 (inflate + infer)",
         f"{margin['reaction_p99_ms']:8.3f} ms", "-"],
        ["deadline headroom at p99",
         f"{margin['budget_headroom_ms']:8.3f} ms", "-"],
    ]
    lines.append(format_table(
        ["Quantity", "Measured", "Paper"], margin_rows,
        title="Airbag margin (150 ms budget)",
    ))
    lines.append("")
    lines.append(
        f"workload: scale={result['scale']}  "
        f"epochs_trained={result['epochs_trained']}  "
        f"train_segments={result['train_segments']}  "
        f"stream_detections={result['stream_detections']}"
    )
    return "\n".join(lines)


def render_faults_report(results: dict, title="Fault-scenario robustness") -> str:
    """Clean-vs-faulted comparison table from ``run_fault_scenarios``.

    One row per scenario with event-level sensitivity / false-alarm rate,
    their deltas against the clean baseline, the worst health state the
    detector reached, and the headline anomaly counters.
    """

    def _fmt_rate(value):
        return "-" if value != value else f"{value:6.1f}"  # NaN-safe

    def _fmt_delta(value, clean):
        if value != value or clean != clean:
            return "-"
        return f"{value - clean:+6.1f}"

    clean = results["clean"]
    rows = []
    for name, stats in [("clean", clean)] + sorted(
        results["scenarios"].items()
    ):
        worst = stats["states_seen"][-1] if stats["states_seen"] else "-"
        for state in ("fault", "degraded", "healthy"):
            if state in stats["states_seen"]:
                worst = state
                break
        rows.append([
            name,
            f"{stats['falls_detected']}/{stats['falls']}",
            _fmt_rate(stats["sensitivity"]),
            "-" if name == "clean" else _fmt_delta(
                stats["sensitivity"], clean["sensitivity"]),
            _fmt_rate(stats["false_alarm_rate"]),
            "-" if name == "clean" else _fmt_delta(
                stats["false_alarm_rate"], clean["false_alarm_rate"]),
            worst,
            f"{stats['repaired_samples']}",
            f"{stats['gap_filled_samples']}",
            f"{stats['stream_resets']}",
            f"{stats['fallback_detections']}",
            f"{stats['deadline_violations']}",
        ])
    table = format_table(
        ["Scenario", "Falls", "Sens %", "ΔSens", "ADL FP %", "ΔFP",
         "Worst health", "Repaired", "Gap-fill", "Resets", "Fallback",
         "Deadline viol."],
        rows, title=title,
    )
    footer = (
        f"stream subject: {results['stream_subject']}  "
        f"recordings: {results['recordings']}  "
        f"detector mode: {results['mode']}"
    )
    return f"{table}\n{footer}"


def render_slo_report(results: dict,
                      title="SLOs and latency-budget attribution") -> str:
    """Budget-attribution + error-budget view from ``run_slo_eval``.

    Two tables: how the airbag's latency budget splits across the
    pipeline stages (clean condition; stages sum to the measured
    end-to-end by construction), then per-condition error-budget status
    and the burn-rate alerts each condition drove through the alert
    manager — the synthetic overload condition is the one expected to
    page.
    """
    budget = results["latency_budget_ms"]
    lines = [title, ""]
    clean = results["conditions"]["clean"]
    attribution = clean.get("attribution")
    if attribution:
        rows = [
            [row["stage"], f"{row['mean_ms']:8.4f}", f"{row['p99_ms']:8.4f}",
             f"{100 * row['share_of_e2e']:6.2f}",
             f"{100 * row['share_of_budget']:6.3f}"]
            for row in attribution
        ]
        e2e = clean["stage_report"]["e2e"]
        rows.append(["e2e (sum)", f"{e2e['mean']:8.4f}",
                     f"{e2e['p99']:8.4f}", f"{100.0:6.2f}",
                     f"{100 * e2e['mean'] / budget:6.3f}"])
        lines.append(format_table(
            ["Stage", "mean ms", "p99 ms", "% of e2e", "% of budget"],
            rows,
            title=f"Attribution of the {budget:g} ms budget "
                  f"(clean, per window)",
        ))
        lines.append("")
        shares = ", ".join(
            f"{row['stage']} {100 * row['share_of_budget']:.3f}%"
            for row in attribution
        )
        lines.append(f"{budget:g} ms budget: {shares}")
        lines.append("")
    rows = []
    for name, stats in results["conditions"].items():
        latency = stats["objectives"]["window_latency_p99"]
        deadline = stats["objectives"]["deadline_miss"]
        rows.append([
            name,
            f"{stats['windows']}",
            f"{100 * latency['bad_fraction']:6.2f}",
            f"{100 * latency['budget_remaining']:+7.1f}",
            f"{100 * deadline['bad_fraction']:6.2f}",
            f"{stats['alerts_raised']}",
            f"{stats['alerts_resolved']}",
            ",".join(stats["burning"]) or "-",
        ])
    lines.append(format_table(
        ["Condition", "Windows", ">budget %", "Budget left %",
         "Deadline miss %", "Raised", "Resolved", "Burning"],
        rows, title="Error-budget status by condition",
    ))
    rules = ", ".join(
        f"{name} {rule['threshold']:g}x over {rule['short_window_s']:g}s/"
        f"{rule['long_window_s']:g}s -> {rule['severity']}"
        for name, rule in results["rules"].items()
    )
    lines.append(
        f"fleet: {results['n_streams']} streams "
        f"({results['faulted_streams']} faulted), "
        f"{results['duration_s']:.0f} s  overload charge: "
        f"{results['overload_latency_ms']:g} ms/batch  rules: {rules}"
    )
    return "\n".join(lines)


def render_alert_report(results: dict,
                        title="Alert-pipeline behaviour by scenario") -> str:
    """Per-scenario alert lifecycle table from ``run_alert_eval``.

    One row per condition: raw detections, alerts raised split by
    severity, and the dedup / expiry / auto-resolve counters that show
    the pipeline absorbing false-positive bursts instead of paging on
    every spike.  The clean baseline rides first.
    """
    rows = []
    for name, stats in [("clean", results["clean"])] + sorted(
        results["scenarios"].items()
    ):
        store = stats["store_events"]
        rows.append([
            name,
            f"{stats['detections']}",
            f"{stats['raised']}",
            f"{stats['critical']}",
            f"{stats['suspect']}",
            f"{stats['deduped']}",
            f"{stats['expired']}",
            f"{stats['resolved']}",
            ",".join(stats["alert_streams"]) or "-",
            "-" if store is None else f"{store}",
        ])
    table = format_table(
        ["Scenario", "Detect", "Raised", "Crit", "Susp", "Dedup",
         "Expired", "Resolved", "Alerting streams", "Store ev."],
        rows, title=title,
    )
    policy = results["policy"]
    footer = (
        f"fleet: {results['n_streams']} streams "
        f"({results['faulted_streams']} faulted), "
        f"{results['duration_s']:.0f} s  policy: confirm "
        f"{policy['confirm_detections']} in {policy['confirm_window_s']}s, "
        f"auto-resolve {policy['auto_resolve_s']}s, "
        f"dedup {policy['dedup_horizon_s']}s"
    )
    return f"{table}\n{footer}"
