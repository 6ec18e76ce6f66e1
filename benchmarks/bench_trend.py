"""Bench-trend gate: diff two benchmark JSON reports in CI.

The scenario-smoke, learned-eviction-smoke and staging-smoke jobs upload
their reports as artifacts on every run; on the next run they download
the previous report and call this script to diff it against the fresh
one.  Three report kinds are understood, dispatched on the reports'
``"kind"`` field (:data:`KINDS`); ``--threshold`` defaults to 20 %:

* **cluster-scenario reports** (``BENCH_cluster_scenario.json``,
  ``"kind": "cluster_scenario"``): per-phase oracle gaps — the
  hit/write-rate distance between the faulted cluster and an idealised
  single cache.  A phase whose absolute gap grew more than
  ``--threshold`` beyond a small absolute slack fails: the commit made
  failover behaviour worse, not the workload.
* **learned-eviction reports** (``BENCH_learned_eviction.json``,
  ``"kind": "learned_eviction"``): Belady-gap closure per capacity
  point.  Replays are seeded and deterministic, so any drop is a real
  behaviour change; a point whose closure fell more than ``--threshold``
  of the baseline closure plus a small absolute slack fails.  Decision
  cost is reported but never gated here — wall-clock on shared runners
  is noise; the bench's own hardware-normalised budget gates it.
* **staging reports** (``BENCH_staging.json``, ``"kind": "staging"``):
  per-capacity-point, per-scheme hit rate and SSD write count for the
  admission head-to-head (no-admission / classifier / flashiness /
  composed).  Deterministic like the eviction bench; a scheme whose hit
  rate fell or whose write count grew beyond the threshold plus a small
  absolute slack fails.  Write amplification and lifetime ride along in
  the step summary but never gate (they follow from the write counts).

Robustness rules, in order:

* **Unknown kind**: a *current* report whose ``kind`` is missing or not
  one of the three exits 2 and names the known kinds — an untagged or
  misspelled report must not pass with an empty table.
* **No baseline** (first run on a branch, expired artifact, download
  failure): print a notice and exit 0 — the gate cannot diff against
  nothing, and failing would block every fresh branch.
* **Kind mismatch** (the baseline is another kind, or none): a pipeline
  change, not a regression — print a notice and exit 0.
* **Disjoint points** (a capacity point, scheme or phase was added or
  removed): only the intersection is compared; additions and removals
  are listed but never fail the gate.
* **Quick-vs-full mismatch**: mode is reported in the table header; the
  numbers are still compared because CI always runs the same mode.

Exit status: 0 = no regression beyond threshold, 1 = regression,
2 = bad invocation (unreadable *current* report, or one of unknown kind).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

__all__ = [
    "KINDS",
    "compare_eviction_reports",
    "compare_scenario_reports",
    "compare_staging_reports",
    "format_eviction_markdown",
    "format_scenario_markdown",
    "format_staging_markdown",
    "main",
]

DEFAULT_THRESHOLD = 0.20

SCENARIO_KIND = "cluster_scenario"
EVICTION_KIND = "learned_eviction"
#: Absolute slack added on top of the relative threshold when gating
#: oracle gaps: a gap moving 0.001 → 0.002 is +100 % relative but pure
#: noise — only growth beyond ``base*(1+threshold) + slack`` fails.
SCENARIO_SLACK = 0.005
#: Absolute closure slack for the learned-eviction gate: quick-mode
#: closures sit near zero (the tiny trace under-trains the head), where
#: a purely relative threshold would flag meaningless wiggles.
EVICTION_SLACK = 0.02
STAGING_KIND = "staging"
#: Absolute hit-rate slack for the staging gate (same rationale as the
#: eviction slack: small quick-mode rates where relative-only gating
#: would flag noise-scale wiggles on intentional workload tweaks).
STAGING_HIT_SLACK = 0.02
#: Absolute write-count slack: a handful of writes moving on a tiny
#: quick-mode trace is a workload detail, not an admission regression.
STAGING_WRITE_SLACK = 16


def compare_scenario_reports(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    slack: float = SCENARIO_SLACK,
) -> dict:
    """Diff per-phase oracle gaps between two cluster-scenario reports.

    Phases are matched by position (the reference scenario is stable, so
    position ≙ identity); a current run with more/fewer phases than the
    baseline compares the common prefix and reports the difference
    without failing.  For each phase and each of ``hit_gap``/``write_gap``
    the *absolute* gap is compared: regression when
    ``current > baseline * (1 + threshold) + slack``.
    """
    b_phases = baseline.get("phases", [])
    c_phases = current.get("phases", [])
    rows = []
    regressions = []
    for b, c in zip(b_phases, c_phases):
        for metric in ("hit_gap", "write_gap"):
            bv, cv = b.get(metric), c.get(metric)
            if bv is None or cv is None:
                continue
            b_abs, c_abs = abs(bv), abs(cv)
            regressed = c_abs > b_abs * (1 + threshold) + slack
            label = f"phase{b.get('index', '?')}:{metric}"
            rows.append(
                {
                    "phase": b.get("index"),
                    "metric": metric,
                    "active": ", ".join(c.get("active", [])) or "steady",
                    "baseline": b_abs,
                    "current": c_abs,
                    "regressed": regressed,
                }
            )
            if regressed:
                regressions.append(label)
    return {
        "rows": rows,
        "regressions": regressions,
        "threshold": threshold,
        "slack": slack,
        "phase_count_delta": len(c_phases) - len(b_phases),
        "baseline_equal": current.get("baseline_equal"),
    }


def format_scenario_markdown(result: dict) -> str:
    """GitHub-flavoured markdown for the scenario oracle-gap trend."""
    lines = [
        "## Cluster-scenario oracle-gap trend",
        "",
        f"Threshold: gap > baseline × **{1 + result['threshold']:.2f}** + "
        f"{result['slack']:.3f} absolute slack fails.",
        "",
        "| phase | metric | active | baseline | current | status |",
        "|---:|---|---|---:|---:|---|",
    ]
    for row in result["rows"]:
        status = "REGRESSION" if row["regressed"] else "ok"
        lines.append(
            f"| {row['phase']} | {row['metric']} | {row['active']} "
            f"| {row['baseline']:.4f} | {row['current']:.4f} | {status} |"
        )
    if not result["rows"]:
        lines.append("| _no comparable phases_ | | | | | |")
    if result["phase_count_delta"]:
        lines += ["", f"Phase count changed by {result['phase_count_delta']:+d} "
                  "(scenario shape changed; only the common prefix compared)."]
    if result.get("baseline_equal") is False:
        lines += ["", "**Note**: the current report's pristine phases did not "
                  "match its failure-free baseline (the benchmark itself "
                  "fails on this)."]
    if result["regressions"]:
        lines += ["", "**FAILED** — oracle gap regressed: "
                  + ", ".join(f"`{r}`" for r in result["regressions"])]
    else:
        lines += ["", "No phase's oracle gap regressed beyond the threshold."]
    return "\n".join(lines)


def compare_eviction_reports(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    slack: float = EVICTION_SLACK,
) -> dict:
    """Diff per-capacity-point Belady-gap closure between two reports.

    Points are matched by capacity fraction (the paper's grid is stable).
    A point regresses when its closure *fell* below
    ``baseline - max(threshold * |baseline|, slack)`` — relative for the
    meaningful full-mode closures, absolute slack for the near-zero
    quick-mode ones.  Decision cost rides along in the rows for the step
    summary but never regresses the gate (wall-clock on shared runners).
    """
    b_points = {round(p["fraction"], 6): p for p in baseline.get("points", [])}
    c_points = {round(p["fraction"], 6): p for p in current.get("points", [])}
    shared = sorted(set(b_points) & set(c_points))
    rows = []
    regressions = []
    for frac in shared:
        b, c = b_points[frac], c_points[frac]
        bv, cv = b["gap_closure"], c["gap_closure"]
        floor = bv - max(threshold * abs(bv), slack)
        regressed = cv < floor
        rows.append(
            {
                "fraction": frac,
                "baseline_closure": bv,
                "current_closure": cv,
                "baseline_ns": b.get("mean_decision_ns"),
                "current_ns": c.get("mean_decision_ns"),
                "regressed": regressed,
            }
        )
        if regressed:
            regressions.append(f"frac={frac:g}")
    return {
        "rows": rows,
        "added": sorted(set(c_points) - set(b_points)),
        "removed": sorted(set(b_points) - set(c_points)),
        "regressions": regressions,
        "threshold": threshold,
        "slack": slack,
        "mean_closure": {
            "baseline": baseline.get("mean_gap_closure"),
            "current": current.get("mean_gap_closure"),
        },
        "modes": {
            "baseline": "quick" if baseline.get("quick") else "full",
            "current": "quick" if current.get("quick") else "full",
        },
    }


def format_eviction_markdown(result: dict) -> str:
    """GitHub-flavoured markdown for the Belady-gap-closure trend."""
    modes = result["modes"]
    lines = [
        "## Learned-eviction closure trend",
        "",
        f"Threshold: closure below baseline − "
        f"max(**{100 * result['threshold']:.0f}%**, {result['slack']:.2f} "
        f"absolute) fails (baseline: {modes['baseline']} mode, current: "
        f"{modes['current']} mode).",
        "",
        "| capacity frac | baseline closure | current closure | "
        "decision ns | status |",
        "|---:|---:|---:|---:|---|",
    ]
    for row in result["rows"]:
        status = "REGRESSION" if row["regressed"] else "ok"
        ns = row["current_ns"]
        ns_cell = f"{ns:,.0f}" if ns is not None else "—"
        lines.append(
            f"| {row['fraction']:g} | {row['baseline_closure']:+.3f} "
            f"| {row['current_closure']:+.3f} | {ns_cell} | {status} |"
        )
    if not result["rows"]:
        lines.append("| _no shared capacity points_ | | | | |")
    mc = result["mean_closure"]
    if mc["baseline"] is not None and mc["current"] is not None:
        lines += ["", f"Mean closure: {mc['baseline']:+.3f} → "
                  f"{mc['current']:+.3f}"]
    if result["added"]:
        lines += ["", "New capacity points (no baseline): "
                  + ", ".join(f"{f:g}" for f in result["added"])]
    if result["removed"]:
        lines += ["", "Dropped capacity points: "
                  + ", ".join(f"{f:g}" for f in result["removed"])]
    if result["regressions"]:
        lines += ["", "**FAILED** — Belady-gap closure regressed: "
                  + ", ".join(f"`{r}`" for r in result["regressions"])]
    else:
        lines += ["", "No capacity point's closure regressed beyond the "
                  "threshold."]
    return "\n".join(lines)


def compare_staging_reports(
    baseline: dict,
    current: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    hit_slack: float = STAGING_HIT_SLACK,
    write_slack: int = STAGING_WRITE_SLACK,
) -> dict:
    """Diff per-point, per-scheme hit rate and writes between reports.

    Points are matched by capacity fraction, schemes by name; schemes or
    points present on only one side are listed but never fail the gate.
    A (point, scheme) pair regresses when its hit rate fell below
    ``baseline - max(threshold * baseline, hit_slack)`` or its SSD write
    count grew beyond ``baseline * (1 + threshold) + write_slack`` — the
    admission schemes exist to *avoid* writes, so write growth is as
    much a regression as hit-rate loss.
    """
    b_points = {round(p["fraction"], 6): p for p in baseline.get("points", [])}
    c_points = {round(p["fraction"], 6): p for p in current.get("points", [])}
    shared = sorted(set(b_points) & set(c_points))
    rows = []
    regressions = []
    for frac in shared:
        b_schemes = b_points[frac].get("schemes", {})
        c_schemes = c_points[frac].get("schemes", {})
        for scheme in sorted(set(b_schemes) & set(c_schemes)):
            b, c = b_schemes[scheme], c_schemes[scheme]
            hit_floor = b["hit_rate"] - max(
                threshold * b["hit_rate"], hit_slack
            )
            write_ceiling = b["ssd_writes"] * (1 + threshold) + write_slack
            hit_regressed = c["hit_rate"] < hit_floor
            write_regressed = c["ssd_writes"] > write_ceiling
            rows.append(
                {
                    "fraction": frac,
                    "scheme": scheme,
                    "baseline_hit_rate": b["hit_rate"],
                    "current_hit_rate": c["hit_rate"],
                    "baseline_writes": b["ssd_writes"],
                    "current_writes": c["ssd_writes"],
                    "baseline_wa": b.get("write_amplification"),
                    "current_wa": c.get("write_amplification"),
                    "regressed": hit_regressed or write_regressed,
                }
            )
            if hit_regressed:
                regressions.append(f"frac={frac:g}:{scheme}:hit_rate")
            if write_regressed:
                regressions.append(f"frac={frac:g}:{scheme}:writes")
    return {
        "rows": rows,
        "added": sorted(set(c_points) - set(b_points)),
        "removed": sorted(set(b_points) - set(c_points)),
        "regressions": regressions,
        "threshold": threshold,
        "hit_slack": hit_slack,
        "write_slack": write_slack,
        "violations": {
            "baseline": baseline.get("violations"),
            "current": current.get("violations"),
        },
        "modes": {
            "baseline": "quick" if baseline.get("quick") else "full",
            "current": "quick" if current.get("quick") else "full",
        },
    }


def format_staging_markdown(result: dict) -> str:
    """GitHub-flavoured markdown for the staging head-to-head trend."""
    modes = result["modes"]
    lines = [
        "## Staging admission trend",
        "",
        f"Threshold: hit rate below baseline − "
        f"max(**{100 * result['threshold']:.0f}%**, "
        f"{result['hit_slack']:.2f} absolute) or writes above baseline × "
        f"**{1 + result['threshold']:.2f}** + {result['write_slack']} fails "
        f"(baseline: {modes['baseline']} mode, current: {modes['current']} "
        "mode).",
        "",
        "| capacity frac | scheme | baseline hit | current hit | "
        "baseline writes | current writes | status |",
        "|---:|---|---:|---:|---:|---:|---|",
    ]
    for row in result["rows"]:
        status = "REGRESSION" if row["regressed"] else "ok"
        lines.append(
            f"| {row['fraction']:g} | `{row['scheme']}` "
            f"| {row['baseline_hit_rate']:.4f} "
            f"| {row['current_hit_rate']:.4f} "
            f"| {row['baseline_writes']:,} | {row['current_writes']:,} "
            f"| {status} |"
        )
    if not result["rows"]:
        lines.append("| _no shared capacity points_ | | | | | | |")
    if result["added"]:
        lines += ["", "New capacity points (no baseline): "
                  + ", ".join(f"{f:g}" for f in result["added"])]
    if result["removed"]:
        lines += ["", "Dropped capacity points: "
                  + ", ".join(f"{f:g}" for f in result["removed"])]
    if result["violations"].get("current"):
        lines += ["", "**Note**: the current report carries composition-"
                  "contract violations (the benchmark itself fails on this)."]
    if result["regressions"]:
        lines += ["", "**FAILED** — staging scheme regressed: "
                  + ", ".join(f"`{r}`" for r in result["regressions"])]
    else:
        lines += ["", "No scheme's hit rate or write count regressed beyond "
                  "the threshold."]
    return "\n".join(lines)


#: ``kind`` → (comparator, markdown formatter).
KINDS = {
    SCENARIO_KIND: (compare_scenario_reports, format_scenario_markdown),
    EVICTION_KIND: (compare_eviction_reports, format_eviction_markdown),
    STAGING_KIND: (compare_staging_reports, format_staging_markdown),
}


def _load(path: str) -> dict | None:
    p = Path(path)
    if not p.is_file():
        return None
    try:
        return json.loads(p.read_text())
    except (json.JSONDecodeError, OSError):
        return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description="Diff two benchmark reports of one kind ("
        + ", ".join(KINDS) + ") and fail on regressions."
    )
    ap.add_argument("--baseline", required=True,
                    help="previous run's report (may be missing)")
    ap.add_argument("--current", required=True,
                    help="this run's report")
    ap.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                    help="fractional regression that fails (default: 0.20)")
    ap.add_argument("--summary", default=None,
                    help="append the markdown table to this file (e.g. "
                         "$GITHUB_STEP_SUMMARY); defaults to the "
                         "GITHUB_STEP_SUMMARY env var when set")
    args = ap.parse_args(argv)

    current = _load(args.current)
    if current is None:
        print(f"cannot read current report {args.current!r}", file=sys.stderr)
        return 2
    cur_kind = current.get("kind")
    if cur_kind not in KINDS:
        print(f"current report {args.current!r} has kind {cur_kind!r}; "
              f"known kinds: {', '.join(KINDS)}", file=sys.stderr)
        return 2

    baseline = _load(args.baseline)
    summary_path = args.summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if baseline is None:
        msg = (f"no baseline report at {args.baseline!r} — first run on this "
               "branch or expired artifact; trend gate skipped")
    elif baseline.get("kind") != cur_kind:
        msg = (f"report kinds differ (baseline={baseline.get('kind')!r}, "
               f"current={cur_kind!r}) — trend gate skipped")
    else:
        msg = None
    if msg is not None:
        print(msg)
        if summary_path:
            with open(summary_path, "a") as fh:
                fh.write(f"## Bench trend\n\n{msg}\n")
        return 0

    compare, format_markdown = KINDS[cur_kind]
    result = compare(baseline, current, threshold=args.threshold)
    table = format_markdown(result)
    print(table)
    if summary_path:
        with open(summary_path, "a") as fh:
            fh.write(table + "\n")
    return 1 if result["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
