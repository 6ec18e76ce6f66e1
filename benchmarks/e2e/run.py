#!/usr/bin/env python3
"""One end-to-end + per-layer benchmark for the served node and the offline
replay.  See README.md beside this file for every definition.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --sets 2            # same code twice, interleaved
    python3 benchmarks/e2e/run.py --out a.json        # keep a set for --compare
    python3 benchmarks/e2e/run.py --compare a.json b.json

Each workload's input is generated from ``--seed``, the program under test
runs in a fresh child process, outputs are checked for correctness, every
metric is printed by name with its unit, and the last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

import e2e_common as C

for _key in C.THREAD_ENV:          # before numpy is imported anywhere
    os.environ[_key] = "1"

SETUP_SPAWNS = 5                   # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170.0


# ----------------------------------------------------------------- children


class Child:
    """A fresh ``e2e_child.py`` process speaking JSON lines."""

    def __init__(self, workload: str, seed: int, objects: int, *flags: str):
        cmd = [
            sys.executable, str(C.HERE / "e2e_child.py"),
            "--workload", workload, "--seed", str(seed), "--objects", str(objects),
            *flags,
        ]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=C.ROOT, env=C.child_env(), stdout=subprocess.PIPE, text=True
        )

    def read(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            code = self.proc.wait()
            raise RuntimeError(f"child ended (exit {code}) before {event!r}")
        msg = json.loads(line)
        if msg.get("event") != event:
            raise RuntimeError(f"child said {msg.get('event')!r}, expected {event!r}")
        return msg

    def ready(self) -> tuple[float, dict]:
        """(spawn-to-ready seconds, set-up stage timings)."""
        msg = self.read("ready")
        return time.perf_counter() - self.t_spawn, msg["stages"]

    def finish(self) -> None:
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"child exited with {self.proc.returncode}")


def traced_child(workload: str, seed: int, objects: int) -> dict:
    """The ``result`` message of a fresh ``--traced`` child."""
    child = Child(workload, seed, objects, "--traced")
    try:
        child.ready()
        return child.read("result")
    finally:
        child.finish()


def child_setups(workload: str, seed: int, objects: int, repeats: int) -> list[float]:
    out = []
    for _ in range(repeats):
        child = Child(workload, seed, objects, "--setup-only")
        try:
            out.append(child.ready()[0])
        finally:
            child.finish()
    return out


# ---------------------------------------------------------------- workloads


def ratios(stats: dict) -> dict:
    """The four simulated outcomes of paper Figs. 6-9 from exact counters."""
    return {
        "hit_rate": stats["hits"] / stats["requests"],
        "byte_hit_rate": stats["bytes_hit"] / stats["bytes_requested"],
        "write_rate": stats["files_written"] / stats["requests"],
        "byte_write_rate": stats["bytes_written"] / stats["bytes_requested"],
    }


def run_replay(workload: str, seed: int, objects: int, seconds: float,
               traced: bool, spawns: int) -> dict:
    if traced:
        result = traced_child(workload, seed, objects)
        layers = {**result["layers"], "host.spin_ns": C.spin_ns()}
        return {"correct": True, "problems": [], "attempted": result["requests"],
                "failed": 0, "metrics": layers, "counters": result["stats"]}

    setups = child_setups(workload, seed, objects, spawns - 1)
    child = Child(workload, seed, objects, "--seconds", str(seconds))
    try:
        setup_s, _ = child.ready()
        result = child.read("result")
    finally:
        child.finish()
    setups.append(setup_s)
    requests = result["requests"]
    wall = C.median(result["wall_s"])
    metrics = {
        "setup_s": C.median(setups),
        "cpu_us_per_req": C.median(result["cpu_s"]) / requests * 1e6,
        "req_per_s": requests / wall,
        "p50_ms": wall * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
        **ratios(result["stats"]),
        # FTLStats' own convention: 1.0 when no device saw a write.
        "write_amp": result["extra"].get("write_amp", 1.0),
    }
    return {
        "correct": not result["problems"],
        "problems": result["problems"],
        "attempted": requests * result["replays"],
        "failed": 0,
        "metrics": metrics,
        "counters": {**result["stats"], **{
            k: v for k, v in result["extra"].items() if not isinstance(v, float)
        }},
        "detail": {"replays": result["replays"], "setup_s": setups},
    }


def served_layers(obs: dict, paced: dict) -> dict:
    """Per-layer metrics the server itself counted (the ``STATS`` verb), plus
    what the client saw of its own behaviour."""
    import e2e_serve as S

    stats, n = obs["stats"], obs["n"]
    requests = stats["requests"]

    def stage_us(stage: str) -> float:
        return S.stage_seconds(stats, stage)[0] / requests * 1e6

    # Queueing and service time belong to the paced phase: in ``sat`` they
    # only measure the window the client keeps outstanding.
    paced_stats = obs["paced_stats"]
    queue_sum, queue_n = S.stage_seconds(paced_stats, "queue_wait")
    misses = requests - stats["hits"]
    return {
        "server.stage_feature_us_per_req": stage_us("feature_build"),
        "server.stage_inference_us_per_req": stage_us("batch_inference"),
        "server.stage_cache_us_per_req": stage_us("cache_ops"),
        "server.stage_reply_us_per_req": stage_us("reply"),
        "server.t_classify_us": stats["t_classify"]["mean"] * 1e6,
        "server.batch_size_mean": requests / max(1, S.stage_seconds(stats, "cache_ops")[1]),
        "server.queue_wait_us_mean": queue_sum / max(1, queue_n) * 1e6,
        "server.service_p50_ms": paced_stats["service_latency"]["p50"] * 1e3,
        "server.service_p99_ms": paced_stats["service_latency"]["p99"] * 1e3,
        "server.cpu_user_s": obs["cpu_user_s"],
        "server.cpu_sys_s": obs["cpu_sys_s"],
        "core.online.decisions": stats["t_classify"]["count"],
        "core.online.denied_share": stats["admissions_denied"] / max(1, misses),
        "core.history_table.rectifications": stats["rectified_admits"],
        "cache.policy.hits": stats["hits"],
        "cache.policy.inserts": stats["files_written"],
        "cache.policy.evictions": stats["evictions"],
        "cache.hierarchy.dram_hit_share": stats.get("l1_hits", 0) / max(1, stats["hits"]),
        "obs.ledger.writes": stats["ledger"]["total_writes"],
        "obs.ledger.avoided_writes": stats["ledger"]["avoided_writes"],
        "client.p99_ms": C.median(paced["p99_ms"]),
        "client.late_p99_ms": C.median(paced["late_p99_ms"]),
        "client.cpu_us_per_req": obs["client_cpu_s"] / n * 1e6,
        "client.disturbed_segments": paced["disturbed"],
        "host.spin_ns": C.spin_ns(),
    }


def run_serve(workload: str, seed: int, objects: int, seconds: float,
              traced: bool, spawns: int) -> dict:
    import e2e_child
    import e2e_serve as S
    from repro.trace.io import save_trace

    classifier = workload == "serve_proposal"
    tag = f"{workload}-{seed}-{os.getpid()}"
    t0 = time.perf_counter()
    trace = C.build_trace(workload, seed, objects)
    generate_s = time.perf_counter() - t0
    C.WORK.mkdir(parents=True, exist_ok=True)
    npz = C.WORK / f"{tag}.npz"
    save_trace(trace, npz)      # the server is handed this file and nothing else
    n = trace.n_accesses
    # Half of --seconds paced, in whole segments; the rest of the trace
    # saturates (sized to take the other half, see SIZES).
    paced_end = int(C.PACED_RATE * seconds / 2) // C.PACED_SEGMENT * C.PACED_SEGMENT
    paced_end = min(max(paced_end, C.PACED_SEGMENT), n // 2)
    try:
        setups = [] if traced else S.measure_setup(
            npz, classifier=classifier, repeats=spawns - 1, tag=tag
        )
        obs = S.run_served(trace, npz, classifier=classifier, tag=tag, paced_end=paced_end)
    finally:
        npz.unlink(missing_ok=True)
    setups.append(obs["setup_s"])
    stats = obs["stats"]
    problems = S.check_served(
        stats, e2e_child.served_reference(trace, workload),
        obs["client_hits"], obs["failed"],
    )
    paced, sat = S.paced_segments(obs), S.sat_phase(obs)
    base = {"correct": not problems, "problems": problems,
            "attempted": n, "failed": obs["failed"]}
    if not problems:            # the server logs only matter after a failure
        for log in C.WORK.glob(f"{tag}.*.log"):
            log.unlink()
    if not traced:
        metrics = {
            "setup_s": C.median(setups),
            "cpu_us_per_req": sat["cpu_us_per_req"],
            "req_per_s": C.median(sat["req_per_s"]),
            "p50_ms": C.median(paced["p50_ms"]),
            "peak_rss_mb": obs["peak_rss_mb"],
            "hit_rate": stats["hit_rate"],
            "byte_hit_rate": stats["byte_hit_rate"],
            "write_rate": stats["file_write_rate"],
            "byte_write_rate": stats["byte_write_rate"],
            "write_amp": 1.0,   # no device model behind the served node
        }
        counters = {k: stats[k] for k in (
            "requests", "hits", "files_written", "bytes_written", "evictions",
            "admissions_denied", "rectified_admits")}
        return {**base, "metrics": metrics, "counters": counters,
                "detail": {"setup_s": setups, "paced": paced, "sat": sat}}

    # Traced: the program's own counters from the served run just made, and
    # the serving layers driven in-process by a fresh child.
    layers = served_layers(obs, paced)
    layers.update(traced_child(workload, seed, objects)["layers"])
    layers["trace.generate_s"] = generate_s
    layers["server.residual_us_per_req"] = sat["cpu_us_per_req"] - (
        layers["server.protocol.decode_ns_per_frame"] / 1e3
        + layers["server.node.process_batch_us_per_req"]
        + layers["server.protocol.encode_ns_per_frame"] / 1e3
    )
    return {**base, "metrics": layers, "counters": {}}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 quick: bool) -> dict:
    objects = C.objects_for(workload, seconds, quick)
    spawns = 1 if quick else SETUP_SPAWNS
    if workload in C.SERVE_WORKLOADS:
        result = run_serve(workload, seed, objects, seconds, traced, spawns)
    else:
        result = run_replay(workload, seed, objects, seconds, traced, spawns)
    table = C.PER_LAYER if traced else C.END_TO_END
    values = result["metrics"]
    unknown = set(values) - {row[0] for row in table}
    if unknown:
        raise RuntimeError(f"metrics missing from the table: {sorted(unknown)}")
    # A layer the workload bypasses reports 0.
    result["metrics"] = {
        row[0]: {"value": values.get(row[0], 0.0), "unit": row[1]} for row in table
    }
    result.update(workload=workload, seed=seed, traced=traced, objects=objects)
    return result


# ------------------------------------------------------------------- output


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(C.CPUS),
        "threads": {key: os.environ.get(key) for key in C.THREAD_ENV},
    }


def print_result(result: dict) -> None:
    kind = "per-layer" if result["traced"] else "end-to-end"
    print(f"# {result['workload']} seed={result['seed']} objects={result['objects']} "
          f"({kind})")
    for name, m in result["metrics"].items():
        print(f"{name:<46} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def worse_by(better: str, before: float, after: float) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if before == 0:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def run_sets(args, workloads) -> int:
    """``--sets N``: the same code N times, interleaved (A B ... A B ...);
    a metric agrees when its values lie within its bound of their median and
    every simulated counter repeats exactly."""
    sets = [[] for _ in range(args.sets)]
    for k in range(args.sets):
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, False, args.quick)
            print_result(result)
            sets[k].append(result)
    bad = 0
    print(f"\n# agreement of {args.sets} interleaved sets, seed {args.seed}")
    for i, workload in enumerate(workloads):
        runs = [s[i] for s in sets]
        if not all(r["correct"] for r in runs):
            print(f"{workload}: INCORRECT")
            bad += 1
        if any(r["counters"] != runs[0]["counters"] for r in runs):
            print(f"{workload}: simulated counters differ between sets")
            bad += 1
        for name, _unit, _better, bound in C.END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            mid = C.median(values)
            spread = (max(values) - min(values)) / abs(mid) if mid else 0.0
            verdict = "ok" if spread <= bound else "DISAGREE"
            bad += verdict != "ok"
            print(f"{workload:<16} {name:<16} spread {spread:7.4f} bound {bound:5.2f} "
                  f"{verdict}  {values}")
    if args.out:
        save_sets(args.out, args.seed, sets)
    return 1 if bad else 0


def save_sets(path: str, seed: int, sets) -> None:
    doc = {"seed": seed, "environment": environment(),
           "held_out_seed": C.HELD_OUT_SEED, "sets": sets}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, default=float)


def compare(path_a: str, path_b: str) -> int:
    """Medians of two saved results, B against A, under the bounds."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    if a["seed"] != b["seed"]:
        print(f"refusing to compare: seeds differ ({a['seed']} vs {b['seed']})")
        return 2

    def medians(doc) -> dict:
        out: dict = {}
        for one_set in doc["sets"]:
            for r in one_set:
                for name, m in r["metrics"].items():
                    out.setdefault((r["workload"], name), []).append(m["value"])
        return {key: C.median(v) for key, v in out.items()}

    ma, mb = medians(a), medians(b)
    bad = 0
    for name, _unit, better, bound in C.END_TO_END:
        for workload in C.WORKLOADS:
            key = (workload, name)
            if key not in ma or key not in mb:
                continue
            worse = worse_by(better, ma[key], mb[key])
            verdict = "ok" if worse <= bound else "REGRESSION"
            bad += verdict != "ok"
            print(f"{workload:<16} {name:<16} {ma[key]:>12.6g} -> {mb[key]:>12.6g} "
                  f"worse by {worse:+.4f} (bound {bound:.2f}) {verdict}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=C.WORKLOADS,
                        help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1,
                        help="reaches the trace generator and nothing else")
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes; numbers mean nothing")
    parser.add_argument("--sets", type=int, default=0,
                        help="run N interleaved sets and check they agree")
    parser.add_argument("--out", help="save the sets as JSON for --compare")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved results; refuses differing seeds")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    C.add_src_to_path()
    workloads = [args.workload] if args.workload else list(C.WORKLOADS)
    print(f"# environment {json.dumps(environment())} seed {args.seed}")
    if args.sets:
        return run_sets(args, workloads)
    traced = args.traced or args.trace == 1
    results = []
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, traced, args.quick)
        print_result(result)
        results.append(result)
    if args.out:
        save_sets(args.out, args.seed, [results])
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
