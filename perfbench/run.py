"""Run one edgeflock benchmark workload and print its metrics.

    python3 perfbench/run.py --workload two_stream_paced --seed 1 --seconds 10 --trace 0

Run it from the repository root; it imports edgeflock from ``src/``.
``--workload all`` runs every workload in turn.

With ``--trace 0`` one untraced pass makes whole rounds for ``--seconds``
(at least one; a round computes the references and sweeps the
workload's device counts once) and reports the end-to-end metrics.
With ``--trace 1`` an untraced pass and a traced pass each make exactly
one round; the per-layer metrics come
from the traced pass, and the run is correct only if both passes agree
on every modeled metric and the tracer restored every binding.

A readable report goes to standard output, and a result file stamped
with nproc, the Python and numpy versions, the commit, the seed, the
device counts and the frame count goes to ``.perfbench_out/``, next to
the spans of a traced pass.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

SRC = ROOT / "src"
if not (SRC / "edgeflock" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no edgeflock sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(wl, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "commit": git_commit(), "model": wl.model,
        "scale": wl.scale, "devices": list(wl.devices), "frames": wl.frames,
        "transport": wl.transport, "paced": wl.paced, "fps": wl.fps,
        "inbox_capacity": wl.inbox_capacity,
    }


def per_layer(wl, traced, untraced, idx: tracing.SpanIndex, leaked: int,
              backdated: int, rss_growth: float) -> dict:
    """The per-layer metrics of a traced pass, name -> (value, unit)."""
    m = {}
    sims = traced.sims
    outputs = sum(s.outputs for s in sims)
    n_max = max(wl.devices)
    plan = traced.aset.assignments[n_max]
    sim_max = next(s for s in sims if s.n == n_max)

    m["model_ir.build_s"] = (idx.median("model_ir.build", "setup"), "s")
    m["planner.task_assign_s"] = (idx.median("planner.task_assign", "setup"), "s")
    m["planner.pred_ips"] = (plan.predicted.ips, "inf/virtual_s")
    m["planner.pred_over_sim"] = (plan.predicted.ips / sim_max.ips, "ratio")
    m["planner.tasks"] = (len(plan.tasks), "count")
    m["planner.fc_shards"] = (sum(t.split is not None for t in plan.tasks.values()), "count")
    m["planner.replicas"] = (sum(t.replica is not None for t in plan.tasks.values()), "count")
    for part in ("compute", "comm", "reload"):
        m[f"costs.{part}_s"] = (sum(getattr(s, f"{part}_s") for s in sims) / outputs, "virtual_s")
    m["costs.energy_static_j"] = (sum(s.static_j for s in sims) / outputs, "J/inf")
    m["costs.energy_dynamic_j"] = (sum(s.dynamic_j for s in sims) / outputs, "J/inf")

    for kind in tracing.KERNELS:
        name = f"engine.{kind}"
        busy = idx.busy(name)
        m[f"{name}.calls"] = (idx.calls(name), "count")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.mops"] = (idx.work(name) / busy / 1e6 if busy else 0.0, "Mop/s")
    m["engine.im2col.busy_s"] = (idx.busy("engine.im2col"), "s")
    params = idx.named("engine.params")
    m["engine.params.calls"] = (len(params), "count")
    m["engine.params.busy_s"] = (idx.busy("engine.params"), "s")
    m["engine.params.useful_ratio"] = (
        len({s.work for s in params}) / len(params) if params else 0.0, "ratio")
    m["engine.executor.self_s"] = (idx.self_seconds("engine.executor"), "s")
    m["engine.reference_s"] = (idx.busy("engine.reference"), "s")

    m["windows.inbox.peak"] = (max(s.inbox_peak for s in sims), "count")
    m["windows.inbox.rejected"] = (sum(s.inbox_rejected for s in sims), "count")
    m["windows.window.pushes"] = (idx.calls("windows.window"), "count")
    m["windows.window.fires"] = (idx.work("windows.window"), "count")

    run_stream = idx.busy("runtime.run_stream")
    m["runtime.run_stream_s"] = (run_stream, "s")
    m["runtime.self_s"] = (run_stream - idx.covered("runtime.run_stream", "engine.executor"), "s")
    m["runtime.start_cluster_s"] = (idx.median("runtime.start_cluster", "setup"), "s")
    m["runtime.items"] = (idx.calls("runtime.consume_data"), "count")
    m["runtime.messages"] = (idx.calls("runtime.payload_bytes"), "count")
    m["runtime.modeled_bytes"] = (idx.work("runtime.payload_bytes"), "bytes")
    m["runtime.busy_share_max"] = (statistics.mean(s.busy_share_max for s in sims), "ratio")
    m["runtime.busy_share_mean"] = (statistics.mean(s.busy_share_mean for s in sims), "ratio")
    m["runtime.sample_drops"] = (sum(s.drops for s in sims), "count")
    m["runtime.routing_drops"] = (sum(s.routing_drops for s in sims), "count")
    m["runtime.reloads"] = (sum(s.reloads for s in sims), "count")
    m["runtime.backdated_frames"] = (backdated, "count")

    m["wire.encode.calls"] = (idx.calls("wire.encode"), "count")
    m["wire.encode.busy_s"] = (idx.busy("wire.encode"), "s")
    m["wire.encode.bytes"] = (idx.work("wire.encode"), "bytes")
    m["wire.decode.calls"] = (idx.calls("wire.decode"), "count")
    m["wire.decode.busy_s"] = (idx.busy("wire.decode"), "s")

    m["loopback.send.calls"] = (idx.calls("loopback.send"), "count")
    m["loopback.send.self_s"] = (idx.self_seconds("loopback.send"), "s")
    m["loopback.handle.busy_s"] = (idx.busy("loopback.handle"), "s")
    m["loopback.handle.self_s"] = (idx.self_seconds("loopback.handle"), "s")
    m["loopback.setup_s"] = (idx.median("loopback.setup", "setup"), "s")
    m["loopback.close_s"] = (idx.median("loopback.close"), "s")
    m["loopback.threads_leaked"] = (leaked, "count")
    m["bench.rss_growth_mb"] = (rss_growth, "MiB")

    m["bench.trace_overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    return m


def run_workload(wl, seed: int, seconds: int, trace: int, out_dir: Path = OUT_DIR):
    """(result line, result file contents) of one workload."""
    doc = {"stamp": stamp(wl, seed, seconds, trace)}
    if not trace:
        p = workloads.run_pass(wl, seed, seconds)
        metrics = workloads.end_to_end(p)
        v = workloads.verdict(p)
        correct = v.failed == 0
        passes = {"untraced": p}
    else:
        untraced = workloads.run_pass(wl, seed, 0)
        tracer = tracing.Tracer()
        entries = tracing.targets(workloads)
        before = tracing.bindings(entries)
        threads = set(threading.enumerate())
        with tracing.patched(tracer, entries):
            traced = workloads.run_pass(wl, seed, 0, tracer)
        leaked = sum(t.is_alive() for t in threading.enumerate() if t not in threads)
        restored = tracing.bindings(entries) == before
        sim_traced = workloads.sim_summary(traced.sims)
        same_sim = sim_traced == workloads.sim_summary(untraced.sims)
        backdated = 0 if wl.paced else workloads.backdated_frames(
            wl, traced.aset, traced.oracle.clip)
        idx = tracing.SpanIndex(tracer.spans)
        metrics = per_layer(wl, traced, untraced, idx, leaked, backdated,
                            workloads.peak_rss_mb() - untraced.rss_mb)
        v = workloads.verdict(traced)
        correct = v.failed == 0 and workloads.verdict(untraced).failed == 0 \
            and restored and same_sim
        doc.update(bindings_restored=restored, sim_identical=same_sim,
                   sim_traced=sim_traced,
                   main_thread_self_share=idx.self_total(threading.get_ident()) / traced.wall_s)
        passes = {"untraced": untraced, "traced": traced}
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{wl.name}-seed{seed}-spans.jsonl"
        tracer.write(spans_path)
        doc["spans"] = str(spans_path)

    p = passes["untraced"]
    doc["sim"] = workloads.sim_summary(p.sims)
    doc["per_n"] = workloads.per_n(p)
    doc["verify"] = {"expected": v.verify_expected, "failed": v.verify_failed,
                     "verify_fail_ratio": v.verify_failed / v.verify_expected}
    doc["walls_s"] = {k: q.wall_s for k, q in passes.items()}
    doc["setup_samples_s"] = p.setup_s
    line = {
        "correct": bool(correct),
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
    }
    doc["result"] = line
    return line, doc


def report(doc: dict) -> str:
    s = doc["stamp"]
    lines = [f"{s['workload']}: {s['model']} scale {s['scale']} devices "
             f"{','.join(map(str, s['devices']))} frames {s['frames']} seed {s['seed']} "
             f"trace {s['trace']} | nproc {s['nproc']} python {s['python']} "
             f"numpy {s['numpy']} commit {s['commit']}"]
    res = doc["result"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    sim, ver = doc["sim"], doc["verify"]
    lines.append(f"  {'verify_fail_ratio':32s} {ver['verify_fail_ratio']:.6g} ratio "
                 f"({ver['failed']}/{ver['expected']} outputs missing or not bitwise equal)")
    lines.append(f"  {'sim_drop_ratio':32s} {sim['sim_drop_ratio']:.6g} ratio "
                 f"({sim['drops']}/{sim['offered']} raw frames dropped by sampling)")
    lines.append(f"  sim_latency_tail_s is p{sim['tail_percentile']:.4g} of "
                 f"{sim['latency_samples']} samples, {sim['tail_beyond']} beyond it")
    for row in doc["per_n"]:
        lines.append(f"  n={row['n']:<3d} sim_ips {row['sim_ips']:.4g} pred_ips "
                     f"{row['pred_ips']:.4g} outputs {row['outputs']} drops {row['drops']} "
                     f"inbox_peak {row['inbox_peak']} verify_failed "
                     f"{row['verify_failed']}/{row['verify_expected']} "
                     f"host_fps {row['host_fps']:.4g}")
    lines.append(f"  correct {res['correct']} attempted {res['attempted']} failed {res['failed']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        line, doc = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(doc, indent=2, default=str) + "\n")
        print(report(doc), flush=True)
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": m for w, r in lines.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
