"""Command-line interface.

Subcommands: plan, verify, run, bench, profile.  Exit codes: 0 success,
1 verification failure, 2 planning infeasible or a usage error (click's
own, for a bad option value such as a malformed ``--devices`` list),
3 runtime fault.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from edgeflock import harness
from edgeflock.costs import CommModel, DeviceProfile, measure_host_profile, profiles_from_json, profiles_to_json
from edgeflock.planner import AssignmentSet, PlanError, render_plan
from edgeflock.runtime import TRANSPORTS, RuntimeFault, run_stream, start_cluster

EXIT_VERIFY_FAILED = 1
EXIT_PLAN_INFEASIBLE = 2
EXIT_RUNTIME_FAULT = 3


def _profiles(profile_file) -> tuple[DeviceProfile, CommModel]:
    if profile_file:
        return profiles_from_json(Path(profile_file).read_text())
    return DeviceProfile(), CommModel()


def _parse_ns(text: str) -> list[int]:
    """Device counts from a list like ``1-4,8``; ``click.BadParameter``
    when it is malformed or names none."""
    out = []
    try:
        for part in text.split(","):
            part = part.strip()
            if "-" in part:
                lo, hi = part.split("-")
                out.extend(range(int(lo), int(hi) + 1))
            elif part:
                out.append(int(part))
    except ValueError:
        raise click.BadParameter(f"{text!r} is not a list like 1-4,8",
                                 param_hint="'--devices'") from None
    if not out:
        raise click.BadParameter(f"{text!r} names no device count", param_hint="'--devices'")
    return sorted(set(out))


@click.group()
def main():
    """Distributed streaming DNN inference for small-device clusters."""


@main.command()
@click.option("--model", required=True, help="stock model name or model JSON path")
@click.option("--devices", "n_max", type=int, default=12, show_default=True)
@click.option("--mem", type=int, default=None, help="per-device memory bytes")
@click.option("--scale", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--profile-file", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None, help="write the assignment set JSON here")
@click.option("--table/--no-table", default=True, show_default=True)
def plan(model, n_max, mem, scale, seed, profile_file, out, table):
    """Generate task assignments for 1..N devices."""
    device, comm = _profiles(profile_file)
    if mem is not None:
        # swap_threshold None re-derives the knee from the new memory.
        device = replace(device, mem_bytes=mem, swap_threshold=None)
    try:
        graph = harness.load_model(model, scale, seed)
        aset = harness.plan_for(graph, n_max, device, comm, scale)
    except PlanError as exc:
        click.echo(f"planning infeasible: {exc}", err=True)
        sys.exit(EXIT_PLAN_INFEASIBLE)
    if out:
        Path(out).write_text(aset.to_json())
        click.echo(f"wrote {out}")
    if table:
        click.echo(render_plan(aset))


@main.command()
@click.option("--model", required=True)
@click.option("--devices", default="1-12", show_default=True, help="e.g. 1-12 or 1,5,8")
@click.option("--scale", type=float, default=harness.DESK_SCALE, show_default=True)
@click.option("--seed", "seeds", multiple=True, type=int, default=(1, 2, 3), show_default=True)
@click.option("--frames", type=int, default=None, help="frames per run")
@click.option("--transport", type=click.Choice(TRANSPORTS),
              default="in_process", show_default=True)
@click.option("--profile-file", type=click.Path(exists=True), default=None)
def verify(model, devices, scale, seeds, frames, transport, profile_file):
    """Check distributed outputs exactly equal the reference oracle."""
    device, comm = _profiles(profile_file)
    try:
        report = harness.verify(model, _parse_ns(devices), scale=scale, seeds=seeds,
                                n_frames=frames, device=device, comm=comm,
                                transport=transport)
    except PlanError as exc:
        click.echo(f"planning infeasible: {exc}", err=True)
        sys.exit(EXIT_PLAN_INFEASIBLE)
    except RuntimeFault as exc:
        click.echo(f"runtime fault: {exc}", err=True)
        sys.exit(EXIT_RUNTIME_FAULT)
    click.echo(report.render())
    if not report.ok:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command()
@click.option("--plan", "plan_file", required=True, type=click.Path(exists=True))
@click.option("--devices", type=int, required=True)
@click.option("--transport", type=click.Choice(TRANSPORTS),
              default="in_process", show_default=True)
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--frames", type=int, default=60, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
def run(plan_file, devices, transport, fps, frames, seed):
    """Execute a planned assignment on a frame stream.

    The in-process transport models link latency with the plan file's
    comm block, the link model the plan was priced with; zero it for a
    run without link latency.
    """
    try:
        aset = AssignmentSet.from_json(Path(plan_file).read_text())
        graph = aset.graph
        clip = harness.make_clip(graph, max(frames, harness.frames_needed(graph, 4)), seed)
        if transport == "loopback_sockets":
            expected = len(clip) - graph.first_valid[graph.outputs[0]]
            cluster = start_cluster(aset, devices, transport)
            try:
                outputs = cluster.feed(clip, expected_outputs=expected)
                metrics = cluster.metrics()
            finally:
                cluster.close()
        else:
            cluster = start_cluster(aset, devices)
            outputs, metrics = run_stream(cluster, clip, fps=fps)
    except PlanError as exc:
        click.echo(f"planning infeasible: {exc}", err=True)
        sys.exit(EXIT_PLAN_INFEASIBLE)
    except RuntimeFault as exc:
        click.echo(f"runtime fault: {exc}", err=True)
        sys.exit(EXIT_RUNTIME_FAULT)
    click.echo(f"outputs: {len(outputs)} tagged results")
    click.echo(f"ips: {metrics.ips:.3f}  t_forward: {metrics.t_forward_seconds:.3f}s  "
               f"breakdown: {metrics.breakdown}  drops: {metrics.drops}")


@main.command()
@click.option("--model", required=True)
@click.option("--devices", default="1,4,5,8,10,12", show_default=True)
@click.option("--scale", type=float, default=harness.DESK_SCALE, show_default=True)
@click.option("--frames", type=int, default=40, show_default=True)
@click.option("--fps", type=float, default=30.0, show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--profile-file", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), default=None, help="write machine-readable report")
def bench(model, devices, scale, frames, fps, seed, profile_file, out):
    """Benchmark simulated throughput, latency and energy per device count."""
    device, comm = _profiles(profile_file)
    try:
        report = harness.bench(model, _parse_ns(devices), scale=scale, n_frames=frames,
                               fps=fps, seed=seed, device=device, comm=comm)
    except PlanError as exc:
        click.echo(f"planning infeasible: {exc}", err=True)
        sys.exit(EXIT_PLAN_INFEASIBLE)
    except RuntimeFault as exc:
        click.echo(f"runtime fault: {exc}", err=True)
        sys.exit(EXIT_RUNTIME_FAULT)
    click.echo(report.render())
    if out is None:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        out = f"edgeflock-bench-{model.replace('/', '_')}-{stamp}.json"
    Path(out).write_text(report.to_json())
    click.echo(f"wrote {out}")


@main.command()
@click.option("--out", type=click.Path(), required=True)
def profile(out):
    """Microbenchmark this host's kernels and write a device profile."""
    device = measure_host_profile()
    Path(out).write_text(profiles_to_json(device, CommModel()))
    click.echo(f"wrote {out}: fc {device.flops_per_sec/1e6:.1f} Mop/s, "
               f"conv {device.conv_flops_per_sec/1e6:.1f} Mop/s")


if __name__ == "__main__":
    main()
