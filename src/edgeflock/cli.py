"""Command-line interface.

Subcommands: plan, verify, run, bench, profile.  Exit codes: 0 success,
1 verification failure, 2 planning infeasible, an invalid model or a
usage error (click's own, for a bad option value or an input file that
cannot be read or decoded), 3 runtime fault.  The command group maps
the typed failures to these codes once, for every command.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import click

from edgeflock import harness
from edgeflock.costs import CommModel, DeviceProfile, measure_host_profile, profiles_from_json, profiles_to_json
from edgeflock.model_ir import MODEL_NAMES, GraphError
from edgeflock.planner import AssignmentSet, PlanError, render_plan
from edgeflock.runtime import TRANSPORTS, RuntimeFault

EXIT_VERIFY_FAILED = 1
EXIT_PLAN_INFEASIBLE = 2
EXIT_RUNTIME_FAULT = 3


def _model_spec(ctx, param, spec: str) -> str:
    if spec not in MODEL_NAMES and not Path(spec).is_file():
        raise click.BadParameter(f"{spec!r} is neither a stock model {MODEL_NAMES} nor a file")
    return spec


def _decoded(parse, default=None):
    """A click callback that decodes the file an option names with
    ``parse``; ``click.BadParameter`` when it cannot be read or decoded."""
    def callback(ctx, param, path):
        try:
            return parse(Path(path).read_text()) if path else default
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise click.BadParameter(f"cannot decode {path}: {type(exc).__name__}: {exc}") from None
    return callback


def _parse_ns(text: str) -> list[int]:
    """Device counts from a list like ``1-4,8``; ``click.BadParameter``
    when it is malformed, names none or names a count below 1."""
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
    if min(out) < 1:
        raise click.BadParameter(f"{text!r} names a device count below 1", param_hint="'--devices'")
    return sorted(set(out))


class _Main(click.Group):
    """Maps the typed failures of every command to their exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PlanError as exc:
            click.echo(f"planning infeasible: {exc}", err=True)
            ctx.exit(EXIT_PLAN_INFEASIBLE)
        except GraphError as exc:
            click.echo(f"invalid model: {exc}", err=True)
            ctx.exit(EXIT_PLAN_INFEASIBLE)
        except RuntimeFault as exc:
            click.echo(f"runtime fault: {exc}", err=True)
            ctx.exit(EXIT_RUNTIME_FAULT)


@click.group(cls=_Main)
def main():
    """Distributed streaming DNN inference for small-device clusters."""


# A model scale multiplies its hidden dimensions and memory budget.
_SCALE = click.FloatRange(min=0, min_open=True)
# Seeds key numpy's generators, which take no negative value.
_SEED = click.IntRange(min=0)

_profile_file = click.option("--profile-file", "profiles", type=click.Path(exists=True), default=None,
                             callback=_decoded(profiles_from_json, (DeviceProfile(), CommModel())))


@main.command()
@click.option("--model", required=True, callback=_model_spec,
              help="stock model name or model JSON path")
@click.option("--devices", "n_max", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--mem", type=click.IntRange(min=1), default=None, help="per-device memory bytes")
@click.option("--scale", type=_SCALE, default=1.0, show_default=True)
@click.option("--seed", type=_SEED, default=1, show_default=True)
@_profile_file
@click.option("--out", type=click.Path(), default=None, help="write the assignment set JSON here")
@click.option("--table/--no-table", default=True, show_default=True)
def plan(model, n_max, mem, scale, seed, profiles, out, table):
    """Generate task assignments for 1..N devices."""
    device, comm = profiles
    if mem is not None:
        # swap_threshold None re-derives the knee from the new memory.
        device = replace(device, mem_bytes=mem, swap_threshold=None)
    aset = harness.plan_for(harness.load_model(model, scale, seed), n_max, device, comm, scale)
    if out:
        Path(out).write_text(aset.to_json())
        click.echo(f"wrote {out}")
    if table:
        click.echo(render_plan(aset))


@main.command()
@click.option("--model", required=True, callback=_model_spec)
@click.option("--devices", default="1-12", show_default=True, help="e.g. 1-12 or 1,5,8")
@click.option("--scale", type=_SCALE, default=harness.DESK_SCALE, show_default=True)
@click.option("--seed", "seeds", multiple=True, type=_SEED, default=(1, 2, 3), show_default=True)
@click.option("--frames", type=click.IntRange(min=1), default=None, help="frames per run")
@click.option("--transport", type=click.Choice(TRANSPORTS),
              default="in_process", show_default=True)
@_profile_file
def verify(model, devices, scale, seeds, frames, transport, profiles):
    """Check distributed outputs exactly equal the reference oracle."""
    device, comm = profiles
    report = harness.verify(model, _parse_ns(devices), scale=scale, seeds=seeds, n_frames=frames,
                            device=device, comm=comm, transport=transport)
    click.echo(report.render())
    if not report.ok:
        sys.exit(EXIT_VERIFY_FAILED)


@main.command()
@click.option("--plan", "aset", required=True, type=click.Path(exists=True),
              callback=_decoded(AssignmentSet.from_json))
@click.option("--devices", type=int, required=True)
@click.option("--transport", type=click.Choice(TRANSPORTS),
              default="in_process", show_default=True)
@click.option("--frames", type=int, default=60, show_default=True)
@click.option("--seed", type=_SEED, default=1, show_default=True)
def run(aset, devices, transport, frames, seed):
    """Execute a planned assignment on a frame stream.

    The in-process transport models link latency with the plan file's
    comm block, the link model the plan was priced with; zero it for a
    run without link latency.  Frames are paced: each is fed once the
    source devices that take it are free.
    """
    clip = harness.make_clip(aset.graph, max(frames, harness.frames_needed(aset.graph, 4)), seed)
    outputs, metrics = harness.stream(aset, devices, clip, transport)
    click.echo(f"outputs: {len(outputs)} tagged results")
    if transport == "in_process":
        click.echo(f"ips: {metrics.ips:.3f}  t_forward: {metrics.t_forward_seconds:.3f}s  "
                   f"breakdown: {metrics.breakdown}  drops: {metrics.drops}")


@main.command()
@click.option("--model", required=True, callback=_model_spec)
@click.option("--devices", default="1,4,5,8,10,12", show_default=True)
@click.option("--scale", type=_SCALE, default=harness.DESK_SCALE, show_default=True)
@click.option("--frames", type=int, default=40, show_default=True)
@click.option("--seed", type=_SEED, default=1, show_default=True)
@_profile_file
@click.option("--out", type=click.Path(), default=None, help="write machine-readable report")
def bench(model, devices, scale, frames, seed, profiles, out):
    """Benchmark simulated throughput, latency and energy per device count."""
    device, comm = profiles
    report = harness.bench(model, _parse_ns(devices), scale=scale, n_frames=frames,
                           seed=seed, device=device, comm=comm)
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
