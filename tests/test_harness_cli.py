"""Harness reports and the command-line surface."""

import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import edgeflock.engine as engine
from edgeflock import harness
from edgeflock.cli import main, _parse_ns
from edgeflock.harness import bench, frames_needed, load_model, plan_for, verify
from edgeflock.model_ir import build_model
from edgeflock.planner import AssignmentSet, render_plan
from edgeflock.runtime import RunMetrics, start_cluster


class TestHarness:
    def test_verify_report_renders_and_passes(self):
        rep = verify("two_stream", [1, 5], scale=0.125, seeds=(1,), n_frames=26)
        assert rep.ok
        text = rep.render()
        assert "all exact" in text and "n= 5" in text

    def test_verify_mismatch_marks_the_entry(self, monkeypatch):
        """Weights corrupted on the cluster only: the report marks n=2 not
        exact and renders a mismatch."""
        shared = engine.shared_params
        reference = harness.run_reference

        def corrupt(graph, name):
            p = shared(graph, name)
            if name != "fc_d3":
                return p
            b = p.b.copy()
            b[0] += np.float32(1.0)
            return replace(p, b=b)

        def clean_reference(graph, inputs):
            engine.shared_params = shared
            try:
                return reference(graph, inputs)
            finally:
                engine.shared_params = corrupt
        monkeypatch.setattr(engine, "shared_params", corrupt)
        monkeypatch.setattr(harness, "run_reference", clean_reference)
        rep = verify("two_stream", [2], scale=0.125, seeds=(1,), n_frames=26)
        assert [(e.devices, e.exact) for e in rep.entries] == [(2, False)]
        assert rep.entries[0].max_abs_diff > 0 and not rep.ok
        text = rep.render()
        assert "[FAIL] two_stream seed=1 n= 2" in text and "verify: MISMATCH" in text

    def test_verify_with_nothing_to_compare_fails(self):
        """A clip shorter than the window lag gives no reference output:
        the entry compares nothing and is not exact."""
        rep = verify("two_stream", [2], scale=0.03125, seeds=(1,), n_frames=3)
        assert [(e.devices, e.outputs, e.exact) for e in rep.entries] == [(2, 0, False)]
        assert not rep.ok and "verify: MISMATCH" in rep.render()

    @pytest.mark.parametrize("ref_value,got_value,exact", [
        (0.0, -0.0, False),
        (-0.0, 0.0, False),
        (np.nan, np.nan, True),
        (0.0, 0.0, True),
    ])
    def test_verify_compares_bits(self, monkeypatch, ref_value, got_value, exact):
        """A signed zero that == takes for the reference's is a mismatch;
        a NaN with the reference's bits is not."""
        sink = load_model("two_stream", 0.125, 1).outputs[0]
        want = np.array([ref_value, 0.5], np.float32)
        got = np.array([got_value, 0.5], np.float32)
        monkeypatch.setattr(harness, "run_reference", lambda graph, inputs: {sink: {0: want}})
        monkeypatch.setattr(harness, "run_stream", lambda cluster, frames, **kw: ({0: got}, None))
        rep = verify("two_stream", [1], scale=0.125, seeds=(1,), n_frames=26)
        assert [e.exact for e in rep.entries] == [exact]
        assert harness.same_bits(got, want) == exact
        assert not harness.same_bits(got.astype(np.float64), want)

    def test_bench_energy_consistency_and_pipelining(self):
        rep = bench("two_stream", [1, 5], scale=0.125, n_frames=36, seed=1)
        by_n = {e.devices: e for e in rep.entries}
        for e in rep.entries:
            m = e.simulated
            assert e.energy["total_joules"] == pytest.approx(
                e.energy["static_joules"] + e.energy["dynamic_joules"], rel=1e-12)
            assert sum(m.breakdown.values()) == pytest.approx(m.t_forward_seconds, rel=1e-6)
            for busy in m.per_device_busy_seconds.values():
                assert busy <= m.wall_seconds + 1e-9
        # single stage: throughput ~ 1/latency; deeper pipeline exceeds it
        one = by_n[1].simulated
        five = by_n[5].simulated
        assert one.ips * one.t_forward_seconds == pytest.approx(1.0, rel=0.15)
        assert five.ips * five.t_forward_seconds > 1.1

    def test_bench_report_json_contains_entries(self):
        rep = bench("two_stream", [2], scale=0.125, n_frames=30, seed=1)
        doc = json.loads(rep.to_json())
        assert doc["model"] == "two_stream"
        assert doc["entries"][0]["devices"] == 2
        assert "wrote" not in rep.render()

    def test_bench_report_json_holds_exactly_the_dataclass_fields(self):
        rep = bench("two_stream", [1, 2], scale=0.03125, n_frames=30, seed=1)
        doc = json.loads(rep.to_json())
        assert set(doc) == {f.name for f in fields(harness.BenchReport)}
        assert [e["devices"] for e in doc["entries"]] == [1, 2]
        for entry in doc["entries"]:
            assert set(entry) == {f.name for f in fields(harness.BenchEntry)}
            assert set(entry["simulated"]) == {f.name for f in fields(RunMetrics)}

    def test_render_plan_contains_architecture_signatures(self):
        aset = plan_for(load_model("two_stream", 1.0, 1), 12)
        table = render_plan(aset, [1, 5, 8, 10, 12])
        assert "shard 1/2 of fc_d1: rows 0:4096" in table
        assert "shard 2/2 of fc_d2: rows 4096:8192" in table
        assert "replica 1/3" in table
        assert "reloads 2 groups/inference" in table

    def test_frames_needed_accounts_for_window_lag(self):
        g = build_model("two_stream", 0.125, seed=1)
        assert frames_needed(g, 4) == 28
        a = build_model("alexnet", 0.125, seed=1)
        assert frames_needed(a, 4) == 4

    def test_load_model_roundtrip_via_file(self, tmp_path):
        g = build_model("two_stream", 0.25, seed=5)
        p = tmp_path / "model.json"
        p.write_text(g.to_json())
        loaded = load_model(str(p), scale=0.25, seed=5)
        assert loaded.to_json() == g.to_json()


class TestCli:
    def test_parse_ns(self):
        assert _parse_ns("1-4,8") == [1, 2, 3, 4, 8]
        assert _parse_ns("5") == [5]

    def test_plan_writes_file_and_table(self, tmp_path):
        out = tmp_path / "plan.json"
        result = CliRunner().invoke(main, [
            "plan", "--model", "two_stream", "--devices", "5",
            "--scale", "0.125", "--out", str(out), "--no-table"])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert "assignments" in doc and "5" in doc["assignments"]

    def test_plan_infeasible_exit_code(self):
        result = CliRunner().invoke(main, [
            "plan", "--model", "two_stream", "--devices", "2", "--mem", "1000000"])
        assert result.exit_code == 2

    def test_plan_mem_keeps_the_profile_and_rederives_the_knee(self, tmp_path):
        from edgeflock.costs import CommModel, DeviceProfile, PowerProfile, profiles_to_json
        prof = tmp_path / "prof.json"
        prof.write_text(profiles_to_json(DeviceProfile(
            flops_per_sec=1e8, conv_flops_per_sec=3e8, load_bandwidth=4e7, load_setup_seconds=0.5,
            swap_threshold=12345, swap_penalty=3.0, power=PowerProfile(1.0, 5.0, 2.0)), CommModel()))
        out = tmp_path / "plan.json"
        result = CliRunner().invoke(main, [
            "plan", "--model", "alexnet", "--devices", "1", "--scale", "1.0",
            "--mem", "2000000000", "--profile-file", str(prof), "--out", str(out), "--no-table"])
        assert result.exit_code == 0, result.output
        planned = AssignmentSet.from_json(out.read_text()).device
        assert planned == DeviceProfile(
            mem_bytes=2_000_000_000, flops_per_sec=1e8, conv_flops_per_sec=3e8,
            load_bandwidth=4e7, load_setup_seconds=0.5, swap_penalty=3.0,
            power=PowerProfile(1.0, 5.0, 2.0))
        assert planned.swap_threshold == 400_000_000

    def test_verify_ok_exit_zero(self):
        result = CliRunner().invoke(main, [
            "verify", "--model", "two_stream", "--devices", "2", "--scale", "0.125",
            "--seed", "1", "--frames", "26"])
        assert result.exit_code == 0, result.output
        assert "all exact" in result.output

    def test_verify_with_nothing_to_compare_exits_1(self):
        result = CliRunner().invoke(main, [
            "verify", "--model", "two_stream", "--devices", "2", "--scale", "0.03125",
            "--seed", "1", "--frames", "3"])
        assert result.exit_code == 1, result.output
        assert "outputs=0" in result.output and "verify: MISMATCH" in result.output

    @pytest.mark.parametrize("args", [
        ["plan", "--model", "two_stream", "--scale", "0"],
        ["plan", "--model", "two_stream", "--scale", "-0.5"],
        ["plan", "--model", "two_stream", "--mem", "0"],
        ["plan", "--model", "two_stream", "--mem", "-1"],
        ["verify", "--model", "two_stream", "--scale", "0"],
        ["bench", "--model", "two_stream", "--scale", "-1"],
    ])
    def test_a_scale_or_memory_not_above_0_is_a_usage_error(self, args):
        result = CliRunner().invoke(main, args)
        self._usage_error(result, args[-2])
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert f"Invalid value for '{args[-2]}'" in error

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_fps_is_not_an_option(self, tmp_path, command):
        """Both commands pace their runs, so a frame rate would change nothing."""
        plan = tmp_path / "plan.json"
        plan.write_text(plan_for(load_model("two_stream", 0.03125, 1), 2).to_json())
        args = (["run", "--plan", str(plan), "--devices", "2"] if command == "run"
                else ["bench", "--model", "two_stream"])
        result = CliRunner().invoke(main, args + ["--fps", "30"])
        assert result.exit_code == 2, result.output
        (error,) = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert "No such option" in error and "--fps" in error

    def test_run_consumes_plan_file(self, tmp_path):
        out = tmp_path / "plan.json"
        CliRunner().invoke(main, [
            "plan", "--model", "two_stream", "--devices", "3",
            "--scale", "0.125", "--out", str(out), "--no-table"])
        result = CliRunner().invoke(main, [
            "run", "--plan", str(out), "--devices", "3", "--frames", "28"])
        assert result.exit_code == 0, result.output
        assert "tagged results" in result.output

    def test_run_models_link_latency_with_the_plan_files_comm(self, tmp_path, monkeypatch):
        """The in-process run charges the plan file's comm: a zeroed comm
        block gives a run without link latency."""
        clusters = []

        def keep(*args):
            clusters.append(start_cluster(*args))
            return clusters[-1]
        monkeypatch.setattr(harness, "start_cluster", keep)
        doc = json.loads(plan_for(load_model("two_stream", 0.03125, 1), 3).to_json())
        stock = tmp_path / "stock.json"
        stock.write_text(json.dumps(doc))
        doc["comm"] = {k: 0.0 for k in doc["comm"]}
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps(doc))
        for plan in (stock, zero):
            result = CliRunner().invoke(main, ["run", "--plan", str(plan), "--devices", "3",
                                               "--frames", "30"])
            assert result.exit_code == 0, result.output
        assert "'comm': 0.0" in result.output
        on_stock, on_zero = clusters
        assert len(on_stock.completions) == len(on_zero.completions) > 0
        assert all(path["comm"] > 0 for _t, _tag, path in on_stock.completions)
        assert all(path["comm"] == 0 for _t, _tag, path in on_zero.completions)

    @pytest.mark.parametrize("devices", ["5", "0"])
    def test_run_outside_the_plan_is_plan_infeasible(self, tmp_path, devices):
        out = tmp_path / "plan.json"
        CliRunner().invoke(main, [
            "plan", "--model", "two_stream", "--devices", "3",
            "--scale", "0.125", "--out", str(out), "--no-table"])
        result = CliRunner().invoke(main, ["run", "--plan", str(out), "--devices", devices])
        assert result.exit_code == 2, result.output
        assert "covers [1, 2, 3] devices" in result.output

    def test_run_plan_with_negative_device_is_a_runtime_fault(self, tmp_path):
        doc = json.loads(plan_for(load_model("two_stream", 0.125, 1), 1).to_json())
        (task,) = doc["assignments"]["1"]["tasks"]
        task["device"] = -1
        out = tmp_path / "plan.json"
        out.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", "--plan", str(out), "--devices", "1"])
        assert result.exit_code == 3, result.output
        assert "device ids must lie in [0, 1)" in result.output

    @pytest.mark.parametrize("end", ["producer_device", "consumer_device"])
    def test_run_plan_with_an_edge_to_no_task_is_a_runtime_fault(self, tmp_path, end):
        doc = json.loads(plan_for(load_model("two_stream", 0.125, 1), 3).to_json())
        edge = dict(doc["assignments"]["3"]["edges"][0])
        edge[end] = 7
        doc["assignments"]["3"]["edges"].append(edge)
        out = tmp_path / "plan.json"
        out.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", "--plan", str(out), "--devices", "3"])
        assert result.exit_code == 3, result.output
        assert "names a device with no task" in result.output

    @pytest.mark.parametrize("command", ["verify", "bench"])
    @pytest.mark.parametrize("devices", ["1-x", "2,y", "1-2-3", ","])
    def test_malformed_device_list_is_a_usage_error(self, command, devices):
        result = CliRunner().invoke(main, [command, "--model", "two_stream",
                                           "--devices", devices])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--devices'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", ["plan", "verify", "bench"])
    @pytest.mark.parametrize("model", ["two_streem", "no/such/model.json"])
    def test_a_model_that_is_neither_stock_nor_a_file_is_a_usage_error(self, command, model):
        result = CliRunner().invoke(main, [command, "--model", model])
        self._usage_error(result, "--model")
        assert f"{model!r} is neither a stock model" in result.output

    @pytest.mark.parametrize("command", ["plan", "verify", "bench"])
    @pytest.mark.parametrize("text,message", [
        ("cycle", "cycle detected involving layers"),
        ("not json {", "malformed model JSON: JSONDecodeError"),
        ('{"layers": []}', "malformed model JSON: KeyError"),
    ])
    def test_a_malformed_model_file_exits_2(self, tmp_path, command, text, message):
        if text == "cycle":
            doc = json.loads(build_model("two_stream", 0.03125, 1).to_json())
            doc["layers"][1]["inputs"].append(doc["outputs"][0])
            text = json.dumps(doc)
        model = tmp_path / "model.json"
        model.write_text(text)
        result = CliRunner().invoke(main, [command, "--model", str(model), "--devices", "1"])
        assert result.exit_code == 2, result.output
        assert f"invalid model: {message}" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("command", ["plan", "verify", "bench"])
    @pytest.mark.parametrize("text", ['{"device": {"mem_bytes": -5}}', "not json {",
                                      '{"device": {"no_such_field": 1}}', "[]"])
    def test_a_malformed_profile_file_is_a_usage_error(self, tmp_path, command, text):
        prof = tmp_path / "prof.json"
        prof.write_text(text)
        result = CliRunner().invoke(main, [command, "--model", "two_stream",
                                           "--profile-file", str(prof)])
        self._usage_error(result, "--profile-file")
        assert f"cannot decode {prof}" in result.output

    @pytest.mark.parametrize("text", ["not json {", "{}", "[]", '{"model": {"layers": []}}'])
    def test_a_malformed_plan_file_is_a_usage_error(self, tmp_path, text):
        plan = tmp_path / "plan.json"
        plan.write_text(text)
        result = CliRunner().invoke(main, ["run", "--plan", str(plan), "--devices", "1"])
        self._usage_error(result, "--plan")
        assert f"cannot decode {plan}" in result.output

    @pytest.mark.parametrize("command,devices", [("plan", "0"), ("plan", "-3"),
                                                 ("verify", "0-2"), ("verify", "0"),
                                                 ("bench", "0,1"), ("bench", "0")])
    def test_a_device_count_below_1_is_a_usage_error(self, command, devices):
        result = CliRunner().invoke(main, [command, "--model", "two_stream", "--devices", devices])
        self._usage_error(result, "--devices")

    @pytest.mark.parametrize("args", [
        ["plan", "--model", "two_stream", "--seed", "-1"],
        ["verify", "--model", "two_stream", "--seed", "-1"],
        ["verify", "--model", "two_stream", "--seed", "1", "--seed", "-2"],
        ["bench", "--model", "two_stream", "--seed", "-1"],
        ["run", "--seed", "-1"],
        ["verify", "--model", "two_stream", "--frames", "-3"],
        ["verify", "--model", "two_stream", "--frames", "0"],
    ])
    def test_a_negative_seed_or_no_frames_is_a_usage_error(self, tmp_path, args):
        if args[0] == "run":
            plan = tmp_path / "plan.json"
            plan.write_text(plan_for(load_model("two_stream", 0.03125, 1), 2).to_json())
            args = ["run", "--plan", str(plan), "--devices", "2"] + args[1:]
        result = CliRunner().invoke(main, args)
        self._usage_error(result, args[-2])

    @pytest.mark.parametrize("field", ["seed", "weights_seed"])
    def test_a_negative_seed_in_a_model_or_plan_file_exits_2(self, tmp_path, field):
        doc = json.loads(plan_for(load_model("two_stream", 0.03125, 1), 2).to_json())
        if field == "seed":
            doc["model"]["seed"] = -1
        else:
            doc["model"]["layers"][3]["weights_seed"] = -1
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc["model"]))
        result = CliRunner().invoke(main, ["plan", "--model", str(model), "--devices", "2"])
        assert result.exit_code == 2, result.output
        assert "invalid model:" in result.output and "is negative" in result.output
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, ["run", "--plan", str(plan), "--devices", "2"])
        self._usage_error(result, "--plan")
        assert "is negative" in result.output

    @staticmethod
    def _usage_error(result, option):
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '{option}'" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_loopback_run_prints_output_counts_only(self, tmp_path):
        graph = load_model("two_stream", 0.03125, 1)
        out = tmp_path / "plan.json"
        out.write_text(plan_for(graph, 2).to_json())
        result = CliRunner().invoke(main, ["run", "--plan", str(out), "--devices", "2",
                                           "--frames", "30", "--transport", "loopback_sockets"])
        assert result.exit_code == 0, result.output
        assert result.output.splitlines() == [
            f"outputs: {30 - graph.first_valid['out']} tagged results"]

    def test_loopback_run_counts_outputs_without_the_reference(self, tmp_path, monkeypatch):
        import edgeflock.engine as engine

        def no_reference(*args, **kwargs):
            raise AssertionError("run must not compute the reference")

        monkeypatch.setattr(engine, "run_reference", no_reference)
        out = tmp_path / "plan.json"
        CliRunner().invoke(main, [
            "plan", "--model", "two_stream", "--devices", "3",
            "--scale", "0.03125", "--out", str(out), "--no-table"])
        result = CliRunner().invoke(main, [
            "run", "--plan", str(out), "--devices", "3", "--frames", "30",
            "--transport", "loopback_sockets"])
        assert result.exit_code == 0, result.output
        first = load_model("two_stream", 0.03125, 1).first_valid["out"]
        assert f"outputs: {30 - first} tagged results" in result.output

    def test_run_and_verify_take_the_same_transports(self):
        from edgeflock.runtime import TRANSPORTS
        for name in ("run", "verify"):
            (opt,) = [p for p in main.commands[name].params if p.name == "transport"]
            assert tuple(opt.type.choices) == TRANSPORTS == ("in_process", "loopback_sockets")

    def test_bench_writes_report(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, [
            "bench", "--model", "two_stream", "--devices", "1,2",
            "--scale", "0.125", "--frames", "30"])
        assert result.exit_code == 0, result.output
        written = list(Path(tmp_path).glob("edgeflock-bench-*.json"))
        assert len(written) == 1

    def test_profile_writes_measured_rates(self, tmp_path):
        out = tmp_path / "prof.json"
        result = CliRunner().invoke(main, ["profile", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["device"]["flops_per_sec"] > 0
