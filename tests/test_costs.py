"""Cost model numerics and estimator properties."""

from dataclasses import asdict

import pytest

from edgeflock import costs
from edgeflock.costs import (
    CommModel,
    DeviceProfile,
    PowerProfile,
    comm_latency,
    energy,
    measure_host_profile,
    memory_terms,
    price_task,
    profiles_from_json,
    profiles_to_json,
    resident_bytes,
)
from edgeflock.model_ir import LayerSpec, ModelGraph, build_model, validate_graph
import edgeflock.model_ir as ir


@pytest.fixture(scope="module")
def two_stream():
    return build_model("two_stream", 1.0, seed=0)


DENSE = ["fc_d1", "act_d1", "fc_d2", "act_d2", "fc_d3", "smax", "out"]


def resident(graph, names, overhead_factor):
    """Resident bytes of a task of ``names``."""
    return resident_bytes(*memory_terms(graph, names), overhead_factor)


def raw_weights(graph, names):
    """Bytes of the weights of ``names``, without overhead."""
    return costs.BYTES_PER_VALUE * memory_terms(graph, names)[0]


class TestComm:
    def test_intercept_only(self):
        assert comm_latency(0, CommModel()) == pytest.approx(0.002, abs=1e-12)

    def test_fitted_line_64_bytes(self):
        assert comm_latency(64, CommModel()) == pytest.approx(0.0020128, abs=1e-12)

    def test_fitted_line_one_megabyte(self):
        assert comm_latency(1_000_000, CommModel()) == pytest.approx(0.202, abs=1e-12)

    def test_affine_composition(self):
        m = CommModel()
        a, b = 12_345, 67_890
        lhs = comm_latency(a + b, m)
        rhs = comm_latency(a, m) + comm_latency(b, m) - m.base_seconds
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            comm_latency(-1, CommModel())


class TestMemory:
    def test_dense_group_exceeds_one_device(self, two_stream):
        # 130.4M weights (~522 MB raw); at overhead 2.0 the whole dense
        # head cannot sit in a 1 GB device.
        raw = raw_weights(two_stream, DENSE)
        assert 520e6 < raw < 525e6
        assert resident(two_stream, DENSE, 2.0) > DeviceProfile().mem_bytes

    def test_empty_task_is_zero(self, two_stream):
        assert resident(two_stream, [], 2.0) == 0

    def test_single_fc_closed_form(self, two_stream):
        weights = (7680 * 8192 + 8192) * 4
        acts = (7680 + 8192) * 4
        assert resident(two_stream, ["fc_d1"], 1.0) == weights + acts

    def test_monotone_under_layer_addition(self, two_stream):
        for i in range(1, len(DENSE)):
            assert (resident(two_stream, DENSE[: i + 1], 2.0)
                    >= resident(two_stream, DENSE[:i], 2.0))


def compute(graph, names, dev):
    return price_task(graph, [names], dev).compute_seconds()


def load_time(graph, names, dev):
    return price_task(graph, [names], dev).load_seconds[0]


class TestCompute:
    def test_fc_mac_count(self, two_stream):
        dev = DeviceProfile(swap_threshold=10**12)  # isolate the pure rate
        got = compute(two_stream, ["fc_d1"], dev)
        assert got == pytest.approx(2 * 62_914_560 / dev.flops_per_sec, rel=1e-12)

    def test_relu_element_count(self, two_stream):
        dev = DeviceProfile()
        got = compute(two_stream, ["act_d1"], dev)
        assert got == pytest.approx(8192 / dev.flops_per_sec, rel=1e-12)

    def test_swap_multiplier_is_exact(self, two_stream):
        below = DeviceProfile(swap_threshold=10**12)
        above = DeviceProfile(swap_threshold=1)
        base = compute(two_stream, ["fc_d1"], below)
        assert price_task(two_stream, [["fc_d1"]], above).swap == (above.swap_penalty,)
        assert compute(two_stream, ["fc_d1"], above) == pytest.approx(
            base * above.swap_penalty, rel=1e-12)

    def test_split_regime_speedup_exceeds_two(self):
        # An output-size-2s dense layer whose raw weights cross the swap
        # threshold costs more than twice the size-s layer: sharding it
        # across two devices gains more than 2x.
        layers = {
            "src": LayerSpec("src", ir.SOURCE, {"shape": [8192]}),
            "big": LayerSpec("big", ir.FC, {"out_size": 8192}, ["src"]),
            "half": LayerSpec("half", ir.FC, {"out_size": 4096}, ["src"]),
            "out": LayerSpec("out", ir.SINK, {}, ["big"]),
        }
        g = validate_graph(ModelGraph(layers, ["src"], ["out"]))
        dev = DeviceProfile()
        assert raw_weights(g, ["big"]) > dev.swap_threshold
        assert raw_weights(g, ["half"]) < dev.swap_threshold
        assert (compute(g, ["big"], dev)
                > 2 * compute(g, ["half"], dev))

    def test_monotone_under_layer_addition(self, two_stream):
        dev = DeviceProfile()
        for i in range(1, len(DENSE)):
            assert (compute(two_stream, DENSE[: i + 1], dev)
                    >= compute(two_stream, DENSE[:i], dev))

    def test_each_resident_group_swaps_on_its_own(self, two_stream):
        dev = DeviceProfile()
        price = price_task(two_stream, [["fc_d1", "act_d1"], ["fc_d2", "act_d2"]], dev)
        assert price.swap == tuple(
            price_task(two_stream, [g], dev).swap[0] for g in price.groups)
        assert price.compute_seconds() == (compute(two_stream, ["fc_d1", "act_d1"], dev)
                                           + compute(two_stream, ["fc_d2", "act_d2"], dev))


class TestLoadTime:
    def test_empty_task_costs_setup_only(self, two_stream):
        dev = DeviceProfile()
        assert load_time(two_stream, [], dev) == dev.load_setup_seconds

    def test_dense_group_at_50_mbps(self, two_stream):
        dev = DeviceProfile(load_bandwidth=50e6)
        got = load_time(two_stream, DENSE, dev)
        assert got == pytest.approx(11.44, abs=0.05)

    def test_doubling_bandwidth_halves_variable_term(self, two_stream):
        slow = DeviceProfile(load_bandwidth=50e6)
        fast = DeviceProfile(load_bandwidth=100e6)
        tv = load_time(two_stream, DENSE, slow) - slow.load_setup_seconds
        tf = load_time(two_stream, DENSE, fast) - fast.load_setup_seconds
        assert tv == pytest.approx(2 * tf, rel=1e-9)

    def test_monotone(self, two_stream):
        dev = DeviceProfile()
        for i in range(1, len(DENSE)):
            assert (load_time(two_stream, DENSE[: i + 1], dev)
                    >= load_time(two_stream, DENSE[:i], dev))

    def test_row_shard_loads_and_computes_its_rows(self, two_stream):
        # rows [0, 4096) of fc_d1's 8192: half its weights and work; the
        # relu after it runs on the shard's rows, fc_d2 on the whole value
        dev = DeviceProfile()
        layers = ["fc_d1", "act_d1", "fc_d2"]
        assert costs.row_local_layers(two_stream, layers, "fc_d1") == ("fc_d1", "act_d1")
        whole = price_task(two_stream, [layers], dev)
        shard = price_task(two_stream, [layers], dev, part=("fc_d1", 0, 4096))
        for name in ("fc_d1", "act_d1"):
            assert shard.layer_seconds[name] == whole.layer_seconds[name] * 0.5
        assert shard.layer_seconds["fc_d2"] == whole.layer_seconds["fc_d2"]
        weights = (7680 * 8192 + 8192) // 2 + costs.weight_count(two_stream, "fc_d2")
        assert shard.load_seconds == (weights * 4 / dev.load_bandwidth + dev.load_setup_seconds,)


class TestEnergy:
    def test_five_idle_devices(self):
        devs = [DeviceProfile() for _ in range(5)]
        out = energy(10.0, {}, devs)
        assert out["static_joules"] == pytest.approx(65.0, abs=1e-9)
        assert out["dynamic_joules"] == 0.0

    def test_one_busy_device(self):
        out = energy(10.0, {0: 10.0}, [DeviceProfile()])
        assert out["dynamic_joules"] == pytest.approx(17.0, abs=1e-9)
        assert out["total_joules"] == pytest.approx(13.0 + 17.0, abs=1e-9)

    def test_busy_beyond_wall_rejected(self):
        with pytest.raises(ValueError):
            energy(1.0, {0: 2.0}, [DeviceProfile()])

    def test_power_profile_ordering_enforced(self):
        with pytest.raises(ValueError):
            PowerProfile(idle_watts=5.0, busy_watts=4.0, observed_watts=4.5)


class TestProfiles:
    def test_json_roundtrip(self):
        dev, comm = DeviceProfile(flops_per_sec=123e6), CommModel(0.0003, 0.004)
        text = profiles_to_json(dev, comm)
        dev2, comm2 = profiles_from_json(text)
        assert dev2.flops_per_sec == 123e6
        assert dev2.swap_threshold == dev.swap_threshold
        assert comm2.base_seconds == 0.004

    def test_host_microbenchmark_runs(self):
        prof = measure_host_profile(repeat=1)
        assert prof.flops_per_sec > 0
        assert prof.conv_flops_per_sec > 0

    def test_scaled_mem_regimes(self):
        dev = DeviceProfile()
        small = dev.scaled_mem(0.125)
        assert small.mem_bytes == int(dev.mem_bytes * 0.125 ** 2)
        assert small.swap_threshold == int(dev.swap_threshold * 0.125 ** 2)
        assert dev.scaled_mem(1.0) is dev

    def test_copies_keep_every_field(self):
        dev = DeviceProfile(mem_bytes=3_000_000, flops_per_sec=1e6, conv_flops_per_sec=2e6,
                            load_bandwidth=3e6, load_setup_seconds=0.5, swap_threshold=700_000,
                            swap_penalty=2.5, power=PowerProfile(1.0, 5.0, 2.0))
        assert dev.scaled_mem(0.5) == DeviceProfile(
            mem_bytes=750_000, flops_per_sec=1e6, conv_flops_per_sec=2e6, load_bandwidth=3e6,
            load_setup_seconds=0.5, swap_threshold=175_000, swap_penalty=2.5,
            power=PowerProfile(1.0, 5.0, 2.0))
        assert costs.device_from_dict(asdict(dev)) == dev
        assert profiles_from_json(profiles_to_json(dev, CommModel()))[0] == dev
