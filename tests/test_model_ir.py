"""Graph construction, shape inference and builder dimension checks."""

import pytest

from edgeflock import model_ir as ir
from edgeflock.model_ir import (
    GraphError,
    LayerSpec,
    ModelGraph,
    ShapeError,
    TensorShape,
    build_model,
    infer_shape,
    validate_graph,
)


def test_conv_same_padding_keeps_spatial_dims():
    # 256 filters of 5x5 over a 16x12x3 frame -> 16x12x256
    spec = LayerSpec("c", ir.CONV, {"filters": 256, "kernel_h": 5, "kernel_w": 5,
                                    "stride": 1, "padding": "same"}, ["x"])
    out = infer_shape(spec, [TensorShape((16, 12, 3))])
    assert out.dims == (16, 12, 256)


def test_fc_flattens_multirank_input():
    spec = LayerSpec("f", ir.FC, {"out_size": 8192}, ["x"])
    out = infer_shape(spec, [TensorShape((2, 15, 256))])
    assert out.dims == (8192,)
    # 2*15*256 = 7680 is the flattened feed size
    assert TensorShape((2, 15, 256)).size == 7680


def test_maxpool_floor_division():
    spec = LayerSpec("p", ir.MAXPOOL, {"window": 2, "stride": 2}, ["x"])
    out = infer_shape(spec, [TensorShape((16, 12, 256))])
    assert out.dims == (8, 6, 256)


def test_pyramid_row_count():
    spec = LayerSpec("py", ir.PYRAMID, {"levels": 4, "window": 15}, ["x"])
    out = infer_shape(spec, [TensorShape((256,))])
    assert out.dims == (15, 256)


def test_concat_sums_axis_and_checks_others():
    spec = LayerSpec("cat", ir.CONCAT, {"axis": 0}, ["a", "b"])
    out = infer_shape(spec, [TensorShape((15, 256)), TensorShape((15, 256))])
    assert out.dims == (30, 256)
    with pytest.raises(ShapeError):
        infer_shape(spec, [TensorShape((15, 256)), TensorShape((15, 128))])


def _extra_input_graphs():
    """cam -> fc a, fc c -> relu(a, c) -> sink, and an fc over inputs of
    sizes 3 and 5."""
    relu = {
        "cam": LayerSpec("cam", ir.SOURCE, {"shape": [4]}),
        "a": LayerSpec("a", ir.FC, {"out_size": 3}, ["cam"]),
        "c": LayerSpec("c", ir.FC, {"out_size": 3}, ["cam"]),
        "r": LayerSpec("r", ir.RELU, {}, ["a", "c"]),
        "out": LayerSpec("out", ir.SINK, {}, ["r"]),
    }
    fc = {
        "cam": LayerSpec("cam", ir.SOURCE, {"shape": [4]}),
        "a": LayerSpec("a", ir.FC, {"out_size": 3}, ["cam"]),
        "c": LayerSpec("c", ir.FC, {"out_size": 5}, ["cam"]),
        "r": LayerSpec("r", ir.FC, {"out_size": 2}, ["a", "c"]),
        "out": LayerSpec("out", ir.SINK, {}, ["r"]),
    }
    return [ModelGraph(relu, ["cam"], ["out"]), ModelGraph(fc, ["cam"], ["out"])]


@pytest.mark.parametrize("index", [0, 1])
def test_only_concat_takes_more_than_one_input(index):
    graph = _extra_input_graphs()[index]
    with pytest.raises(ShapeError, match="layer 'r'.*exactly one input, got 2"):
        validate_graph(graph)
    with pytest.raises(ShapeError, match="layer 'r'"):
        ModelGraph.from_json(graph.to_json())


@pytest.mark.parametrize("text", [
    "not json {",
    "[]",
    '{"layers": [], "outputs": []}',
    '{"layers": [{"name": "x"}], "inputs": ["x"], "outputs": []}',
    '{"layers": ["x"], "inputs": [], "outputs": []}',
    '{"layers": [], "inputs": [], "outputs": [], "seed": "one"}',
])
def test_from_json_types_an_undecodable_document(text):
    with pytest.raises(GraphError, match="malformed model JSON"):
        ModelGraph.from_json(text)


def test_kernel_larger_than_input_rejected():
    spec = LayerSpec("c", ir.CONV, {"filters": 4, "kernel_h": 20, "kernel_w": 20,
                                    "stride": 1, "padding": "valid"}, ["x"])
    with pytest.raises(ShapeError):
        infer_shape(spec, [TensorShape((16, 12, 3))])


def test_unknown_kind_rejected():
    with pytest.raises(GraphError):
        LayerSpec("z", "wavelet", {}, ["x"])


def test_validate_two_stream_fills_all_shapes():
    g = build_model("two_stream", 1.0, seed=7)
    assert set(g.shapes) == set(g.layers)
    assert g.shapes["pyr_s"].dims == (15, 256)
    assert g.shapes["pyr_t"].dims == (15, 256)
    assert g.shapes["fuse"].size == 7680
    assert g.shapes["fc_d1"].dims == (8192,)
    assert g.shapes["fc_d3"].dims == (51,)
    # stream bodies: flow stack + 6 convs + 6 acts + 2 embedding fcs
    stream = [n for n in g.layers
              if n.endswith(("s", "t")) and not n.startswith("pyr")]
    assert len(stream) == 15


def test_validate_detects_cycle():
    layers = {
        "src": LayerSpec("src", ir.SOURCE, {"shape": [4]}),
        "a": LayerSpec("a", ir.RELU, {}, ["b"]),
        "b": LayerSpec("b", ir.RELU, {}, ["a"]),
        "out": LayerSpec("out", ir.SINK, {}, ["b"]),
    }
    with pytest.raises(GraphError, match="cycle"):
        validate_graph(ModelGraph(layers, ["src"], ["out"]))


def test_validate_rejects_empty_graph():
    with pytest.raises(GraphError):
        validate_graph(ModelGraph({}, [], []))


def test_validate_rejects_dangling_reference():
    layers = {
        "src": LayerSpec("src", ir.SOURCE, {"shape": [4]}),
        "a": LayerSpec("a", ir.RELU, {}, ["ghost"]),
    }
    with pytest.raises(GraphError, match="ghost"):
        validate_graph(ModelGraph(layers, ["src"], []))


def test_two_stream_scaling_divides_unit_counts():
    g = build_model("two_stream", 0.125, seed=0)
    assert g.layer("conv_1s").attrs["filters"] == 32
    assert g.layer("fc_d1").attrs["out_size"] == 1024
    assert g.layer("fc_d2").attrs["out_size"] == 1024
    # classifier width is a task constant, never scaled
    assert g.layer("fc_d3").attrs["out_size"] == 51
    assert g.topo_order == build_model("two_stream", 1.0, seed=0).topo_order


def test_dense_scale_variant_is_explicit():
    half = build_model("two_stream", 1.0, seed=0, dense_scale=0.5)
    assert half.layer("fc_d1").attrs["out_size"] == 4096
    assert half.layer("fc_d3").attrs["out_size"] == 51


def test_alexnet_canonical_dims():
    g = build_model("alexnet", 1.0)
    assert g.shapes["conv_1"].dims == (55, 55, 96)
    assert g.shapes["pool_1"].dims == (27, 27, 96)
    assert g.shapes["pool_5"].dims == (6, 6, 256)
    assert g.shapes["pool_5"].size == 9216
    assert g.shapes["fc_3"].dims == (1000,)


def test_vgg16_thirteen_convs_in_five_blocks():
    g = build_model("vgg16", 1.0)
    convs = [n for n in g.layers if g.layer(n).kind == ir.CONV]
    assert len(convs) == 13
    assert g.shapes["pool_5"].dims == (7, 7, 512)
    fcs = [n for n in g.layers if g.layer(n).kind == ir.FC]
    assert fcs == ["fc_1", "fc_2", "fc_3"]


def test_rebuild_same_seed_bit_identical_serialization():
    a = build_model("two_stream", 0.5, seed=42).to_json()
    b = build_model("two_stream", 0.5, seed=42).to_json()
    assert a == b
    c = ModelGraph.from_json(a).to_json()
    assert c == a


def test_unknown_model_and_bad_scale():
    with pytest.raises(ValueError):
        build_model("lenet", 1.0)
    with pytest.raises(ValueError):
        build_model("two_stream", 0.0)


def test_first_valid_tags_accumulate_window_lags():
    g = build_model("two_stream", 0.125, seed=0)
    assert g.first_valid["camera"] == 0
    assert g.first_valid["flow"] == 10
    assert g.first_valid["pyr_s"] == 14
    assert g.first_valid["pyr_t"] == 24
    assert g.first_valid["out"] == 24
