"""Declarative feed-forward DNN graphs with shape inference.

A graph is a DAG of named layers.  Shapes describe a single streamed
item on each edge (one camera frame, one feature vector); layers that
aggregate several consecutive items (flow stacking, temporal pyramids)
declare their window so both the reference engine and the distributed
runtime agree on tag alignment.

Builders are provided for the three stock models: a two-stream action
recognition network (spatial CNN + temporal CNN + temporal pyramid +
dense classifier head), an AlexNet-shaped image classifier and VGG16.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

# Layer kinds.  attrs carried per kind:
#   source    shape: [..]          sink      -
#   fc        out_size             conv      filters, kernel_h, kernel_w, stride, padding
#   maxpool   window, stride       norm      -
#   relu      -                    softmax   -
#   concat    axis                 pyramid   levels, window
#   flowstack window_len
SOURCE = "source"
SINK = "sink"
FC = "fc"
CONV = "conv"
MAXPOOL = "maxpool"
NORM = "norm"
RELU = "relu"
SOFTMAX = "softmax"
CONCAT = "concat"
PYRAMID = "pyramid"
FLOWSTACK = "flowstack"

KINDS = {SOURCE, SINK, FC, CONV, MAXPOOL, NORM, RELU, SOFTMAX, CONCAT, PYRAMID, FLOWSTACK}

# Kinds whose output at tag t depends on a run of consecutive input tags.
WINDOWED_KINDS = {PYRAMID, FLOWSTACK}
# Cheap elementwise glue that planning fuses onto its producer.
GLUE_KINDS = {RELU, NORM, SOFTMAX, MAXPOOL}

MODEL_NAMES = ("two_stream", "alexnet", "vgg16")


class GraphError(ValueError):
    """Raised for malformed graphs: cycles, dangling inputs, bad layers."""


class ShapeError(GraphError):
    """Raised when shape inference fails; message names the layer."""


@dataclass(frozen=True)
class TensorShape:
    """Ordered positive extents. Images are (height, width, channels)."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ShapeError(f"all extents must be >= 1, got {self.dims}")

    @property
    def size(self) -> int:
        return math.prod(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


@dataclass
class LayerSpec:
    """One graph node: a layer kind plus its parameters and wiring."""

    name: str
    kind: str
    attrs: dict = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)
    weights_seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise GraphError(f"layer {self.name!r}: unknown kind {self.kind!r}")
        if self.kind != SOURCE and not self.inputs:
            raise GraphError(f"layer {self.name!r}: non-source layer needs >= 1 input")
        if self.kind == SOURCE and self.inputs:
            raise GraphError(f"layer {self.name!r}: source layers take no inputs")

    @property
    def window(self) -> int:
        """Number of consecutive input items one output item consumes."""
        if self.kind == PYRAMID:
            return int(self.attrs["window"])
        if self.kind == FLOWSTACK:
            return int(self.attrs["window_len"]) + 1
        return 1


@dataclass
class ModelGraph:
    """Validated DAG of layers with per-layer item shapes."""

    layers: dict[str, LayerSpec]
    inputs: list[str]
    outputs: list[str]
    seed: int = 0
    shapes: dict[str, TensorShape] = field(default_factory=dict)
    topo_order: list[str] = field(default_factory=list)
    # first_valid[n]: lowest tag layer n can ever emit, given the window
    # lags accumulated along its ancestry (sources start at tag 0).
    first_valid: dict[str, int] = field(default_factory=dict)
    # consumer_index[n]: the layers reading n, once each, in topo_order.
    consumer_index: dict[str, list[str]] = field(default_factory=dict)
    # Generated layer parameters keyed by (seed, layer), filled lazily by
    # engine.shared_params and shared read-only by every executor.
    params_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # Each layer's cost terms (ops, weights, activation bytes) keyed by
    # layer, filled lazily by costs and read by planner and workers alike.
    costs_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def layer(self, name: str) -> LayerSpec:
        return self.layers[name]

    def consumers(self, name: str) -> list[str]:
        """The layers reading ``name``, in topological order; the list is
        the graph's own, not to be changed."""
        return self.consumer_index.get(name, [])

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "layers": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "attrs": spec.attrs,
                    "inputs": spec.inputs,
                    "weights_seed": spec.weights_seed,
                }
                for spec in self.layers.values()
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelGraph":
        """Inverse of ``to_json``; ``GraphError`` for a document it cannot
        decode or a graph that does not validate."""
        try:
            doc = json.loads(text)
            layers = {}
            for entry in doc["layers"]:
                spec = LayerSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    attrs=dict(entry.get("attrs", {})),
                    inputs=list(entry.get("inputs", [])),
                    weights_seed=int(entry.get("weights_seed", 0)),
                )
                layers[spec.name] = spec
            graph = ModelGraph(
                layers=layers,
                inputs=list(doc["inputs"]),
                outputs=list(doc["outputs"]),
                seed=int(doc.get("seed", 0)),
            )
        except GraphError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed model JSON: {type(exc).__name__}: {exc}") from exc
        return validate_graph(graph)


def infer_shape(spec: LayerSpec, in_shapes: list[TensorShape]) -> TensorShape:
    """Output item shape of one layer given its input item shapes.

    A concat takes one or more inputs, every other kind but a source
    exactly one.
    """
    if spec.kind == SOURCE:
        return TensorShape(tuple(int(d) for d in spec.attrs["shape"]))
    if not in_shapes:
        raise ShapeError(f"layer {spec.name!r}: no input shapes")
    if spec.kind != CONCAT and len(in_shapes) != 1:
        raise ShapeError(f"layer {spec.name!r}: a {spec.kind} layer takes exactly one input, "
                         f"got {len(in_shapes)}")
    shape = in_shapes[0]

    if spec.kind in (SINK, NORM, RELU, SOFTMAX):
        return shape

    if spec.kind == FC:
        out = int(spec.attrs["out_size"])
        if out < 1:
            raise ShapeError(f"layer {spec.name!r}: out_size must be >= 1")
        return TensorShape((out,))

    if spec.kind == CONV:
        if shape.rank != 3:
            raise ShapeError(f"layer {spec.name!r}: conv input must be rank 3, got {shape.dims}")
        h, w, _ = shape.dims
        kh, kw = int(spec.attrs["kernel_h"]), int(spec.attrs["kernel_w"])
        stride = int(spec.attrs.get("stride", 1))
        padding = spec.attrs.get("padding", "same")
        if padding == "same":
            oh, ow = -(-h // stride), -(-w // stride)
        elif padding == "valid":
            if kh > h or kw > w:
                raise ShapeError(f"layer {spec.name!r}: kernel {kh}x{kw} exceeds input {h}x{w}")
            oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
        else:
            raise ShapeError(f"layer {spec.name!r}: unknown padding {padding!r}")
        return TensorShape((oh, ow, int(spec.attrs["filters"])))

    if spec.kind == MAXPOOL:
        if shape.rank != 3:
            raise ShapeError(f"layer {spec.name!r}: maxpool input must be rank 3, got {shape.dims}")
        h, w, c = shape.dims
        win = int(spec.attrs["window"])
        stride = int(spec.attrs.get("stride", win))
        if win > h or win > w:
            raise ShapeError(f"layer {spec.name!r}: window {win} exceeds input {h}x{w}")
        return TensorShape(((h - win) // stride + 1, (w - win) // stride + 1, c))

    if spec.kind == CONCAT:
        axis = int(spec.attrs.get("axis", 0))
        for other in in_shapes[1:]:
            if other.rank != shape.rank:
                raise ShapeError(f"layer {spec.name!r}: concat rank mismatch")
            for ax, (a, b) in enumerate(zip(shape.dims, other.dims)):
                if ax != axis and a != b:
                    raise ShapeError(
                        f"layer {spec.name!r}: concat inputs disagree on axis {ax}: {a} vs {b}"
                    )
        total = sum(s.dims[axis] for s in in_shapes)
        dims = list(shape.dims)
        dims[axis] = total
        return TensorShape(tuple(dims))

    if spec.kind == PYRAMID:
        levels = int(spec.attrs["levels"])
        if levels < 1:
            raise ShapeError(f"layer {spec.name!r}: levels must be >= 1")
        return TensorShape((2 ** levels - 1, shape.size))

    if spec.kind == FLOWSTACK:
        if shape.rank not in (2, 3):
            raise ShapeError(f"layer {spec.name!r}: flowstack input must be an image")
        h, w = shape.dims[0], shape.dims[1]
        return TensorShape((h, w, 2 * int(spec.attrs["window_len"])))

    raise ShapeError(f"layer {spec.name!r}: unknown kind {spec.kind!r}")


def validate_graph(graph: ModelGraph) -> ModelGraph:
    """Check DAG-ness, fix a deterministic topological order, infer shapes.

    Raises GraphError on cycles, dangling references or a negative seed,
    ShapeError (with the offending layer named) when inference fails.
    """
    if not graph.layers:
        raise GraphError("empty graph: no layers")
    sources = [n for n, s in graph.layers.items() if s.kind == SOURCE]
    if not sources:
        raise GraphError("graph has no source layer")
    # Seeds key numpy's generators, which take no negative value.
    if graph.seed < 0:
        raise GraphError(f"graph seed {graph.seed} is negative")
    for name, spec in graph.layers.items():
        if spec.name != name:
            raise GraphError(f"layer key {name!r} does not match spec name {spec.name!r}")
        if spec.weights_seed < 0:
            raise GraphError(f"layer {name!r}: weights_seed {spec.weights_seed} is negative")
        for inp in spec.inputs:
            if inp not in graph.layers:
                raise GraphError(f"layer {name!r} references unknown input {inp!r}")
    for n in graph.inputs:
        if n not in graph.layers or graph.layers[n].kind != SOURCE:
            raise GraphError(f"declared input {n!r} is not a source layer")
    for n in graph.outputs:
        if n not in graph.layers or graph.layers[n].kind != SINK:
            raise GraphError(f"declared output {n!r} is not a sink layer")

    # Kahn topological sort; insertion order breaks ties so the order is
    # deterministic for a given serialization.  readers[n] lists the
    # layers reading n once each, in insertion order.
    readers: dict[str, list[str]] = {n: [] for n in graph.layers}
    for m, spec in graph.layers.items():
        for inp in dict.fromkeys(spec.inputs):
            readers[inp].append(m)
    indeg = {n: len(s.inputs) for n, s in graph.layers.items()}
    ready = [n for n, d in indeg.items() if d == 0]
    order: list[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        for m in readers[n]:
            indeg[m] -= graph.layers[m].inputs.count(n)
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(graph.layers):
        stuck = sorted(set(graph.layers) - set(order))
        raise GraphError(f"cycle detected involving layers {stuck}")

    shapes: dict[str, TensorShape] = {}
    first_valid: dict[str, int] = {}
    for n in order:
        spec = graph.layers[n]
        try:
            shapes[n] = infer_shape(spec, [shapes[i] for i in spec.inputs])
        except ShapeError:
            raise
        except Exception as exc:  # attribute/key errors surface with layer name
            raise ShapeError(f"layer {n!r}: {exc}") from exc
        base = max((first_valid[i] for i in spec.inputs), default=0)
        first_valid[n] = base + (spec.window - 1)
    graph.shapes = shapes
    rank = {n: i for i, n in enumerate(order)}
    graph.topo_order = order
    graph.first_valid = first_valid
    graph.consumer_index = {n: sorted(readers[n], key=rank.__getitem__) for n in order}
    return graph


def _scaled(units: int, scale: float) -> int:
    """Rescale a channel/unit count: rounded up, floor of 1."""
    return max(1, math.ceil(units * scale))


class _Builder:
    def __init__(self, seed: int):
        self.layers: dict[str, LayerSpec] = {}
        self.seed = seed
        self._next = 0

    def add(self, name, kind, attrs=None, inputs=()):
        spec = LayerSpec(name, kind, dict(attrs or {}), list(inputs), weights_seed=self._next)
        self._next += 1
        self.layers[name] = spec
        return name

    def graph(self, inputs, outputs) -> ModelGraph:
        return validate_graph(
            ModelGraph(layers=self.layers, inputs=list(inputs), outputs=list(outputs), seed=self.seed)
        )


def _build_two_stream(scale: float, seed: int, dense_scale: float = 1.0) -> ModelGraph:
    """Two-stream action recognizer over 16x12 frames.

    Spatial stream: three 256-filter convs (5x5 then 3x3, 3x3) with ReLU,
    then a 256-wide embedding fc.  Temporal stream: the same stack over a
    stack of 10 consecutive optical-flow fields (20 channels).  A 4-level
    temporal pyramid per stream (15 rows each, over a window of 15 items)
    feeds dense layers 8192/8192/51 and a softmax.
    """
    b = _Builder(seed)
    f = _scaled(256, scale)
    embed = _scaled(256, scale)
    dense = _scaled(8192, scale * dense_scale)

    b.add("camera", SOURCE, {"shape": [16, 12, 3]})

    prev = "camera"
    for i, (k, ch) in enumerate([(5, f), (3, f), (3, f)], start=1):
        prev = b.add(f"conv_{i}s", CONV, {"filters": ch, "kernel_h": k, "kernel_w": k, "stride": 1, "padding": "same"}, [prev])
        prev = b.add(f"act_{i}s", RELU, {}, [prev])
    b.add("fc_1s", FC, {"out_size": embed}, [prev])

    b.add("flow", FLOWSTACK, {"window_len": 10}, ["camera"])
    prev = "flow"
    for i, (k, ch) in enumerate([(5, f), (3, f), (3, f)], start=1):
        prev = b.add(f"conv_{i}t", CONV, {"filters": ch, "kernel_h": k, "kernel_w": k, "stride": 1, "padding": "same"}, [prev])
        prev = b.add(f"act_{i}t", RELU, {}, [prev])
    b.add("fc_1t", FC, {"out_size": embed}, [prev])

    b.add("pyr_s", PYRAMID, {"levels": 4, "window": 15}, ["fc_1s"])
    b.add("pyr_t", PYRAMID, {"levels": 4, "window": 15}, ["fc_1t"])
    b.add("fuse", CONCAT, {"axis": 0}, ["pyr_s", "pyr_t"])

    b.add("fc_d1", FC, {"out_size": dense}, ["fuse"])
    b.add("act_d1", RELU, {}, ["fc_d1"])
    b.add("fc_d2", FC, {"out_size": dense}, ["act_d1"])
    b.add("act_d2", RELU, {}, ["fc_d2"])
    b.add("fc_d3", FC, {"out_size": 51}, ["act_d2"])
    b.add("smax", SOFTMAX, {}, ["fc_d3"])
    b.add("out", SINK, {}, ["smax"])
    return b.graph(["camera"], ["out"])


def _build_alexnet(scale: float, seed: int) -> ModelGraph:
    """AlexNet-shaped classifier on 227x227x3 inputs (batch-norm variant)."""
    b = _Builder(seed)
    b.add("input", SOURCE, {"shape": [227, 227, 3]})
    b.add("conv_1", CONV, {"filters": _scaled(96, scale), "kernel_h": 11, "kernel_w": 11, "stride": 4, "padding": "valid"}, ["input"])
    b.add("act_1", RELU, {}, ["conv_1"])
    b.add("norm_1", NORM, {}, ["act_1"])
    b.add("pool_1", MAXPOOL, {"window": 3, "stride": 2}, ["norm_1"])
    b.add("conv_2", CONV, {"filters": _scaled(256, scale), "kernel_h": 5, "kernel_w": 5, "stride": 1, "padding": "same"}, ["pool_1"])
    b.add("act_2", RELU, {}, ["conv_2"])
    b.add("norm_2", NORM, {}, ["act_2"])
    b.add("pool_2", MAXPOOL, {"window": 3, "stride": 2}, ["norm_2"])
    b.add("conv_3", CONV, {"filters": _scaled(384, scale), "kernel_h": 3, "kernel_w": 3, "stride": 1, "padding": "same"}, ["pool_2"])
    b.add("act_3", RELU, {}, ["conv_3"])
    b.add("conv_4", CONV, {"filters": _scaled(384, scale), "kernel_h": 3, "kernel_w": 3, "stride": 1, "padding": "same"}, ["act_3"])
    b.add("act_4", RELU, {}, ["conv_4"])
    b.add("conv_5", CONV, {"filters": _scaled(256, scale), "kernel_h": 3, "kernel_w": 3, "stride": 1, "padding": "same"}, ["act_4"])
    b.add("act_5", RELU, {}, ["conv_5"])
    b.add("pool_5", MAXPOOL, {"window": 3, "stride": 2}, ["act_5"])
    b.add("fc_1", FC, {"out_size": _scaled(4096, scale)}, ["pool_5"])
    b.add("act_6", RELU, {}, ["fc_1"])
    b.add("fc_2", FC, {"out_size": _scaled(4096, scale)}, ["act_6"])
    b.add("act_7", RELU, {}, ["fc_2"])
    b.add("fc_3", FC, {"out_size": 1000}, ["act_7"])
    b.add("smax", SOFTMAX, {}, ["fc_3"])
    b.add("out", SINK, {}, ["smax"])
    return b.graph(["input"], ["out"])


_VGG_BLOCKS = [(64, 2), (128, 2), (256, 3), (512, 3), (512, 3)]


def _build_vgg16(scale: float, seed: int) -> ModelGraph:
    """VGG16: five conv blocks (13 convs) then fc 4096/4096/1000."""
    b = _Builder(seed)
    b.add("input", SOURCE, {"shape": [224, 224, 3]})
    prev = "input"
    for bi, (ch, reps) in enumerate(_VGG_BLOCKS, start=1):
        for ci in range(1, reps + 1):
            prev = b.add(f"b{bi}_conv{ci}", CONV, {"filters": _scaled(ch, scale), "kernel_h": 3, "kernel_w": 3, "stride": 1, "padding": "same"}, [prev])
            prev = b.add(f"b{bi}_act{ci}", RELU, {}, [prev])
        prev = b.add(f"pool_{bi}", MAXPOOL, {"window": 2, "stride": 2}, [prev])
    b.add("fc_1", FC, {"out_size": _scaled(4096, scale)}, [prev])
    b.add("act_f1", RELU, {}, ["fc_1"])
    b.add("fc_2", FC, {"out_size": _scaled(4096, scale)}, ["act_f1"])
    b.add("act_f2", RELU, {}, ["fc_2"])
    b.add("fc_3", FC, {"out_size": 1000}, ["act_f2"])
    b.add("smax", SOFTMAX, {}, ["fc_3"])
    b.add("out", SINK, {}, ["smax"])
    return b.graph(["input"], ["out"])


def build_model(name: str, scale: float = 1.0, seed: int = 0,
                dense_scale: float = 1.0) -> ModelGraph:
    """Build one of the stock models.

    ``scale`` rescales hidden channel/unit counts (rounded up, min 1);
    input dimensions and the final classifier width are fixed.  scale=1
    reproduces the full-size dimensions.  ``dense_scale`` additionally
    shrinks the two_stream classifier's hidden dense layers; 0.5 is the
    reduced-accuracy variant that fits a whole dense head in one
    device's memory.  It is never applied implicitly.
    """
    if scale <= 0 or dense_scale <= 0:
        raise ValueError(f"scale values must be > 0, got {scale}, {dense_scale}")
    if name == "two_stream":
        return _build_two_stream(scale, seed, dense_scale)
    if name == "alexnet":
        return _build_alexnet(scale, seed)
    if name == "vgg16":
        return _build_vgg16(scale, seed)
    raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")

