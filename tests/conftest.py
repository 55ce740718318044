"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def vgg_conv_blocks():
    """A function from a VGG16 graph to the layer names of each of its
    conv blocks: the block's convs and activations, then its pool."""
    def blocks(graph):
        pools = [n for n in graph.topo_order if n.startswith("pool_")]
        return [[n for n in graph.topo_order if n.startswith(f"b{p.removeprefix('pool_')}_")] + [p]
                for p in pools]
    return blocks
