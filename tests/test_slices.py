"""Long batches run in slices: a batch of 1,024 points or more is evaluated
in consecutive slices of a multiple of 64 points, at least 512, whose widest
state fits _CHUNK_BYTES, the last taking the rest.  The slices join to the
result bit for bit, and a shorter batch runs whole."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anncalc.network
from anncalc import (
    IDENTITY,
    Activation,
    ApproxSpec,
    Network,
    RELU,
    forward_states,
    product_net,
    realize,
)
from anncalc.network import _CHUNK_BYTES

from conftest import spy

USER_TANH = Activation("tanh", np.tanh)
ACTIVATIONS = (RELU, IDENTITY, USER_TANH)


def slice_size(net):
    """The most multiple of 64 points whose widest state fits _CHUNK_BYTES, at least 512."""
    width = max(net.input_dim, *(layer.rows for layer in net.layers))
    return max(512, _CHUNK_BYTES // (8 * width) // 64 * 64)


def slice_edges(net, n):
    """Where the slices of an n-point batch start, and n: slices of
    slice_size points, the last with the rest; one slice under 1,024 points."""
    size = slice_size(net)
    if n < max(1024, 2 * size):
        return [0, n]
    return list(range(0, n - size + 1, size)) + [n]


def dense_net(seed, widths):
    rng = np.random.default_rng(seed)
    return Network(tuple(
        (rng.standard_normal((o, i)) / np.sqrt(i), 0.5 * rng.standard_normal(o))
        for i, o in zip(widths[:-1], widths[1:])
    ))


def batch(seed, n, d):
    return np.random.default_rng([seed, n]).uniform(-2.0, 2.0, (n, d))


def check_slices_join(net, act, x):
    """realize equals the last state of forward_states and the slices
    evaluated one by one, byte for byte, and so do all the states."""
    edges = slice_edges(net, len(x))
    got = realize(net, act, x)
    states = forward_states(net, act, x)
    assert got.shape == (len(x), net.output_dim)
    assert got.tobytes() == states[-1].tobytes()
    parts = [forward_states(net, act, x[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    for k, state in enumerate(states):
        assert state.tobytes() == np.concatenate([p[k] for p in parts]).tobytes()


@given(
    seed=st.integers(0, 2**16),
    hidden=st.lists(st.integers(1, 200), min_size=1, max_size=3),
    d_in=st.integers(1, 4),
    d_out=st.integers(1, 3),
    case=st.sampled_from(["1023", "1024", "2s-1", "2s", "2s+1"]),
)
def test_slices_of_dense_nets_join_bit_for_bit(seed, hidden, d_in, d_out, case):
    net = dense_net(seed, [d_in, *hidden, d_out])
    s = slice_size(net)
    n = {"1023": 1023, "1024": 1024, "2s-1": 2 * s - 1, "2s": 2 * s, "2s+1": 2 * s + 1}[case]
    x = batch(seed, n, d_in)
    for act in ACTIVATIONS:
        check_slices_join(net, act, x)


@pytest.mark.parametrize("widths", [[2, 200, 16, 1], [3, 48, 48, 2], [2, 24, 24, 24, 1]])
def test_slices_of_a_40k_batch_join_bit_for_bit(widths):
    net = dense_net(1, widths)
    x = batch(1, 40_401, widths[0])
    assert len(slice_edges(net, len(x))) > 2
    for act in ACTIVATIONS:
        check_slices_join(net, act, x)


@pytest.mark.parametrize("act", ACTIVATIONS, ids=lambda a: a.kind)
def test_empty_batch_and_single_point_are_unchanged(act):
    net = dense_net(2, [3, 200, 5, 2])
    assert realize(net, act, np.zeros((0, 3))).shape == (0, 2)
    assert [s.shape for s in forward_states(net, act, np.zeros((0, 3)))] == [
        (0, 3), (0, 200), (0, 5), (0, 2)]
    x = batch(2, 1, 3)
    z = x
    for k, layer in enumerate(net.layers):
        z = z @ layer.weights.T + layer.bias
        z = act.fn(z) if k < net.depth - 1 else z
    assert realize(net, act, x[0]).tobytes() == z[0].tobytes()
    assert forward_states(net, act, x[0])[-1].tobytes() == z[0].tobytes()


def test_no_slice_of_a_product_grid_breaks_the_rule(monkeypatch):
    net = product_net(ApproxSpec(1e-2, 3.0))
    width = max(layer.rows for layer in net.layers)
    size = slice_size(net)
    axis = np.linspace(-3.0, 3.0, 201)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    calls = spy(monkeypatch, anncalc.network, "_states")
    realize(net, RELU, pts)
    sizes = [len(z) for _, _, z in calls]
    assert sum(sizes) == len(pts) and len(sizes) == len(pts) // size
    assert set(sizes[:-1]) == {size} and size <= sizes[-1] < 2 * size
    assert size % 64 == 0 and size >= 512 and 8 * width * size <= _CHUNK_BYTES

    calls.clear()
    realize(net, RELU, pts[:1023])
    assert [len(z) for _, _, z in calls] == [1023]
