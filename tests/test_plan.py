"""The evaluation plan of a network: bit-identity with a layer-by-layer
reference on the space-time grid, block order, and no plan for small nets."""

import math

import numpy as np
import pytest

import anncalc.network
from anncalc import (
    IDENTITY,
    Activation,
    EulerSpec,
    Layer,
    Network,
    RELU,
    compose,
    forward_states,
    identity_net,
    parallel_equal,
    realize,
    spacetime_net,
    square_unit,
)

from conftest import random_net, spy

# a ReLU of the user's own, evaluated through its fn like any activation
USER_RELU = Activation("relu", lambda z: np.maximum(z, 0.0))


def one_layer(layer, z):
    """One layer alone on the (n, cols) batch ``z``: ``z @ W.T + b``, or for
    a layer with a block plan, each group's stacked product plus the bias of
    its rows, scattered into a bias-filled (rows, n) array returned
    transposed."""
    if layer._block_plan is None:
        return z @ layer.weights.T + layer.bias
    zt = np.ascontiguousarray(z.T)
    out = np.repeat(layer.bias[:, np.newaxis], zt.shape[1], axis=1)
    for row_ids, col_ids, blocks in layer._block_plan:
        prod = blocks @ zt[col_ids]
        prod += layer.bias[row_ids][:, :, np.newaxis]
        out[row_ids.ravel()] = prod.reshape(row_ids.size, -1)
    return out.T


def layer_by_layer(net, act, x):
    """The states of ``net`` at the batch ``x``, one layer at a time."""
    states = [x]
    for k, layer in enumerate(net.layers):
        z = one_layer(layer, states[-1])
        states.append(act.fn(z) if k < net.depth - 1 else z)
    return states


def grid_spec(seed, d, N):
    """A space-time scheme like those of the benchmark grid: a seeded width-3
    drift, eps=1e-2 and q=3."""
    rng = np.random.default_rng([seed, d, N])
    drift = Network((
        Layer(0.7 * rng.standard_normal((3, d)) / math.sqrt(d), 0.35 * rng.standard_normal(3)),
        Layer(0.7 * rng.standard_normal((d, 3)) / math.sqrt(3), 0.35 * rng.standard_normal(d)),
    ))
    return EulerSpec(drift, 1.0, N, tuple(0.4 * rng.standard_normal((N, d))), 1e-2, 3.0)


def points(seed, d, n):
    rng = np.random.default_rng([seed, 99])
    return np.column_stack([rng.uniform(0.0, 1.0, n), rng.uniform(-2.0, 2.0, (n, d))])


GRID = [(seed, d, N) for seed in (7, 8) for d in (1, 2, 4) for N in (2, 4, 8, 16)]


@pytest.mark.parametrize("seed, d, N", GRID)
def test_realize_keeps_the_layer_by_layer_bytes(seed, d, N):
    net = spacetime_net(grid_spec(seed, d, N))
    x = points(seed, d, 33)
    for act in (RELU, IDENTITY, USER_RELU):
        want = layer_by_layer(net, act, x)[-1]
        for batch in (x, x[:0]):
            got = realize(net, act, batch)
            assert got.shape == want[: len(batch)].shape
            assert got.tobytes() == want[: len(batch)].tobytes()
        one = layer_by_layer(net, act, x[5:6])[-1][0]
        assert realize(net, act, x[5]).tobytes() == one.tobytes()


@pytest.mark.parametrize("seed, d, N", [(7, 4, 4), (8, 2, 16), (8, 4, 16)])
def test_forward_states_are_in_each_layers_own_unit_order(seed, d, N):
    net = spacetime_net(grid_spec(seed, d, N))
    assert any(layer._block_plan is not None for layer in net.layers)
    x = points(seed, d, 9)
    want = layer_by_layer(net, RELU, x)
    got = forward_states(net, RELU, x)
    assert len(got) == len(want)
    for s, w in zip(got, want):
        assert s.shape == w.shape and s.tobytes() == w.tobytes()
    for s, w in zip(forward_states(net, RELU, x[2]), layer_by_layer(net, RELU, x[2:3])):
        assert s.tobytes() == w[0].tobytes()


def test_planned_states_are_kept_in_block_order():
    net = spacetime_net(grid_spec(7, 4, 8))
    realize(net, RELU, points(7, 4, 3))
    pos, reads = None, []
    for layer, step in zip(net.layers, net._plan):
        plan = layer._block_plan
        if plan is None:
            assert step is layer
            pos = None
            continue
        runs, bias, blocked, order_pos = step
        rows = np.concatenate([row_ids.ravel() for row_ids, _, _ in plan])
        free = np.setdiff1d(np.arange(layer.rows), rows)
        order = np.concatenate([rows, free])
        assert blocked == rows.size and np.array_equal(order_pos[order], np.arange(layer.rows))
        assert bias.tobytes() == layer.bias[order].tobytes()
        # the runs cover the groups' blocks in plan order, write the block
        # rows one slice after the other and read each block's columns
        at = [(col_ids if pos is None else pos[col_ids]).ravel() for _, col_ids, _ in plan]
        kept = [blocks.ravel() for blocks, _, _ in runs]
        assert np.concatenate(kept).tobytes() == np.concatenate(
            [blocks.ravel() for _, _, blocks in plan]).tobytes()
        written = [(w.start, w.stop, len(blocks) * blocks.shape[1]) for blocks, _, w in runs]
        assert [w[0] for w in written] == [0] + [w[1] for w in written[:-1]]
        assert written[-1][1] == blocked and all(hi - lo == n for lo, hi, n in written)
        read = [np.arange(src.start, src.stop) if isinstance(src, slice) else src.ravel()
                for _, src, _ in runs]
        assert np.array_equal(np.concatenate(read), np.concatenate(at))
        reads += [isinstance(src, slice) for _, src, _ in runs]
        pos = order_pos
    # most runs read their columns as one slice of the previous state
    assert sum(reads) > len(reads) / 2


def plan_bytes(plan):
    """Every array, slice and count of a network's plan, as bytes."""
    out = []
    for step in plan:
        if isinstance(step, Layer):
            out.append(repr((step.rows, step.cols)).encode() + step.bias.tobytes())
            continue
        runs, bias, blocked, pos = step
        for blocks, src, rows in runs:
            src = repr(src).encode() if isinstance(src, slice) else src.tobytes()
            out += [repr((blocks.shape, rows)).encode(), blocks.tobytes(), src]
        out += [bias.tobytes(), repr(blocked).encode(), pos.tobytes()]
    return b"|".join(out)


def test_a_plan_keeps_no_entries_and_equals_the_plan_from_kept_entries():
    net, kept = (spacetime_net(grid_spec(7, 4, 4)) for _ in range(2))
    realize(net, RELU, points(7, 4, 3))
    large = [layer for layer in net.layers if layer._block_plan is not None]
    assert len(large) > 10
    assert not any("_entries" in vars(layer) or "weights" in vars(layer) for layer in large)
    for layer in kept.layers:
        layer._entries
    assert plan_bytes(net._plan) == plan_bytes(kept._plan)


def test_rows_in_no_block_keep_the_bits_of_their_bias(rng):
    w = np.zeros((256, 256))
    w[::2, ::2] = rng.standard_normal((128, 128)) * (rng.random((128, 128)) < 0.02)
    bias = rng.standard_normal(256)
    bias[1::4] = -0.0  # odd rows are in no block
    net = Network((Layer(w, bias),))
    assert net.layers[0]._block_plan is not None
    x = rng.standard_normal((3, 256))
    got = realize(net, RELU, x)
    assert got.tobytes() == layer_by_layer(net, RELU, x)[-1].tobytes()
    assert np.signbit(got[:, 1::4]).all()


def test_a_net_without_a_large_layer_plans_nothing(rng):
    for net in (identity_net(2), square_unit(2.0**-10), random_net(rng, 3, 2, 4)):
        x = rng.standard_normal((4, net.input_dim))
        realize(net, RELU, x)
        forward_states(net, RELU, x[0])
        assert "_plan" not in vars(net)
        assert not any("_block_plan" in vars(layer) for layer in net.layers)
    net = spacetime_net(grid_spec(7, 4, 4))
    realize(net, RELU, points(7, 4, 2))
    assert "_plan" in vars(net)


def test_a_large_dense_layer_takes_the_plain_product(rng):
    w = rng.standard_normal((256, 256))
    net = Network((Layer(w, rng.standard_normal(256)), Layer(w, np.zeros(256))))
    x = rng.standard_normal((5, 256))
    assert realize(net, RELU, x).tobytes() == layer_by_layer(net, RELU, x)[-1].tobytes()
    assert all(step is layer for step, layer in zip(net._plan, net.layers))


def test_compose_and_parallel_build_no_checked_network(monkeypatch, rng):
    a, b = random_net(rng, 2, 3, 3), random_net(rng, 3, 2, 2)
    checks = spy(monkeypatch, Network, "__post_init__")
    composed = compose(b, a)
    stacked = parallel_equal([a, a])
    assert not checks
    for net in (composed, stacked):
        assert Network(net.layers).layers == net.layers


@pytest.mark.parametrize("n", [1023, 1025, 2119])
def test_a_planned_net_runs_a_long_batch_in_slices(monkeypatch, n):
    net = spacetime_net(grid_spec(7, 4, 2))
    assert any(layer._block_plan is not None for layer in net.layers)
    # its widest state is over 128 units, so its slices are of 512 points
    assert max(layer.rows for layer in net.layers) > 128
    edges = [0, n] if n < 1024 else [*range(0, n - 512 + 1, 512), n]
    x = points(7, 4, n)
    planned = spy(monkeypatch, anncalc.network, "_blocks_apply")
    for act in (RELU, IDENTITY, USER_RELU):
        want = [layer_by_layer(net, act, x[a:b]) for a, b in zip(edges[:-1], edges[1:])]
        got = forward_states(net, act, x)
        assert realize(net, act, x).tobytes() == got[-1].tobytes()
        for k, state in enumerate(got):
            assert state.tobytes() == np.concatenate([w[k] for w in want]).tobytes()
    # each slice's planned state is (units, points)
    assert {s.shape[1] for _, s in planned} == {b - a for a, b in zip(edges[:-1], edges[1:])}


def test_a_long_batch_is_checked_once(monkeypatch):
    net = spacetime_net(grid_spec(7, 4, 2))
    x = points(7, 4, 2119)
    for evaluate in (realize, forward_states):
        checks = spy(monkeypatch, anncalc.network, "_numbers")
        evaluate(net, RELU, x)
        assert len(checks) == 1
