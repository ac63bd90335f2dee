"""Core representation: validation, realization, counting, serialization."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anncalc import (
    IDENTITY,
    DomainError,
    Layer,
    Network,
    ParseError,
    RELU,
    ShapeError,
    affine,
    deserialize,
    dims,
    forward_states,
    hat_net,
    identity_net,
    networks_equal,
    param_count,
    realize,
    serialize,
    square_unit,
)

from conftest import check_block_plan, random_net


def brute_force_params(net):
    # independent oracle: count every stored scalar
    return sum(layer.weights.size + layer.bias.size for layer in net.layers)


def fold_affine(net):
    # independent oracle for identity-activation realization
    w = np.eye(net.input_dim)
    b = np.zeros(net.input_dim)
    for layer in net.layers:
        b = layer.weights @ b + layer.bias
        w = layer.weights @ w
    return w, b


shapes = st.lists(st.integers(1, 4), min_size=2, max_size=5)


@given(shapes, st.integers(0, 2**32 - 1))
def test_dims_and_param_count_match_brute_force(shape, seed):
    rng = np.random.default_rng(seed)
    net = Network(
        tuple(
            (rng.standard_normal((shape[k], shape[k - 1])), rng.standard_normal(shape[k]))
            for k in range(1, len(shape))
        )
    )
    assert dims(net) == tuple(shape)
    assert net.depth == len(shape) - 1
    assert net.input_dim == shape[0] and net.output_dim == shape[-1]
    assert param_count(net) == brute_force_params(net)


def test_param_count_examples():
    assert param_count(hat_net(0, 1, 2, 1)) == 13  # dims (1, 4, 1)
    assert param_count(identity_net(1)) == 7  # dims (1, 2, 1)
    assert param_count(affine(np.zeros((3, 2)))) == 9  # dims (2, 3)


def test_single_layer_dims():
    assert dims(affine([[2.0]], [0.5])) == (1, 1)


def test_dims_is_a_plain_tuple_of_ints():
    d = dims(square_unit(2.0**-4))
    assert type(d) is tuple and all(type(l) is int for l in d)
    assert repr(identity_net(2)) == "Network(dims=(2, 4, 2))"


@given(shapes, st.integers(0, 2**32 - 1))
def test_identity_activation_equals_folded_affine(shape, seed):
    rng = np.random.default_rng(seed)
    net = Network(
        tuple(
            (rng.standard_normal((shape[k], shape[k - 1])), rng.standard_normal(shape[k]))
            for k in range(1, len(shape))
        )
    )
    w, b = fold_affine(net)
    x = rng.standard_normal((6, shape[0]))
    got = realize(net, IDENTITY, x)
    want = x @ w.T + b
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_realize_single_layer_ignores_activation(rng):
    net = random_net(rng, 3, 2, 1)
    x = rng.standard_normal(3)
    assert np.array_equal(realize(net, RELU, x), realize(net, IDENTITY, x))


def test_realize_identity_net():
    x = np.array([-1.0, 2.0])
    assert np.array_equal(realize(identity_net(2), RELU, x), x)


def test_realize_shape_error():
    with pytest.raises(ShapeError):
        realize(identity_net(2), RELU, np.zeros(3))


@pytest.mark.parametrize("evaluate", [realize, forward_states])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluation_rejects_non_finite_input(evaluate, bad):
    # dense and block evaluation would disagree on 0 * inf, so neither runs
    x = np.array([[0.5, -1.0], [2.0, bad]])
    with pytest.raises(DomainError, match=r"input x must be finite.*index \(1, 1\)"):
        evaluate(identity_net(2), RELU, x)
    with pytest.raises(DomainError, match=r"input x must be finite.*index \(1,\)"):
        evaluate(identity_net(2), RELU, x[1])


@pytest.mark.parametrize("evaluate", [realize, forward_states])
@pytest.mark.parametrize(
    "bad",
    [["1.5", "2"], [True, False], ["a", 1], [1 + 2j, 1], [None, 1], [[0.5, 1.0], [None, 2.0]]],
    ids=["strings", "bools", "string_and_int", "complex", "none", "none_in_batch"],
)
def test_evaluation_rejects_non_numeric_input(evaluate, bad):
    with pytest.raises(DomainError, match="input x must hold integers or floats, got dtype"):
        evaluate(identity_net(2), RELU, bad)


@pytest.mark.parametrize("evaluate", [realize, forward_states])
def test_evaluation_rejects_ragged_input(evaluate):
    with pytest.raises(ShapeError, match="input x must be a point or a rectangular batch"):
        evaluate(identity_net(2), RELU, [[1, 2], [3]])


def test_evaluation_accepts_integer_input():
    assert realize(identity_net(2), RELU, [1, -2]).tolist() == [1.0, -2.0]


def test_forward_states_alternates_affine_and_activation(rng):
    net = random_net(rng, 2, 2, 3)
    x = rng.standard_normal(2)
    states = forward_states(net, RELU, x)
    assert len(states) == net.depth + 1
    z = x
    for k, layer in enumerate(net.layers):
        z = layer.weights @ z + layer.bias
        if k < net.depth - 1:
            z = np.maximum(z, 0.0)
        assert np.array_equal(states[k + 1], z)


def test_network_validation():
    with pytest.raises(ShapeError):
        Network(())
    with pytest.raises(ShapeError):
        Network(((np.zeros((2, 2)), np.zeros(3)),))
    with pytest.raises(ShapeError):
        Network(((np.zeros((2, 3)), np.zeros(2)), (np.zeros((1, 4)), np.zeros(1))))


@pytest.mark.parametrize(
    "build", [Layer, affine, lambda w, b: Network(((w, b),))], ids=["Layer", "affine", "Network"]
)
@pytest.mark.parametrize(
    "weights, bias, error, message",
    [
        ([[True, False]], [0.0], DomainError,
         "weight matrix must hold integers or floats, got dtype bool"),
        ([["1.5", "2"]], [0.0], DomainError,
         "weight matrix must hold integers or floats, got dtype <U3"),
        ([[None, 1.0]], [0.0], DomainError,
         "weight matrix must hold integers or floats, got dtype object"),
        ([[1.0, 2.0]], [False], DomainError, "bias must hold integers or floats, got dtype bool"),
        ([[1.0, 2.0], [3.0]], [0.0, 0.0], ShapeError, "weight matrix must be rectangular: "),
        ([[1.0], [2.0]], [[0.0], [1.0, 2.0]], ShapeError, "bias must be rectangular: "),
        ([1.0, 2.0], [0.0], ShapeError, "weight matrix must be 2-d, got shape (2,)"),
        ([[1.0, 2.0]], [[0.0]], ShapeError, "bias must be 1-d, got shape (1, 1)"),
        (np.zeros((0, 2)), [], ShapeError, "layer dimensions must be positive, got (0, 2)"),
    ],
    ids=["bools", "strings", "none", "bool_bias", "ragged_weights", "ragged_bias",
         "1d_weights", "2d_bias", "zero_size"],
)
def test_layer_inputs_get_their_documented_errors(build, weights, bias, error, message):
    with pytest.raises(error) as exc:
        build(weights, bias)
    assert str(exc.value).startswith(message)


def test_layer_inputs_accept_integers_and_affine_needs_a_matrix():
    layer = Layer([[1, -2]], np.array([3], dtype=np.uint8))
    assert layer.weights.dtype == layer.bias.dtype == np.float64
    assert layer.weights.tolist() == [[1.0, -2.0]] and layer.bias.tolist() == [3.0]
    # without a bias, affine reads the row count off the frozen weights
    for weights, shape in ((5.0, "()"), ([1.0, 2.0], "(2,)")):
        with pytest.raises(ShapeError) as exc:
            affine(weights)
        assert str(exc.value) == f"weight matrix must be 2-d, got shape {shape}"


def test_layers_are_immutable():
    net = identity_net(2)
    with pytest.raises(ValueError):
        net.layers[0].weights[0, 0] = 5.0


def test_serialize_round_trip_bit_exact():
    net = identity_net(2)
    again = deserialize(serialize(net))
    assert networks_equal(net, again)


def test_serialize_round_trip_square_net_realizes_identically():
    net = square_unit(2.0**-10)
    again = deserialize(serialize(net))
    grid = np.linspace(0.0, 1.0, 101)[:, None]
    assert np.array_equal(realize(net, RELU, grid), realize(again, RELU, grid))


def test_deserialize_rejects_non_utf8_bytes():
    with pytest.raises(ParseError, match="not UTF-8 text"):
        deserialize(b"\xff{}")


def test_deserialize_names_offending_layer():
    doc = b'{"layers": [{"weights": [[1.0, 2.0], [3.0, 4.0]], "bias": [0.0, 0.0, 0.0]}]}'
    with pytest.raises(ParseError, match="layer 0"):
        deserialize(doc)


def test_deserialize_rejects_malformed_documents():
    with pytest.raises(ParseError):
        deserialize(b"not json")
    with pytest.raises(ParseError):
        deserialize(b"{}")
    with pytest.raises(ParseError):
        deserialize(b'{"layers": []}')
    with pytest.raises(ParseError, match="layer 0: missing 'weights' or 'bias'"):
        deserialize(b'{"layers": [{"bias": [0.0]}]}')
    # layers that do not chain
    doc = (
        b'{"layers": [{"weights": [[1.0]], "bias": [0.0]},'
        b' {"weights": [[1.0, 2.0]], "bias": [0.0]}]}'
    )
    with pytest.raises(ParseError):
        deserialize(doc)


@pytest.mark.parametrize(
    "weights, bias",
    [
        ("[[true, false]]", '["1"]'),  # bool-only and string arrays
        ("[[1.0, 1.0]]", '["1"]'),
        ("[[null, 1.0]]", "[0.0]"),
        ("[[true, 0.5]]", "[0.0]"),  # numpy would promote the bool to 1.0
        ("[[1.0, 0.5]]", "[false]"),
        ("[[1e999, 0.5]]", "[0.0]"),  # json reads an overflowing literal as inf
        ("[[1.0, 0.5]]", "[-1e999]"),
    ],
)
def test_deserialize_rejects_non_numbers(weights, bias):
    first = '{"weights": [[1.0], [2.0]], "bias": [0.0, 0.0]}'
    doc = '{"layers": [%s, {"weights": %s, "bias": %s}]}' % (first, weights, bias)
    assert deserialize(doc.replace(weights, "[[1.0, 0.5]]").replace(bias, "[0.0]")).depth == 2
    with pytest.raises(ParseError, match="layer 1"):
        deserialize(doc)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_serialize_rejects_non_finite_scalars(bad):
    net = Network(((np.eye(2), np.zeros(2)), (np.array([[1.0, bad]]), np.zeros(1))))
    with pytest.raises(DomainError, match="layer 1"):
        serialize(net)
    net = Network(((np.eye(2), np.array([0.0, bad])),))
    with pytest.raises(DomainError, match="layer 0"):
        serialize(net)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_deserialize_rejects_non_finite_tokens(token):
    doc = '{"layers": [{"weights": [[%s]], "bias": [0.0]}]}' % token
    with pytest.raises(ParseError, match=token):
        deserialize(doc)


def test_serialize_full_precision():
    w = np.array([[1.0 / 3.0]])
    net = affine(w, [np.pi])
    again = deserialize(serialize(net))
    assert again.layers[0].weights[0, 0] == w[0, 0]
    assert again.layers[0].bias[0] == np.pi


@given(shapes, st.integers(0, 2**32 - 1))
def test_serialize_round_trip_random_networks(shape, seed):
    rng = np.random.default_rng(seed)
    net = Network(
        tuple(
            (rng.standard_normal((shape[k], shape[k - 1])), rng.standard_normal(shape[k]))
            for k in range(1, len(shape))
        )
    )
    assert networks_equal(net, deserialize(serialize(net)))


def test_custom_activation():
    from anncalc import Activation

    soft = Activation("custom", lambda z: np.log1p(np.exp(z)))
    net = Network(((np.eye(1), np.zeros(1)), (np.eye(1), np.zeros(1))))
    got = realize(net, soft, [0.0])[0]
    assert got == pytest.approx(np.log(2.0))


def test_networks_equal_detects_differences(rng):
    a = random_net(rng, 2, 2, 2)
    assert networks_equal(a, a)
    bumped = Network(
        ((a.layers[0].weights + 1e-16, a.layers[0].bias),) + a.layers[1:]
    )
    assert networks_equal(a, bumped) == np.array_equal(
        a.layers[0].weights, a.layers[0].weights + 1e-16
    )
    assert not networks_equal(affine(np.ones((2, 2))), affine(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# block evaluation of large sparse layers


def dense_reference(net, act, x):
    # independent oracle: the plain product loop, plus the magnitudes
    # |W| |z| + |b| that bound the rounding error of any summation order
    z = np.atleast_2d(np.asarray(x, dtype=float))
    mag = np.abs(z)
    for k, layer in enumerate(net.layers):
        z = z @ layer.weights.T + layer.bias
        mag = mag @ np.abs(layer.weights).T + np.abs(layer.bias)
        if k < net.depth - 1:
            z = act.fn(z)
    return z, mag


def sparse_layer(rng, rows, cols, all_zero, dense_row):
    """0-11 nonzeros per row with at least one empty row, or no nonzeros at
    all; optionally one row with every column nonzero."""
    w = np.zeros((rows, cols))
    if not all_zero:
        counts = rng.choice([0, 1, 2, 3, 5, 11], size=rows)
        counts[0] = 0
        for i, k in enumerate(counts):
            w[i, rng.choice(cols, size=k, replace=False)] = rng.standard_normal(k)
        if dense_row:
            w[rows // 2] = rng.standard_normal(cols)
    return Layer(w, rng.standard_normal(rows))


@given(
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.sampled_from([None, 1, 37]),
)
def test_block_layers_match_dense_reference(seed, all_zero, dense_row, batch):
    rng = np.random.default_rng(seed)
    widths = rng.integers(256, 300, size=3)
    net = Network(
        (
            sparse_layer(rng, widths[1], widths[0], all_zero, dense_row),
            sparse_layer(rng, widths[2], widths[1], False, dense_row),
        )
    )
    assert all(layer._block_plan is not None for layer in net.layers)
    shape = (widths[0],) if batch is None else (batch, widths[0])
    x = rng.standard_normal(shape)
    got = realize(net, RELU, x)
    want, mag = dense_reference(net, RELU, x)
    assert got.shape == ((widths[2],) if batch is None else (batch, widths[2]))
    assert np.all(np.abs(np.atleast_2d(got) - want) <= 1e-12 * mag)


@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_block_plan_tiles_the_nonzeros(seed, all_zero, dense_row):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(256, 300, size=2)
    layer = sparse_layer(rng, rows, cols, all_zero, dense_row)
    check_block_plan(layer)
    if all_zero:
        assert layer._block_plan == ()


def test_small_or_dense_layers_keep_the_plain_product_bits(rng):
    # 255 x 256 is under 65,536 entries; the 256 x 256 layer is over 1/8 nonzero
    small = rng.standard_normal((255, 256)) * (rng.random((255, 256)) < 0.02)
    dense = rng.standard_normal((256, 256))
    for w in (small, dense):
        layer = Layer(w, rng.standard_normal(w.shape[0]))
        assert layer._block_plan is None
        z = rng.standard_normal((9, 256))
        assert np.array_equal(realize(Network((layer,)), RELU, z), z @ w.T + layer.bias)
