"""Core representation: validation, realization, counting, serialization."""

import json
import os
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from anncalc import (
    IDENTITY,
    ApproxSpec,
    DomainError,
    EulerSpec,
    GrowthBoundInputs,
    Layer,
    Network,
    ParseError,
    RELU,
    ShapeError,
    affine,
    deserialize,
    dims,
    euler_oracle,
    forward_states,
    gronwall_bound,
    halton,
    hat_net,
    identity_net,
    networks_equal,
    param_count,
    power,
    realize,
    run_suite,
    save_network,
    scalar_vector_product,
    scaling_constant,
    serialize,
    spacetime_net,
    square_unit,
    sum_general,
    tent_g,
    time_hat_nets,
)
from anncalc.cli import _load_euler_spec
from anncalc.network import (
    _BLOCK_MAX_DENSITY, _BLOCK_MIN_ENTRIES, _STACK_MIN_ENTRIES, _index_array, _is_int, _is_real,
    _numbers,
)

from conftest import check_block_plan, random_net, same_bytes


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
    with pytest.raises(ShapeError, match="input x must be rectangular"):
        evaluate(identity_net(2), RELU, [[1, 2], [3]])


def test_evaluation_accepts_integer_input():
    assert realize(identity_net(2), RELU, [1, -2]).tolist() == [1.0, -2.0]
    assert realize(identity_net(2), RELU, [2**64 - 1, 0]).tolist() == [2.0**64, 0.0]


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
        ([[2**70, 1.0]], [0.0], DomainError, "weight matrix must hold integers or floats, "
         "got 1180591620717411303424, an integer wider than 64 bits"),
        ([[1.0]], [-(2**63) - 1], DomainError, "bias must hold integers or floats, "
         "got -9223372036854775809, an integer wider than 64 bits"),
        ([[1.0, 2.0], [3.0]], [0.0, 0.0], ShapeError, "weight matrix must be rectangular: "),
        ([[1.0], [2.0]], [[0.0], [1.0, 2.0]], ShapeError, "bias must be rectangular: "),
        ([1.0, 2.0], [0.0], ShapeError, "weight matrix must be 2-d, got shape (2,)"),
        ([[1.0, 2.0]], [[0.0]], ShapeError, "bias must be 1-d, got shape (1, 1)"),
        (np.zeros((0, 2)), [], ShapeError, "layer dimensions must be positive, got (0, 2)"),
    ],
    ids=["bools", "strings", "none", "bool_bias", "wide_int", "wide_int_bias", "ragged_weights",
         "ragged_bias", "1d_weights", "2d_bias", "zero_size"],
)
def test_layer_inputs_get_their_documented_errors(build, weights, bias, error, message):
    with pytest.raises(error) as exc:
        build(weights, bias)
    assert str(exc.value).startswith(message)


def test_layer_inputs_accept_integers_and_affine_needs_a_matrix():
    layer = Layer([[1, -2]], np.array([3], dtype=np.uint8))
    assert layer.weights.dtype == layer.bias.dtype == np.float64
    assert layer.weights.tolist() == [[1.0, -2.0]] and layer.bias.tolist() == [3.0]
    # the widest integers numpy holds are still numbers
    assert Layer([[2**64 - 1, -(2**63)]], [0]).weights.tolist() == [[2.0**64, -(2.0**63)]]
    # without a bias, affine reads the row count off the frozen weights
    for weights, shape in ((5.0, "()"), ([1.0, 2.0], "(2,)")):
        with pytest.raises(ShapeError) as exc:
            affine(weights)
        assert str(exc.value) == f"weight matrix must be 2-d, got shape {shape}"


def plain(row):
    # numpy scalars as the Python ones that JSON writes
    return [v.item() if isinstance(v, np.generic) else v for v in row]


def coo_values(row):
    # a one-layer COO file whose two weights are ``row``
    return deserialize(
        '{"layout": "coo", "layers": [{"shape": [1, 2], "rows": [0, 0], "cols": [0, 1], '
        '"values": %s, "bias": [0.0]}]}' % json.dumps(plain(row))
    )


def scheme_y(row):
    # a one-step scheme file whose perturbation is ``row``
    with tempfile.TemporaryDirectory() as tmp:
        drift, scheme = os.path.join(tmp, "drift.ann.json"), os.path.join(tmp, "scheme.json")
        save_network(identity_net(2), drift)
        with open(scheme, "w") as fh:
            json.dump({"drift": drift, "T": 1.0, "N": 1, "y": [plain(row)]}, fh)
        return _load_euler_spec(scheme)


_ONE_STEP = EulerSpec(identity_net(2), 1.0, 1, (np.zeros(2),))

_BOOL_AMONG_NUMBERS = {
    "Layer": (lambda row: Layer([row], [0.0]), DomainError, "weight matrix"),
    "Layer_bias": (lambda row: Layer([[1.0]] * len(row), row), DomainError, "bias"),
    "affine": (lambda row: affine([row]), DomainError, "weight matrix"),
    "Network": (lambda row: Network((((row,), (0.0,)),)), DomainError, "weight matrix"),
    "realize": (lambda row: realize(identity_net(2), RELU, row), DomainError, "input x"),
    "realize_batch": (
        lambda row: realize(identity_net(2), RELU, [[0.5, 1.0], row]), DomainError, "input x"
    ),
    "forward_states": (
        lambda row: forward_states(identity_net(2), RELU, row), DomainError, "input x"
    ),
    "EulerSpec_y": (
        lambda row: EulerSpec(identity_net(2), 1.0, 1, (row,)), DomainError, "y[0]"
    ),
    "euler_oracle_x": (lambda row: euler_oracle(_ONE_STEP, 0.5, row), DomainError, "x"),
    "coo_values": (coo_values, ParseError, "layer 0: values"),
    "scheme_y": (scheme_y, DomainError, "scheme file field 'y'"),
}


@pytest.mark.parametrize("entry", _BOOL_AMONG_NUMBERS, ids=list(_BOOL_AMONG_NUMBERS))
@pytest.mark.parametrize(
    "row", [[True, 1.5], (1.5, False), [np.True_, 1.5], [1, np.False_]],
    ids=["list", "tuple", "numpy_bool", "with_int"],
)
def test_bools_among_numbers_are_refused(entry, row):
    # numpy alone would turn the bool into 1.0 or 0.0
    build, error, what = _BOOL_AMONG_NUMBERS[entry]
    with pytest.raises(error) as exc:
        build(row)
    assert str(exc.value) == f"{what} must hold integers or floats, got a bool"


@pytest.mark.parametrize("evaluate", [realize, forward_states])
@pytest.mark.parametrize(
    "x, wide", [([2**70], 2**70), ([[0.5], [-(2**70)]], -(2**70))], ids=["point", "batch"]
)
def test_evaluation_refuses_integers_wider_than_64_bits(evaluate, x, wide):
    with pytest.raises(DomainError) as exc:
        evaluate(identity_net(1), RELU, x)
    assert str(exc.value) == (
        f"input x must hold integers or floats, got {wide}, an integer wider than 64 bits"
    )


_OVERSIZED_SCALARS = {
    "approx_spec_q": (lambda: ApproxSpec(0.1, 2**1100), DomainError, "q must be finite"),
    "gronwall_x_norm": (
        lambda: gronwall_bound(GrowthBoundInputs(1.0, 1.0, (1.0,), (0.0, 0.0)), 10**400, 1),
        DomainError, "x_norm must be finite"),
    "scaling_constant": (lambda: scaling_constant(10**400, 1.0), DomainError,
                         "growth_c must be finite"),
    "time_hat_nets": (lambda: time_hat_nets(10**400, 2), DomainError, "T must be finite"),
    "sum_weight": (lambda: sum_general([identity_net(1)], h=[10**400]), DomainError,
                   "sum weights must be finite"),
    "tent_g": (lambda: tent_g(2**70, 0.5), DomainError, "tent_g needs an integer n >= 1"),
    "power": (lambda: power(identity_net(1), 2**70), ShapeError, "power needs an integer n"),
    "identity_net": (lambda: identity_net(2**70), ShapeError, "identity_net needs an integer d"),
    "halton": (lambda: halton(2**70, 1), DomainError, "halton needs an integer n"),
    "scalvec_d": (lambda: scalar_vector_product(ApproxSpec(0.1, 64, 2**70)), DomainError,
                  "d must be a positive integer"),
    "seed": (lambda: run_suite("calculus", 2**64), DomainError,
             "seed must be a non-negative integer"),
}


@pytest.mark.parametrize("call", _OVERSIZED_SCALARS, ids=list(_OVERSIZED_SCALARS))
def test_scalars_past_64_bits_or_the_largest_float_get_their_documented_errors(call):
    build, error, message = _OVERSIZED_SCALARS[call]
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value).startswith(message)


_UNALLOCATABLE_SIZES = {
    "identity_net": (lambda: identity_net(2**62), ShapeError, "identity_net(4611686018427387904)"),
    "identity_net_past_the_cap": (lambda: identity_net(8193), ShapeError, "identity_net(8193)"),
    # 2 * d * d of a numpy integer wrapped with an overflow warning
    "identity_net_numpy_int": (lambda: identity_net(np.int64(2**40)), ShapeError,
                               "identity_net(1099511627776)"),
    "halton": (lambda: halton(2**62, 1), DomainError, "halton(4611686018427387904, 1)"),
    "halton_without_coordinates": (lambda: halton(2**64 - 1, 0), DomainError, "halton("),
    "halton_past_the_cap": (lambda: halton(2**26 + 1, 2), DomainError, "halton(67108865, 2)"),
    "halton_numpy_int": (lambda: halton(np.int64(2**62), 4), DomainError,
                         "halton(4611686018427387904, 4)"),
    "scalvec": (lambda: scalar_vector_product(ApproxSpec(0.5, 3.0, 2**62)), DomainError,
                "scalar_vector_product at d=4611686018427387904 has over 134217728 entries"),
    # 24 * 1673 rows by 2 * 1673 columns in the stacked first layers
    "scalvec_past_the_cap": (lambda: scalar_vector_product(ApproxSpec(0.5, 3.0, 1673)),
                             DomainError, "scalar_vector_product at d=1673"),
    "tent_g": (lambda: tent_g(2**40, 0.5), DomainError, "tent_g needs n below 1024"),
    "tent_g_first_overflow": (lambda: tent_g(1024, 0.5), DomainError,
                              "tent_g needs n below 1024, where 2^n overflows a float, got 1024"),
}


@pytest.mark.parametrize("call", _UNALLOCATABLE_SIZES, ids=list(_UNALLOCATABLE_SIZES))
def test_sizes_too_big_to_allocate_get_their_documented_errors(call):
    # each size check runs before any allocation, so these fail at once
    build, error, message = _UNALLOCATABLE_SIZES[call]
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value).startswith(message)


def test_tent_g_takes_every_n_whose_power_of_two_is_a_float():
    assert tent_g(1023, [0.0, 2.0**-1074, 0.5, 1.0]).tolist() == [0.0, 2.0**-51, 0.0, 0.0]


def test_the_scalar_rule_bounds_integers_as_numbers_does():
    inside = [2**64 - 1, -(2**63), np.uint64(2**64 - 1), np.int64(-(2**63))]
    assert all(_is_int(n) and _is_real(n) for n in inside)
    assert not any(_is_int(n) for n in (2**64, -(2**63) - 1, True))
    assert _numbers(inside[:2], "x").tolist() == [2.0**64, -(2.0**63)]
    # a float holds every integer up to the largest float, and no larger one
    big = int(sys.float_info.max)
    assert _is_real(big) and _is_real(-big) and _is_real(float("inf"))
    assert not any(_is_real(n) for n in (big + 1, -big - 1, 10**400, False))


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
    with pytest.raises(ParseError, match="not valid JSON: 'utf-8' codec can't decode"):
        deserialize(b"\xff{}")


def test_deserialize_names_offending_layer():
    doc = (b'{"layout": "coo", "layers": [{"shape": [2, 2], "rows": [0, 0, 1, 1], '
           b'"cols": [0, 1, 0, 1], "values": [1.0, 2.0, 3.0, 4.0], "bias": [0.0, 0.0, 0.0]}]}')
    with pytest.raises(ParseError, match="layer 0"):
        deserialize(doc)


def test_deserialize_rejects_malformed_documents():
    with pytest.raises(ParseError):
        deserialize(b"not json")
    with pytest.raises(ParseError, match="maximum recursion depth"):
        deserialize(b"[" * 100_000)
    with pytest.raises(ParseError):
        deserialize(b"{}")
    with pytest.raises(ParseError):
        deserialize(b'{"layout": "coo", "layers": []}')
    with pytest.raises(ParseError, match="layer 0: missing 'shape', 'rows', 'cols', 'values'$"):
        deserialize(b'{"layout": "coo", "layers": [{"bias": [0.0]}]}')
    # layers that do not chain
    doc = (
        b'{"layout": "coo", "layers": [{"shape": [1, 1], "rows": [0], "cols": [0], '
        b'"values": [1.0], "bias": [0.0]}, {"shape": [1, 2], "rows": [0, 0], "cols": [0, 1], '
        b'"values": [1.0, 2.0], "bias": [0.0]}]}'
    )
    with pytest.raises(ParseError):
        deserialize(doc)


@pytest.mark.parametrize(
    "fields, what",
    [
        ({"values": "[[3.0], [4.0, 1.0]]"}, "values"),
        ({"bias": "[[0.0], [0.0, 1.0]]"}, "bias"),
    ],
    ids=["weights", "bias"],
)
def test_deserialize_names_a_ragged_list(fields, what):
    with pytest.raises(ParseError) as exc:
        deserialize(coo_doc(**fields))
    assert str(exc.value).startswith(f"layer 1: {what} must be rectangular: ")


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
    # layer 1 is 1 x 2, so the one row of its weight matrix is its COO values
    assert deserialize(coo_doc(values="[1.0, 0.5]", bias="[0.0]")).depth == 2
    with pytest.raises(ParseError, match="layer 1"):
        deserialize(coo_doc(values=weights[1:-1], bias=bias))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_serialize_rejects_non_finite_scalars(bad):
    net = Network(((np.eye(2), np.zeros(2)), (np.array([[1.0, bad]]), np.zeros(1))))
    with pytest.raises(DomainError, match="layer 1"):
        serialize(net)
    net = Network(((np.eye(2), np.array([0.0, bad])),))
    with pytest.raises(DomainError, match="layer 0"):
        serialize(net)


def test_a_failed_save_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "net.ann.json"
    save_network(identity_net(2), path)
    before = path.read_bytes()
    bad = Network(((np.eye(2), np.zeros(2)), (np.array([[1.0, np.inf]]), np.zeros(1))))
    with pytest.raises(DomainError, match="layer 1: cannot serialize a NaN or infinite scalar"):
        save_network(bad, path)
    assert path.read_bytes() == before


def json_dumps_serialize(net):
    # independent writer of the COO layout: each distinct layer once, parts
    # before the stacks that list them, a leaf's entries scanned from its
    # dense weights, the whole document handed to json.dumps
    ids, parts = {}, []

    def visit(layer):
        if layer in ids:
            return
        if layer.form == "stack":
            for part in layer._parts:
                visit(part)
            entry = {"stack": [ids[part] for part in layer._parts]}
        else:
            w = layer.weights
            rows, cols = np.nonzero((w != 0.0) | np.signbit(w))
            entry = {"shape": [layer.rows, layer.cols], "rows": rows.tolist(),
                     "cols": cols.tolist(), "values": w[rows, cols].tolist(),
                     "bias": layer.bias.tolist()}
        ids[layer] = len(parts)
        parts.append(entry)

    for layer in net.layers:
        visit(layer)
    doc = {"layout": "coo", "parts": parts, "layers": [ids[layer] for layer in net.layers]}
    return json.dumps(doc, allow_nan=False).encode()


# numbers whose text is easy to get wrong, beside ones the constructions repeat
EDGE_NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                1e-05, 1e16, 0.1, 1.0, -1.0, 2.0, -4.0]
file_numbers = st.sampled_from(EDGE_NUMBERS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def nets_to_write(draw):
    """A stack of two layers before a dense one; any layer may be all zeros."""

    def layer(rows, cols):
        w = np.zeros(rows * cols)
        if draw(st.booleans()):
            w = draw(st.lists(file_numbers, min_size=rows * cols, max_size=rows * cols))
        bias = draw(st.lists(file_numbers, min_size=rows, max_size=rows))
        return Layer(np.reshape(w, (rows, cols)), bias)

    r1, c1, r2, c2, out = (draw(st.integers(1, 4)) for _ in range(5))
    return Network((Layer.stack([layer(r1, c1), layer(r2, c2)]), layer(out, r1 + r2)))


EDGE_NET = Network((
    Layer.stack([Layer(np.zeros((2, 2)), [0.0, -0.0]),
                 Layer([[5e-324, -0.0, 0.0]], [1.7976931348623157e308])]),
    Layer([[-1.7976931348623157e308, 2.0, 2.0]], [-4.0]),
))


@example(EDGE_NET)
@given(nets_to_write())
def test_serialize_writes_what_json_dumps_writes(net):
    assert serialize(net) == json_dumps_serialize(net)
    coo = deserialize(serialize(net))
    # leaves load as entries and stacks as stacks
    assert [layer.form for layer in coo.layers] == ["stack", "entries"]
    assert [part.form for part in coo.layers[0]._parts] == ["entries", "entries"]
    assert serialize(coo) == json_dumps_serialize(coo)


def test_serialize_writes_what_json_dumps_writes_for_large_stacks():
    rng = np.random.default_rng(7)
    drift = random_net(rng, 2, 2, 2, width_hi=3, scale=0.7)
    y = tuple(0.4 * rng.standard_normal((8, 2)))
    net = spacetime_net(EulerSpec(drift, 1.0, 8, y, 1e-2, 3.0))
    assert any(layer.form == "stack" and layer.rows * layer.cols >= 1 << 16
               for layer in net.layers)
    assert serialize(net) == json_dumps_serialize(net)


def test_deserialize_rejects_integer_literals_too_long_to_convert():
    doc = coo_doc(values="[%s, 4.0]" % ("1" * 5000))
    # Python refuses to convert the literal with a plain ValueError
    with pytest.raises(ParseError):
        deserialize(doc)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_deserialize_rejects_non_finite_tokens(token):
    doc = coo_doc(values="[%s, 4.0]" % token)
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


@pytest.mark.parametrize(
    "net", [identity_net(2), square_unit(2.0**-10)], ids=["identity", "square"]
)
def test_serialize_round_trip_keeps_raw_bytes(net):
    assert same_bytes(net, deserialize(serialize(net)))


# serialize(identity_net(2)) in the dense layout written before the COO one,
# kept verbatim
DENSE_IDENTITY_2 = (
    '{"layers": [{"weights": [[1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [-0.0, -1.0]], '
    '"bias": [0.0, 0.0, 0.0, 0.0]}, {"weights": [[1.0, 0.0, -1.0, -0.0], '
    '[0.0, 1.0, -0.0, -1.0]], "bias": [0.0, 0.0]}]}'
)


def test_deserialize_refuses_the_dense_layout():
    for doc in (DENSE_IDENTITY_2, DENSE_IDENTITY_2.encode()):
        with pytest.raises(ParseError, match="unknown layout None; the one layout is 'coo'"):
            deserialize(doc)


@given(shapes, st.integers(0, 2**32 - 1))
def test_signed_zeros_load_back_to_the_same_bytes(shape, seed):
    rng = np.random.default_rng(seed)

    def draw(size):
        # about a third zeros and a sixth negative zeros
        a = rng.standard_normal(size)
        u = rng.uniform(size=size)
        return np.where(u < 1 / 3, 0.0, np.where(u < 1 / 2, -0.0, a))

    net = Network(
        tuple((draw((shape[k], shape[k - 1])), draw(shape[k])) for k in range(1, len(shape)))
    )
    assert same_bytes(deserialize(serialize(net)), net)


def test_explicit_positive_zeros_in_a_coo_file_are_no_entries():
    coo = deserialize(
        '{"layout": "coo", "layers": [{"shape": [2, 3], "rows": [0, 0, 1, 1], '
        '"cols": [0, 2, 1, 2], "values": [0.0, 1.5, -0.0, 0.0], "bias": [0.0, 1.0]}]}'
    )
    dense = affine([[0.0, 0.0, 1.5], [0.0, -0.0, 0.0]], [0.0, 1.0])
    assert serialize(coo) == serialize(dense)
    assert b'"rows": [0, 1], "cols": [2, 1], "values": [1.5, -0.0]' in serialize(coo)
    assert same_bytes(coo, dense)


def test_chained_all_zero_coo_layers_allocate_no_matrices():
    # ten 2048 x 2048 layers would be 320 MiB of dense float64
    layer = '{"shape": [2048, 2048], "rows": [], "cols": [], "values": [], "bias": [%s]}' % (
        ", ".join(["0.5"] * 2048)
    )
    doc = '{"layout": "coo", "layers": [%s]}' % ", ".join([layer] * 10)
    tracemalloc.start()
    try:
        net = deserialize(doc)
        out = realize(net, IDENTITY, np.ones(2048))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dims(net) == (2048,) * 11
    assert np.array_equal(out, np.full(2048, 0.5))
    assert peak < 16 * 2**20


def coo_doc(**layer1):
    """A valid two-layer COO document whose second layer takes ``layer1``'s
    fields as JSON text; a field given as None is left out."""
    fields = {
        "shape": "[1, 2]", "rows": "[0, 0]", "cols": "[0, 1]", "values": "[3.0, 4.0]",
        "bias": "[0.0]",
    }
    fields.update(layer1)
    body = ", ".join(f'"{key}": {text}' for key, text in fields.items() if text is not None)
    first = (
        '{"shape": [2, 1], "rows": [0, 1], "cols": [0, 0], "values": [1.0, -2.0], '
        '"bias": [0.0, 0.5]}'
    )
    return '{"layout": "coo", "layers": [%s, {%s}]}' % (first, body)


def test_coo_doc_is_valid():
    net = deserialize(coo_doc())
    assert net.layers[0].weights.tolist() == [[1.0], [-2.0]]
    assert net.layers[1].weights.tolist() == [[3.0, 4.0]]
    assert deserialize(coo_doc(rows="[]", cols="[]", values="[]")).layers[1].weights.tolist() == [
        [0.0, 0.0]
    ]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"shape": None}, "missing 'shape'"),
        ({"rows": None}, "missing 'rows'"),
        ({"cols": None}, "missing 'cols'"),
        ({"values": None}, "missing 'values'"),
        ({"bias": None}, "missing 'bias'"),
        ({"shape": "[2]"}, "shape must be two positive JSON integers"),
        ({"shape": "[1, 0]"}, "shape must be two positive JSON integers"),
        ({"shape": "[1.0, 2]"}, "shape must be two positive JSON integers"),
        ({"shape": "[true, 2]"}, "shape must be two positive JSON integers"),
        ({"shape": '"1x2"'}, "shape must be two positive JSON integers"),
        ({"shape": "[1, 134217729]"}, "more than the cap of 134217728"),
        ({"shape": "[134217729, 2]"}, "more than the cap of 134217728"),
        ({"shape": "[1, 3]"}, "expects 3 inputs but the layer before produces 2"),
        ({"rows": "[0.0, 0]"}, "rows must be a list of JSON integers"),
        ({"rows": "[true, 0]"}, "rows must be a list of JSON integers"),
        ({"cols": "[0, false]"}, "cols must be a list of JSON integers"),
        ({"cols": '["0", 1]'}, "cols must be a list of JSON integers"),
        ({"rows": "0"}, "rows must be a list of JSON integers"),
        ({"rows": "[[0], [0]]"}, "rows must be a list of JSON integers"),
        ({"rows": "[0, 1]"}, r"rows index 1 is out of range \[0, 1\)"),
        ({"cols": "[-1, 1]"}, r"cols index -1 is out of range \[0, 2\)"),
        ({"cols": "[0, 18446744073709551616]"}, "cols must be a list of JSON integers"),
        ({"cols": "[1, 1]"}, r"entry 1 at index \(0, 1\) is duplicated"),
        ({"cols": "[1, 0]"}, r"entry 1 at index \(0, 0\) breaks row-major order"),
        ({"rows": "[0]", "cols": "[0]"}, "of one length, got 1, 1 and shape"),
        ({"cols": "[0]", "values": "[3.0]"}, "of one length, got 2, 1 and shape"),
        ({"values": "[3.0]"}, "of one length, got 2, 2 and shape"),
        ({"values": "[[3.0], [4.0]]"}, "of one length"),
        ({"values": "[true, 4.0]"}, "values must hold integers or floats, got a bool"),
        ({"values": '[3.0, "4"]'}, "values must hold integers or floats, got dtype <U32"),
        ({"values": "[3.0, null]"}, "values must hold integers or floats, got dtype object"),
        ({"values": "[3.0, 1e999]"}, "values must hold only finite numbers"),
        ({"bias": "[false]"}, "bias must hold integers or floats, got a bool"),
        ({"bias": "[0.0, 0.0]"}, "weight rows 1 != bias length 2"),
    ],
)
def test_deserialize_names_the_broken_coo_rule(fields, message):
    with pytest.raises(ParseError, match="^layer 1: .*" + message):
        deserialize(coo_doc(**fields))


def test_the_entry_cap_admits_its_own_size():
    # the chain check runs after the cap and before any allocation
    with pytest.raises(ParseError, match="expects 134217728 inputs"):
        deserialize(coo_doc(shape="[1, 134217728]"))


@pytest.mark.parametrize("layout", ['"dense"', '"csr"', "null", "1"])
def test_deserialize_rejects_unknown_layouts(layout):
    doc = coo_doc().replace('"coo"', layout)
    with pytest.raises(ParseError, match="unknown layout"):
        deserialize(doc)


LEAF_1X1 = '{"shape": [1, 1], "rows": [0], "cols": [0], "values": [2.0], "bias": [0.5]}'
LEAF_1X2 = '{"shape": [1, 2], "rows": [0], "cols": [1], "values": [3.0], "bias": [0.0]}'


def parts_doc(parts, layers):
    """A COO document of the ``parts`` and ``layers`` given as JSON texts."""
    return '{"layout": "coo", "parts": [%s], "layers": %s}' % (", ".join(parts), layers)


def test_parts_doc_is_valid():
    net = deserialize(parts_doc([LEAF_1X1, LEAF_1X2, '{"stack": [0, 0]}'], "[2, 1, 0, 0]"))
    assert net.layers[0].form == "stack" and net.layers[0]._parts == (net.layers[2],) * 2
    assert net.layers[2] is net.layers[3]
    assert realize(net, IDENTITY, [1.0, 2.0]).tolist() == [2 * (2 * 3 * 4.5 + 0.5) + 0.5]


@pytest.mark.parametrize(
    "parts, layers, message",
    [
        ([LEAF_1X1, '{"stack": [2]}', LEAF_1X1], "[1]", r"part 1: stack index 2 is out of range \[0, 1\)"),
        ([LEAF_1X1, '{"stack": [0, 1]}'], "[1]", r"part 1: stack index 1 is out of range \[0, 1\)"),
        (['{"stack": [0]}'], "[0]", r"part 0: stack index 0 is out of range \[0, 0\)"),
        ([LEAF_1X1, '{"stack": [-1]}'], "[1]", r"part 1: stack index -1 is out of range"),
        ([LEAF_1X1, '{"stack": [0.0]}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": [true]}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": [0, false]}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": ["0"]}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": 0}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": [[0], [0]]}'], "[1]", "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": [0, [0]]}'], "[1]", "part 1: stack must be rectangular"),
        ([LEAF_1X1, '{"stack": [18446744073709551616]}'], "[1]",
         "part 1: stack must be a list of JSON integers"),
        ([LEAF_1X1, '{"stack": []}'], "[1]", "part 1: stack must list at least one part"),
        ([LEAF_1X1, "0"], "[0]", "part 1: missing 'shape'"),
        ([LEAF_1X1], "[1]", r"layer 0: 1 is neither a layer nor a part id in \[0, 1\)"),
        ([LEAF_1X1], "[0, -1]", r"layer 1: -1 is neither a layer nor a part id"),
        ([LEAF_1X1], "[0.0]", r"layer 0: 0.0 is neither a layer nor a part id"),
        ([LEAF_1X1], "[true]", r"layer 0: True is neither a layer nor a part id"),
        ([LEAF_1X1], '["0"]', r"layer 0: '0' is neither a layer nor a part id"),
        ([LEAF_1X1], "[null]", r"layer 0: None is neither a layer nor a part id"),
        ([LEAF_1X1], "[18446744073709551616]", "layer 0: 18446744073709551616 is neither"),
        ([LEAF_1X1], '[0, {"stack": [1]}]', r"layer 1: stack index 1 is out of range \[0, 1\)"),
        ([LEAF_1X1, LEAF_1X2], "[0, 1]", "layer 1 expects 2 inputs but layer 0 produces 1"),
        ([LEAF_1X1, LEAF_1X2], '[0, {"stack": [0, 0]}]',
         "layer 1: expects 2 inputs but the layer before produces 1"),
        ([LEAF_1X1], "0", "'layers' must be a non-empty list"),
        ([], "[]", "'layers' must be a non-empty list"),
    ],
    ids=["forward", "self", "no_earlier_part", "negative", "float", "bool", "bool_second",
         "string", "not_a_list", "nested", "ragged", "wide", "empty", "id_as_part",
         "layer_id_out_of_range", "layer_id_negative", "layer_id_float", "layer_id_bool",
         "layer_id_string", "layer_id_null", "layer_id_wide", "inline_stack_forward",
         "ids_do_not_chain", "inline_stack_does_not_chain", "layers_no_list", "no_layers"],
)
def test_deserialize_names_the_broken_part_rule(parts, layers, message):
    with pytest.raises(ParseError, match="^" + message):
        deserialize(parts_doc(parts, layers))


def test_deserialize_refuses_parts_that_are_no_list():
    doc = '{"layout": "coo", "parts": {"0": %s}, "layers": [0]}' % LEAF_1X1
    with pytest.raises(ParseError, match="^'parts' must be a list$"):
        deserialize(doc)


def test_a_stack_past_the_entry_cap_is_refused_before_anything_is_allocated():
    # part k stacks part k - 1 twice: part 14 would be 2**14 x 2**14 = 2**28 entries
    parts = [LEAF_1X1] + ['{"stack": [%d, %d]}' % (k - 1, k - 1) for k in range(1, 61)]
    doc = parts_doc(parts, "[60]")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^part 14: shape \[16384, 16384\] has 16384 x 16384 "
                                             "entries, more than the cap of 134217728"):
            deserialize(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the biases of parts 0-13 are 128 KiB in all
    assert peak < 2**20
    assert deserialize(parts_doc(parts[:14], "[13]")).layers[0].rows == 8192


def test_the_biases_of_all_stacks_together_are_held_to_the_entry_cap(monkeypatch):
    # each stack allocates a bias of its rows, so a stack of one id over a
    # cap-sized stack costs 15 bytes of text and a full bias; the cap is
    # lowered to 2**20 so that reaching it allocates 8 MiB, not 1 GiB
    import anncalc.network

    monkeypatch.setattr(anncalc.network, "_MAX_LAYER_ENTRIES", 2**20)
    leaf = json.dumps({"shape": [64, 1], "rows": [0], "cols": [0], "values": [1.0],
                       "bias": [0.0] * 64})
    # parts 1-7 double part 0 up to 8192 x 128 = 2**20 entries, 16,256 bias
    # entries in all; from part 8 each part stacks part 7 alone, 8,192 more
    parts = [leaf] + ['{"stack": [%d, %d]}' % (k - 1, k - 1) for k in range(1, 8)]
    parts += ['{"stack": [7]}'] * 1000
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r"^part 134: the stacks' biases reach 1056640 "
                                             "entries, more than the cap of 1048576$"):
            deserialize(parts_doc(parts, "[7]"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * 2**20
    assert deserialize(parts_doc(parts[:134], "[133]")).layers[0].rows == 8192


def test_a_deep_chain_of_stacks_loads_realizes_compares_and_saves(rng):
    # 10,000 stacks of one part each over a 64 x 1024 leaf: every walk of the
    # parts is a loop, so none reaches the recursion limit
    w = np.where(rng.random((64, 1024)) < 0.01, rng.standard_normal((64, 1024)), 0.0)
    leaf = Layer(w, rng.standard_normal(64))
    data = serialize(Network((leaf,)))
    doc = json.loads(data)
    doc["parts"] += [{"stack": [k]} for k in range(10_000)]
    doc["layers"] = [10_000]
    text = json.dumps(doc)
    net, again = deserialize(text), deserialize(text)
    assert dims(net) == (1024, 64) and net.layers[0].rows * net.layers[0].cols >= _BLOCK_MIN_ENTRIES
    x = rng.standard_normal((5, 1024))
    assert np.array_equal(realize(net, RELU, x), realize(Network((leaf,)), RELU, x))
    assert np.array_equal(realize(again, RELU, x), realize(net, RELU, x))
    assert networks_equal(net, again) and networks_equal(again, Network((leaf,)))
    assert serialize(net) == text.encode()
    assert np.array_equal(Layer(net.layers[0].weights, net.layers[0].bias).weights, w)


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


EQUAL_CASES = ("same", "signed zeros", "nan", "one entry", "bias", "shape")
FORMS = ("dense", "stack", "coo")


def equal_case_nets(seed, large, case, form_a, form_b):
    """Two nets, a layer of block-diagonal parts before a dense one, whose
    first layers are born in the two forms.  b's parts are a's changed as
    ``case`` says; ``large`` puts the first layer at or above the size of
    _BLOCK_MIN_ENTRIES, else far below it."""
    rng = np.random.default_rng(seed)
    count, lo, hi = (8, 32, 40) if large else (3, 1, 12)
    parts_a = []
    for _ in range(count):
        w = rng.standard_normal(rng.integers(lo, hi + 1, size=2))
        w[rng.random(w.shape) < 0.7] = 0.0
        w[rng.random(w.shape) < 0.05] = -0.0
        parts_a.append(w)
    bias_a = rng.standard_normal(sum(w.shape[0] for w in parts_a))
    parts_b, bias_b = [w.copy() for w in parts_a], bias_a.copy()
    k = rng.integers(count)
    at = tuple(rng.integers(parts_b[k].shape))
    if case == "signed zeros":  # every 0.0 of b is -0.0 and every -0.0 is 0.0
        for w in parts_b:
            w[w == 0.0] *= -1.0
    elif case == "nan":  # at the same place in both, where == still fails
        parts_a[k][at] = parts_b[k][at] = np.nan
    elif case == "one entry":
        parts_b[k][at] += 1.0
    elif case == "bias":
        bias_b[rng.integers(bias_b.size)] += 1.0
    elif case == "shape":  # one more column, of zeros, so every entry keeps its place
        parts_b[-1] = np.hstack([parts_b[-1], np.zeros((parts_b[-1].shape[0], 1))])

    def net(parts, bias, form):
        if form == "coo" and any(np.isnan(w).any() for w in parts):
            form = "stack"  # a file holds no NaN
        if form == "stack":
            biases = np.split(bias, np.cumsum([w.shape[0] for w in parts])[:-1])
            layer = Layer.stack([Layer(w, b) for w, b in zip(parts, biases)])
        else:
            layer = Layer(block_diagonal(parts), bias)
        if form == "coo":
            layer = deserialize(serialize(Network((layer,)))).layers[0]
        return Network((layer, Layer(np.ones((1, layer.rows)), [0.0])))

    return net(parts_a, bias_a, form_a), net(parts_b, bias_b, form_b)


@pytest.mark.parametrize("case", EQUAL_CASES)
@example(seed=1, large=True, form_a="stack", form_b="coo")
@given(seed=st.integers(0, 2**32 - 1), large=st.booleans(),
       form_a=st.sampled_from(FORMS), form_b=st.sampled_from(FORMS))
def test_networks_equal_is_the_dense_comparison(seed, large, case, form_a, form_b):
    a, b = equal_case_nets(seed, large, case, form_a, form_b)
    got = networks_equal(a, b)
    # the reference fills every matrix, so it reads copies built after the call
    ref_a, ref_b = equal_case_nets(seed, large, case, form_a, form_b)
    want = all(
        np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(ref_a.layers, ref_b.layers)
    )
    assert got == want == (case in ("same", "signed zeros"))
    first = (a.layers[0], b.layers[0])
    assert all((layer.rows * layer.cols >= _BLOCK_MIN_ENTRIES) == large for layer in first)
    if large:
        assert not any("weights" in vars(layer) for layer in first if layer.form != "dense")


def test_networks_equal_fills_no_matrix_of_a_large_layer(rng):
    part = Layer(rng.standard_normal((32, 32)), rng.standard_normal(32))
    net = Network((Layer.stack([part] * 8),))  # 256 x 256
    loaded = deserialize(serialize(net))
    assert networks_equal(net, loaded) and networks_equal(loaded, net)
    for layer in (net.layers[0], loaded.layers[0]):
        assert layer.rows * layer.cols >= _BLOCK_MIN_ENTRIES
        assert "weights" not in layer.__dict__


@pytest.mark.parametrize("size", [4, 256])
def test_networks_equal_reads_only_the_entries_of_file_layers(rng, size):
    w = rng.standard_normal((size, size))
    w[rng.random(w.shape) < 0.9] = 0.0
    signed = np.where(w == 0.0, -0.0, w)  # every zero of w is -0.0 here
    bias = rng.standard_normal(size)
    a, b = (deserialize(serialize(Network((Layer(m, bias),)))) for m in (w, signed))
    assert networks_equal(a, b) and networks_equal(b, a)
    # a NaN equals nothing, not even a NaN at the same place
    rows, cols, values = b.layers[0]._entries
    nan = np.where(np.arange(values.size) == 0, np.nan, values)
    c, d = (Network((Layer._trusted(size, size, bias.copy(), _entries=(rows, cols, nan)),))
            for _ in range(2))
    assert not networks_equal(c, d) and not networks_equal(b, c)
    assert not any("weights" in vars(net.layers[0]) for net in (a, b, c, d))


def test_networks_equal_fills_no_matrix_of_a_loaded_spacetime_net(rng):
    drift = random_net(rng, 1, 1, 2, width_hi=3)
    net = spacetime_net(EulerSpec(drift, 1.0, 2, tuple(0.4 * rng.standard_normal((2, 1)))))
    first, second = (deserialize(serialize(net)) for _ in range(2))
    assert networks_equal(first, second)
    assert not any("weights" in vars(layer) for layer in first.layers + second.layers)


def _layers_and_parts(net):
    """Every layer of ``net`` and, recursively, every part of its stacks."""
    todo, seen = list(net.layers), []
    while todo:
        layer = todo.pop()
        seen.append(layer)
        todo += layer.__dict__.get("_parts", ())
    return seen


def _nested_stacks_net(rng):
    """A net of a small stack and a large one (256 x 256), each with a nested stack."""
    def dense(n):
        return Layer(rng.standard_normal((n, n)), rng.standard_normal(n))

    small = Layer.stack([dense(3), Layer.stack([dense(2), dense(3)])])
    inner = Layer.stack([dense(16), dense(16)])
    large = Layer.stack([Layer.stack([inner] * 4)] + [dense(32)] * 2 + [inner] * 2)
    lift = Layer(rng.standard_normal((256, 8)), rng.standard_normal(256))
    return Network((small, lift, large, Layer(np.ones((1, 256)), [0.0])))


def test_serialize_and_networks_equal_fill_no_stack_matrix():
    net, other = (_nested_stacks_net(np.random.default_rng(7)) for _ in range(2))
    before = [("weights" in vars(layer)) for layer in _layers_and_parts(net)]
    assert sum(before) < len(before)
    assert net.layers[2].rows * net.layers[2].cols >= _BLOCK_MIN_ENTRIES
    data = serialize(net)
    assert networks_equal(net, other) and networks_equal(net, deserialize(data))
    assert serialize(other) == data
    for n in (net, other):
        after = [("weights" in vars(layer)) for layer in _layers_and_parts(n)]
        assert after == before


def test_networks_equal_compares_held_matrices_without_their_entries():
    a, b = square_unit(2**-10), square_unit(2**-10)
    assert networks_equal(a, b)
    assert not any("_entries" in vars(layer) for layer in a.layers + b.layers)


def test_deserialize_holds_one_layers_numbers_at_a_time():
    rng = np.random.default_rng(5)
    layers = [Layer(np.where(rng.random((400, 400)) < 0.05, rng.standard_normal((400, 400)), 0.0),
                    rng.standard_normal(400)) for _ in range(16)]
    data = serialize(Network(tuple(layers)))
    tracemalloc.start()
    try:
        net = deserialize(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bytes(net, Network(tuple(layers)))
    # the decoded text, the arrays of all 16 layers and one layer's Python
    # numbers come to about 1.9 times the file; the numbers of the whole
    # document, parsed before any is converted, to about 3.3 times
    assert peak < 2.5 * len(data)


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize("depth", [70, 900])
@pytest.mark.parametrize("key", ["rows", "values", "bias", "stack"])
def test_deeply_nested_number_lists_are_a_parse_error(key, depth):
    doc = json.loads(serialize(identity_net(1)))
    doc["parts"][0][key] = _nested(depth, True)
    with pytest.raises(ParseError, match="^part 0: "):
        deserialize(json.dumps(doc))
    # a key that no layer reads may hold anything
    doc = json.loads(serialize(identity_net(1)))
    doc["rows"] = doc["parts"][1]["extra"] = _nested(depth, True)
    assert networks_equal(deserialize(json.dumps(doc)), identity_net(1))


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
    # 255 x 256 is under 65,536 entries, the first size planned by components;
    # the 256 x 256 layer is over 1/8 nonzero; the stack of 60 1 x 1 leaves
    # is under 4,096 entries, the first size planned from leaves; the stack
    # whose two 32 x 32 leaves fill half its 4,096 cells is too dense
    small = rng.standard_normal((255, 256)) * (rng.random((255, 256)) < 0.02)
    dense = rng.standard_normal((256, 256))
    half = Layer(dense[:32, :32], rng.standard_normal(32))
    ones = [Layer([[w]], [b]) for w, b in rng.standard_normal((60, 2))]
    layers = [Layer(w, rng.standard_normal(w.shape[0])) for w in (small, dense)]
    for layer in layers + [Layer.stack(ones), Layer.stack([half, half])]:
        assert layer._block_plan is None
        z = rng.standard_normal((9, layer.cols))
        assert np.array_equal(realize(Network((layer,)), RELU, z), z @ layer.weights.T + layer.bias)


# ---------------------------------------------------------------------------
# the three layer forms


def random_leaf(rng):
    """A dense or COO-loaded layer of up to 40 x 40 with zero, sparse or
    dense weights, an empty row and column and a sprinkle of -0.0; returns
    the layer and its matrix."""
    rows, cols = (int(n) for n in rng.integers(1, 41, size=2))
    w = rng.standard_normal((rows, cols))
    w[rng.random(w.shape) < rng.choice([0.0, 0.8, 0.97, 1.0])] = 0.0
    w[rng.integers(rows)] = 0.0
    w[:, rng.integers(cols)] = 0.0
    w[rng.random(w.shape) < 0.05] = -0.0
    layer = Layer(w, rng.standard_normal(rows))
    if rng.random() < 0.5:
        layer = deserialize(serialize(Network((layer,)))).layers[0]
    return layer, w


def block_diagonal(mats):
    # independent oracle: the dense block-diagonal fill stacks were once built by
    w = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)))
    r = c = 0
    for m in mats:
        w[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return w


def random_stack(rng, depth):
    """A stack of 1-8 parts, each a leaf or, while ``depth`` lasts, a stack
    itself; returns the layer and its block-diagonal matrix."""
    parts = [
        random_stack(rng, depth - 1) if depth and rng.random() < 0.3 else random_leaf(rng)
        for _ in range(rng.integers(1, 9))
    ]
    return Layer.stack([p for p, _ in parts]), block_diagonal([m for _, m in parts])


def leaf_blocks(layer, r=0, c=0):
    """(row ids, column ids, block) of each block a stack plans from its
    leaves: a leaf's own plan at the leaf's offsets, else the whole leaf."""
    if layer.form == "stack":
        for part in layer._parts:
            yield from leaf_blocks(part, r, c)
            r, c = r + part.rows, c + part.cols
    elif layer._block_plan is None:
        yield np.arange(r, r + layer.rows), np.arange(c, c + layer.cols), layer.weights
    else:
        for row_ids, col_ids, blocks in layer._block_plan:
            yield from zip(row_ids + r, col_ids + c, blocks)


def check_stack_plan(layer, want):
    """The stack's plan holds its leaves' blocks, one group per shape in
    shape order and blocks in row order, and ``realize`` of the stack is
    ``z @ want.T + b`` within 1e-12 of its magnitude."""
    check_block_plan(layer)
    plan = layer._block_plan
    shapes = [blocks.shape[1:] for _, _, blocks in plan]
    assert shapes == sorted(set(shapes))
    assert all((np.diff(row_ids[:, 0]) > 0).all() for row_ids, _, _ in plan)
    got = [block for row_ids, col_ids, blocks in plan for block in zip(row_ids, col_ids, blocks)]
    ref = list(leaf_blocks(layer))
    assert len(got) == len(ref)
    for a, b in zip(sorted(got, key=lambda blk: blk[0][0]), sorted(ref, key=lambda blk: blk[0][0])):
        assert all(u.shape == v.shape and u.tobytes() == v.tobytes() for u, v in zip(a, b))
    z = np.random.default_rng(layer.rows).standard_normal((3, layer.cols))
    mag = np.abs(z) @ np.abs(want).T + np.abs(layer.bias)
    got = realize(Network((layer,)), RELU, z)
    assert np.all(np.abs(got - (z @ want.T + layer.bias)) <= 1e-12 * mag)


@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.integers(1, 12))
def test_stacks_keep_the_block_diagonal_bits_and_plan(seed, depth, copies):
    rng = np.random.default_rng(seed)
    pieces = [random_stack(rng, depth) for _ in range(copies)]
    layer = Layer.stack([p for p, _ in pieces])
    want = block_diagonal([m for _, m in pieces])
    plan = layer._block_plan  # from the leaves, before any matrix is filled
    assert "weights" not in vars(layer)
    assert layer.weights.shape == want.shape and layer.weights.tobytes() == want.tobytes()
    assert layer.weights.flags.c_contiguous and not layer.weights.flags.writeable
    entries = layer.rows * layer.cols
    cells = sum(block.size for _, _, block in leaf_blocks(layer))
    if entries >= _STACK_MIN_ENTRIES and cells * _BLOCK_MAX_DENSITY <= entries:
        check_stack_plan(layer, want)
        return
    # too small or too dense for its leaves' blocks: planned as its dense twin
    dense = Layer(layer.weights, layer.bias)
    if plan is None:
        assert dense._block_plan is None
        return
    check_block_plan(layer)
    assert len(plan) == len(dense._block_plan)
    for got, ref in zip(plan, dense._block_plan):
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    z = rng.standard_normal((3, layer.cols))
    got, want = (realize(Network((one,)), RELU, z) for one in (layer, dense))
    assert got.tobytes() == want.tobytes()


def test_random_stacks_fall_on_both_sides_of_the_plan_threshold():
    # the property above draws its stacks this way, from 1 to 12 copies
    def fate(seed, copies):
        layer = Layer.stack([random_stack(np.random.default_rng(seed), 0)[0] for _ in range(copies)])
        if layer.rows * layer.cols < _STACK_MIN_ENTRIES:
            return "small"
        return "dense" if layer._block_plan is None else "planned"

    assert {fate(seed, copies) for seed in range(12) for copies in (1, 12)} == {
        "small", "dense", "planned"}


def test_a_stack_plans_a_large_sparse_coo_leaf_by_its_components(rng):
    small, w = random_leaf(rng)
    # 64 blocks of 4 x 4 with their rows and columns shuffled
    blocks = np.kron(np.eye(64), np.ones((4, 4))) * rng.standard_normal((256, 256))
    sparse = Layer(blocks[rng.permutation(256)][:, rng.permutation(256)], rng.standard_normal(256))
    coo = deserialize(serialize(Network((sparse,)))).layers[0]
    assert coo.form == "entries" and [b.shape for _, _, b in coo._block_plan] == [(64, 4, 4)]
    layer = Layer.stack([small, Layer.stack([coo, small])])
    check_stack_plan(layer, block_diagonal([w, sparse.weights, w]))
    # the leaf's components, at the leaf's offsets, are among the stack's blocks
    inside = [block.shape for row_ids, _, blocks in layer._block_plan
              for first, block in zip(row_ids[:, 0], blocks)
              if small.rows <= first < small.rows + coo.rows]
    assert inside == [(4, 4)] * 64


def test_a_stack_whose_leaves_fill_it_is_planned_by_its_components(rng):
    # five 60 x 60 leaves at 2% nonzeros: 90,000 entries, 18,000 cells in
    # leaves, too many for a plan from leaves but not from components
    leaves = [Layer(rng.standard_normal((60, 60)) * (rng.random((60, 60)) < 0.02),
                    rng.standard_normal(60)) for _ in range(5)]
    layer = Layer.stack(leaves)
    assert layer.rows * layer.cols >= _BLOCK_MIN_ENTRIES
    assert sum(leaf.rows * leaf.cols for leaf in leaves) * _BLOCK_MAX_DENSITY > layer.rows * layer.cols
    plan = layer._block_plan
    assert plan is not None and "weights" not in vars(layer)
    check_block_plan(layer)
    dense = Layer(layer.weights, layer.bias)
    for got, ref in zip(plan, dense._block_plan, strict=True):
        assert all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def test_a_loaded_net_agrees_with_the_built_one(rng):
    drift = random_net(rng, 2, 2, 2, width_hi=3, scale=0.7)
    net = spacetime_net(EulerSpec(drift, 1.0, 4, tuple(0.4 * rng.standard_normal((4, 2))), 1e-2, 3.0))
    loaded = deserialize(serialize(net))
    assert any(layer._block_plan is not None for layer in net.layers)
    x = np.column_stack([rng.uniform(0.0, 1.0, 40), rng.uniform(-2.0, 2.0, (40, 2))])
    for points in (x, x[0]):
        want, mag = dense_reference(net, RELU, points)
        got = np.atleast_2d(realize(loaded, RELU, points))
        assert np.array_equal(got, np.atleast_2d(realize(net, RELU, points)))
        assert np.all(np.abs(got - want) <= 1e-12 * mag)


def test_a_loaded_spacetime_net_shares_its_stack_parts(rng):
    drift = random_net(rng, 2, 2, 2, width_hi=3, scale=0.7)
    net = spacetime_net(EulerSpec(drift, 1.0, 4, tuple(0.4 * rng.standard_normal((4, 2))), 1e-2, 3.0))
    data = serialize(net)
    loaded = deserialize(data)
    built, got = (_layers_and_parts(n) for n in (net, loaded))
    distinct = len({id(layer) for layer in built})
    assert len(got) == len(built) > distinct
    assert len({id(layer) for layer in got}) == distinct == len(json.loads(data)["parts"])
    assert [layer.form for layer in got] == [
        "entries" if layer.form == "dense" else layer.form for layer in built]


def test_index_arrays_of_int64_are_kept_without_a_copy():
    a = np.array([0, 3, 4])
    assert a.dtype == np.int64 and _index_array(a, "rows", 5) is a


def test_realize_fills_no_matrix_of_a_planned_spacetime_layer(rng):
    drift = random_net(rng, 4, 4, 2, width_hi=3)
    spec = EulerSpec(drift, 1.0, 4, tuple(0.4 * rng.standard_normal((4, 4))), 1e-2, 3.0)
    net = spacetime_net(spec)
    realize(net, RELU, rng.standard_normal((5, 5)))
    planned = [layer for layer in net.layers if layer._block_plan is not None]
    assert planned
    assert not any("weights" in vars(layer) for layer in planned)


def test_layers_name_the_form_they_were_born_in():
    dense = Layer(np.eye(2), np.zeros(2))
    stack = Layer.stack([dense, dense])
    loaded = deserialize(serialize(Network((stack,)))).layers[0]
    layers = (dense, dense.after(dense), stack, loaded, loaded._parts[0])
    for _ in range(2):  # filling a matrix or an entries view changes no form
        assert [layer.form for layer in layers] == ["dense", "dense", "stack", "stack", "entries"]
        for layer in layers:
            layer.weights, layer._entries


def test_layers_keep_identity_semantics():
    layer = identity_net(2).layers[0]
    assert hash(layer) == hash(layer) and layer != Layer(layer.weights, layer.bias)
    assert weakref.ref(layer)() is layer
    with pytest.raises(AttributeError):
        layer.bias = np.zeros(4)
    with pytest.raises(AttributeError):
        del layer.weights
