"""The network algebra: structural laws exact, realizations to 1e-12."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import anncalc.ops
from anncalc import (
    DomainError,
    IdentityEmulator,
    Network,
    RELU,
    ShapeError,
    affine,
    compose,
    concat_identity,
    dims,
    extend,
    hat_net,
    identity_net,
    networks_equal,
    parallel_equal,
    parallel_general,
    param_count,
    power,
    realize,
    relu_identity,
    serialize,
    sum_equal,
    sum_general,
)

from conftest import random_net, same_bytes, spy


def seeded_net(seed, d_in, d_out, depth):
    return random_net(np.random.default_rng(seed), d_in, d_out, depth)


# ---------------------------------------------------------------------------
# composition


def test_compose_two_affine_maps():
    double = affine([[2.0]])
    shift = affine([[1.0]], [1.0])
    net = compose(double, shift)
    assert dims(net) == (1, 1)
    assert net.layers[0].weights[0, 0] == 2.0
    assert net.layers[0].bias[0] == 2.0  # realizes 2x + 2


def test_compose_dims_example(rng):
    a = random_net(rng, 3, 2, 2)  # dims (3, ?, 2) -> force (3,5,2)
    a = Network(((np.ones((5, 3)), np.zeros(5)), (np.ones((2, 5)), np.zeros(2))))
    b = Network(((np.ones((4, 1)), np.zeros(4)), (np.ones((3, 4)), np.zeros(3))))
    assert dims(compose(a, b)) == (1, 4, 5, 2)


def test_compose_interface_error_names_both_dims(rng):
    a = random_net(rng, 3, 2, 2)
    b = random_net(rng, 2, 4, 2)
    with pytest.raises(ShapeError, match="3") as exc:
        compose(a, b)
    assert "4" in str(exc.value)


@given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(1, 3))
def test_compose_param_bound_and_homomorphism(seed, la, lb):
    rng = np.random.default_rng(seed)
    d0, d1, d2 = (int(rng.integers(1, 5)) for _ in range(3))
    b = random_net(rng, d0, d1, lb)
    a = random_net(rng, d1, d2, la)
    c = compose(a, b)
    l11 = dims(a)[1]
    l2last = dims(b)[-2]
    assert param_count(c) <= param_count(a) + param_count(b) + l11 * l2last
    assert c.depth - 1 == (a.depth - 1) + (b.depth - 1)
    x = rng.standard_normal((5, d0))
    want = realize(a, RELU, realize(b, RELU, x))
    got = realize(c, RELU, x)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want) + 1))


@given(st.integers(0, 2**31 - 1))
def test_compose_associative_bit_exact(seed):
    # with a middle factor of depth >= 2 both sides fuse disjoint scalars
    rng = np.random.default_rng(seed)
    d0, d1, d2, d3 = (int(rng.integers(1, 4)) for _ in range(4))
    c3 = random_net(rng, d0, d1, int(rng.integers(1, 3)))
    c2 = random_net(rng, d1, d2, 2)
    c1 = random_net(rng, d2, d3, int(rng.integers(1, 3)))
    assert networks_equal(compose(compose(c1, c2), c3), compose(c1, compose(c2, c3)))


# ---------------------------------------------------------------------------
# powers and extensions


def test_power_zero_is_plain_identity_layer(rng):
    net = random_net(rng, 3, 3, 2)
    p0 = power(net, 0)
    assert dims(p0) == (3, 3)
    assert np.array_equal(p0.layers[0].weights, np.eye(3))
    assert np.array_equal(p0.layers[0].bias, np.zeros(3))


def composed_power(phi, n):
    # reference: n - 1 compositions of phi after the power so far
    if n == 0:
        return affine(np.eye(phi.output_dim))
    result = phi
    for _ in range(n - 1):
        result = compose(phi, result)
    return result


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_power_is_repeated_composition_bit_for_bit(rng, n):
    for phi in [random_net(rng, 3, 3, depth) for depth in (1, 2, 3)] + [relu_identity(2).net]:
        assert same_bytes(power(phi, n), composed_power(phi, n))


def test_power_dims_law():
    assert dims(power(identity_net(2), 3)) == (2, 4, 4, 4, 2)


def test_power_identity_realization(rng):
    p = power(identity_net(2), 5)
    x = rng.standard_normal((20, 2))
    assert np.allclose(realize(p, RELU, x), x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [-1, 2.5, True, "2", None])
def test_power_rejects_non_natural_exponents(n):
    with pytest.raises(ShapeError, match="integer n >= 0"):
        power(identity_net(2), n)


def test_power_accepts_numpy_integers():
    assert dims(power(identity_net(2), np.int64(2))) == (2, 4, 4, 2)


def test_power_requires_square(rng):
    with pytest.raises(ShapeError):
        power(random_net(rng, 2, 3, 1), 2)


@pytest.mark.parametrize("n", [2**61, 2**63])
def test_power_and_extend_refuse_more_layers_than_the_file_cap(n):
    with pytest.raises(ShapeError, match=f"^power n={n} of a depth-2 network has over 134217728"):
        power(identity_net(1), n)
    with pytest.raises(ShapeError, match=f"^power n={n - 2} of a depth-2 network has over"):
        extend(n, relu_identity(1), identity_net(1))


def test_extend_by_zero_is_bit_identical(rng):
    # power-0 head fuses with an exact identity matrix
    phi = random_net(rng, 2, 3, 2)
    assert networks_equal(extend(phi.depth, relu_identity(3), phi), phi)


def test_padding_to_own_depth_returns_the_network(rng):
    phi = random_net(rng, 2, 3, 3)
    assert extend(phi.depth, relu_identity(3), phi) is phi
    square = random_net(rng, 3, 3, 2)
    assert power(square, 1) is square
    emu = relu_identity(2)
    assert power(emu.net, 1) is emu.net
    assert extend(2, emu, emu.net) is emu.net


@pytest.mark.parametrize("L", [3.5, 3.0, True, "3", None])
def test_extend_rejects_non_integer_depth(rng, L):
    with pytest.raises(ShapeError, match=f"integer depth L, got {L!r}"):
        extend(L, relu_identity(2), random_net(rng, 2, 2, 2))


@pytest.mark.parametrize("d", [2.5, 2.0, True, 0])
def test_identity_net_rejects_non_integer_width(d):
    with pytest.raises(ShapeError, match="integer d >= 1"):
        identity_net(d)


def test_extend_preserves_hat_function():
    hat = hat_net(0.0, 1.0, 2.0, 1.0)
    ext = extend(5, relu_identity(1), hat)
    assert ext.depth == 5
    grid = np.linspace(-1.0, 3.0, 401)[:, None]
    assert np.allclose(realize(ext, RELU, grid), realize(hat, RELU, grid), atol=1e-12)


def test_extend_rejects_shrinking(rng):
    phi = random_net(rng, 2, 2, 3)
    with pytest.raises(ShapeError):
        extend(2, relu_identity(2), phi)


@given(st.integers(0, 2**31 - 1))
def test_extend_param_bound(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    emu = relu_identity(d)
    phi = random_net(rng, int(rng.integers(1, 4)), d, int(rng.integers(1, 4)))
    L = phi.depth + int(rng.integers(0, 3))
    ext = extend(L, emu, phi)
    i = emu.width
    if L == phi.depth:
        assert param_count(ext) <= param_count(phi)
    else:
        bound = max(1, i / d) * param_count(phi) + ((L - phi.depth - 1) * i + d) * (i + 1)
        assert param_count(ext) <= bound


# ---------------------------------------------------------------------------
# identity emulators


def test_identity_emulator_validates_shape(rng):
    with pytest.raises(ShapeError):
        IdentityEmulator(random_net(rng, 2, 2, 3), 2)
    with pytest.raises(ShapeError):
        IdentityEmulator(identity_net(3), 2)


def test_identity_emulator_checks_realization(rng):
    bogus = Network(((np.ones((4, 2)), np.zeros(4)), (np.ones((2, 4)), np.zeros(2))))
    with pytest.raises(ShapeError):
        IdentityEmulator(bogus, 2)


def test_relu_identity_is_built_once_per_dimension():
    assert relu_identity(3) is relu_identity(3)
    assert relu_identity(2) is not relu_identity(3)
    assert relu_identity(2).dim == 2


def test_algebra_is_activation_generic(rng):
    # a trivial two-layer pass-through emulates the identity under the
    # identity activation; the algebra works with it unchanged
    from anncalc import IDENTITY

    d = 2
    passthrough = Network(((np.eye(d), np.zeros(d)), (np.eye(d), np.zeros(d))))
    emu = IdentityEmulator(passthrough, d, IDENTITY)
    phi = random_net(rng, 3, d, 2)
    ext = extend(4, emu, phi)
    x = rng.standard_normal((10, 3))
    assert np.allclose(
        realize(ext, IDENTITY, x), realize(phi, IDENTITY, x), rtol=1e-12, atol=1e-12
    )
    par = parallel_general([phi, random_net(rng, 1, d, 3)], [emu, emu])
    assert par.depth == 3


# ---------------------------------------------------------------------------
# parallelization


def test_parallel_single_is_identity_op(rng):
    f = random_net(rng, 2, 3, 2)
    assert networks_equal(parallel_equal([f]), f)


def test_parallel_dims_example():
    hat = hat_net(0.0, 1.0, 2.0, 1.0)  # dims (1,4,1)
    assert dims(parallel_equal([hat, hat])) == (2, 8, 2)


def test_parallel_realizes_tuple_map(rng):
    f = affine(rng.standard_normal((2, 3)), rng.standard_normal(2))
    g = affine(rng.standard_normal((1, 2)), rng.standard_normal(1))
    par = parallel_equal([f, g])
    x1, x2 = rng.standard_normal(3), rng.standard_normal(2)
    got = realize(par, RELU, np.concatenate([x1, x2]))
    want = np.concatenate([realize(f, RELU, x1), realize(g, RELU, x2)])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_parallel_depth_mismatch_lists_depths(rng):
    with pytest.raises(ShapeError, match=r"\[1, 2\]"):
        parallel_equal([random_net(rng, 1, 1, 1), random_net(rng, 1, 1, 2)])


def test_parallel_general_mixed_depths(rng):
    shallow = random_net(rng, 2, 2, 2)
    deep = random_net(rng, 1, 1, 4)
    par = parallel_general([shallow, deep])
    assert par.depth == 4
    x1, x2 = rng.standard_normal(2), rng.standard_normal(1)
    got = realize(par, RELU, np.concatenate([x1, x2]))
    want = np.concatenate([realize(shallow, RELU, x1), realize(deep, RELU, x2)])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_parallel_general_equal_depths_reduces_to_block_stacking(rng):
    # every branch gets a power-0 head, which fuses to a bit-identical layer
    nets = [random_net(rng, 2, 1, 2), random_net(rng, 1, 3, 2)]
    assert networks_equal(parallel_general(nets), parallel_equal(nets))


def test_parallel_general_emulator_mismatch_names_index(rng):
    nets = [random_net(rng, 1, 2, 1), random_net(rng, 1, 3, 2)]
    ids = [relu_identity(2), relu_identity(2)]
    with pytest.raises(ShapeError, match="network 1"):
        parallel_general(nets, ids)


# ---------------------------------------------------------------------------
# sums


def test_sum_equal_cancellation(rng):
    f = random_net(rng, 2, 2, 2)
    s = sum_equal([f, f], [1.0, -1.0])
    x = rng.standard_normal((10, 2))
    assert np.max(np.abs(realize(s, RELU, x))) <= 1e-12


def test_sum_equal_param_bound():
    hat = hat_net(0.0, 1.0, 2.0, 1.0)
    s = sum_equal([hat, hat, hat], [1.0, 2.0, 3.0])
    assert param_count(s) <= 9 * 13


def test_sum_equal_matches_direct_summation(rng):
    base = random_net(rng, 2, 3, 2)
    others = [
        Network(
            tuple(
                (rng.standard_normal(l.weights.shape), rng.standard_normal(l.bias.shape))
                for l in base.layers
            )
        )
        for _ in range(2)
    ]
    nets = [base] + others
    h = [0.5, -1.5, 2.0]
    s = sum_equal(nets, h)
    x = rng.standard_normal((1000, 2))
    want = sum(hm * realize(net, RELU, x) for hm, net in zip(h, nets))
    got = realize(s, RELU, x)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want) + 1))


def test_sum_equal_rejects_empty_and_mixed():
    with pytest.raises(ShapeError):
        sum_equal([])
    with pytest.raises(ShapeError):
        sum_equal([identity_net(1), identity_net(2)])


@pytest.mark.parametrize("op", [parallel_equal, parallel_general, sum_general])
def test_operations_need_a_network(op):
    with pytest.raises(ShapeError, match="needs at least one network"):
        op([])


def test_emulators_and_weights_must_match_the_networks():
    nets = [identity_net(1), identity_net(1)]
    with pytest.raises(ShapeError, match="got 2 networks but 1 emulators"):
        parallel_general(nets, [relu_identity(1)])
    with pytest.raises(ShapeError, match="got 2 networks but 3 weights"):
        sum_general(nets, h=[1.0, 1.0, 1.0])
    with pytest.raises(ShapeError) as exc:
        sum_general([identity_net(1), identity_net(2)])
    assert str(exc.value) == (
        "sum_general needs a common interface, got inputs [1, 2] and outputs [1, 2]"
    )


@pytest.mark.parametrize(
    "apply, message",
    [
        (lambda net, emu: extend(3, emu, net),
         "extension emulator acts on 3 components but the network produces 2"),
        (lambda net, emu: sum_general([net, net], emu),
         "sum emulator acts on 3 components but the networks produce 2"),
        (lambda net, emu: concat_identity(net, emu, emu.net),
         "left network consumes 2 components but the emulator produces 3"),
        (lambda net, emu: concat_identity(emu.net, emu, net),
         "right network produces 2 components but the emulator consumes 3"),
    ],
    ids=["extend", "sum_general", "concat_left", "concat_right"],
)
def test_emulator_dimension_must_match(rng, apply, message):
    with pytest.raises(ShapeError) as exc:
        apply(random_net(rng, 2, 2, 2), relu_identity(3))
    assert str(exc.value) == message


@pytest.mark.parametrize("sum_fn", [sum_equal, sum_general])
@pytest.mark.parametrize(
    "h, named",
    [(["2", 1.0], "h[0]='2'"), ([True, 1.0], "h[0]=True"), (["x", 1.0], "h[0]='x'"),
     ([np.nan, 1.0], "h[0]=nan"), ([1.0, -np.inf], "h[1]=-inf")],
    ids=["string_number", "bool", "string", "nan", "inf"],
)
def test_sum_weights_must_be_finite_reals(sum_fn, h, named):
    with pytest.raises(DomainError, match="sum weights must be finite real numbers") as exc:
        sum_fn([identity_net(1), identity_net(1)], h=h)
    assert str(exc.value).endswith(named)


def test_shape_messages_keep_their_text():
    with pytest.raises(ShapeError) as exc:
        compose(identity_net(2), identity_net(3))
    assert str(exc.value) == (
        "composition interface mismatch: left network consumes 2 components, "
        "right produces 3 (dims (2, 4, 2) vs (3, 6, 3))"
    )
    with pytest.raises(ShapeError) as exc:
        IdentityEmulator(identity_net(2), 3)
    assert str(exc.value) == "identity emulator needs dims (d, i, d) with d=3, got (2, 4, 2)"
    with pytest.raises(ShapeError) as exc:
        sum_equal([identity_net(2), power(identity_net(2), 2)])
    assert str(exc.value) == "sum_equal needs identical dims, got [(2, 4, 2), (2, 4, 4, 2)]"


def test_sum_equal_is_sum_general_with_bytes_of_the_fan_formula(rng, monkeypatch):
    calls = spy(monkeypatch, anncalc.ops, "sum_general")
    base = random_net(rng, 2, 3, 3)
    nets = [base] + [
        Network(tuple((rng.standard_normal(l.weights.shape), l.bias) for l in base.layers))
        for _ in range(2)
    ]
    for h in ([0.5, -1.5, 2.0], None):
        weights = [1.0] * 3 if h is None else h
        fan_in = affine(np.hstack([hm * np.eye(3) for hm in weights]))
        fan_out = affine(np.vstack([np.eye(2)] * 3))
        want = compose(fan_in, compose(parallel_equal(nets), fan_out))
        assert same_bytes(sum_equal(nets, h), want)
    assert len(calls) == 2


def test_unit_fans_are_shared_and_weighted_fan_ins_are_not(rng, monkeypatch):
    calls = spy(monkeypatch, anncalc.ops, "compose")
    nets = [random_net(rng, 2, 3, 2) for _ in range(2)]
    unit = serialize(sum_general(nets))
    assert serialize(sum_general(nets, h=[1.0, 1.0])) == unit
    sum_general(nets)
    # sum_general composes the stack after the fan-out, then the fan-in after that
    (_, fan_out_a), (fan_in_a, _), (_, fan_out_b), (fan_in_b, _) = calls[:2] + calls[-2:]
    assert fan_out_a is fan_out_b and fan_in_a is fan_in_b
    sum_general(nets, h=[1.0, 0.0])
    signed = sum_general(nets, h=[1.0, -0.0])
    fan_in = calls[-1][0].layers[0].weights
    assert np.signbit(fan_in[:, 3:]).all() and not np.signbit(fan_in[:, :3]).any()
    assert serialize(signed) != unit


def test_sum_general_single_net(rng):
    f = random_net(rng, 2, 3, 2)
    s = sum_general([f], h=[1.0])
    x = rng.standard_normal((20, 2))
    assert np.allclose(realize(s, RELU, x), realize(f, RELU, x), rtol=1e-12, atol=1e-12)


def test_sum_general_mixed_depths(rng):
    f = random_net(rng, 2, 2, 2)
    g = random_net(rng, 2, 2, 3)
    s = sum_general([f, g])
    x = rng.standard_normal((50, 2))
    want = realize(f, RELU, x) + realize(g, RELU, x)
    assert np.allclose(realize(s, RELU, x), want, rtol=1e-12, atol=1e-12 * 10)


# ---------------------------------------------------------------------------
# identity-mediated concatenation


def test_concat_identity_matches_plain_composition(rng):
    f = affine(rng.standard_normal((2, 2)), rng.standard_normal(2))
    g = affine(rng.standard_normal((2, 3)), rng.standard_normal(2))
    cc = concat_identity(f, relu_identity(2), g)
    x = rng.standard_normal((20, 3))
    want = realize(compose(f, g), RELU, x)
    assert np.allclose(realize(cc, RELU, x), want, rtol=1e-12, atol=1e-12)


@given(st.integers(0, 2**31 - 1))
def test_concat_depth_and_dims_laws(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    emu = relu_identity(d)
    g = random_net(rng, int(rng.integers(1, 4)), d, int(rng.integers(1, 3)))
    f = random_net(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    cc = concat_identity(f, emu, g)
    assert cc.depth == f.depth + g.depth
    assert dims(cc) == dims(g)[:-1] + (emu.width,) + dims(f)[1:]
    assert param_count(cc) <= max(1, emu.width / d) * (param_count(f) + param_count(g))
