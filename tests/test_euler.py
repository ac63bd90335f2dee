"""Euler-scheme networks: exact representation, oracles, a priori bounds."""

import math
import re

import numpy as np
import pytest

import anncalc.euler
from anncalc import (
    ApproxSpec,
    DomainError,
    EulerSpec,
    GrowthBoundInputs,
    IDENTITY,
    IdentityEmulator,
    Layer,
    Network,
    RELU,
    ShapeError,
    affine,
    compose,
    concat_identity,
    dims,
    euler_nodes,
    euler_oracle,
    euler_space_net,
    forward_states,
    gronwall_bound,
    identity_net,
    networks_equal,
    parallel_equal,
    parallel_general,
    param_count,
    perturbed_iterates,
    product_param_budget,
    realize,
    relu_identity,
    residual_chain,
    residual_step,
    scalar_vector_product,
    scaling_bounds,
    scaling_constant,
    spacetime_net,
    spacetime_param_bound,
    sum_general,
    time_hat_nets,
)

from anncalc.network import _BLOCK_MIN_ENTRIES
from conftest import check_block_plan, random_net, same_bytes, spy


def make_spec(rng, d, N, depth, y_scale=0.3, eps=1.0, q=3.0):
    drift = random_net(rng, d, d, depth, scale=0.6)
    y = tuple(y_scale * rng.standard_normal((N, d)))
    return EulerSpec(drift, 1.0, N, y, eps, q)


# ---------------------------------------------------------------------------
# residual steps


def test_residual_step_zero_first_net(rng):
    d = 2
    zero = Network(((np.zeros((3, d)), np.zeros(3)), (np.zeros((d, 3)), np.zeros(d))))
    phi2 = random_net(rng, d, d, 2)
    net = residual_step(zero, phi2, relu_identity(d))
    x = rng.standard_normal((20, d))
    assert np.allclose(realize(net, RELU, x), realize(phi2, RELU, x), rtol=1e-12, atol=1e-12)


def test_residual_step_matches_direct_evaluation(rng):
    d = 3
    phi1 = random_net(rng, d, d, 3)
    phi2 = random_net(rng, d, d, 2)
    net = residual_step(phi1, phi2, relu_identity(d))
    x = rng.standard_normal((50, d))
    f2 = realize(phi2, RELU, x)
    want = f2 + realize(phi1, RELU, f2)
    assert np.allclose(realize(net, RELU, x), want, rtol=1e-12, atol=1e-11)


def test_residual_step_dims_and_param_identity(rng):
    for _ in range(50):
        d = int(rng.integers(1, 4))
        emu = relu_identity(d)
        i = emu.width
        L1 = int(rng.integers(2, 4))
        phi1 = random_net(rng, d, d, L1)
        phi2 = random_net(rng, d, d, int(rng.integers(1, 4)))
        net = residual_step(phi1, phi2, emu)
        d1, d2 = dims(phi1), dims(phi2)
        assert dims(net) == d2[:-1] + tuple(l + i for l in d1[1:-1]) + (d1[-1],)
        expected = (
            param_count(phi1)
            + param_count(phi2)
            + (i - d) * (d2[-2] + 1)
            + d1[1] * (d2[-2] - d)
            + (L1 - 2) * i * (i + 1)
            + i * sum(d1[2:])
            + i * sum(d1[1 : L1 - 1])
        )
        assert param_count(net) == expected


def _fan_residual_step(phi1, phi2, emulator):
    """The residual step spelled out: fan-out, phi1 next to an emulator chain
    started from (I, 0), fan-in, after phi2."""
    eye = np.eye(emulator.dim)
    carried = affine(eye)
    for _ in range(phi1.depth - 1):
        carried = compose(emulator.net, carried)
    stacked = parallel_equal([phi1, carried])
    fan_in, fan_out = affine(np.hstack([eye, eye])), affine(np.vstack([eye, eye]))
    return compose(fan_in, compose(compose(stacked, fan_out), phi2))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("L1", [2, 3])
@pytest.mark.parametrize("L2", [1, 2])
def test_residual_step_is_one_sum_general(rng, monkeypatch, d, L1, L2):
    calls = spy(monkeypatch, anncalc.euler, "sum_general")
    emu = relu_identity(d)
    phi1, phi2 = random_net(rng, d, d, L1), random_net(rng, d, d, L2)
    assert same_bytes(residual_step(phi1, phi2, emu), _fan_residual_step(phi1, phi2, emu))
    assert len(calls) == 1


def test_residual_step_needs_depth_two(rng):
    d = 2
    with pytest.raises(ShapeError):
        residual_step(random_net(rng, d, d, 1), random_net(rng, d, d, 2), relu_identity(d))


def test_residual_chain_base_case(rng):
    psi = random_net(rng, 2, 2, 2)
    assert residual_chain(psi, [], relu_identity(2)) is psi


def test_residual_chain_affine_preserves_dims(rng):
    d = 2
    emu = relu_identity(d)
    phis = [random_net(rng, d, d, 1) for _ in range(3)]
    chain = residual_chain(emu.net, phis, emu)
    assert dims(chain) == dims(emu.net)
    x = rng.standard_normal((10, d))
    want = x.copy()
    for phi in phis:
        want = want + realize(phi, RELU, want)
    assert np.allclose(realize(chain, RELU, x), want, rtol=1e-12, atol=1e-11)


def _absorbed_chain(psi, phis):
    """Depth-1 links spelled out as one affine layer: x -> A x + b folded
    into x -> (A + I) x + b."""
    for phi in phis:
        layer = phi.layers[0]
        psi = compose(affine(layer.weights + np.eye(layer.rows), layer.bias), psi)
    return psi


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("links", [1, 2, 3])
def test_depth_one_links_equal_absorbed_formula(rng, d, links):
    emu = relu_identity(d)
    psi = random_net(rng, d, d, 2)
    phis = [random_net(rng, d, d, 1) for _ in range(links)]
    assert same_bytes(residual_chain(psi, phis, emu), _absorbed_chain(psi, phis))
    spec = make_spec(rng, d, links, 1)
    steps = [compose(affine((spec.T / spec.N) * np.eye(d), v), spec.drift) for v in spec.y]
    for n in range(links + 1):
        assert same_bytes(euler_space_net(spec, n), _absorbed_chain(emu.net, steps[:n]))


def test_residual_chain_matches_recursion(rng):
    d = 3
    emu = relu_identity(d)
    # hypothesis: second-to-last widths non-decreasing along the chain
    widths = sorted(int(rng.integers(1, 5)) for _ in range(4))
    phis = [
        Network(
            (
                (0.6 * rng.standard_normal((w, d)) / np.sqrt(d), rng.standard_normal(w)),
                (0.6 * rng.standard_normal((d, w)) / np.sqrt(w), rng.standard_normal(d)),
            )
        )
        for w in widths
    ]
    chain = residual_chain(emu.net, phis, emu)
    x = rng.standard_normal((20, d))
    want = x.copy()
    for phi in phis:
        want = want + realize(phi, RELU, want)
    assert np.allclose(realize(chain, RELU, x), want, rtol=1e-12, atol=1e-11)


def test_residual_chain_names_failed_inequality(rng):
    d = 2
    emu = relu_identity(d)
    wide = Network(((np.zeros((5, d)), np.zeros(5)), (np.zeros((d, 5)), np.zeros(d))))
    narrow = Network(((np.zeros((1, d)), np.zeros(1)), (np.zeros((d, 1)), np.zeros(d))))
    with pytest.raises(ShapeError, match="non-decreasing"):
        residual_chain(emu.net, [wide, narrow], emu)
    fat_psi = Network(((np.zeros((9, d)), np.zeros(9)), (np.zeros((d, 9)), np.zeros(d))))
    with pytest.raises(ShapeError, match="second-to-last"):
        residual_chain(fat_psi, [narrow, wide], emu)


def test_residual_step_checks_both_dims(rng):
    emu, good = relu_identity(2), random_net(rng, 2, 2, 2)
    with pytest.raises(ShapeError, match=r"phi1 must map R\^2 to R\^2, got I=2, O=3"):
        residual_step(random_net(rng, 2, 3, 2), good, emu)
    with pytest.raises(ShapeError, match=r"phi2 must map R\^2 to R\^2, got I=3, O=2"):
        residual_step(good, random_net(rng, 3, 2, 2), emu)


def test_residual_chain_checks_its_inputs(rng):
    emu, phi = relu_identity(1), random_net(rng, 1, 1, 2)
    with pytest.raises(ShapeError, match=r"psi must map R\^1 to R\^1, got I=2, O=1"):
        residual_chain(random_net(rng, 2, 1, 2), [phi], emu)
    with pytest.raises(ShapeError, match=r"chain networks must share one depth, got \[2, 3\]"):
        residual_chain(phi, [phi, random_net(rng, 1, 1, 3)], emu)
    with pytest.raises(ShapeError, match=r"chain network 1 must map R\^1 to R\^1, got I=1, O=2"):
        residual_chain(phi, [phi, random_net(rng, 1, 2, 2)], emu)
    # identity emulators on R^1 of width 1 (under the identity) and 4 > 2d
    one = (np.ones((1, 1)), np.zeros(1))
    narrow = IdentityEmulator(Network((one, one)), 1, IDENTITY)
    padded = (np.array([[1.0], [-1.0], [0.0], [0.0]]), np.zeros(4))
    wide = IdentityEmulator(Network((padded, (np.array([[1.0, -1.0, 0.0, 0.0]]), np.zeros(1)))), 1)
    for emulator, i in ((narrow, 1), (wide, 4)):
        with pytest.raises(ShapeError, match=f"emulator width violates 2 <= i <= 2d: i={i}, d=1"):
            residual_chain(phi, [phi], emulator)


# ---------------------------------------------------------------------------
# Euler space networks


def test_euler_space_n_zero_realizes_identity(rng):
    spec = make_spec(rng, 3, 4, 2)
    net = euler_space_net(spec, 0)
    x = rng.standard_normal((10, 3))
    assert np.allclose(realize(net, RELU, x), x, rtol=1e-12, atol=1e-12)


def test_euler_space_closed_form_linear_drift():
    # drift realizing mu(x) = x with one hidden layer
    drift = identity_net(1)
    spec = EulerSpec(drift, 1.0, 4, tuple(np.zeros((4, 1))))
    net = euler_space_net(spec, 4)
    for x in (-1.5, 0.3, 2.0):
        got = realize(net, RELU, [x])[0]
        want = (1.0 + 0.25) ** 4 * x
        assert got == pytest.approx(want, rel=1e-12)


def test_euler_space_matches_recursion(rng):
    for _ in range(10):
        d = int(rng.integers(1, 6))
        N = int(rng.integers(1, 17))
        spec = make_spec(rng, d, N, int(rng.integers(1, 4)))
        x = rng.standard_normal(d)
        nodes = euler_nodes(spec, x)
        for n in (0, N // 2, N):
            got = realize(euler_space_net(spec, n), RELU, x)
            scale = max(1.0, float(np.linalg.norm(nodes[n])))
            assert np.linalg.norm(got - nodes[n]) / scale <= 1e-11


def test_euler_space_hidden_count_law(rng):
    for depth in (1, 2, 3):
        spec = make_spec(rng, 2, 5, depth)
        for n in (0, 2, 5):
            net = euler_space_net(spec, n)
            assert net.depth - 1 == 1 + n * (spec.drift.depth - 1)


def test_euler_space_param_bound(rng):
    spec = make_spec(rng, 2, 6, 2)
    emu = relu_identity(2)
    p_emu, p_drift = param_count(emu.net), param_count(spec.drift)
    for n in (0, 3, 6):
        net = euler_space_net(spec, n)
        assert param_count(net) <= p_emu + n * (0.5 * p_emu + p_drift) ** 2


def test_euler_space_adaptedness_is_bit_exact(rng):
    spec = make_spec(rng, 2, 6, 2)
    z = tuple(np.array(v) for v in spec.y[:3]) + tuple(
        v + rng.standard_normal(2) for v in spec.y[3:]
    )
    other = EulerSpec(spec.drift, spec.T, spec.N, z)
    net_y = euler_space_net(spec, 3)
    net_z = euler_space_net(other, 3)
    assert networks_equal(net_y, net_z)
    x = rng.standard_normal((5, 2))
    assert np.array_equal(realize(net_y, RELU, x), realize(net_z, RELU, x))


def test_euler_space_index_validation(rng):
    spec = make_spec(rng, 2, 3, 2)
    with pytest.raises(DomainError):
        euler_space_net(spec, 4)


@pytest.mark.parametrize("n", [1.0, True])
def test_euler_space_rejects_non_integer_index(rng, n):
    spec = make_spec(rng, 2, 3, 2)
    with pytest.raises(DomainError, match="step index"):
        euler_space_net(spec, n)


def test_euler_spec_validation(rng):
    drift = random_net(rng, 2, 2, 2)
    with pytest.raises(ShapeError):
        EulerSpec(random_net(rng, 2, 3, 2), 1.0, 1, (np.zeros(3),))
    with pytest.raises(DomainError):
        EulerSpec(drift, 0.0, 1, (np.zeros(2),))
    with pytest.raises(DomainError):
        EulerSpec(drift, 1.0, 0, ())
    with pytest.raises(ShapeError):
        EulerSpec(drift, 1.0, 2, (np.zeros(2),))  # needs N perturbations
    with pytest.raises(ShapeError):
        EulerSpec(drift, 1.0, 1, (np.zeros(3),))  # wrong dimension
    with pytest.raises(DomainError):
        EulerSpec(drift, 1.0, 1, (np.zeros(2),), epsilon=2.0)
    with pytest.raises(DomainError):
        EulerSpec(drift, 1.0, 1, (np.zeros(2),), q=2.0)


@pytest.mark.parametrize("N", [2.7, 2.0, True, "2"])
def test_euler_spec_rejects_non_integer_N(rng, N):
    drift = random_net(rng, 2, 2, 2)
    with pytest.raises(DomainError, match="N must be a positive integer"):
        EulerSpec(drift, 1.0, N, (np.zeros(2), np.zeros(2)))


@pytest.mark.parametrize("T, N", [(0.0, 2), (1.0, 0), ("1", 2.5), (math.inf, True)])
def test_euler_spec_and_time_hats_share_grid_rule(T, N):
    with pytest.raises(DomainError) as hats:
        time_hat_nets(T, N)
    with pytest.raises(DomainError) as spec:
        EulerSpec(identity_net(1), T, N, ())
    assert str(spec.value) == str(hats.value)


# ---------------------------------------------------------------------------
# oracle


def test_euler_oracle_endpoints_and_nodes(rng):
    spec = make_spec(rng, 2, 4, 2)
    x = rng.standard_normal(2)
    nodes = euler_nodes(spec, x)
    assert np.array_equal(euler_oracle(spec, 0.0, x), x)
    times = spec.times()
    for n in range(5):
        assert np.allclose(euler_oracle(spec, float(times[n]), x), nodes[n], rtol=1e-12)


def test_euler_oracle_midpoint_is_mean(rng):
    spec = make_spec(rng, 2, 4, 2)
    x = rng.standard_normal(2)
    nodes = euler_nodes(spec, x)
    t_mid = 0.5 * (spec.times()[1] + spec.times()[2])
    got = euler_oracle(spec, t_mid, x)
    assert np.allclose(got, 0.5 * (nodes[1] + nodes[2]), rtol=1e-12)


def test_euler_oracle_rejects_out_of_horizon(rng):
    spec = make_spec(rng, 2, 3, 2)
    with pytest.raises(DomainError):
        euler_oracle(spec, 1.5, np.zeros(2))
    with pytest.raises(DomainError, match="-0.1"):
        euler_oracle(spec, np.array([0.0, 0.5, -0.1]), np.zeros(2))
    with pytest.raises(ShapeError):
        euler_oracle(spec, np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize(
    "bad, got",
    [(True, "dtype bool"), ("0.5", "dtype <U3"),
     (2**70, "1180591620717411303424, an integer wider than 64 bits")],
    ids=["bool", "string", "wide_int"],
)
@pytest.mark.parametrize(
    "call, what",
    [
        (lambda spec, v: EulerSpec(spec.drift, 1.0, 1, ([v],)), "y[0]"),
        (lambda spec, v: euler_oracle(spec, v, [0.5]), "t"),
        (lambda spec, v: euler_oracle(spec, 0.5, [v]), "x"),
        (lambda spec, v: euler_nodes(spec, [v]), "x"),
    ],
    ids=["EulerSpec_y", "euler_oracle_t", "euler_oracle_x", "euler_nodes_x"],
)
def test_euler_inputs_follow_the_number_rule(call, what, bad, got):
    # numpy alone would read True as 1.0, "0.5" as 0.5 and 2**70 as a float
    spec = EulerSpec(identity_net(1), 1.0, 1, (np.zeros(1),))
    with pytest.raises(DomainError) as exc:
        call(spec, bad)
    assert str(exc.value) == f"{what} must hold integers or floats, got {got}"


def test_euler_oracle_realizes_the_drift_once_per_node(monkeypatch, rng):
    spec = make_spec(rng, 2, 4, 2)
    x = rng.standard_normal(2)
    ts = np.linspace(0.0, spec.T, 9)
    # the slope formula with the drift realized again at each node
    nodes, times = euler_nodes(spec, x), spec.times()
    want = []
    for t in ts:
        n = min(int(np.searchsorted(times, t, side="right")) - 1, spec.N - 1)
        dt = times[n + 1] - times[n]
        slope = dt * realize(spec.drift, RELU, nodes[n]) + spec.y[n]
        want.append(nodes[n] + ((t - times[n]) / dt) * slope)
    calls = spy(monkeypatch, anncalc.euler, "realize")
    assert np.array_equal(euler_oracle(spec, ts, x), want)
    assert len(calls) == spec.N


def test_euler_oracle_array_t_equals_scalar_calls(rng):
    spec = make_spec(rng, 2, 3, 2)
    x = rng.standard_normal(2)
    grid = spec.times()
    interior = 0.5 * (grid[:-1] + grid[1:])
    ts = np.concatenate([grid, interior, rng.random(7)])
    got = euler_oracle(spec, ts, x)
    want = np.stack([euler_oracle(spec, float(t), x) for t in ts])
    assert got.shape == (len(ts), 2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("T", {"T": math.inf}),
        ("T", {"T": math.nan}),
        ("q", {"q": math.inf}),
        ("q", {"q": math.nan}),
        ("y: perturbation 1", {"y": ([0.0, 0.0], [0.0, math.nan])}),
        ("y: perturbation 0", {"y": ([math.inf, 0.0], [0.0, 0.0])}),
    ],
)
def test_euler_spec_rejects_non_finite_scalars(rng, field, kwargs):
    args = {"T": 1.0, "y": ([0.0, 0.0], [0.0, 0.0]), "q": 3.0, **kwargs}
    with pytest.raises(DomainError, match=field):
        EulerSpec(random_net(rng, 2, 2, 2), args["T"], 2, args["y"], q=args["q"])


# ---------------------------------------------------------------------------
# Gronwall bound


@pytest.mark.parametrize("n", [1.5, True, -1, 4])
def test_gronwall_rejects_bad_step_index(n):
    inputs = GrowthBoundInputs.from_steps(1.0, 1.0, [np.eye(2)] * 3, [np.zeros(2)] * 3)
    with pytest.raises(DomainError, match=f"step index {n!r}"):
        gronwall_bound(inputs, 1.0, n)


@pytest.mark.parametrize(
    "C, c, norms, match",
    [(math.nan, 1.0, (1.0,), "growth constants"), (1.0, math.nan, (1.0,), "growth constants"),
     (1.0, 1.0, (math.nan,), "operator norms")],
)
def test_growth_bound_inputs_reject_nan(C, c, norms, match):
    with pytest.raises(DomainError, match=match):
        GrowthBoundInputs(C, c, norms, (0.0, 0.0))


@pytest.mark.parametrize(
    "args, x_norm, match",
    [
        (("1", 1.0, (1.0,), (0.0, 0.0)), 1.0, "growth constants must be non-negative, got C='1'"),
        ((1.0, -1.0, (1.0,), (0.0, 0.0)), 1.0, "growth constants must be non-negative, got c=-1.0"),
        ((1.0, 1.0, (1.0, "2"), (0.0, 0.0, 0.0)), 1.0, r"got step_norms\[1\]='2'"),
        ((1.0, 1.0, (1.0,), (math.nan, 0.0)), 1.0, r"got y_partial_max\[0\]=nan"),
        ((1.0, 1.0, (1.0,), (0.0, True)), 1.0, r"got y_partial_max\[1\]=True"),
        ((1.0, 1.0, (1.0,), (0.0, 0.0)), math.nan, "x_norm must be finite and non-negative"),
        ((1.0, 1.0, (1.0,), (0.0, 0.0)), math.inf, "x_norm must be finite and non-negative"),
        ((1.0, 1.0, (1.0,), (0.0, 0.0)), -1.0, "x_norm must be finite and non-negative"),
        ((1.0, 1.0, (1.0,), (0.0, 0.0)), "1", "x_norm must be finite and non-negative, got '1'"),
    ],
    ids=["C_string", "c_negative", "step_norm_string", "y_partial_nan", "y_partial_bool",
         "x_norm_nan", "x_norm_inf", "x_norm_negative", "x_norm_string"],
)
def test_gronwall_bound_rejects_bad_inputs(args, x_norm, match):
    with pytest.raises(DomainError, match=match):
        gronwall_bound(GrowthBoundInputs(*args), x_norm, 1)


@pytest.mark.parametrize(
    "matrices, y, what",
    [([np.eye(1)], [[True]], "y[0]"), ([np.eye(1)], [[0.5], ["1"]], "y[1]"),
     ([[[True]]], [[0.5]], "matrices[0]")],
    ids=["bool_y", "string_y", "bool_matrix"],
)
def test_growth_bound_inputs_from_steps_take_numbers_only(matrices, y, what):
    with pytest.raises(DomainError, match=rf"^{re.escape(what)} must hold integers or floats"):
        GrowthBoundInputs.from_steps(1.0, 1.0, matrices, y)


@pytest.mark.parametrize("y", [5, 1.0, None, np.float64(0.5)])
def test_euler_spec_refuses_a_y_that_is_not_a_sequence(y):
    with pytest.raises(ShapeError, match="^y must be a sequence of perturbation vectors"):
        EulerSpec(identity_net(1), 1.0, 1, y)


def test_growth_bound_inputs_need_one_more_maximum_than_steps():
    with pytest.raises(ShapeError, match="need 2 partial-sum maxima, got 1"):
        GrowthBoundInputs(1.0, 1.0, (1.0,), (0.0,))


@pytest.mark.parametrize(
    "build, args, kwargs, match",
    [
        (EulerSpec, ("1", 1), {}, "T must be finite and positive, got '1'"),
        (EulerSpec, (True, 1), {}, "T must be finite and positive, got True"),
        (EulerSpec, (1.0, 1), {"epsilon": "0.1"}, r"epsilon must lie in \(0, 1\], got '0.1'"),
        (EulerSpec, (1.0, 1), {"q": "3"}, "q must be finite and exceed 2, got '3'"),
        (ApproxSpec, ("0.1", 3.0), {}, r"epsilon must lie in \(0, 1\], got '0.1'"),
        (ApproxSpec, (0.1, "3"), {}, "q must be finite and exceed 2, got '3'"),
        (time_hat_nets, ("1", 2), {}, "T must be finite and positive, got '1'"),
    ],
    ids=["EulerSpec_T", "EulerSpec_T_bool", "EulerSpec_epsilon", "EulerSpec_q",
         "ApproxSpec_epsilon", "ApproxSpec_q", "time_hat_nets_T"],
)
def test_non_number_scalars_raise_domain_error(build, args, kwargs, match):
    if build is EulerSpec:
        args = (identity_net(1), *args, ([0.0],))
    with pytest.raises(DomainError, match=match):
        build(*args, **kwargs)


_SCALING = {"growth_c": 1.0, "size_exp": 2.0, "T": 1.0, "d": 2, "N": 4, "epsilon": 0.1}


@pytest.mark.parametrize(
    "build, kwargs, match",
    [
        (product_param_budget, {"epsilon": 0.0, "q": 3.0}, r"epsilon must lie in \(0, 1\]"),
        (product_param_budget, {"epsilon": 0.1, "q": 2.0}, "q must be finite and exceed 2"),
        (product_param_budget, {"epsilon": 0.1, "q": 1.0}, "q must be finite and exceed 2"),
        (scaling_bounds, {"epsilon": 0.0}, r"epsilon must lie in \(0, 1\]"),
        (scaling_bounds, {"d": -2}, "d must be a positive integer, got -2"),
        (scaling_bounds, {"N": 0}, "N must be a positive integer, got 0"),
        (scaling_bounds, {"T": math.nan}, "T must be finite and positive"),
        (scaling_bounds, {"size_exp": math.inf}, "size_exp must be finite, got inf"),
        (scaling_bounds, {"growth_c": math.inf}, "growth_c must be finite and non-negative"),
        (scaling_bounds, {"growth_c": 1e-120, "T": 1e-300, "size_exp": 1e200},
         "the headline bounds overflow"),
        (scaling_constant, {"growth_c": 1e3, "T": 1.0}, r"exp\(growth_c \* T\) overflows: "
         r"growth_c=1000.0, T=1.0"),
        (scaling_constant, {"growth_c": 1e308, "T": 10.0}, "overflows"),
        (scaling_constant, {"growth_c": True, "T": 1.0}, "growth_c must be finite"),
        (scaling_constant, {"growth_c": 1.0, "T": 0.0}, "T must be finite and positive"),
    ],
)
def test_bound_formulas_check_their_inputs(build, kwargs, match):
    if build is scaling_bounds:
        kwargs = {**_SCALING, **kwargs}
    with pytest.raises(DomainError, match=match):
        build(**kwargs)


def test_gronwall_zero_growth_case():
    y = [np.array([1.0, 0.0]), np.array([1.0, 0.0]), np.array([-3.0, 0.0])]
    inputs = GrowthBoundInputs.from_steps(0.0, 0.0, [np.eye(2)] * 3, y)
    assert gronwall_bound(inputs, 2.0, 3) == 2.0 + 2.0  # ||x|| + max partial sum


def test_gronwall_uniform_grid_formula():
    c = 0.8
    N, T = 5, 2.0
    mats = [(T / N) * np.eye(3)] * N
    inputs = GrowthBoundInputs.from_steps(c, c, mats, [np.zeros(3)] * N)
    for n in range(N + 1):
        t_n = n * T / N
        want = (1.5 + c * t_n) * math.exp(c * t_n)
        assert gronwall_bound(inputs, 1.5, n) == pytest.approx(want, rel=1e-12)


def test_gronwall_dominates_random_linear_drifts(rng):
    for _ in range(100):
        d = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        m = 0.4 * rng.standard_normal((d, d))
        v = rng.standard_normal(d)
        mats = [0.3 * rng.standard_normal((d, d)) for _ in range(N)]
        y = [0.5 * rng.standard_normal(d) for _ in range(N)]
        x = rng.standard_normal(d)
        iterates = perturbed_iterates(lambda z: m @ z + v, mats, y, x)
        inputs = GrowthBoundInputs.from_steps(
            np.linalg.norm(v), np.linalg.norm(m, ord=2), mats, y
        )
        for n, val in enumerate(iterates):
            assert np.linalg.norm(val) <= gronwall_bound(
                inputs, float(np.linalg.norm(x)), n
            ) + 1e-9


# ---------------------------------------------------------------------------
# space-time networks


@pytest.mark.parametrize(
    "T, N, match",
    [(1.0, 0, "N must"), (1.0, 2.5, "N must"), (1.0, True, "N must"),
     (0.0, 2, "T must"), (math.inf, 2, "T must")],
)
def test_time_hats_reject_bad_grid(T, N, match):
    with pytest.raises(DomainError, match=match):
        time_hat_nets(T, N)


def test_time_hats_partition_of_unity():
    hats = time_hat_nets(1.0, 4)
    ts = np.linspace(0.0, 1.0, 101)[:, None]
    total = sum(realize(h, RELU, ts)[:, 0] for h in hats)
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert realize(hats[0], RELU, [0.0])[0] == 1.0
    assert realize(hats[4], RELU, [1.0])[0] == 1.0


def test_spacetime_zero_drift_interpolates_x(rng):
    d = 2
    zero_drift = affine(np.zeros((d, d)))
    spec = EulerSpec(zero_drift, 1.0, 2, tuple(np.zeros((2, d))), 1e-2, 3.0)
    net = spacetime_net(spec)
    x = np.array([0.8, -0.6])
    got = realize(net, RELU, np.concatenate([[0.0], x]))
    # bound at the first interval with g identically ||x||
    g = float(np.linalg.norm(x))
    bound = 1e-2 * (2.0 * math.sqrt(d) + 2.0 * g**3)
    assert np.linalg.norm(got - x) <= bound


def test_spacetime_matches_oracle_within_bound(rng):
    d, N, eps = 1, 2, 1e-2
    drift = random_net(rng, d, d, 2, scale=0.5)
    c = max(
        float(np.linalg.norm(realize(drift, RELU, np.zeros(d)))),
        float(np.prod([np.linalg.norm(l.weights, ord=2) for l in drift.layers])),
    )
    y = tuple(0.3 * rng.standard_normal((N, d)))
    spec = EulerSpec(drift, 1.0, N, y, eps, 3.0)
    net = spacetime_net(spec)
    inputs = GrowthBoundInputs.from_steps(c, c, [(1.0 / N) * np.eye(d)] * N, y)
    times = spec.times()
    for t in np.linspace(0.0, 1.0, 21):
        n = max(min(int(np.searchsorted(times, t, side="right")) - 1, N - 1), 0)
        for xv in np.linspace(-2.0, 2.0, 21):
            x = np.array([xv])
            got = realize(net, RELU, np.array([t, xv]))
            want = euler_oracle(spec, float(t), x)
            gn = gronwall_bound(inputs, abs(xv), n)
            gn1 = gronwall_bound(inputs, abs(xv), n + 1)
            assert np.linalg.norm(got - want) <= eps * (2.0 + gn**3 + gn1**3)
            assert np.linalg.norm(got) <= 6.0 + 2.0 * (gn**2 + gn1**2)


def test_spacetime_param_bound_holds(rng):
    spec = make_spec(rng, 2, 3, 2, eps=1e-1)
    net = spacetime_net(spec)
    assert param_count(net) <= spacetime_param_bound(spec)


def test_spacetime_depth_is_uniform_max_summand(rng):
    from anncalc import scalar_vector_product, ApproxSpec

    spec = make_spec(rng, 2, 3, 2, eps=1e-1)
    gamma = scalar_vector_product(ApproxSpec(spec.epsilon, spec.q, spec.d))
    net = spacetime_net(spec)
    assert net.depth == gamma.depth + 2 + spec.N * (spec.drift.depth - 1)


def test_spacetime_block_evaluation_is_consistent(rng):
    # d=3, N=4 at eps=0.1 has layers large and sparse enough for a block plan
    net = spacetime_net(make_spec(rng, 3, 4, 2, eps=1e-1))
    assert any(layer._block_plan is not None for layer in net.layers)
    x = np.column_stack([rng.uniform(0.0, 1.0, 16), rng.uniform(-2.0, 2.0, (16, 3))])
    batch = realize(net, RELU, x)
    assert np.array_equal(forward_states(net, RELU, x)[-1], batch)
    for point, row in zip(x, batch):
        assert np.allclose(realize(net, RELU, point), row, rtol=1e-12, atol=1e-12)


def test_spacetime_block_plans_tile_the_nonzeros(rng):
    net = spacetime_net(make_spec(rng, 3, 4, 2, eps=1e-1))
    planned = [layer for layer in net.layers if layer._block_plan is not None]
    for layer in planned:
        check_block_plan(layer)
    # the same weights as large dense layers are planned by their components,
    # and a component need not be a contiguous range of rows and columns
    dense = [Layer(layer.weights, layer.bias) for layer in planned
             if layer.rows * layer.cols >= _BLOCK_MIN_ENTRIES]
    assert dense
    for layer in dense:
        check_block_plan(layer)
    assert any(
        np.any(np.diff(ids) != 1)
        for layer in dense
        for row_ids, col_ids, _ in layer._block_plan
        for ids in (*row_ids, *col_ids)
    )


def _spacetime_net_per_node(spec):
    """The space-time net assembled with every spatial net chained from x."""
    d = spec.d
    emu = relu_identity(d)
    steps = [compose(affine((spec.T / spec.N) * np.eye(d), v), spec.drift) for v in spec.y]
    gamma = scalar_vector_product(ApproxSpec(spec.epsilon, spec.q, d))
    id_1, id_joint = relu_identity(1), relu_identity(d + 1)
    summands = []
    for n, hat in enumerate(time_hat_nets(spec.T, spec.N)):
        spatial = residual_chain(emu.net, steps[:n], emu)
        assert networks_equal(euler_space_net(spec, n), spatial)
        pair = parallel_general([hat, spatial], [id_1, emu])
        summands.append(concat_identity(gamma, id_joint, pair))
    return sum_general(summands, emu)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_spacetime_net_equals_per_node_chains(rng, depth):
    for d, N in ((1, 1), (2, 3), (3, 5)):
        spec = make_spec(rng, d, N, depth, eps=1e-1)
        assert networks_equal(spacetime_net(spec), _spacetime_net_per_node(spec))


def test_spacetime_net_makes_one_residual_step_per_node(rng, monkeypatch):
    calls = spy(monkeypatch, anncalc.euler, "_residual_link")
    for N in (3, 6):
        calls.clear()
        spacetime_net(make_spec(rng, 2, N, 2, eps=1e-1))
        assert len(calls) == N  # chaining each spatial net from x takes N(N+1)/2
