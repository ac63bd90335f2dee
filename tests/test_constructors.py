"""Explicit ReLU constructors against closed-form and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anncalc import (
    ApproxSpec,
    DomainError,
    EulerSpec,
    RELU,
    dims,
    forward_states,
    hat_net,
    identity_net,
    networks_equal,
    param_count,
    product_net,
    realize,
    scalar_vector_product,
    spacetime_net,
    square_real,
    square_refinement_level,
    square_unit,
    tent_f,
    tent_g,
)


# ---------------------------------------------------------------------------
# oracles computed first


def tent_by_iteration(n, x):
    """Independent tent oracle: iterate the one-step map n times."""
    def g1(v):
        if v < 0.0 or v > 1.0:
            return 0.0
        return 2.0 * v if v < 0.5 else 2.0 - 2.0 * v

    v = x
    for _ in range(n):
        v = g1(v)
    return v


def interpolant_by_bracketing(n, x):
    """Independent oracle for the dyadic interpolant: the chord of x^2
    through the enclosing grid points."""
    k = min(int(math.floor(x * 2**n)), 2**n - 1)
    lo, hi = k / 2**n, (k + 1) / 2**n
    return lo**2 + (x - lo) * (hi**2 - lo**2) / (hi - lo)


def hat_piecewise(alpha, beta, gamma, h, t):
    if t <= alpha or t >= gamma:
        return 0.0
    if t <= beta:
        return (t - alpha) * h / (beta - alpha)
    return (gamma - t) * h / (gamma - beta)


# ---------------------------------------------------------------------------
# tent maps


def test_tent_g_frozen_values():
    assert tent_g(1, 0.3) == 0.6
    assert tent_g(1, 0.75) == 0.5
    assert tent_g(2, 0.25) == 1.0


@given(st.integers(1, 10), st.floats(-0.5, 1.5))
def test_tent_g_matches_iteration(n, x):
    assert tent_g(n, x) == pytest.approx(tent_by_iteration(n, x), abs=1e-12)


def test_tent_g_vanishes_outside_unit_interval():
    xs = np.array([-2.0, -1e-9, 1.0 + 1e-9, 5.0])
    for n in range(1, 11):
        assert np.all(tent_g(n, xs) == 0.0)


def test_tent_f_frozen_values():
    assert tent_f(1, 0.3) == pytest.approx(0.15, abs=1e-15)
    assert abs(0.3**2 - tent_f(1, 0.3)) <= 2.0**-4
    assert tent_f(0, 0.7) == 0.7
    assert tent_f(3, 1.0) == 1.0


@given(st.integers(0, 8), st.floats(0.0, 1.0))
def test_tent_f_matches_bracketing_oracle(n, x):
    assert tent_f(n, x) == pytest.approx(interpolant_by_bracketing(n, x), abs=1e-12)


def test_tent_f_series_identity():
    grid = np.linspace(0.0, 1.0, 2001)
    for n in range(0, 11):
        series = grid - sum(np.ldexp(tent_g(m, grid), -2 * m) for m in range(1, n + 1))
        assert np.max(np.abs(tent_f(n, grid) - series)) <= 1e-12


def test_tent_f_midpoint_gap_is_exact():
    for n in range(0, 11):
        mids = (2.0 * np.arange(2**n) + 1.0) / 2.0 ** (n + 1)
        gap = tent_f(n, mids) - mids**2
        assert np.max(np.abs(gap - 2.0 ** (-2 * n - 2))) <= 1e-14


def test_tent_f_dominates_the_square():
    grid = np.linspace(0.0, 1.0, 5001)
    for n in range(0, 11):
        assert np.min(tent_f(n, grid) - grid**2) >= -1e-15
        assert np.max(tent_f(n, grid) - grid**2) <= 2.0 ** (-2 * n - 2) + 1e-15


def test_tent_f_domain_error():
    with pytest.raises(DomainError):
        tent_f(2, 1.5)


@pytest.mark.parametrize("tent", [tent_g, tent_f])
@pytest.mark.parametrize(
    "x, got", [("0.25", "dtype <U4"), (True, "dtype bool"), ([True, 0.25], "a bool")],
    ids=["string", "bool", "bool_among_floats"],
)
def test_tents_take_numbers_only(tent, x, got):
    # numpy alone would read "0.25" as 0.25 and True as 1.0
    with pytest.raises(DomainError) as exc:
        tent(1, x)
    assert str(exc.value) == f"x must hold integers or floats, got {got}"


# ---------------------------------------------------------------------------
# identity and hat nets


def test_identity_net_frozen_values(rng):
    assert realize(identity_net(1), RELU, [-2.0])[0] == -2.0
    assert dims(identity_net(3)) == (3, 6, 3)
    assert param_count(identity_net(2)) == 22
    x = rng.standard_normal((50, 4))
    assert np.array_equal(realize(identity_net(4), RELU, x), x)


def test_hat_net_against_piecewise_oracle():
    net = hat_net(-0.5, 0.25, 2.0, 3.0)
    ts = np.linspace(-2.0, 3.0, 501)
    want = np.array([hat_piecewise(-0.5, 0.25, 2.0, 3.0, t) for t in ts])
    got = realize(net, RELU, ts[:, None])[:, 0]
    assert np.allclose(got, want, atol=1e-12)


def test_hat_net_frozen_values():
    net = hat_net(0.0, 1.0, 2.0, 1.0)
    assert realize(net, RELU, [1.0])[0] == 1.0
    assert realize(net, RELU, [-5.0])[0] == 0.0
    assert realize(net, RELU, [0.5])[0] == 0.5
    assert param_count(net) == 13
    assert dims(net) == (1, 4, 1)


def test_hat_net_rejects_bad_ordering():
    with pytest.raises(DomainError):
        hat_net(1.0, 1.0, 2.0, 1.0)


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "h"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "1", True])
def test_hat_net_rejects_non_finite_arguments(name, value):
    args = {"alpha": 0.0, "beta": 1.0, "gamma": 2.0, "h": 1.0, name: value}
    with pytest.raises(DomainError, match=f"{name} must be a finite number, got {value!r}"):
        hat_net(**args)


@pytest.mark.parametrize(
    "build",
    [
        lambda: hat_net(-1e308, 1e308, 1.5e308, 1.0),  # beta - alpha is inf
        lambda: hat_net(0.0, 5e-324, 1.0, 1.0),  # 1 / (beta - alpha) is inf
        lambda: spacetime_net(EulerSpec(identity_net(1), 1e-310, 1, (np.zeros(1),))),
    ],
    ids=["gap", "slope", "spacetime_grid"],
)
def test_hat_net_refuses_overflowing_breakpoints(build):
    with pytest.raises(DomainError, match=r"^alpha, beta, gamma = \(.*\) overflow the hat"):
        build()


def test_hat_net_takes_integer_breakpoints_as_their_floats():
    net = hat_net(0, 2**70, 2**71, 1)
    assert networks_equal(net, hat_net(0.0, 2.0**70, 2.0**71, 1.0))
    wide = (-3 * 2**1022, 3 * 2**1022, 7 * 2**1021, 1)
    messages = []
    for args in (wide, tuple(map(float, wide))):
        with pytest.raises(DomainError, match=r"^alpha, beta, gamma = .* overflow the hat") as exc:
            hat_net(*args)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_hat_net_keeps_the_widest_finite_gaps():
    # beta - alpha and gamma - beta are finite though their sum is not
    net = hat_net(-1e308, 0.0, 1e308, 1.0)
    assert realize(net, RELU, [[0.0], [5e307], [-5e307]])[:, 0].tolist() == [1.0, 0.5, 0.5]


# ---------------------------------------------------------------------------
# square on [0, 1]


def test_refinement_level_table():
    assert square_refinement_level(1.0) == 2
    assert square_refinement_level(2.0**-4) == 2
    assert square_refinement_level(2.0**-5) == 3
    assert square_refinement_level(2.0**-10) == 5
    assert square_refinement_level(2.0**-20) == 10
    assert square_refinement_level(1e-2) == 4
    assert square_refinement_level(5e-324) == 537  # 2^-1074, 1/eps overflows
    with pytest.raises(DomainError):
        square_refinement_level(0.0)


def test_square_unit_structure():
    assert dims(square_unit(1.0)) == (1, 4, 1)
    assert dims(square_unit(2.0**-10)) == (1, 4, 4, 4, 4, 1)
    for eps in (1.0, 2.0**-4, 2.0**-10, 2.0**-20):
        net = square_unit(eps)
        M = square_refinement_level(eps)
        assert net.depth == M
        assert param_count(net) == 20 * M - 27
        assert param_count(net) <= max(10.0 * math.log2(1.0 / eps) - 7.0, 13.0)
        assert net.depth <= max(0.5 * math.log2(1.0 / eps) + 1.0, 2.0)


def test_square_unit_realizes_the_interpolant():
    grid = np.linspace(0.0, 1.0, 4001)
    for eps in (1.0, 2.0**-10):
        net = square_unit(eps)
        M = square_refinement_level(eps)
        vals = realize(net, RELU, grid[:, None])[:, 0]
        assert np.max(np.abs(vals - tent_f(M - 1, grid))) <= 1e-12
        assert np.max(np.abs(vals - grid**2)) <= eps + 1e-9


def test_square_unit_is_relu_outside():
    net = square_unit(2.0**-10)
    xs = np.concatenate([np.linspace(-3.0, 0.0, 301, endpoint=False),
                         np.linspace(1.0, 3.0, 301)[1:]])
    vals = realize(net, RELU, xs[:, None])[:, 0]
    assert np.array_equal(vals, np.maximum(xs, 0.0))


def test_square_unit_internal_channels_carry_tent_and_interpolant():
    net = square_unit(2.0**-10)
    M = square_refinement_level(2.0**-10)
    xs = np.linspace(0.0, 1.0, 101)[:, None]
    states = forward_states(net, RELU, xs)
    for k in range(1, M):
        r = states[k]
        tent = 2.0 * r[:, 0] - 4.0 * r[:, 1] + 2.0 * r[:, 2]
        assert np.max(np.abs(tent - tent_g(k, xs[:, 0]))) <= 1e-12
        assert np.max(np.abs(r[:, 3] - tent_f(k - 1, xs[:, 0]))) <= 1e-12


def test_square_unit_domain():
    with pytest.raises(DomainError):
        square_unit(2.0)


# ---------------------------------------------------------------------------
# square on R, products


def test_square_real_items():
    eps, q = 1e-2, 3.0
    net = square_real(ApproxSpec(eps, q))
    assert realize(net, RELU, [0.0])[0] == 0.0
    xs = np.linspace(-5.0, 5.0, 10_001)
    vals = realize(net, RELU, xs[:, None])[:, 0]
    weight = np.maximum(1.0, np.abs(xs) ** q)
    assert np.max(np.abs(vals - xs**2) / weight) <= eps + 1e-9
    assert np.min(vals) >= -1e-12
    assert np.max(vals - (eps + xs**2)) <= 1e-9
    p_bound = max(40.0 * q / (q - 2.0) * math.log2(1.0 / eps) + 80.0 / (q - 2.0) - 28.0, 52.0)
    assert param_count(net) <= p_bound  # ~849 at these parameters
    assert net.depth <= max(q / (2 * (q - 2.0)) * math.log2(1.0 / eps) + 1.0 / (q - 2.0) + 1.0, 2.0)


def test_square_real_spec_validation():
    with pytest.raises(DomainError):
        ApproxSpec(0.0, 3.0)
    with pytest.raises(DomainError):
        ApproxSpec(0.5, 2.0)
    with pytest.raises(DomainError):
        ApproxSpec(0.5, 3.0, 0)


@pytest.mark.parametrize(
    "args, match",
    [
        ((0.1, 3.0, 2.5), "d must be a positive integer, got 2.5"),
        ((0.1, 3.0, True), "d must be a positive integer, got True"),
        ((0.1, math.inf), "q must be finite and exceed 2, got inf"),
        ((0.1, math.nan), "q must be finite and exceed 2, got nan"),
    ],
)
def test_approx_spec_rejects_non_integer_d_and_non_finite_q(args, match):
    with pytest.raises(DomainError, match=match):
        ApproxSpec(*args)


@pytest.mark.parametrize("tent, n", [(tent_g, 1.5), (tent_g, True), (tent_f, 2.0)])
def test_tents_reject_non_integer_levels(tent, n):
    with pytest.raises(DomainError, match=f"integer n >= ., got {n!r}"):
        tent(n, 0.3)


@pytest.mark.parametrize("eps, q", [(1e-2, 2.0 + 1e-15), (1.0, 2.0019)])
@pytest.mark.parametrize(
    "build, d",
    [(square_real, 1), (product_net, 1), (scalar_vector_product, 2)],
    ids=["square_real", "product_net", "scalar_vector_product"],
)
def test_square_real_rejects_underflowing_unit_accuracy(build, d, eps, q):
    # the first underflows to 0, the second to a subnormal whose scale^-2
    # overflows; products must name the caller's epsilon, not the derived one
    with pytest.raises(DomainError, match=f"q={q!r} and epsilon={eps!r}"):
        build(ApproxSpec(eps, q, d))


@pytest.mark.parametrize("q", [1025.0, 1e300])
@pytest.mark.parametrize("build, d", [(product_net, 1), (scalar_vector_product, 3)],
                         ids=["product_net", "scalar_vector_product"])
def test_products_refuse_a_q_whose_two_to_the_q_overflows(build, d, q):
    # eps / (2^(q-1) + 1) is below the smallest normal float for every eps
    with pytest.raises(DomainError) as exc:
        build(ApproxSpec(0.1, q, d))
    assert str(exc.value) == (f"q={q!r} and epsilon=0.1 give a unit-square accuracy below "
                              "the smallest normal float; raise epsilon or move q toward 3")


def test_product_annihilation_and_error():
    eps, q = 1e-2, 3.0
    net = product_net(ApproxSpec(eps, q))
    xs = np.linspace(-3.0, 3.0, 61)
    assert np.max(np.abs(realize(net, RELU, np.column_stack([xs, 0 * xs])))) <= 1e-12
    assert np.max(np.abs(realize(net, RELU, np.column_stack([0 * xs, xs])))) <= 1e-12
    gx, gy = np.meshgrid(xs, xs)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    vals = realize(net, RELU, pts)[:, 0]
    weight = np.maximum.reduce(
        [np.ones(len(pts)), np.abs(pts[:, 0]) ** q, np.abs(pts[:, 1]) ** q]
    )
    assert np.max(np.abs(vals - pts[:, 0] * pts[:, 1]) / weight) <= eps + 1e-9
    growth = 1.5 * (eps / 3.0 + pts[:, 0] ** 2 + pts[:, 1] ** 2)
    assert np.max(np.abs(vals) - growth) <= 1e-9
    assert param_count(net) <= 360.0 * q / (q - 2.0) * (math.log2(1.0 / eps) + q + 1.0) - 252.0


def test_product_symmetry_observed():
    # symmetric by construction; checked observationally, not contractually
    net = product_net(ApproxSpec(1e-2, 3.0))
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((200, 2)) * 2.0
    a = realize(net, RELU, pts)[:, 0]
    b = realize(net, RELU, pts[:, ::-1])[:, 0]
    assert np.max(np.abs(a - b)) <= 1e-12


def test_scalar_vector_product_items(rng):
    eps, q, d = 1e-2, 3.0, 3
    net = scalar_vector_product(ApproxSpec(eps, q, d))
    assert net.input_dim == d + 1 and net.output_dim == d
    xs = rng.standard_normal((40, d))
    pts = np.column_stack([np.zeros(40), xs])
    assert np.max(np.abs(realize(net, RELU, pts))) <= 1e-12  # (0, x) -> 0
    ts = rng.standard_normal(40)
    pts = np.column_stack([ts, np.zeros((40, d))])
    assert np.max(np.abs(realize(net, RELU, pts))) <= 1e-12  # (t, 0) -> 0

    t = 2.0 * rng.random(200)
    x = 4.0 * rng.random((200, d)) - 2.0
    vals = realize(net, RELU, np.column_stack([t, x]))
    err = np.linalg.norm(vals - t[:, None] * x, axis=1)
    weight = math.sqrt(d) * np.maximum(1.0, np.abs(t) ** q) + np.linalg.norm(x, axis=1) ** q
    assert np.max(err / weight) <= eps + 1e-9
    growth = math.sqrt(d) * (1.0 + 2.0 * t**2) + 2.0 * np.linalg.norm(x, axis=1) ** 2
    assert np.max(np.linalg.norm(vals, axis=1) - growth) <= 1e-9


def test_scalar_vector_product_size_bounds():
    eps, q = 1e-2, 3.0
    prod_params = param_count(product_net(ApproxSpec(eps, q)))
    for d in (1, 2, 4):
        net = scalar_vector_product(ApproxSpec(eps, q, d))
        assert param_count(net) <= d**2 * prod_params
        assert param_count(net) <= d**2 * (360.0 * q / (q - 2.0)) * (
            math.log2(1.0 / eps) + q + 1.0
        ) - 252.0 * d**2
        assert net.depth <= q / (q - 2.0) * (math.log2(1.0 / eps) + q)
