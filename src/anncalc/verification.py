"""Executable checks: every structural identity exactly, every analytic
bound against an independent oracle, collected into tabular reports.

Conventions: analytic inequality checks pass when
measured <= bound + 1e-9 (the headroom absorbs rounding in evaluating the
bound itself); realization identities are held to 1e-12; integer and
structural identities are exact.  A law checked over many random draws
reports one row of one of three kinds: an exact row is the count of
failures (bound 0); an identity row is the largest error (0.0 when no draw
applied) against its tolerance, with no headroom; an excess row is the
largest excess over the law's bound (bound 0, with its headroom), and -inf
when no draw applied.  Reports are deterministic functions of (suite, seed)
and serialize byte-identically across reruns.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass, field
from typing import Iterator

import numpy as np

from .constructors import (
    ApproxSpec,
    product_net,
    scalar_vector_product,
    square_refinement_level,
    square_real,
    square_unit,
    tent_f,
    tent_g,
)
from .euler import (
    EulerSpec,
    GrowthBoundInputs,
    _euler_space_nets,
    _spacetime_summands,
    euler_nodes,
    euler_oracle,
    euler_space_net,
    gronwall_bound,
    perturbed_iterates,
    residual_chain,
    residual_step,
    scaling_bounds,
    spacetime_net,
    spacetime_param_bound,
    time_hat_nets,
)
from .network import (
    DomainError,
    Network,
    RELU,
    _MAX_LAYER_ENTRIES,
    _is_int,
    affine,
    dims,
    forward_states,
    networks_equal,
    param_count,
    realize,
)
from .ops import (
    compose,
    concat_identity,
    extend,
    parallel_equal,
    parallel_general,
    power,
    relu_identity,
    sum_equal,
    sum_general,
)

__all__ = [
    "ABS_TOL",
    "BoundEntry",
    "BoundReport",
    "REALIZE_TOL",
    "SUITES",
    "halton",
    "run_suite",
    "scaling_report",
]

ABS_TOL = 1e-9
REALIZE_TOL = 1e-12


_COLUMNS = ("quantity", "measured", "bound", "margin", "pass")


@dataclass(frozen=True)
class BoundEntry:
    name: str
    measured: float
    bound: float
    margin: float
    passed: bool


@dataclass
class BoundReport:
    """Measured quantity vs bound, one row per check."""

    metadata: dict = field(default_factory=dict)
    entries: list[BoundEntry] = field(default_factory=list)

    def check(self, name: str, measured: float, bound: float, headroom: float = ABS_TOL):
        self.entries.append(_entry(name, measured, bound, headroom))

    def check_identity(self, name: str, error: float, tol: float = REALIZE_TOL):
        """Identity check: the deviation must not exceed tol, no headroom."""
        self.check(name, error, tol, headroom=0.0)

    def check_exact(self, name: str, mismatches: int):
        """Exact structural check: the mismatch count must be zero."""
        self.check(name, float(mismatches), 0.0, headroom=0.0)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[BoundEntry]:
        return [e for e in self.entries if not e.passed]

    def to_csv(self) -> str:
        lines = [",".join(_COLUMNS)]
        for e in self.entries:
            lines.append(f"{e.name},{e.measured!r},{e.bound!r},{e.margin!r},{e.passed}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Strict JSON: a non-finite float is written as its CSV spelling,
        the string "inf", "-inf" or "nan"."""
        entries = [{k: _strict(v) for k, v in zip(_COLUMNS, astuple(e))} for e in self.entries]
        return json.dumps(
            {"metadata": self.metadata, "entries": entries}, indent=2, allow_nan=False
        )


def _strict(value):
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


def _entry(name, measured, bound, headroom) -> BoundEntry:
    measured, bound = float(measured), float(bound)
    return BoundEntry(name, measured, bound, bound - measured, measured <= bound + headroom)


class _Law:
    """One law checked over many random draws, kept as a live report row.

    Declaring a law appends its row, so rows keep declaration order whichever
    draws reach the law, and a law that no draw reaches reports its start
    value.  The three kinds are described in the module docstring.
    """

    def __init__(self, report, name, start, bound=0.0, headroom=0.0):
        self._report, self._row = report, len(report.entries)
        self._name, self._bound, self._headroom = name, bound, headroom
        report.entries.append(None)
        self._set(start)

    @classmethod
    def exact(cls, report, name):
        return cls(report, name, 0)

    @classmethod
    def identity(cls, report, name, tol=REALIZE_TOL):
        return cls(report, name, 0.0, bound=tol)

    @classmethod
    def excess(cls, report, name, headroom=ABS_TOL):
        return cls(report, name, -math.inf, headroom=headroom)

    def _set(self, value):
        self.value = value
        self._report.entries[self._row] = _entry(self._name, value, self._bound, self._headroom)

    def count(self, broken):
        if broken:
            self._set(self.value + 1)

    def observe(self, measured):
        # a NaN measurement sticks: its row fails, and no later value compares above it
        if measured > self.value or math.isnan(measured):
            self._set(measured)


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def halton(n: int, d: int) -> np.ndarray:
    """First n points of the unscrambled Halton sequence in [0, 1)^d."""
    if not _is_int(n) or n < 0:
        raise DomainError(f"halton needs an integer n >= 0, got {n!r}")
    if not _is_int(d) or not 0 <= d <= len(_PRIMES):
        raise DomainError(f"halton needs an integer d in [0, {len(_PRIMES)}], got {d!r}")
    if int(n) * max(int(d), 1) > _MAX_LAYER_ENTRIES:  # int, so a numpy integer cannot wrap
        raise DomainError(f"halton({n}, {d}) asks for over {_MAX_LAYER_ENTRIES} points or values")
    out = np.empty((n, d))
    for j in range(d):
        base = _PRIMES[j]
        # digit by digit for all i at once; finished entries add exact zeros
        k, f, r = np.arange(1, n + 1), 1.0, np.zeros(n)
        while k.any():
            f /= base
            k, digit = np.divmod(k, base)
            r += digit * f
        out[:, j] = r
    return out


def _rel_err(got, want) -> float:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    return float(np.max(np.abs(got - want))) / scale


def _random_net(rng, d_in, d_out, depth, width_hi=5, scale=1.0) -> Network:
    widths = [d_in] + [int(rng.integers(1, width_hi + 1)) for _ in range(depth - 1)] + [d_out]
    layers = []
    for k in range(1, len(widths)):
        w = scale * rng.standard_normal((widths[k], widths[k - 1])) / math.sqrt(widths[k - 1])
        b = scale * rng.standard_normal(widths[k]) * 0.5
        layers.append((w, b))
    return Network(tuple(layers))


def _mixed_parallel_bound(nets, ids) -> float:
    """Parameter bound for mixed-depth parallelization with per-net emulators."""
    L = max(net.depth for net in nets)
    extended = same = pad = 0.0
    for net, emu in zip(nets, ids):
        P = param_count(net)
        i, o = emu.width, net.output_dim
        if net.depth < L:
            extended += max(1.0, i / o) * P
            pad += (L - net.depth - 1) * i * (i + 1) + o * (i + 1)
        else:
            same += P
    return 0.5 * (extended + pad + same) ** 2


# ---------------------------------------------------------------------------
# calculus suite


_CALCULUS_INSTANCES = 200


def _suite_calculus(seed: int) -> BoundReport:
    rng = np.random.default_rng(seed)
    report = BoundReport(
        metadata={
            "suite": "calculus",
            "seed": seed,
            "grid": f"{_CALCULUS_INSTANCES} random instances/law",
        }
    )
    xbatch = lambda d: rng.standard_normal((8, d))

    # composition laws
    dims_law = _Law.exact(report, "compose_dims_law")
    depth_law = _Law.exact(report, "compose_depth_law")
    hidden_law = _Law.exact(report, "compose_hidden_additivity")
    pident = _Law.exact(report, "compose_param_identity")
    pbound = _Law.excess(report, "compose_param_bound_excess", headroom=0.0)
    realize_err = _Law.identity(report, "compose_realization_rel_err")
    placement = _Law.exact(report, "compose_layer_placement")
    for _ in range(_CALCULUS_INSTANCES):
        d0, d1, d2 = (int(rng.integers(1, 5)) for _ in range(3))
        b = _random_net(rng, d0, d1, int(rng.integers(1, 4)))
        a = _random_net(rng, d1, d2, int(rng.integers(1, 4)))
        c = compose(a, b)
        da, db, dc = dims(a), dims(b), dims(c)
        dims_law.count(dc != db[:-1] + da[1:])
        depth_law.count((c.depth - 1) != (a.depth - 1) + (b.depth - 1))
        hidden_law.count(len(dc) - 2 != (len(da) - 2) + (len(db) - 2))
        l11, l2last = da[1], db[-2]
        exact = (
            param_count(a)
            + param_count(b)
            + l11 * (l2last + 1)
            - l11 * (da[0] + 1)
            - db[-1] * (l2last + 1)
        )
        pident.count(param_count(c) != exact)
        pbound.observe(param_count(c) - (param_count(a) + param_count(b) + l11 * l2last))
        x = xbatch(d0)
        realize_err.observe(_rel_err(realize(c, RELU, x), realize(a, RELU, realize(b, RELU, x))))
        # layer placement: copied interiors bit-equal, interface fused
        placement.count(not all(
            np.array_equal(c.layers[j].weights, b.layers[j].weights) for j in range(b.depth - 1)
        ))
        fw = a.layers[0].weights @ b.layers[-1].weights
        fb = a.layers[0].weights @ b.layers[-1].bias + a.layers[0].bias
        placement.count(not (
            np.array_equal(c.layers[b.depth - 1].weights, fw)
            and np.array_equal(c.layers[b.depth - 1].bias, fb)
        ))
        placement.count(not all(
            np.array_equal(c.layers[b.depth - 1 + j].weights, a.layers[j].weights)
            for j in range(1, a.depth)
        ))

    # associativity
    assoc = _Law.exact(report, "associativity_bit_exact")
    assoc_affine_err = _Law.identity(report, "associativity_affine_middle_rel_err", 1e-15)
    for _ in range(_CALCULUS_INSTANCES):
        d0, d1, d2, d3 = (int(rng.integers(1, 5)) for _ in range(4))
        c3 = _random_net(rng, d0, d1, int(rng.integers(1, 4)))
        c2 = _random_net(rng, d1, d2, int(rng.integers(2, 4)))
        c1 = _random_net(rng, d2, d3, int(rng.integers(1, 4)))
        assoc.count(
            not networks_equal(compose(compose(c1, c2), c3), compose(c1, compose(c2, c3)))
        )
        # a depth-1 middle factor re-associates the fused products; all other
        # layers stay bit-copied, so only the triply-fused layer is compared,
        # entrywise relative to the accumulated magnitude |A||B||C|
        mid = _random_net(rng, d1, d2, 1)
        lhs = compose(compose(c1, mid), c3)
        rhs = compose(c1, compose(mid, c3))
        k = c3.depth - 1
        natural = (
            np.abs(c1.layers[0].weights)
            @ np.abs(mid.layers[0].weights)
            @ np.abs(c3.layers[-1].weights)
        )
        diff = np.abs(lhs.layers[k].weights - rhs.layers[k].weights)
        assoc_affine_err.observe(float(np.max(diff / np.maximum(natural, 1e-300))))

    # affine composition parameter bounds
    left = _Law.excess(report, "affine_front_param_bound_excess")
    right = _Law.excess(report, "affine_back_param_bound_excess")
    for _ in range(_CALCULUS_INSTANCES):
        d0, d1 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        phi = _random_net(rng, d0, d1, int(rng.integers(1, 4)))
        front = affine(rng.standard_normal((int(rng.integers(1, 5)), d1)))
        back = affine(rng.standard_normal((d0, int(rng.integers(1, 5)))))
        left.observe(
            param_count(compose(front, phi))
            - max(1.0, front.output_dim / phi.output_dim) * param_count(phi)
        )
        right.observe(
            param_count(compose(phi, back))
            - max(1.0, (back.input_dim + 1) / (phi.input_dim + 1)) * param_count(phi)
        )

    # powers and extensions
    power_dims = _Law.exact(report, "power_dims_law")
    power_err = _Law.identity(report, "power_identity_rel_err")
    extend_depth = _Law.exact(report, "extend_depth_law")
    extend_bound = _Law.excess(report, "extend_param_bound_excess")
    extend_err = _Law.identity(report, "extend_realization_rel_err")
    for _ in range(_CALCULUS_INSTANCES):
        d = int(rng.integers(1, 5))
        emu = relu_identity(d)
        n = int(rng.integers(0, 4))
        pw = power(emu.net, n)
        power_dims.count(dims(pw) != ((d, d) if n == 0 else (d,) + (2 * d,) * n + (d,)))
        x = xbatch(d)
        power_err.observe(_rel_err(realize(pw, RELU, x), x))
        phi = _random_net(rng, int(rng.integers(1, 5)), d, int(rng.integers(1, 4)))
        L = phi.depth + int(rng.integers(0, 3))
        ext = extend(L, emu, phi)
        extend_depth.count(ext.depth != L)
        x2 = xbatch(phi.input_dim)
        extend_err.observe(_rel_err(realize(ext, RELU, x2), realize(phi, RELU, x2)))
        i = emu.width
        if L == phi.depth:
            bound = param_count(phi)
        else:
            bound = max(1.0, i / d) * param_count(phi) + ((L - phi.depth - 1) * i + d) * (i + 1)
        extend_bound.observe(param_count(ext) - bound)

    # parallelization, equal length
    par_dims = _Law.exact(report, "parallel_dims_entrywise_sum")
    par_err = _Law.identity(report, "parallel_tuple_realization_rel_err")
    par_half = _Law.excess(report, "parallel_param_half_square_excess")
    par_square = _Law.excess(report, "parallel_identical_param_bound_excess")
    for _ in range(_CALCULUS_INSTANCES):
        n = int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        nets = [
            _random_net(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), depth)
            for _ in range(n)
        ]
        par = parallel_equal(nets)
        par_dims.count(
            dims(par) != tuple(sum(dims(net)[k] for net in nets) for k in range(depth + 1))
        )
        xs = [xbatch(net.input_dim) for net in nets]
        got = realize(par, RELU, np.hstack(xs))
        wanted = np.hstack([realize(net, RELU, x) for net, x in zip(nets, xs)])
        par_err.observe(_rel_err(got, wanted))
        par_half.observe(param_count(par) - 0.5 * sum(param_count(net) for net in nets) ** 2)
        copies = parallel_equal([nets[0]] * n)
        par_square.observe(param_count(copies) - n**2 * param_count(nets[0]))

    # parallelization, mixed lengths
    gp_err = _Law.identity(report, "parallel_general_realization_rel_err")
    gp_bound = _Law.excess(report, "parallel_general_param_bound_excess")
    for _ in range(_CALCULUS_INSTANCES):
        n = int(rng.integers(1, 4))
        nets = [
            _random_net(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                        int(rng.integers(1, 4)))
            for _ in range(n)
        ]
        ids = [relu_identity(net.output_dim) for net in nets]
        par = parallel_general(nets, ids)
        xs = [xbatch(net.input_dim) for net in nets]
        got = realize(par, RELU, np.hstack(xs))
        wanted = np.hstack([realize(net, RELU, x) for net, x in zip(nets, xs)])
        gp_err.observe(_rel_err(got, wanted))
        gp_bound.observe(param_count(par) - _mixed_parallel_bound(nets, ids))

    # sums
    sum_eq_err = _Law.identity(report, "sum_equal_realization_rel_err")
    sum_eq_bound = _Law.excess(report, "sum_equal_param_bound_excess")
    sum_gen_err = _Law.identity(report, "sum_general_realization_rel_err")
    sum_gen_bound = _Law.excess(report, "sum_general_param_bound_excess")
    for _ in range(_CALCULUS_INSTANCES):
        m = int(rng.integers(1, 4))
        d_in, d_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        depth = int(rng.integers(1, 4))
        base = _random_net(rng, d_in, d_out, depth)
        same = [base] + [
            Network(
                tuple(
                    (rng.standard_normal(l.weights.shape), rng.standard_normal(l.bias.shape))
                    for l in base.layers
                )
            )
            for _ in range(m - 1)
        ]
        h = rng.standard_normal(m)
        s = sum_equal(same, h)
        x = xbatch(d_in)
        want = sum(hm * realize(net, RELU, x) for hm, net in zip(h, same))
        sum_eq_err.observe(_rel_err(realize(s, RELU, x), want))
        sum_eq_bound.observe(param_count(s) - m**2 * param_count(same[0]))

        mixed = [
            _random_net(rng, d_in, d_out, int(rng.integers(1, 4))) for _ in range(m)
        ]
        emu = relu_identity(d_out)
        sg = sum_general(mixed, emu, h)
        want = sum(hm * realize(net, RELU, x) for hm, net in zip(h, mixed))
        sum_gen_err.observe(_rel_err(realize(sg, RELU, x), want))
        sum_gen_bound.observe(param_count(sg) - _mixed_parallel_bound(mixed, [emu] * m))

    # identity-mediated concatenation
    cc_dims = _Law.exact(report, "concat_dims_law")
    cc_depth = _Law.exact(report, "concat_depth_additivity")
    cc_err = _Law.identity(report, "concat_realization_rel_err")
    cc_bound = _Law.excess(report, "concat_param_bound_excess")
    for _ in range(_CALCULUS_INSTANCES):
        d = int(rng.integers(1, 4))
        emu = relu_identity(d)
        p2 = _random_net(rng, int(rng.integers(1, 4)), d, int(rng.integers(1, 4)))
        p1 = _random_net(rng, d, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        cc = concat_identity(p1, emu, p2)
        cc_dims.count(dims(cc) != dims(p2)[:-1] + (emu.width,) + dims(p1)[1:])
        cc_depth.count(cc.depth != p1.depth + p2.depth)
        x = xbatch(p2.input_dim)
        cc_err.observe(_rel_err(realize(cc, RELU, x), realize(p1, RELU, realize(p2, RELU, x))))
        factor = max(1.0, emu.width / d)
        cc_bound.observe(param_count(cc) - factor * (param_count(p1) + param_count(p2)))
    return report


# ---------------------------------------------------------------------------
# square suite


def _suite_square(seed: int) -> BoundReport:
    report = BoundReport(
        metadata={"suite": "square", "seed": seed, "grid": "1e5 uniform on [0,1]"}
    )
    grid = np.linspace(0.0, 1.0, 100_000)

    # tent-map oracle identities
    ident_err = _Law.identity(report, "tent_interpolant_series_identity")
    tgrid = acc = np.linspace(0.0, 1.0, 10_000)
    for n in range(1, 11):
        acc = acc - np.ldexp(tent_g(n, tgrid), -2 * n)
        ident_err.observe(float(np.max(np.abs(tent_f(n, tgrid) - acc))))
    gap_err = _Law.identity(report, "tent_midpoint_gap_exact", 1e-14)
    for n in range(0, 11):
        mids = (2.0 * np.arange(2**n) + 1.0) / 2.0 ** (n + 1)
        gap = tent_f(n, mids) - mids**2
        gap_err.observe(float(np.max(np.abs(gap - 2.0 ** (-2 * n - 2)))))

    outside = np.concatenate([np.linspace(-3.0, 0.0, 500, endpoint=False),
                              np.linspace(1.0, 3.0, 500)[1:]])
    for eps in (1.0, 2.0**-4, 2.0**-10, 2.0**-20):
        M = square_refinement_level(eps)
        net = square_unit(eps)
        tag = f"square_unit_eps_2^{math.log2(eps):+.0f}" if eps != 1.0 else "square_unit_eps_1"
        vals = realize(net, RELU, grid[:, None])[:, 0]
        report.check(f"{tag}_sup_error", float(np.max(np.abs(vals - grid**2))), eps)
        report.check_exact(f"{tag}_param_exact_20M-27", int(param_count(net) != 20 * M - 27))
        report.check(
            f"{tag}_param_bound",
            param_count(net),
            max(10.0 * math.log2(1.0 / eps) - 7.0, 13.0),
        )
        report.check_exact(f"{tag}_depth_is_M", int(net.depth != M))
        report.check(
            f"{tag}_depth_bound", net.depth, max(0.5 * math.log2(1.0 / eps) + 1.0, 2.0)
        )
        out_vals = realize(net, RELU, outside[:, None])[:, 0]
        report.check_identity(
            f"{tag}_outside_equals_relu",
            float(np.max(np.abs(out_vals - np.maximum(outside, 0.0)))),
        )
        report.check_identity(
            f"{tag}_matches_interpolant",
            float(np.max(np.abs(vals - tent_f(M - 1, grid)))),
        )

    # internal channel identities of the deepest construction
    net = square_unit(2.0**-20)
    M = square_refinement_level(2.0**-20)
    sample = np.linspace(0.0, 1.0, 257)[:, None]
    states = forward_states(net, RELU, sample)
    chan_err = _Law.identity(report, "square_unit_channel_identities")
    for k in range(1, M):
        r = states[k]
        tent = 2.0 * r[:, 0] - 4.0 * r[:, 1] + 2.0 * r[:, 2]
        chan_err.observe(float(np.max(np.abs(tent - tent_g(k, sample[:, 0])))))
        chan_err.observe(float(np.max(np.abs(r[:, 3] - tent_f(k - 1, sample[:, 0])))))

    # square on the whole line
    eps, q = 1e-2, 3.0
    net = square_real(ApproxSpec(eps, q))
    report.check_identity("square_real_zero_at_zero", abs(float(realize(net, RELU, [0.0])[0])))
    line = np.linspace(-5.0, 5.0, 10_001)
    vals = realize(net, RELU, line[:, None])[:, 0]
    weight = np.maximum(1.0, np.abs(line) ** q)
    report.check("square_real_weighted_error", float(np.max(np.abs(vals - line**2) / weight)), eps)
    report.check("square_real_lower_bound_excess", float(np.max(-vals)), 0.0)
    report.check("square_real_growth_excess", float(np.max(vals - (eps + line**2))), 0.0)
    report.check(
        "square_real_param_bound",
        param_count(net),
        max(40.0 * q / (q - 2.0) * math.log2(1.0 / eps) + 80.0 / (q - 2.0) - 28.0, 52.0),
    )
    report.check(
        "square_real_depth_bound",
        net.depth,
        max(q / (2.0 * (q - 2.0)) * math.log2(1.0 / eps) + 1.0 / (q - 2.0) + 1.0, 2.0),
    )
    return report


# ---------------------------------------------------------------------------
# product / scalar-vector suites


def _suite_product(seed: int) -> BoundReport:
    report = BoundReport(
        metadata={"suite": "product", "seed": seed, "grid": "201x201 on [-3,3]^2"}
    )
    eps, q = 1e-2, 3.0
    net = product_net(ApproxSpec(eps, q))
    axis = np.linspace(-3.0, 3.0, 201)
    xx, yy = np.meshgrid(axis, axis)
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = realize(net, RELU, pts)[:, 0]
    target = pts[:, 0] * pts[:, 1]
    weight = np.maximum.reduce([np.ones(len(pts)), np.abs(pts[:, 0]) ** q, np.abs(pts[:, 1]) ** q])
    report.check("product_weighted_error", float(np.max(np.abs(vals - target) / weight)), eps)
    ann = _Law.identity(report, "product_annihilation")
    for zeros in (np.column_stack([axis, np.zeros_like(axis)]),
                  np.column_stack([np.zeros_like(axis), axis])):
        ann.observe(float(np.max(np.abs(realize(net, RELU, zeros)[:, 0]))))
    growth = np.abs(vals) - (1.0 + 2.0 * pts[:, 0] ** 2 + 2.0 * pts[:, 1] ** 2)
    report.check("product_growth_excess", float(np.max(growth)), 0.0)
    report.check(
        "product_param_bound",
        param_count(net),
        360.0 * q / (q - 2.0) * (math.log2(1.0 / eps) + q + 1.0) - 252.0,
    )
    report.check(
        "product_depth_bound", net.depth, q / (q - 2.0) * (math.log2(1.0 / eps) + q)
    )
    swapped = realize(net, RELU, pts[:, ::-1])[:, 0]
    report.check_identity("product_symmetry_observed", float(np.max(np.abs(vals - swapped))))
    return report


def _suite_scalvec(seed: int) -> BoundReport:
    report = BoundReport(
        metadata={"suite": "scalvec", "seed": seed, "grid": "1e4 Halton points"}
    )
    eps, q = 1e-2, 3.0
    prod = product_net(ApproxSpec(eps, q))
    for d in (1, 2, 4):
        net = scalar_vector_product(ApproxSpec(eps, q, d))
        pts = halton(10_000, d + 1)
        pts = np.column_stack([2.0 * pts[:, 0], 4.0 * pts[:, 1:] - 2.0])  # t in [0,2], x in [-2,2]^d
        t, x = pts[:, 0], pts[:, 1:]
        vals = realize(net, RELU, pts)
        err = np.linalg.norm(vals - t[:, None] * x, axis=1)
        weight = math.sqrt(d) * np.maximum(1.0, np.abs(t) ** q) + np.linalg.norm(x, axis=1) ** q
        report.check(f"scalvec_d{d}_weighted_error", float(np.max(err / weight)), eps)
        growth = np.linalg.norm(vals, axis=1) - (
            math.sqrt(d) * (1.0 + 2.0 * t**2) + 2.0 * np.linalg.norm(x, axis=1) ** 2
        )
        report.check(f"scalvec_d{d}_growth_excess", float(np.max(growth)), 0.0)
        tz = np.column_stack([np.linspace(-2.0, 2.0, 41), np.zeros((41, d))])
        xz = np.column_stack([np.zeros(41), np.linspace(-2.0, 2.0, 41)[:, None] * np.ones(d)])
        ann = _Law.identity(report, f"scalvec_d{d}_annihilation")
        for zeros in (tz, xz):
            ann.observe(float(np.max(np.abs(realize(net, RELU, zeros)))))
        report.check(
            f"scalvec_d{d}_param_bound",
            param_count(net),
            d**2 * (360.0 * q / (q - 2.0)) * (math.log2(1.0 / eps) + q + 1.0) - 252.0 * d**2,
        )
        report.check(f"scalvec_d{d}_param_vs_d2_product", param_count(net),
                     d**2 * param_count(prod), headroom=0.0)
        report.check(
            f"scalvec_d{d}_depth_bound", net.depth, q / (q - 2.0) * (math.log2(1.0 / eps) + q)
        )
    return report


# ---------------------------------------------------------------------------
# euler suite


def _drift_growth_constant(net: Network) -> float:
    """Certified c with ||realized drift(x)|| <= c (1 + ||x||): the value at 0
    plus the product of spectral norms dominates both value and slope."""
    at_zero = float(np.linalg.norm(realize(net, RELU, np.zeros(net.input_dim))))
    lip = math.prod(float(np.linalg.norm(layer.weights, ord=2)) for layer in net.layers)
    return max(at_zero, lip)


def _suite_euler(seed: int) -> BoundReport:
    rng = np.random.default_rng(seed)
    report = BoundReport(metadata={"suite": "euler", "seed": seed, "grid": "100 random specs"})

    exact_err = _Law.identity(report, "euler_space_exactness_rel_err", 1e-11)
    adapted_net = _Law.exact(report, "euler_space_adaptedness_networks")
    adapted_val = _Law.exact(report, "euler_space_adaptedness_values")
    continuity = _Law.exact(report, "euler_space_continuity_in_y")
    for _ in range(100):
        d = int(rng.integers(1, 6))
        N = int(rng.integers(1, 17))
        depth = int(rng.integers(1, 4))
        drift = _random_net(rng, d, d, depth, width_hi=4, scale=0.6)
        y = 0.3 * rng.standard_normal((N, d))
        spec = EulerSpec(drift, 1.0, N, tuple(y))
        x = rng.standard_normal(d)
        nodes = euler_nodes(spec, x)
        chain = list(_euler_space_nets(spec))
        for n in (N, int(rng.integers(0, N + 1))):
            got = realize(chain[n], RELU, x)
            scale = max(1.0, float(np.linalg.norm(nodes[n])))
            exact_err.observe(float(np.linalg.norm(got - nodes[n])) / scale)
        if N >= 2:
            n = int(rng.integers(0, N - 1))
            z = y.copy()
            z[n + 1 :] += rng.standard_normal((N - n - 1, d))
            other = EulerSpec(drift, 1.0, N, tuple(z))
            net_y = chain[n]
            net_z = euler_space_net(other, n)
            adapted_net.count(not networks_equal(net_y, net_z))
            adapted_val.count(not np.array_equal(realize(net_y, RELU, x), realize(net_z, RELU, x)))
        # continuity in y by a shrinking finite perturbation
        direction = rng.standard_normal((N, d))
        direction /= np.linalg.norm(direction)
        base_val = realize(chain[N], RELU, x)
        deltas = []
        for step in (1e-2, 1e-4, 1e-6):
            pert = EulerSpec(drift, 1.0, N, tuple(y + step * direction))
            val = realize(euler_space_net(pert, N), RELU, x)
            deltas.append(float(np.linalg.norm(val - base_val)))
        monotone = deltas[0] + 1e-12 >= deltas[1] and deltas[1] + 1e-12 >= deltas[2]
        continuity.count(not (monotone and deltas[2] <= 1e-3))

    # residual step laws
    step_err = _Law.identity(report, "residual_step_realization_rel_err")
    step_dims = _Law.exact(report, "residual_step_dims_law")
    step_param = _Law.exact(report, "residual_step_param_identity")
    step_bound = _Law.excess(report, "residual_step_param_bound_excess")
    for _ in range(50):
        d = int(rng.integers(1, 4))
        emu = relu_identity(d)
        i = emu.width
        L1 = int(rng.integers(2, 4))
        phi1 = _random_net(rng, d, d, L1, width_hi=4)
        phi2 = _random_net(rng, d, d, int(rng.integers(1, 4)), width_hi=4)
        psi = residual_step(phi1, phi2, emu)
        x = rng.standard_normal((8, d))
        f2 = realize(phi2, RELU, x)
        step_err.observe(_rel_err(realize(psi, RELU, x), f2 + realize(phi1, RELU, f2)))
        d1, d2 = dims(phi1), dims(phi2)
        step_dims.count(dims(psi) != d2[:-1] + tuple(l + i for l in d1[1:-1]) + (d1[-1],))
        exact = (
            param_count(phi1)
            + param_count(phi2)
            + (i - d) * (d2[-2] + 1)
            + d1[1] * (d2[-2] - d)
            + (L1 - 2) * i * (i + 1)
            + i * sum(d1[2:])
            + i * sum(d1[1 : L1 - 1])
        )
        step_param.count(param_count(psi) != exact)
        if d2[-2] <= d1[-2] + i:
            bound = param_count(phi2) + (0.5 * param_count(emu.net) + param_count(phi1)) ** 2
            step_bound.observe(param_count(psi) - bound)

    # residual chains
    chain_err = _Law.identity(report, "residual_chain_recursion_rel_err")
    chain_affine = _Law.exact(report, "residual_chain_affine_dims_preserved")
    for _ in range(30):
        d = 3
        emu = relu_identity(d)
        # hypothesis: second-to-last widths non-decreasing along the chain
        widths = sorted(int(rng.integers(1, 5)) for _ in range(4))
        phis = [
            Network(
                (
                    (0.6 * rng.standard_normal((w, d)) / math.sqrt(d),
                     0.3 * rng.standard_normal(w)),
                    (0.6 * rng.standard_normal((d, w)) / math.sqrt(w),
                     0.3 * rng.standard_normal(d)),
                )
            )
            for w in widths
        ]
        chain = residual_chain(emu.net, phis, emu)
        x = rng.standard_normal((4, d))
        want = x
        for phi in phis:
            want = want + realize(phi, RELU, want)
        chain_err.observe(_rel_err(realize(chain, RELU, x), want))
        aff = [_random_net(rng, d, d, 1) for _ in range(3)]
        chain_affine.count(dims(residual_chain(emu.net, aff, emu)) != dims(emu.net))
    probe = _random_net(rng, 2, 2, 2)
    chain_affine.count(residual_chain(probe, [], relu_identity(2)) is not probe)

    # a priori iterate bound
    gronwall = _Law.excess(report, "gronwall_iterate_bound_excess")
    for _ in range(100):
        d = int(rng.integers(1, 5))
        N = int(rng.integers(1, 11))
        m = 0.4 * rng.standard_normal((d, d))
        v = rng.standard_normal(d)
        C = float(np.linalg.norm(v))
        c = float(np.linalg.norm(m, ord=2))
        mats = [0.3 * rng.standard_normal((d, d)) for _ in range(N)]
        y = [0.5 * rng.standard_normal(d) for _ in range(N)]
        x = rng.standard_normal(d)
        iterates = perturbed_iterates(lambda z: m @ z + v, mats, y, x)
        inputs = GrowthBoundInputs.from_steps(C, c, mats, y)
        for n, val in enumerate(iterates):
            gronwall.observe(
                float(np.linalg.norm(val)) - gronwall_bound(inputs, float(np.linalg.norm(x)), n)
            )
    zero_inputs = GrowthBoundInputs.from_steps(
        0.0, 0.0, [np.eye(2)] * 3, [np.ones(2), -np.ones(2), np.ones(2)]
    )
    report.check_exact(
        "gronwall_zero_growth_exact",
        int(gronwall_bound(zero_inputs, 1.5, 3) != 1.5 + zero_inputs.y_partial_max[3]),
    )
    return report


# ---------------------------------------------------------------------------
# spacetime suite


def _demo_drift(seed: int, d: int) -> Network:
    """Seeded two-layer drift with moderate growth, shared across suites."""
    rng = np.random.default_rng(seed + 1000 * d)
    return _random_net(rng, d, d, 2, width_hi=3, scale=0.7)


def _x_points(d: int, count: int) -> np.ndarray:
    if d == 1:
        return np.linspace(-2.0, 2.0, count)[:, None]
    return 4.0 * halton(count, d) - 2.0


def _scheme_sweep(seed: int, rng) -> Iterator[tuple[EulerSpec, str]]:
    """The schemes the spacetime and thm1 suites measure, with their tags:
    d in {1, 2}, N in {2, 4}, eps in {1e-1, 1e-2}, three y draws from rng."""
    for d in (1, 2):
        drift = _demo_drift(seed, d)
        for N in (2, 4):
            for eps in (1e-1, 1e-2):
                for rep in range(3):
                    y = tuple(0.4 * rng.standard_normal((N, d)))
                    yield EulerSpec(drift, 1.0, N, y, eps, 3.0), f"d{d}_N{N}_eps{eps:g}_y{rep}"


def _sweep_ratios(report, tag, net, spec, tgrid, xpts, err_bound, growth_bound):
    """Rows of the largest ||net - oracle|| / error bound and ||net|| / growth
    bound over the (t, x) grid, each against 1 within ABS_TOL (a NaN fails its
    row); the bounds broadcast to (len(xpts), len(tgrid))."""
    pts = np.column_stack([np.tile(tgrid, len(xpts)), np.repeat(xpts, len(tgrid), axis=0)])
    vals = realize(net, RELU, pts).reshape(len(xpts), len(tgrid), -1)  # x-major
    truth = np.stack([euler_oracle(spec, tgrid, x) for x in xpts])
    err_ratio = np.linalg.norm(vals - truth, axis=2) / err_bound
    growth_ratio = np.linalg.norm(vals, axis=2) / growth_bound
    report.check(f"{tag}_error_vs_bound_ratio", np.max(err_ratio), 1.0)
    report.check(f"{tag}_growth_vs_bound_ratio", np.max(growth_ratio), 1.0)


def _spacetime_config_checks(report, spec, tgrid, tag):
    d, N, q = spec.d, spec.N, spec.q
    growth_c = _drift_growth_constant(spec.drift)
    net = spacetime_net(spec)
    inputs = GrowthBoundInputs.from_steps(growth_c, growth_c, [
        (spec.T / N) * np.eye(d)] * N, spec.y)
    interval = np.clip(np.searchsorted(spec.times(), tgrid, side="right") - 1, 0, N - 1)
    xpts = _x_points(d, 21)
    # the Gronwall bound at each x and node, then at both ends of each t's interval
    g = np.array([[gronwall_bound(inputs, float(np.linalg.norm(x)), k) for k in range(N + 1)]
                  for x in xpts])
    lo, hi = g[:, interval], g[:, interval + 1]
    err_bound = spec.epsilon * (2.0 * math.sqrt(d) + lo**q + hi**q)
    growth_bound = 6.0 * math.sqrt(d) + 2.0 * (lo**2 + hi**2)
    _sweep_ratios(report, tag, net, spec, tgrid, xpts, err_bound, growth_bound)
    report.check(f"{tag}_param_bound", param_count(net), spacetime_param_bound(spec))


def _suite_spacetime(seed: int) -> BoundReport:
    rng = np.random.default_rng(seed)
    report = BoundReport(
        metadata={"suite": "spacetime", "seed": seed, "grid": "21 t x 21 x points, 3 y draws"}
    )
    T = 1.0
    tgrid = np.linspace(0.0, T, 21)
    for spec, tag in _scheme_sweep(seed, rng):
        _spacetime_config_checks(report, spec, tgrid, f"spacetime_{tag}")

    # structural and interpolation laws on one representative spec
    d, N, eps = 2, 4, 1e-1
    drift = _demo_drift(seed, d)
    y = tuple(0.4 * rng.standard_normal((N, d)))
    spec = EulerSpec(drift, T, N, y, eps, 3.0)
    gamma = scalar_vector_product(ApproxSpec(eps, 3.0, d))
    depth_law = _Law.exact(report, "spacetime_summand_depth_law")
    for n, summand in enumerate(_spacetime_summands(spec)):
        depth_law.count(summand.depth != gamma.depth + 2 + n * (drift.depth - 1))

    hats = time_hat_nets(T, N)
    step = T / N
    interior = np.linspace(0.0, T, 41)
    hat_vals = np.column_stack(
        [realize(h, RELU, interior[:, None])[:, 0] for h in hats]
    )
    def hat_formula(n, t):
        lo, mid, hi = (n - 1) * step, n * step, (n + 1) * step
        rising = (t - lo) / (mid - lo) * ((t > lo) & (t <= mid))
        falling = (hi - t) / (hi - mid) * ((t > mid) & (t < hi))
        return rising + falling
    interp_err = _Law.identity(report, "spacetime_hat_matches_interp_weights")
    for n in range(N + 1):
        interp_err.observe(float(np.max(np.abs(hat_vals[:, n] - hat_formula(n, interior)))))
    report.check_identity(
        "spacetime_partition_of_unity", float(np.max(np.abs(hat_vals.sum(axis=1) - 1.0)))
    )

    # adaptedness: future perturbations are invisible before their interval
    net_y = spacetime_net(spec)
    z = tuple(np.array(v) for v in y)
    z = z[:2] + tuple(v + rng.standard_normal(d) for v in z[2:])
    net_z = spacetime_net(EulerSpec(drift, T, N, z, eps, 3.0))
    early = np.column_stack(
        [np.linspace(0.0, 2 * step, 9), np.tile(_x_points(d, 9)[0], (9, 1))]
    )
    adapt = _rel_err(realize(net_z, RELU, early), realize(net_y, RELU, early))
    report.check_identity("spacetime_adaptedness_before_t_n", adapt)
    return report


# ---------------------------------------------------------------------------
# headline scaling suite


def scaling_report(
    spec: EulerSpec, growth_c: float, size_exp: float, tag: str = "scaling"
) -> BoundReport:
    """Measure one space-time network against the headline a priori bounds.

    growth_c must certify ||drift(x)|| <= growth_c (1 + ||x||) and
    param_count(drift) <= growth_c * d^size_exp; both are rechecked on
    samples / exactly.  Requires q = 3.
    """
    if spec.q != 3.0:
        raise DomainError("the headline bounds are stated for q = 3")
    # checks growth_c and size_exp before their first use
    bounds = scaling_bounds(growth_c, size_exp, spec.T, spec.d, spec.N, spec.epsilon)
    report = BoundReport(
        metadata={"suite": tag, "grid": "11 t x 11 x points"}
    )
    d, N = spec.d, spec.N
    probe = np.vstack([np.zeros(d), 3.0 * halton(64, d) - 1.5])
    drift_vals = realize(spec.drift, RELU, probe)
    drift_excess = np.linalg.norm(drift_vals, axis=1) - growth_c * (
        1.0 + np.linalg.norm(probe, axis=1)
    )
    report.check(f"{tag}_drift_growth_certified", float(np.max(drift_excess)), 0.0)
    report.check(
        f"{tag}_drift_size_certified",
        param_count(spec.drift),
        growth_c * float(d) ** size_exp,
        headroom=0.0,
    )
    net = spacetime_net(spec)
    y_norm = float(np.linalg.norm(np.concatenate(spec.y)))
    tgrid = np.linspace(0.0, spec.T, 11)
    xpts = _x_points(d, 11)
    xn = np.linalg.norm(xpts, axis=1)[:, np.newaxis]
    _sweep_ratios(report, tag, net, spec, tgrid, xpts,
                  bounds["error"] * (1.0 + xn**3 + y_norm**3),
                  bounds["growth"] * (1.0 + xn**2 + y_norm**2))
    report.check(f"{tag}_param_bound", param_count(net), bounds["params"])
    return report


def _suite_thm1(seed: int) -> BoundReport:
    rng = np.random.default_rng(seed)
    report = BoundReport(
        metadata={"suite": "thm1", "seed": seed, "grid": "criterion-7 sweep + N slope"}
    )
    size_exp = 2.0
    for spec, tag in _scheme_sweep(seed, rng):
        drift = spec.drift
        growth_c = max(
            _drift_growth_constant(drift), param_count(drift) / float(spec.d) ** size_exp
        )
        report.entries.extend(scaling_report(spec, growth_c, size_exp, f"thm1_{tag}").entries)

    # parameter count scaling in N: log-log slope over N in {1,2,4,8}
    drift = _demo_drift(seed, 1)
    counts = []
    for N in (1, 2, 4, 8):
        y = tuple(np.zeros((N, 1)))
        spec = EulerSpec(drift, 1.0, N, y, 1e-2, 3.0)
        counts.append(param_count(spacetime_net(spec)))
    slope = float(np.polyfit(np.log([1, 2, 4, 8]), np.log(counts), 1)[0])
    report.check("thm1_param_slope_in_N", slope, 6.0 + 0.1, headroom=0.0)
    report.metadata["param_counts_N_1_2_4_8"] = counts
    return report


SUITES = {
    "calculus": _suite_calculus,
    "square": _suite_square,
    "product": _suite_product,
    "scalvec": _suite_scalvec,
    "euler": _suite_euler,
    "spacetime": _suite_spacetime,
    "thm1": _suite_thm1,
}


def run_suite(name: str, seed: int = 7) -> BoundReport:
    """Execute one named property battery; deterministic in (name, seed)."""
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if not _is_int(seed) or seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    return SUITES[name](seed)
