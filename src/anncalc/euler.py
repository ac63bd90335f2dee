"""Network representations of perturbed Euler schemes and their bounds.

A residual step turns networks for f and g into one for g + f(g) by running
f in parallel with a chain of identity emulators that carries g's value
forward.  Iterating the step represents every Euler iterate
Y_{n+1} = Y_n + A_{n+1} mu(Y_n) + y_{n+1} exactly as a network, and pairing
those spatial networks with hat-function time interpolators through a
scalar-vector product yields one network in (t, x) for the whole polygonal
Euler path.  The discrete Gronwall estimate supplies the a priori norm
bounds that the error contracts are phrased in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .constructors import ApproxSpec, hat_net, scalar_vector_product
from .network import (
    DomainError,
    Network,
    RELU,
    ShapeError,
    _is_int,
    affine,
    dims,
    param_count,
    realize,
)
from .ops import (
    IdentityEmulator,
    compose,
    concat_identity,
    parallel_general,
    relu_identity,
    sum_general,
)

__all__ = [
    "EulerSpec",
    "GrowthBoundInputs",
    "euler_nodes",
    "euler_oracle",
    "euler_space_net",
    "gronwall_bound",
    "perturbed_iterates",
    "product_param_budget",
    "residual_chain",
    "residual_step",
    "scaling_constant",
    "scaling_bounds",
    "spacetime_net",
    "spacetime_param_bound",
    "time_hat_nets",
]


@dataclass(frozen=True, eq=False)
class EulerSpec:
    """A perturbed Euler scheme on the uniform grid t_n = n T / N.

    drift: network with matching input/output dimension d, realized under
        ReLU as the vector field.
    y: the N perturbation vectors in R^d.
    epsilon, q: accuracy parameters for the space-time approximation.
    """

    drift: Network
    T: float
    N: int
    y: tuple
    epsilon: float = 1.0
    q: float = 3.0

    def __post_init__(self):
        if self.drift.input_dim != self.drift.output_dim:
            raise ShapeError(
                f"drift must map R^d to R^d, got I={self.drift.input_dim}, "
                f"O={self.drift.output_dim}"
            )
        if not _is_int(self.N) or self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N!r}")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"T must be finite and positive, got {self.T}")
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (self.q > 2.0 and math.isfinite(self.q)):
            raise DomainError(f"q must be finite and exceed 2, got {self.q}")
        y = tuple(np.array(v, dtype=np.float64) for v in self.y)
        if len(y) != self.N:
            raise ShapeError(f"need N={self.N} perturbation vectors, got {len(y)}")
        for k, v in enumerate(y):
            if v.shape != (self.d,):
                raise ShapeError(f"perturbation {k} has shape {v.shape}, expected ({self.d},)")
            if not np.isfinite(v).all():
                raise DomainError(f"y: perturbation {k} must be finite, got {v.tolist()}")
            v.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def d(self) -> int:
        return self.drift.input_dim

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


def residual_step(phi1: Network, phi2: Network, emulator: IdentityEmulator) -> Network:
    """Network realizing x -> g(x) + f(g(x)) for f, g realized by phi1, phi2.

    The ANN sum of phi1 and (I, 0), padded with ``emulator``, after phi2:
    the emulator chain forwards phi2's value next to phi1.  phi1 needs
    depth >= 2 so the chain has at least one identity hop.
    """
    d = emulator.dim
    for name, net in (("phi1", phi1), ("phi2", phi2)):
        if net.input_dim != d or net.output_dim != d:
            raise ShapeError(
                f"{name} must map R^{d} to R^{d}, got I={net.input_dim}, O={net.output_dim}"
            )
    if phi1.depth < 2:
        raise ShapeError(f"residual_step needs depth(phi1) >= 2, got {phi1.depth}")
    return compose(sum_general([phi1, affine(np.eye(d))], emulator), phi2)


def _absorb_affine_step(phi: Network, psi: Network) -> Network:
    """Depth-1 residual step: fold x -> A x + b into x -> (A + I) x + b."""
    layer = phi.layers[0]
    absorbed = affine(layer.weights + np.eye(layer.rows), layer.bias)
    return compose(absorbed, psi)


def residual_chain(
    psi: Network,
    phis: Sequence[Network],
    emulator: IdentityEmulator,
) -> Network:
    """Residual recursion f_{k+1} = f_k + phi_k o f_k over all of phis, from psi.

    All phis must share one depth L; depth-1 phis route through affine
    absorption and leave the dimension vector of psi unchanged, deeper ones
    append their hidden layers widened by the emulator width.  A shorter
    chain is a slice of phis; no phis gives psi itself.
    """
    d = emulator.dim
    i = emulator.width
    if psi.input_dim != d or psi.output_dim != d:
        raise ShapeError(
            f"psi must map R^{d} to R^{d}, got I={psi.input_dim}, O={psi.output_dim}"
        )
    if not phis:
        return psi
    depths = sorted({phi.depth for phi in phis})
    if len(depths) != 1:
        raise ShapeError(f"chain networks must share one depth, got {depths}")
    L = depths[0]
    for k, phi in enumerate(phis):
        if phi.input_dim != d or phi.output_dim != d:
            raise ShapeError(
                f"chain network {k} must map R^{d} to R^{d}, got "
                f"I={phi.input_dim}, O={phi.output_dim}"
            )
    if not 2 <= i <= 2 * d:
        raise ShapeError(f"emulator width violates 2 <= i <= 2d: i={i}, d={d}")
    if L >= 2:
        ell = dims(psi)[-2]
        first = dims(phis[0])[-2]
        if ell > first + i:
            raise ShapeError(
                "psi's second-to-last width exceeds the first chain network's "
                f"plus the emulator width: {ell} > {first} + {i}"
            )
        for k in range(len(phis) - 1):
            a = dims(phis[k])[-2]
            b = dims(phis[k + 1])[-2]
            if a > b:
                raise ShapeError(
                    "chain second-to-last widths must be non-decreasing: "
                    f"network {k} has {a} > {b} of network {k + 1}"
                )
    result = psi
    for phi in phis:
        if L == 1:
            result = _absorb_affine_step(phi, result)
        else:
            result = residual_step(phi, result, emulator)
    return result


def _euler_space_nets(spec: EulerSpec) -> Iterator[Network]:
    """The spatial Euler networks xi_0 ... xi_N of the scheme, in order.

    xi_0 is the identity emulator and xi_n is xi_{n-1} chained with one step
    x -> (T/N) drift(x) + y_n, so the first n + 1 items cost n steps.
    """
    emulator = relu_identity(spec.d)
    step_matrix = (spec.T / spec.N) * np.eye(spec.d)
    net = emulator.net
    yield net
    for v in spec.y:
        net = residual_chain(net, [compose(affine(step_matrix, v), spec.drift)], emulator)
        yield net


def euler_space_net(spec: EulerSpec, n: int) -> Network:
    """Network realizing the n-th perturbed Euler iterate x -> Y_n^{x,y}.

    The residual chain of the first n steps x -> (T/N) drift(x) + y_k,
    started at the identity emulator.
    """
    if not _is_int(n) or not 0 <= n <= spec.N:
        raise DomainError(f"step index {n!r} not in [0, {spec.N}]")
    return next(itertools.islice(_euler_space_nets(spec), n, None))


def perturbed_iterates(
    mu: Callable[[np.ndarray], np.ndarray],
    matrices: Sequence[np.ndarray],
    y: Sequence[np.ndarray],
    x: np.ndarray,
) -> list[np.ndarray]:
    """Direct recursion Y_0 = x, Y_{k+1} = Y_k + A_{k+1} mu(Y_k) + y_{k+1}."""
    out = [np.asarray(x, dtype=np.float64)]
    for a, v in zip(matrices, y):
        cur = out[-1]
        out.append(cur + np.asarray(a) @ np.asarray(mu(cur)) + np.asarray(v))
    return out


def _drift_fn(spec: EulerSpec) -> Callable[[np.ndarray], np.ndarray]:
    return lambda v: realize(spec.drift, RELU, v)


def euler_nodes(spec: EulerSpec, x, times: np.ndarray | None = None) -> list[np.ndarray]:
    """Euler iterates Y_0 ... Y_N of the scheme at the grid nodes."""
    if times is None:
        times = spec.times()
    matrices = [dt * np.eye(spec.d) for dt in np.diff(times)]
    return perturbed_iterates(_drift_fn(spec), matrices, spec.y, x)


def euler_oracle(
    spec: EulerSpec, t: float | np.ndarray, x, times: np.ndarray | None = None
) -> np.ndarray:
    """Ground truth for the space-time nets: the polygonal Euler path at (t, x).

    Iterates the scheme to the grid nodes once and interpolates linearly on
    the interval enclosing each t; a non-uniform increasing grid with
    t_0 = 0 and t_N = T may be supplied.  A scalar t gives shape (d,), a
    1-d array of times gives one row per entry, shape (len(t), d), each
    bit-identical to the scalar call.
    """
    if times is None:
        times = spec.times()
    times = np.asarray(times, dtype=np.float64)
    if times.shape != (spec.N + 1,) or times[0] != 0.0 or not np.all(np.diff(times) > 0):
        raise DomainError("times must be an increasing grid of N + 1 points starting at 0")
    ts = np.asarray(t, dtype=np.float64)
    if ts.ndim > 1:
        raise ShapeError(f"t must be a scalar or a 1-d array, got shape {ts.shape}")
    flat = np.atleast_1d(ts)
    outside = ~((flat >= 0.0) & (flat <= times[-1]))
    if outside.any():
        raise DomainError(f"t={flat[np.argmax(outside)]} lies outside [0, {times[-1]}]")
    nodes = euler_nodes(spec, x, times)
    mu = _drift_fn(spec)
    dts = np.diff(times)
    n = np.clip(np.searchsorted(times, flat, side="right") - 1, 0, spec.N - 1)
    # the path is linear on each interval: one slope per interval hit
    slopes = np.empty((spec.N, spec.d))
    for k in np.unique(n):
        slopes[k] = dts[k] * mu(nodes[k]) + spec.y[k]
    lam = (flat - times[n]) / dts[n]
    path = np.array(nodes)[n] + lam[:, np.newaxis] * slopes[n]
    return path[0] if ts.ndim == 0 else path


def time_hat_nets(T: float, N: int) -> list[Network]:
    """Hat interpolators for the uniform grid, one per node, unit height.

    Node n's hat is supported on ((n-1)T/N, (n+1)T/N); the phantom nodes at
    -T/N and (N+1)T/N make the boundary hats equal 1 at t = 0 and t = T.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise DomainError(f"T must be finite and positive, got {T}")
    if not _is_int(N) or N < 1:
        raise DomainError(f"N must be a positive integer, got {N!r}")
    step = T / N
    return [hat_net((n - 1) * step, n * step, (n + 1) * step, 1.0) for n in range(N + 1)]


def spacetime_net(spec: EulerSpec) -> Network:
    """One ReLU network (t, x) -> approximate Euler path value in R^d.

    Each node n contributes a scalar-vector product of the node's hat weight
    and its spatial Euler network; hats vanish off neighbouring intervals
    and the product annihilates at scalar 0, so at any t only two summands
    are active.
    """
    d = spec.d
    gamma = scalar_vector_product(ApproxSpec(spec.epsilon, spec.q, d))
    hats = time_hat_nets(spec.T, spec.N)
    id_joint = relu_identity(d + 1)
    summands = []
    for hat, spatial in zip(hats, _euler_space_nets(spec)):
        pair = parallel_general([hat, spatial])
        summands.append(concat_identity(gamma, id_joint, pair))
    return sum_general(summands)


def product_param_budget(epsilon: float, q: float) -> float:
    """Per-d^2 parameter budget dominating twice the scalar-vector net."""
    return (720.0 * q / (q - 2.0)) * (math.log2(1.0 / epsilon) + q + 1.0) - 504.0


def spacetime_param_bound(spec: EulerSpec) -> float:
    """Closed-form upper bound for param_count(spacetime_net(spec))."""
    d, N = spec.d, spec.N
    H = spec.drift.hidden
    P = param_count(spec.drift)
    budget = product_param_budget(spec.epsilon, spec.q)
    inner = 23.0 + 6.0 * N * H + 7.0 * d**2 + N * (4.0 * d**2 + P) ** 2
    return 0.5 * (6.0 * d**2 * N**2 * H + 3.0 * N * (d**2 * budget + inner**2)) ** 2


@dataclass(frozen=True)
class GrowthBoundInputs:
    """Everything the a priori iterate bound needs.

    C, c: affine growth constants of the drift, ||mu(x)|| <= C + c ||x||.
    step_norms: operator norms of the step matrices A_1 ... A_N.
    y_partial_max: entry n is max over m <= n of ||sum_{k<=m} y_k||.
    """

    C: float
    c: float
    step_norms: tuple[float, ...]
    y_partial_max: tuple[float, ...]

    def __post_init__(self):
        if self.C < 0.0 or self.c < 0.0:
            raise DomainError(f"growth constants must be non-negative, got C={self.C}, c={self.c}")
        if any(a < 0.0 for a in self.step_norms):
            raise DomainError("operator norms must be non-negative")
        if len(self.y_partial_max) != len(self.step_norms) + 1:
            raise ShapeError(
                f"need {len(self.step_norms) + 1} partial-sum maxima, "
                f"got {len(self.y_partial_max)}"
            )

    @classmethod
    def from_steps(cls, C, c, matrices, y) -> "GrowthBoundInputs":
        norms = tuple(float(np.linalg.norm(a, ord=2)) for a in matrices)
        maxima = [0.0]
        if len(y):
            partial = np.zeros_like(np.asarray(y[0], dtype=np.float64))
            for v in y:
                partial = partial + np.asarray(v, dtype=np.float64)
                maxima.append(max(maxima[-1], float(np.linalg.norm(partial))))
        return cls(float(C), float(c), norms, tuple(maxima))


def gronwall_bound(inputs: GrowthBoundInputs, x_norm: float, n: int) -> float:
    """A priori bound on ||Y_n|| for drifts with ||mu(x)|| <= C + c ||x||:

        (||x|| + C sum_{k<=n} |||A_k||| + max_{m<=n} ||sum_{k<=m} y_k||)
            * exp(c sum_{k<=n} |||A_k|||).
    """
    if not _is_int(n) or not 0 <= n <= len(inputs.step_norms):
        raise DomainError(f"step index {n!r} not in [0, {len(inputs.step_norms)}]")
    s = float(sum(inputs.step_norms[:n]))
    return (x_norm + inputs.C * s + inputs.y_partial_max[n]) * math.exp(inputs.c * s)


def scaling_constant(growth_c: float, T: float) -> float:
    """The constant the headline bounds are phrased with:
    max(exp(cT), unit-accuracy product budget at q = 3, 62 + 6c(c+1))."""
    return max(
        math.exp(growth_c * T),
        product_param_budget(1.0, 3.0),
        62.0 + 6.0 * growth_c * (growth_c + 1.0),
    )


def scaling_bounds(
    growth_c: float, size_exp: float, T: float, d: int, N: int, epsilon: float
) -> dict[str, float]:
    """Headline bound values for a drift family with ||mu(x)|| <= c(1+||x||)
    and param_count <= c d^size_exp, at growth exponent q = 3.

    error / growth are coefficients of (1 + ||x||^3 + ||y||^3) and
    (1 + ||x||^2 + ||y||^2) respectively; params bounds the exact count.
    """
    c = scaling_constant(growth_c, T)
    return {
        "error": 20.0 * c**6 * math.sqrt(d) * N**1.5 * epsilon,
        "growth": 18.0 * c**4 * math.sqrt(d) * N,
        "params": 54.0 * c**4 * N**6 * float(d) ** (16.0 + 8.0 * size_exp)
        * (1.0 + math.log(epsilon) ** 2),
    }
