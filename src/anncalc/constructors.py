"""Explicit ReLU networks with certified error and size bounds.

The square approximator on [0,1] refines the piecewise-linear interpolants
of x^2 on dyadic grids one level per hidden layer; each refinement subtracts
a scaled tent map that the first three hidden channels transport.  Squares
on all of R come from reflecting and rescaling, products from the
polarization identity xy = (|x+y|^2 - |x|^2 - |y|^2)/2, and scalar-vector
products from d product networks sharing the scalar input.

All constructors require the ReLU activation for their stated guarantees;
``tent_g`` and ``tent_f`` are closed-form oracles used to check them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .network import DomainError, Layer, Network, ShapeError, _is_int, affine
from .ops import compose, parallel_equal

__all__ = [
    "ApproxSpec",
    "hat_net",
    "product_net",
    "scalar_vector_product",
    "square_refinement_level",
    "square_real",
    "square_unit",
    "tent_f",
    "tent_g",
]


@dataclass(frozen=True)
class ApproxSpec:
    """Accuracy target for the approximators on unbounded domains.

    epsilon is the accuracy parameter in (0, 1], q > 2 the growth exponent
    weighting errors far from the origin, d the vector dimension where one
    applies.
    """

    epsilon: float
    q: float
    d: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise DomainError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not (self.q > 2.0 and math.isfinite(self.q)):
            raise DomainError(f"q must be finite and exceed 2, got {self.q}")
        if not _is_int(self.d) or self.d < 1:
            raise DomainError(f"d must be a positive integer, got {self.d!r}")


def tent_g(n: int, x) -> np.ndarray | float:
    """n-fold iterate of the unit tent map, zero outside [0, 1].

    Closed form: with u = 2^n x and m = floor(u), the value is u - m on even
    cells and m + 1 - u on odd cells.  Exact for dyadic inputs.
    """
    if not _is_int(n) or n < 1:
        raise DomainError(f"tent_g needs an integer n >= 1, got {n!r}")
    x = np.asarray(x, dtype=np.float64)
    u = np.ldexp(np.clip(x, 0.0, 1.0), n)
    m = np.clip(np.floor(u), 0.0, 2.0**n - 1.0)
    even = np.mod(m, 2.0) == 0.0
    val = np.where(even, u - m, (m + 1.0) - u)
    val = np.where((x < 0.0) | (x > 1.0), 0.0, val)
    return float(val) if val.ndim == 0 else val


def tent_f(n: int, x) -> np.ndarray | float:
    """Piecewise-linear interpolant of x^2 on the dyadic grid of step 2^-n.

    On [k/2^n, (k+1)/2^n] the value is ((2k+1)/2^n) x - (k^2+k)/2^(2n); the
    sup gap to x^2 is exactly 2^(-2n-2), attained at cell midpoints.
    """
    if not _is_int(n) or n < 0:
        raise DomainError(f"tent_f needs an integer n >= 0, got {n!r}")
    x = np.asarray(x, dtype=np.float64)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("tent_f is defined on [0, 1] only")
    k = np.clip(np.floor(np.ldexp(x, n)), 0.0, 2.0**n - 1.0)
    val = np.ldexp((2.0 * k + 1.0) * x, -n) - np.ldexp(k * k + k, -2 * n)
    return float(val) if val.ndim == 0 else val


def square_refinement_level(epsilon: float) -> int:
    """Smallest integer M >= 2 with 2^(-2M) <= epsilon.

    log2 is evaluated in floating point; values within a few ulps of an
    integer are snapped before rounding up, so exact powers of four do not
    get an extra layer.
    """
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon must lie in (0, 1], got {epsilon}")
    t = -0.5 * math.log2(epsilon)
    nearest = round(t)
    if abs(t - nearest) <= 4.0 * sys.float_info.epsilon * max(1.0, abs(t)):
        t = nearest
    return max(2, math.ceil(t))


def _tent_transport_matrix(k: int) -> np.ndarray:
    """Hidden layer k of the unit-square net: rebuild the tent in channels
    1-3 and subtract its 2^(-2(k-1))-scaled copy from the accumulator."""
    c = (-2.0) ** (3 - 2 * k)
    return np.array(
        [
            [2.0, -4.0, 2.0, 0.0],
            [2.0, -4.0, 2.0, 0.0],
            [2.0, -4.0, 2.0, 0.0],
            [c, 2.0 ** (4 - 2 * k), c, 1.0],
        ]
    )


_TENT_BIAS = np.array([0.0, -0.5, -1.0, 0.0])


def square_unit(epsilon: float) -> Network:
    """ReLU approximator of x^2 on [0, 1] with sup error <= epsilon.

    The net has M = square_refinement_level(epsilon) layers, dims
    (1, 4, ..., 4, 1), and exactly 20M - 27 parameters.  Under ReLU it
    realizes the dyadic interpolant of level M - 1 on [0, 1] and coincides
    with max(x, 0) outside.
    """
    M = square_refinement_level(epsilon)
    first = Layer(np.ones((4, 1)), _TENT_BIAS)
    middle = [Layer(_tent_transport_matrix(k), _TENT_BIAS) for k in range(2, M)]
    c = (-2.0) ** (3 - 2 * M)
    last = Layer(np.array([[c, 2.0 ** (4 - 2 * M), c, 1.0]]), np.zeros(1))
    return Network(tuple([first, *middle, last]))


def square_real(spec: ApproxSpec) -> Network:
    """ReLU approximator of x^2 on R with error <= epsilon * max(1, |x|^q).

    Two unit-square nets evaluate at +/- (epsilon/2)^(1/(q-2)) x and their
    rescaled sum covers the whole line: inside the scaled window the unit
    estimate applies, outside the net degrades to a multiple of |x| that the
    q-growth weight absorbs.
    """
    eps, q = spec.epsilon, spec.q
    delta = 2.0 ** (-2.0 / (q - 2.0)) * eps ** (q / (q - 2.0))
    if delta < sys.float_info.min:
        raise DomainError(
            f"q={q} and epsilon={eps} give a unit-square accuracy of {delta!r}, "
            "below the smallest normal float; raise q or epsilon"
        )
    unit = square_unit(delta)
    scale = (eps / 2.0) ** (1.0 / (q - 2.0))
    a1 = affine(np.array([[scale], [-scale]]))
    a2 = affine(np.array([[scale**-2.0, scale**-2.0]]))
    return compose(a2, compose(parallel_equal([unit, unit]), a1))


def product_net(spec: ApproxSpec) -> Network:
    """ReLU approximator of (x, y) -> xy with error <= epsilon * max(1, |x|^q, |y|^q).

    Polarization over three shared square nets at accuracy
    epsilon / (2^(q-1) + 1); annihilates exactly when either factor is 0.
    """
    eps, q = spec.epsilon, spec.q
    try:
        square = square_real(ApproxSpec(eps / (2.0 ** (q - 1.0) + 1.0), q))
    except DomainError as exc:
        # the only failure left for a valid spec is the square net's underflow
        raise DomainError(
            f"q={q} and epsilon={eps} give a unit-square accuracy below the "
            "smallest normal float; raise q or epsilon"
        ) from exc
    a1 = affine(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    a2 = affine(np.array([[0.5, -0.5, -0.5]]))
    return compose(a2, compose(parallel_equal([square, square, square]), a1))


def scalar_vector_product(spec: ApproxSpec) -> Network:
    """ReLU approximator of (t, x) -> t x from R^(d+1) to R^d.

    An interleaving layer routes (t, x_j) into d copies of the scalar
    product net; the error is bounded by
    epsilon * (sqrt(d) max(1, |t|^q) + ||x||^q).
    """
    d = spec.d
    prod = product_net(ApproxSpec(spec.epsilon, spec.q))
    route = np.zeros((2 * d, d + 1))
    for j in range(d):
        route[2 * j, 0] = 1.0
        route[2 * j + 1, j + 1] = 1.0
    return compose(parallel_equal([prod] * d), affine(route))


def hat_net(alpha: float, beta: float, gamma: float, h: float) -> Network:
    """Two-layer ReLU net realizing the hat of height h on (alpha, gamma).

    Zero outside (alpha, gamma), rising with slope h/(beta-alpha), falling
    with slope h/(gamma-beta); dims (1, 4, 1), 13 parameters.
    """
    if not alpha < beta < gamma:
        raise DomainError(f"need alpha < beta < gamma, got ({alpha}, {beta}, {gamma})")
    rise = beta - alpha
    fall = gamma - beta
    w1 = np.array([[1.0 / rise], [1.0 / rise], [1.0 / fall], [1.0 / fall]])
    b1 = np.array([-alpha / rise, -beta / rise, -beta / fall, -gamma / fall])
    w2 = np.array([[h, -h, -h, h]])
    return Network((Layer(w1, b1), Layer(w2, np.zeros(1))))
