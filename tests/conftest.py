import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "ci", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def random_net(rng, d_in, d_out, depth, width_hi=4, scale=1.0):
    """Random dense net with gaussian weights, used as generic test input."""
    from anncalc import Network

    widths = [d_in] + [int(rng.integers(1, width_hi + 1)) for _ in range(depth - 1)] + [d_out]
    layers = []
    for k in range(1, len(widths)):
        w = scale * rng.standard_normal((widths[k], widths[k - 1])) / np.sqrt(widths[k - 1])
        b = scale * 0.5 * rng.standard_normal(widths[k])
        layers.append((w, b))
    return Network(tuple(layers))


def same_bytes(a, b):
    """Equal layer shapes and raw weight and bias bytes, so sign bits too."""
    return len(a.layers) == len(b.layers) and all(
        la.weights.shape == lb.weights.shape
        and la.weights.tobytes() == lb.weights.tobytes()
        and la.bias.tobytes() == lb.bias.tobytes()
        for la, lb in zip(a.layers, b.layers)
    )


def spy(monkeypatch, module, name):
    """Record every call of ``module.name`` for the test; returns the list of calls."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls
