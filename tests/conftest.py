import os
import subprocess
import sys
from pathlib import Path

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


def check_block_plan(layer):
    """The layer's block plan tiles its nonzeros: ids ascend within a block,
    no row or column is in two blocks, the blocks scatter back to the
    weights bit for bit, and every entry outside them (rows in no block
    included) is zero.  Off-block zeros may be -0.0, which the plan does not
    keep, so those compare by value."""
    w = layer.weights
    scattered = np.zeros(w.shape)
    covered = np.zeros(w.shape, dtype=bool)
    row_uses = np.zeros(w.shape[0], dtype=int)
    col_uses = np.zeros(w.shape[1], dtype=int)
    for row_ids, col_ids, blocks in layer._block_plan:
        assert blocks.shape == row_ids.shape + col_ids.shape[1:]
        assert (np.diff(row_ids) > 0).all() and (np.diff(col_ids) > 0).all()
        at = (row_ids[:, :, np.newaxis], col_ids[:, np.newaxis, :])
        scattered[at] = blocks
        covered[at] = True
        np.add.at(row_uses, row_ids.ravel(), 1)
        np.add.at(col_uses, col_ids.ravel(), 1)
    assert row_uses.max() <= 1 and col_uses.max() <= 1
    assert scattered[covered].tobytes() == w[covered].tobytes()
    assert np.array_equal(scattered, w)
    assert not w[row_uses == 0].any()


def spy(monkeypatch, module, name):
    """Record every call of ``module.name`` for the test; returns the list of calls."""
    calls = []
    fn = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


# One line per (suite, seed): the SHA-256 of its CSV and JSON at seeds 3 and 7,
# computed at the lowest priority beside the test session.
SUITE_HASHES = """
import hashlib, os
os.nice(19)
from anncalc import SUITES, run_suite
for seed in (3, 7):
    for name in sorted(SUITES):
        rep = run_suite(name, seed)
        print(name, seed, hashlib.sha256((rep.to_csv() + rep.to_json()).encode()).hexdigest())
"""
THREADS_TEST = "test_suite_reports_are_byte_identical_at_1_and_2_blas_threads"
_SUITE_HASH_RUNS = pytest.StashKey[dict]()


def pytest_collection_finish(session):
    """Start SUITE_HASHES in two fresh processes, at OPENBLAS_NUM_THREADS 1
    and 2, when THREADS_TEST is to run: the test finds them done instead of
    waiting for them."""
    if session.config.option.collectonly or all(item.name != THREADS_TEST for item in session.items):
        return
    import anncalc

    src = str(Path(anncalc.__file__).parents[1])
    session.config.stash[_SUITE_HASH_RUNS] = {
        threads: subprocess.Popen(
            [sys.executable, "-c", SUITE_HASHES], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src},
        )
        for threads in ("1", "2")
    }


def _stop(runs):
    for run in runs.values():
        run.kill()
        run.wait()


def pytest_sessionfinish(session):
    _stop(session.config.stash.get(_SUITE_HASH_RUNS, {}))


@pytest.fixture
def suite_hash_runs(request):
    """{threads: Popen} of the SUITE_HASHES runs, killed after the test."""
    runs = request.config.stash[_SUITE_HASH_RUNS]
    yield runs
    _stop(runs)
