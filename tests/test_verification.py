"""Report plumbing: tolerances, formats, determinism, suite dispatch."""

import json

import numpy as np
import pytest

from anncalc import (
    BoundReport,
    DomainError,
    check_structural,
    halton,
    identity_net,
    run_suite,
    sup_error_on_grid,
)


def test_bound_report_semantics():
    rep = BoundReport()
    rep.check("ok", 1.0, 2.0)
    rep.check("tight", 1.0 + 5e-10, 1.0)  # inside the 1e-9 headroom
    rep.check("fails", 2.0, 1.0)
    rep.check_identity("ident_ok", 5e-13)
    rep.check_identity("ident_bad", 5e-12)
    rep.check_exact("exact_ok", 0)
    rep.check_exact("exact_bad", 3)
    flags = [e.passed for e in rep.entries]
    assert flags == [True, True, False, True, False, True, False]
    assert rep.entries[0].margin == 1.0
    assert not rep.all_pass
    assert len(rep.failures()) == 3


def test_report_csv_and_json_formats():
    rep = BoundReport(metadata={"suite": "demo", "seed": 1})
    rep.check("alpha", 0.5, 1.0)
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "quantity,measured,bound,margin,pass"
    assert lines[1] == "alpha,0.5,1.0,0.5,True"
    doc = json.loads(rep.to_json())
    assert doc["metadata"]["suite"] == "demo"
    assert doc["entries"][0]["quantity"] == "alpha"
    assert doc["entries"][0]["pass"] is True


def test_sup_error_on_grid():
    grid = np.linspace(0.0, 1.0, 101)
    f = lambda g: g**2
    assert sup_error_on_grid(f, f, grid) == 0.0
    g_fn = lambda g: g**2 + 0.25
    assert sup_error_on_grid(f, g_fn, grid) == pytest.approx(0.25)
    weighted = sup_error_on_grid(f, g_fn, grid, weight=lambda g: np.full(len(g), 2.0))
    assert weighted == pytest.approx(0.125)
    with pytest.raises(DomainError):
        sup_error_on_grid(f, f, np.array([]))


def test_sup_error_on_grid_against_square_net():
    from anncalc import RELU, realize, square_unit

    net = square_unit(2.0**-10)
    grid = np.linspace(0.0, 1.0, 100_000)
    err = sup_error_on_grid(
        lambda g: g**2, lambda g: realize(net, RELU, g[:, None])[:, 0], grid
    )
    assert err <= 2.0**-10 + 1e-9


def test_check_structural():
    net = identity_net(3)
    rep = check_structural(net, (3, 6, 3))
    assert rep.all_pass
    rep = check_structural(net, {"depth": 2, "hidden": 1, "params": 45, "inputs": 3})
    assert rep.all_pass
    rep = check_structural(net, {"params": 44})
    assert not rep.all_pass
    with pytest.raises(DomainError):
        check_structural(net, {"bogus": 1})


def test_halton_is_deterministic_and_low_discrepancy():
    a = halton(100, 3)
    b = halton(100, 3)
    assert np.array_equal(a, b)
    assert a.shape == (100, 3)
    assert np.all((a >= 0.0) & (a < 1.0))
    # first base-2 coordinates are the van der Corput sequence
    assert np.allclose(a[:4, 0], [0.5, 0.25, 0.75, 0.125])


@pytest.mark.parametrize("n, d", [(10_000, 5), (10_000, 3), (64, 4), (1, 1), (0, 2)])
def test_halton_matches_radical_inverse_bit_for_bit(n, d):
    primes = (2, 3, 5, 7, 11)

    def radical_inverse(i, base):
        k, f, r = i, 1.0, 0.0
        while k > 0:
            f /= base
            k, digit = divmod(k, base)
            r += digit * f
        return r

    want = np.array([[radical_inverse(i + 1, primes[j]) for j in range(d)] for i in range(n)])
    got = halton(n, d)
    assert got.shape == (n, d)
    assert np.array_equal(got, want.reshape(n, d))


@pytest.mark.parametrize("n, d", [(-1, 2), (2.5, 2), (True, 2), (3, 13), (3, -1), (3, 1.0)])
def test_halton_rejects_bad_sizes(n, d):
    with pytest.raises(DomainError, match="halton needs an integer"):
        halton(n, d)


def test_run_suite_unknown_name():
    with pytest.raises(DomainError):
        run_suite("nope", 7)


@pytest.mark.parametrize("seed", [2.5, True, -1, "7"])
def test_run_suite_rejects_bad_seed(seed):
    with pytest.raises(DomainError, match=f"seed must be a non-negative integer, got {seed!r}"):
        run_suite("euler", seed)


def test_run_suite_reports_are_byte_identical():
    a = run_suite("square", 7)
    b = run_suite("square", 7)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def test_calculus_suite_passes():
    rep = run_suite("calculus", 11)
    assert rep.all_pass, [e.name for e in rep.failures()]


def test_scaling_report_identity_drift_small_case():
    # d=1, N=2, eps=1e-2 with size exponent 1: identity drift has 7
    # parameters, so the certified constant is 7
    from anncalc import EulerSpec, scaling_report

    spec = EulerSpec(identity_net(1), 1.0, 2, (np.array([0.1]), np.array([-0.2])),
                     1e-2, 3.0)
    rep = scaling_report(spec, growth_c=7.0, size_exp=1.0)
    assert rep.all_pass, [e.name for e in rep.failures()]
    with pytest.raises(DomainError):
        scaling_report(
            EulerSpec(identity_net(1), 1.0, 2, (np.zeros(1), np.zeros(1)), 1e-2, 4.0),
            7.0, 1.0,
        )
