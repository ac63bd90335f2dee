"""Report plumbing: tolerances, formats, determinism, suite dispatch."""

import json
import math

import numpy as np
import pytest

import anncalc.verification
from anncalc import (
    RELU,
    BoundReport,
    DomainError,
    EulerSpec,
    GrowthBoundInputs,
    euler_oracle,
    gronwall_bound,
    halton,
    identity_net,
    param_count,
    realize,
    run_suite,
    scaling_bounds,
    scaling_report,
    spacetime_net,
)
from anncalc.verification import _demo_drift, _drift_growth_constant, _sweep_ratios, _x_points

from conftest import spy


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


def test_law_accumulator_rows_match_direct_checks():
    from anncalc.verification import _Law

    rep = BoundReport()
    broken = _Law.exact(rep, "broken")
    late = _Law.excess(rep, "late", headroom=0.0)
    err = _Law.identity(rep, "err", 1e-15)
    loose = _Law.excess(rep, "loose")
    for declare, name in ((_Law.exact, "never_exact"), (_Law.identity, "never_identity"),
                          (_Law.excess, "never_excess")):
        declare(rep, name)  # no draw reaches these laws
    for draw in range(3):
        # draw 1 breaks the exact law three times, draw 2 once
        for _ in range([0, 3, 1][draw]):
            broken.count(True)
        broken.count(False)
        if draw > 0:  # the first draw skips this law
            late.observe([None, -2.0, -3.0][draw])
        err.observe([3e-16, 5e-16, 1e-16][draw])
        loose.observe([-1.0, 5e-10, 0.0][draw])
    assert [law.value for law in (broken, late, err, loose)] == [4, -2.0, 5e-16, 5e-10]

    want = BoundReport()
    want.check_exact("broken", 4)
    want.check("late", -2.0, 0.0, headroom=0.0)
    want.check_identity("err", 5e-16, 1e-15)
    want.check("loose", 5e-10, 0.0)
    want.check_exact("never_exact", 0)
    want.check_identity("never_identity", 0.0)
    want.check("never_excess", -math.inf, 0.0)
    assert rep.entries == want.entries
    assert [e.passed for e in rep.entries] == [False, True, True, True, True, True, True]
    assert rep.to_csv().splitlines()[-3:] == [
        "never_exact,0.0,0.0,0.0,True",
        "never_identity,0.0,1e-12,1e-12,True",
        "never_excess,-inf,0.0,inf,True",
    ]
    tight = _Law.excess(rep, "tight", headroom=0.0)
    tight.observe(5e-10)
    assert not rep.entries[-1].passed


@pytest.mark.parametrize("kind", ["exact", "identity", "excess"])
def test_law_keeps_a_nan_measurement(kind):
    from anncalc.verification import _Law

    rep = BoundReport()
    law = getattr(_Law, kind)(rep, "x")
    law.observe(-1.0)
    law.observe(math.nan)
    for later in (-1.0, 2.0, math.inf):
        law.observe(later)
    law.count(True)
    entry = rep.entries[0]
    assert math.isnan(law.value) and math.isnan(entry.measured)
    assert not entry.passed and not rep.all_pass
    assert rep.to_csv().splitlines()[1] == f"x,nan,{entry.bound!r},nan,False"


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


def test_report_json_is_strict():
    from anncalc.verification import _Law

    rep = BoundReport()
    _Law.excess(rep, "unreached")
    _Law.identity(rep, "broken").observe(math.nan)

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    entries = json.loads(rep.to_json(), parse_constant=refuse)["entries"]
    assert [(e["measured"], e["bound"], e["margin"]) for e in entries] == [
        ("-inf", 0.0, "inf"),
        ("nan", 1e-12, "nan"),
    ]
    assert [e["pass"] for e in entries] == [True, False]


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


@pytest.mark.parametrize("suite", ["square", "spacetime", "thm1"])
def test_run_suite_reports_are_byte_identical(suite):
    a = run_suite(suite, 7)
    b = run_suite(suite, 7)
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


@pytest.mark.parametrize(
    "growth_c, size_exp, match",
    [("1", 2.0, "growth_c must be finite and non-negative, got '1'"),
     (-1.0, 2.0, "growth_c must be finite and non-negative"),
     (1.0, math.nan, "size_exp must be finite, got nan"),
     (1.0, True, "size_exp must be finite, got True")],
)
def test_scaling_report_checks_its_constants(growth_c, size_exp, match):
    from anncalc import EulerSpec, scaling_report

    spec = EulerSpec(identity_net(1), 1.0, 1, (np.zeros(1),), 1e-2, 3.0)
    with pytest.raises(DomainError, match=match):
        scaling_report(spec, growth_c, size_exp)


def _spacetime_case(d=2, N=4, eps=1e-1, seed=7):
    """A spec like the spacetime suite's, with its net and (t, x) grid."""
    rng = np.random.default_rng(seed)
    y = tuple(0.4 * rng.standard_normal((N, d)))
    spec = EulerSpec(_demo_drift(seed, d), 1.0, N, y, eps, 3.0)
    return spec, spacetime_net(spec), np.linspace(0.0, 1.0, 21), _x_points(d, 21)


def _per_point_ratios(net, spec, tgrid, xpts, bound_pair):
    """The largest error and growth ratios by one realize per x and one norm
    per (t, x); bound_pair(t, x) gives the two bounds at a point."""
    err = growth = 0.0
    for x in xpts:
        vals = realize(net, RELU, np.column_stack([tgrid, np.tile(x, (len(tgrid), 1))]))
        for t, val, want in zip(tgrid, vals, euler_oracle(spec, tgrid, x)):
            err_bound, growth_bound = bound_pair(t, x)
            err = max(err, float(np.linalg.norm(val - want)) / err_bound)
            growth = max(growth, float(np.linalg.norm(val)) / growth_bound)
    return err, growth


def _ratio_rows(report, tag):
    rows = {e.name: e for e in report.entries}
    return [rows[f"{tag}_{kind}_vs_bound_ratio"] for kind in ("error", "growth")]


def test_spacetime_sweep_realizes_the_net_once(monkeypatch):
    spec, _, tgrid, xpts = _spacetime_case()
    calls = spy(monkeypatch, anncalc.verification, "realize")
    report = BoundReport()
    anncalc.verification._spacetime_config_checks(report, spec, tgrid, "st")
    # the drift is realized too, on d inputs; the space-time net takes (t, x)
    sweeps = [args for args in calls if args[0].input_dim == spec.d + 1]
    assert len(sweeps) == 1
    assert np.asarray(sweeps[0][2]).shape == (len(xpts) * len(tgrid), spec.d + 1)
    assert report.all_pass


def test_spacetime_sweep_matches_the_per_point_reference():
    spec, net, tgrid, xpts = _spacetime_case()
    c = _drift_growth_constant(spec.drift)
    inputs = GrowthBoundInputs.from_steps(c, c, [(spec.T / spec.N) * np.eye(spec.d)] * spec.N,
                                          spec.y)

    def bound_pair(t, x):
        n = min(max(int(np.searchsorted(spec.times(), t, side="right")) - 1, 0), spec.N - 1)
        lo, hi = (gronwall_bound(inputs, float(np.linalg.norm(x)), k) for k in (n, n + 1))
        return (spec.epsilon * (2.0 * math.sqrt(spec.d) + lo**3 + hi**3),
                6.0 * math.sqrt(spec.d) + 2.0 * (lo**2 + hi**2))

    report = BoundReport()
    anncalc.verification._spacetime_config_checks(report, spec, tgrid, "st")
    want = _per_point_ratios(net, spec, tgrid, xpts, bound_pair)
    for row, value in zip(_ratio_rows(report, "st"), want):
        assert row.measured == pytest.approx(value, rel=1e-12, abs=0.0)
        assert 0.0 < row.measured <= 1.0


def test_scaling_report_sweep_matches_the_per_point_reference():
    spec, net, _, _ = _spacetime_case(d=2, N=2, eps=1e-2)
    growth_c = max(_drift_growth_constant(spec.drift), param_count(spec.drift) / 4.0)
    bounds = scaling_bounds(growth_c, 2.0, spec.T, spec.d, spec.N, spec.epsilon)
    y_norm = float(np.linalg.norm(np.concatenate(spec.y)))

    def bound_pair(t, x):
        xn = float(np.linalg.norm(x))
        return (bounds["error"] * (1.0 + xn**3 + y_norm**3),
                bounds["growth"] * (1.0 + xn**2 + y_norm**2))

    report = scaling_report(spec, growth_c, 2.0, "sc")
    want = _per_point_ratios(net, spec, np.linspace(0.0, 1.0, 11), _x_points(2, 11), bound_pair)
    for row, value in zip(_ratio_rows(report, "sc"), want):
        assert row.measured == pytest.approx(value, rel=1e-12, abs=0.0)
        assert 0.0 < row.measured <= 1.0


@pytest.mark.parametrize("nan_in", ["error", "growth"])
def test_a_nan_bound_fails_its_sweep_row(nan_in):
    spec, net, tgrid, xpts = _spacetime_case(d=1, N=2)
    bounds = {kind: np.full((len(xpts), len(tgrid)), 1e3) for kind in ("error", "growth")}
    bounds[nan_in][3, 5] = math.nan
    report = BoundReport()
    _sweep_ratios(report, "s", net, spec, tgrid, xpts, bounds["error"], bounds["growth"])
    for row, kind in zip(report.entries, ("error", "growth")):
        assert row.name == f"s_{kind}_vs_bound_ratio"
        assert math.isnan(row.measured) == (kind == nan_in)
        assert row.passed == (kind != nan_in)
    assert not report.all_pass


def test_suite_reports_are_byte_identical_at_1_and_2_blas_threads(suite_hash_runs):
    # two fresh processes, started with the session (conftest.SUITE_HASHES);
    # last in the file, so they have had the whole session to finish
    one, two = (run.communicate(timeout=120)[0].splitlines() for run in suite_hash_runs.values())
    assert [run.returncode for run in suite_hash_runs.values()] == [0, 0]
    assert len(one) == 2 * len(anncalc.SUITES) and one == two
