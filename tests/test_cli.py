"""Command-line surface: exit codes, file outputs, stated examples."""

import json

import numpy as np
import pytest

import anncalc.cli
from anncalc import (
    SUITES,
    BoundReport,
    Network,
    RELU,
    dims,
    load_network,
    param_count,
    realize,
    run_suite,
    save_network,
    serialize,
    sum_equal,
)
from anncalc.cli import main

from conftest import random_net, spy


def run(*argv):
    return main([str(a) for a in argv])


def test_build_square_unit_dims(tmp_path):
    out = tmp_path / "sq.ann.json"
    assert run("build", "--kind", "square-unit", "--eps", "0.0009765625", "-o", out) == 0
    assert dims(load_network(out)) == (1, 4, 4, 4, 4, 1)


def test_build_hat_and_identity(tmp_path):
    out = tmp_path / "hat.ann.json"
    assert run("build", "--kind", "hat", "--alpha", 0, "--beta", 1, "--gamma", 2,
               "--h", 1, "-o", out) == 0
    assert param_count(load_network(out)) == 13
    out2 = tmp_path / "id.ann.json"
    assert run("build", "--kind", "identity", "--d", 3, "-o", out2) == 0
    assert dims(load_network(out2)) == (3, 6, 3)


def test_build_rejects_bad_eps(tmp_path, capsys):
    rc = run("build", "--kind", "square-unit", "--eps", "2.0", "-o", tmp_path / "x.ann.json")
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_build_square_unit_at_smallest_subnormal_eps(tmp_path):
    out = tmp_path / "sq.ann.json"
    assert run("build", "--kind", "square-unit", "--eps", "5e-324", "-o", out) == 0
    assert load_network(out).depth == 537


def test_usage_error_is_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["build", "--kind", "nonsense", "-o", "x"])
    assert exc.value.code == 2


def test_op_compose_and_mismatch(tmp_path, rng, capsys):
    a = tmp_path / "a.ann.json"
    b = tmp_path / "b.ann.json"
    save_network(random_net(rng, 2, 3, 2), a)
    save_network(random_net(rng, 1, 2, 2), b)
    out = tmp_path / "c.ann.json"
    assert run("op", "compose", a, b, "-o", out) == 0
    assert load_network(out).input_dim == 1

    bad = tmp_path / "bad.ann.json"
    save_network(random_net(rng, 4, 4, 1), bad)
    rc = run("op", "compose", a, bad, "-o", tmp_path / "no.ann.json")
    assert rc == 1
    err = capsys.readouterr().err
    assert "2" in err and "4" in err  # names both boundary dims


def test_op_power_zero(tmp_path, rng):
    src = tmp_path / "id.ann.json"
    run("build", "--kind", "identity", "--d", 2, "-o", src)
    out = tmp_path / "p0.ann.json"
    assert run("op", "power", src, "--n", 0, "-o", out) == 0
    net = load_network(out)
    assert dims(net) == (2, 2)
    assert np.array_equal(net.layers[0].weights, np.eye(2))


def test_op_sum_and_extend(tmp_path, rng):
    a, b = tmp_path / "a.ann.json", tmp_path / "b.ann.json"
    save_network(random_net(rng, 2, 2, 2), a)
    save_network(random_net(rng, 2, 2, 3), b)
    out = tmp_path / "s.ann.json"
    assert run("op", "sum", a, b, "-o", out) == 0
    net = load_network(out)
    xs = rng.standard_normal((10, 2))
    want = realize(load_network(a), RELU, xs) + realize(load_network(b), RELU, xs)
    assert np.allclose(realize(net, RELU, xs), want, rtol=1e-12, atol=1e-11)
    out2 = tmp_path / "e.ann.json"
    assert run("op", "extend", a, "--L", 5, "-o", out2) == 0
    assert load_network(out2).depth == 5


def test_op_sum_of_identical_dims_is_one_sum_general(tmp_path, rng, monkeypatch):
    calls = spy(monkeypatch, anncalc.cli, "sum_general")
    base = random_net(rng, 2, 3, 2)
    a, b = tmp_path / "a.ann.json", tmp_path / "b.ann.json"
    save_network(base, a)
    save_network(
        Network(tuple((rng.standard_normal(l.weights.shape), l.bias) for l in base.layers)), b
    )
    out = tmp_path / "s.ann.json"
    assert run("op", "sum", a, b, "--weights", "0.5,-2", "-o", out) == 0
    want = sum_equal([load_network(a), load_network(b)], [0.5, -2.0])
    assert out.read_bytes() == serialize(want)
    assert len(calls) == 1


def test_eval_identity_and_square(tmp_path, capsys):
    net = tmp_path / "id.ann.json"
    run("build", "--kind", "identity", "--d", 2, "-o", net)
    capsys.readouterr()
    assert run("eval", net, "--act", "relu", "--points=-1,2") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "out0,out1"
    assert [float(v) for v in out[1].split(",")] == [-1.0, 2.0]

    sq = tmp_path / "sq.ann.json"
    run("build", "--kind", "square-unit", "--eps", 1.0, "-o", sq)
    capsys.readouterr()
    assert run("eval", sq, "--points", "0") == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert float(out[1]) == 0.0


def test_eval_points_csv(tmp_path, capsys):
    net = tmp_path / "id.ann.json"
    run("build", "--kind", "identity", "--d", 1, "-o", net)
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5\n-2.0\n")
    capsys.readouterr()
    assert run("eval", net, "--points-csv", pts, "-o", tmp_path / "out.csv") == 0
    rows = (tmp_path / "out.csv").read_text().strip().split("\n")
    assert [float(r) for r in rows[1:]] == [0.5, -2.0]


def test_info_format(tmp_path, capsys):
    sq = tmp_path / "sq.ann.json"
    run("build", "--kind", "square-unit", "--eps", 1.0, "-o", sq)
    capsys.readouterr()
    assert run("info", sq) == 0
    out = capsys.readouterr().out.strip()
    assert out == "dims=(1, 4, 1) L=2 H=1 P=13 I=1 O=1"


def test_build_prints_wrote_line(tmp_path, capsys):
    out = tmp_path / "sq.ann.json"
    assert run("build", "--kind", "square-unit", "--eps", 1.0, "-o", out) == 0
    assert capsys.readouterr().out == f"wrote {out}: dims=(1, 4, 1) P=13\n"


@pytest.mark.parametrize("case", ["info_dir", "build_to_dir", "info_not_utf8", "scheme_not_utf8"])
def test_file_errors_are_error_lines(tmp_path, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    argv = {
        "info_dir": ["info", tmp_path],
        "build_to_dir": ["build", "--kind", "identity", "-o", tmp_path],
        "info_not_utf8": ["info", bad],
        "scheme_not_utf8": ["build", "--kind", "spacetime", "--spec", bad,
                            "-o", tmp_path / "st.ann.json"],
    }[case]
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_build_euler_kinds_from_spec_json(tmp_path, rng):
    drift_path = tmp_path / "drift.ann.json"
    save_network(random_net(rng, 2, 2, 2, scale=0.5), drift_path)
    spec_path = tmp_path / "scheme.json"
    spec_path.write_text(json.dumps({
        "drift": str(drift_path), "T": 1.0, "N": 2, "eps": 0.1, "q": 3.0,
        "y": [[0.1, -0.2], [0.0, 0.3]],
    }))
    out = tmp_path / "xi.ann.json"
    assert run("build", "--kind", "euler-space", "--spec", spec_path, "-o", out) == 0
    assert load_network(out).input_dim == 2
    out2 = tmp_path / "psi.ann.json"
    assert run("build", "--kind", "spacetime", "--spec", spec_path, "-o", out2) == 0
    net = load_network(out2)
    assert net.input_dim == 3 and net.output_dim == 2


@pytest.mark.parametrize(
    "doc, names",
    [
        ("{not json", "not valid JSON"),
        ("[1.0, 2]", "JSON object"),
        ({"T": "x"}, "'T'"),
        ({"y": 5}, "'y'"),
        ({"y": [[0.1, float("nan")], [0.0, 0.3]]}, "'y'"),
        ({"y": [[0.1, 1e999], [0.0, 0.3]]}, "'y'"),
        ({"eps": True}, "'eps'"),
        ({"drift": 5}, "'drift'"),
        ({"N": 2.7}, "N must be a positive integer, got 2.7"),
        ({"N": True}, "N must be a positive integer, got True"),
    ],
    ids=["invalid_json", "list_document", "T_string", "y_number", "y_nan", "y_overflow",
         "eps_bool", "drift_number", "N_fraction", "N_bool"],
)
def test_build_rejects_bad_scheme_file(tmp_path, rng, capsys, doc, names):
    drift_path = tmp_path / "drift.ann.json"
    save_network(random_net(rng, 2, 2, 2, scale=0.5), drift_path)
    if isinstance(doc, dict):
        doc = json.dumps({
            "drift": str(drift_path), "T": 1.0, "N": 2, "y": [[0.1, -0.2], [0.0, 0.3]], **doc
        })
    spec_path = tmp_path / "scheme.json"
    spec_path.write_text(doc)
    out = tmp_path / "xi.ann.json"
    assert run("build", "--kind", "spacetime", "--spec", spec_path, "-o", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and names in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, csv_text",
    [
        (["--points", "a"], None),
        (["--points", "1;2,3"], None),
        (["--points-csv"], "0.5,1.0\n-2.0,z\n"),
    ],
    ids=["points_word", "points_ragged", "points_csv_word"],
)
def test_eval_rejects_bad_points(tmp_path, capsys, flags, csv_text):
    net = tmp_path / "id.ann.json"
    run("build", "--kind", "identity", "--d", 2, "-o", net)
    if csv_text is not None:
        pts = tmp_path / "pts.csv"
        pts.write_text(csv_text)
        flags = flags + [pts]
    capsys.readouterr()
    assert run("eval", net, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--kind", "spacetime", "-o", "OUT"],
         "--kind spacetime needs --spec pointing to a JSON scheme file"),
        (["op", "compose", "NET", "-o", "OUT"], "compose needs at least two networks"),
        (["op", "power", "NET", "NET", "--n", "2", "-o", "OUT"], "power takes exactly one network"),
        (["op", "power", "NET", "-o", "OUT"], "power needs --n"),
        (["op", "extend", "NET", "NET", "--L", "3", "-o", "OUT"],
         "extend takes exactly one network"),
        (["op", "extend", "NET", "-o", "OUT"], "extend needs --L"),
        (["eval", "NET"], "eval needs --points or --points-csv"),
        (["eval", "NET", "--points", "1,2,3"], "points have 3 columns, network expects 2"),
        (["eval", "NET", "--points", ";"], "points have 0 columns, network expects 2"),
    ],
    ids=["build_no_spec", "compose_one", "power_two", "power_no_n", "extend_two",
         "extend_no_L", "eval_no_points", "eval_columns", "eval_empty_points"],
)
def test_usage_mistakes_are_one_error_line(tmp_path, capsys, argv, message):
    net, out = tmp_path / "id.ann.json", tmp_path / "out.ann.json"
    run("build", "--kind", "identity", "--d", 2, "-o", net)
    capsys.readouterr()
    assert run(*[{"NET": net, "OUT": out}.get(a, a) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_op_sum_rejects_bad_weights(tmp_path, rng, capsys):
    a = tmp_path / "a.ann.json"
    save_network(random_net(rng, 2, 2, 2), a)
    assert run("op", "sum", a, a, "--weights", "1,z", "-o", tmp_path / "s.ann.json") == 1
    assert capsys.readouterr().err.startswith("error: --weights")


@pytest.mark.parametrize("flag, value", [("--d", "x"), ("--N", "2.5"), ("--eps", "1e-1,")])
def test_report_rejects_bad_lists(tmp_path, capsys, flag, value):
    argv = {"--d": "1", "--N": "1", "--eps": "1e-1", flag: value}
    args = [v for pair in argv.items() for v in pair]
    assert run("report", "--sweep", "thm1", *args, "-o", tmp_path / "r.csv") == 1
    assert capsys.readouterr().err.startswith(f"error: {flag}")


def test_verify_square_suite_exit_zero(tmp_path, capsys):
    csv_path = tmp_path / "report.csv"
    assert run("verify", "--suite", "square", "--seed", 7, "--csv", csv_path) == 0
    text = csv_path.read_text()
    assert text.startswith("quantity,measured,bound,margin,pass")
    out = capsys.readouterr().out
    assert "suite square" in out


def test_verify_rejects_negative_seed(capsys):
    assert run("verify", "--suite", "euler", "--seed", -1) == 1
    assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")


def test_report_sweep_emits_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run("report", "--sweep", "thm1", "--d", "1", "--N", "1,2", "--eps", "1e-1",
               "-o", out) == 0
    rows = out.read_text().strip().split("\n")
    assert rows[0] == "d,N,eps,measured_params,param_bound,error_ratio,growth_ratio"
    assert len(rows) == 3
    for row in rows[1:]:
        cells = row.split(",")
        assert int(cells[3]) <= float(cells[4])


def test_report_prints_param_slope_per_d_and_eps(tmp_path, capsys):
    assert run("report", "--sweep", "thm1", "--d", "1", "--N", "1,2", "--eps", "1e-1,1e-2",
               "-o", tmp_path / "sweep.csv") == 0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 2
    assert err[0].startswith("# d=1 eps=0.1: log-log slope of params in N = ")
    assert err[1].startswith("# d=1 eps=0.01: log-log slope of params in N = ")
    assert run("report", "--sweep", "thm1", "--d", "1", "--N", "1", "--eps", "1e-1",
               "-o", tmp_path / "one.csv") == 0
    assert capsys.readouterr().err == ""


def _fixed_suite(passed):
    def suite(seed):
        report = BoundReport(metadata={"suite": "fixed", "seed": seed})
        report.check(f"fixed_check_{passed}", 0.5 if passed else 2.0, 1.0)
        return report
    return suite


@pytest.fixture
def cheap_suites(monkeypatch):
    """SUITES cut down to the square suite and one fixed passing suite."""
    for name in [n for n in SUITES if n != "square"]:
        monkeypatch.delitem(SUITES, name)
    monkeypatch.setitem(SUITES, "fixed", _fixed_suite(True))
    return monkeypatch


def test_verify_all_writes_one_combined_report(tmp_path, capsys, cheap_suites):
    csv_path, json_path = tmp_path / "all.csv", tmp_path / "all.json"
    assert run("verify", "--suite", "all", "--csv", csv_path, "--json", json_path) == 0
    square = run_suite("square", 7).to_csv().splitlines()
    assert csv_path.read_text().splitlines() == square + ["fixed_check_True,0.5,1.0,0.5,True"]
    total = len(square)  # square's entries below its header, plus the fixed check
    doc = json.loads(json_path.read_text())
    assert [m["suite"] for m in doc["metadata"]["suites"]] == ["square", "fixed"]
    assert len(doc["entries"]) == total
    assert f"suite all: {total}/{total} checks pass" in capsys.readouterr().out


def test_verify_all_exits_one_when_a_check_fails(tmp_path, cheap_suites):
    cheap_suites.setitem(SUITES, "failing", _fixed_suite(False))
    csv_path = tmp_path / "all.csv"
    assert run("verify", "--suite", "all", "--csv", csv_path) == 1
    assert csv_path.read_text().splitlines()[-1].endswith(",False")
