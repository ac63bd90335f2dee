"""Command-line surface: build, combine, evaluate, inspect, and verify
networks, all through the .ann.json interchange format.

Exit codes: 0 on success, 1 on domain/precondition failures, 2 on usage
errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from .constructors import (
    ApproxSpec,
    hat_net,
    product_net,
    scalar_vector_product,
    square_real,
    square_unit,
)
from .euler import EulerSpec, euler_space_net, spacetime_net, spacetime_param_bound
from .network import (
    DomainError,
    IDENTITY,
    Layer,
    Network,
    ParseError,
    RELU,
    ShapeError,
    _numbers,
    _strict_json,
    dims,
    load_network,
    param_count,
    realize,
    save_network,
)
from .ops import (
    compose,
    extend,
    identity_net,
    parallel_general,
    power,
    relu_identity,
    sum_general,
)
from .verification import SUITES, BoundReport, run_suite, scaling_report

_ACTIVATIONS = {"relu": RELU, "identity": IDENTITY}


def _scheme_numbers(doc: dict, field: str, ndim: int) -> np.ndarray:
    """A scheme file field by the number rule, of ``ndim`` dimensions."""
    what = f"scheme file field {field!r}"
    a = _numbers(doc[field], what)
    if a.ndim != ndim:
        kind = "a number" if ndim == 0 else "a list of vectors"
        raise ParseError(f"{what} must be {kind}, got shape {a.shape}")
    return a


def _load_euler_spec(path, eps=None, q=None) -> EulerSpec:
    with open(path, "rb") as fh:
        doc = _strict_json(fh.read(), "scheme file")
    if not isinstance(doc, dict):
        raise ParseError("a scheme file must hold a JSON object")
    if not isinstance(doc["drift"], str):
        raise ParseError("scheme file field 'drift' must be the path of a network file")
    doc = {"eps": 1.0, "q": 3.0, **doc}
    return EulerSpec(
        load_network(doc["drift"]),
        float(_scheme_numbers(doc, "T", 0)),
        doc["N"],
        tuple(_scheme_numbers(doc, "y", 2)),
        float(_scheme_numbers(doc, "eps", 0)) if eps is None else eps,
        float(_scheme_numbers(doc, "q", 0)) if q is None else q,
    )


def _split_numbers(text: str, flag: str, kind=float) -> list:
    """Comma-separated numbers of one flag, none with a ``_``; ParseError naming it otherwise."""
    items = text.split(",")
    for v in items:
        if "_" in v:
            raise ParseError(f"{flag}: {v!r} is not a number")
    try:
        return [kind(v) for v in items]
    except ValueError as exc:
        raise ParseError(f"{flag}: {exc}") from exc


def _cmd_build(args) -> int:
    kind = args.kind
    eps = 1.0 if args.eps is None else args.eps
    q = 3.0 if args.q is None else args.q
    if kind == "identity":
        net = identity_net(args.d)
    elif kind == "hat":
        net = hat_net(args.alpha, args.beta, args.gamma, args.h)
    elif kind == "square-unit":
        net = square_unit(eps)
    elif kind == "square":
        net = square_real(ApproxSpec(eps, q))
    elif kind == "product":
        net = product_net(ApproxSpec(eps, q))
    elif kind == "scalvec":
        net = scalar_vector_product(ApproxSpec(eps, q, args.d))
    elif kind in ("euler-space", "spacetime"):
        if not args.spec:
            raise DomainError(f"--kind {kind} needs --spec pointing to a JSON scheme file")
        # explicit flags override the scheme file's accuracy parameters
        spec = _load_euler_spec(args.spec, args.eps, args.q)
        if kind == "euler-space":
            n = spec.N if args.n is None else args.n
            net = euler_space_net(spec, n)
        else:
            net = spacetime_net(spec)
    else:  # pragma: no cover - argparse restricts choices
        raise DomainError(f"unknown kind {kind!r}")
    return _save(net, args.output)


def _save(net: Network, path) -> int:
    save_network(net, path)
    print(f"wrote {path}: dims={dims(net)} P={param_count(net)}")
    return 0


def _cmd_op(args) -> int:
    nets = [load_network(p) for p in args.inputs]
    if args.operation == "compose":
        if len(nets) < 2:
            raise DomainError("compose needs at least two networks")
        net = nets[0]
        for other in nets[1:]:
            net = compose(net, other)
    elif args.operation == "parallel":
        net = parallel_general(nets)
    elif args.operation == "sum":
        h = _split_numbers(args.weights, "--weights") if args.weights else None
        net = sum_general(nets, h=h)
    elif args.operation == "power":
        if len(nets) != 1:
            raise DomainError("power takes exactly one network")
        if args.n is None:
            raise DomainError("power needs --n")
        net = power(nets[0], args.n)
    elif args.operation == "extend":
        if len(nets) != 1:
            raise DomainError("extend takes exactly one network")
        if args.L is None:
            raise DomainError("extend needs --L")
        net = extend(args.L, relu_identity(nets[0].output_dim), nets[0])
    else:  # pragma: no cover
        raise DomainError(f"unknown operation {args.operation!r}")
    return _save(net, args.output)


def _parse_points(args, input_dim) -> np.ndarray:
    if args.points:
        rows = [_split_numbers(r, "--points") for r in args.points.split(";") if r.strip()]
        if len({len(row) for row in rows}) > 1:
            raise ParseError("--points: every point needs the same number of coordinates")
        pts = np.array(rows, ndmin=2)
    elif args.points_csv:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                pts = np.loadtxt(args.points_csv, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ParseError(f"--points-csv: {exc}") from exc
        if not pts.size:
            raise ParseError(f"--points-csv: {args.points_csv} holds no points")
    else:
        raise DomainError("eval needs --points or --points-csv")
    if pts.shape[1] != input_dim:
        raise ShapeError(f"points have {pts.shape[1]} columns, network expects {input_dim}")
    return pts


def _cmd_eval(args) -> int:
    net = load_network(args.network)
    act = _ACTIVATIONS[args.act]
    pts = _parse_points(args, net.input_dim)
    out = realize(net, act, pts)
    header = ",".join(f"out{k}" for k in range(out.shape[1]))
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in out]
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _write_text(text: str, path) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_info(args) -> int:
    net = load_network(args.network)
    doc = {"dims": list(dims(net)), "L": net.depth, "H": net.depth - 1,
           "P": param_count(net), "I": net.input_dim, "O": net.output_dim}
    if args.layers:
        doc["layers"] = [_layer_info(k, layer) for k, layer in enumerate(net.layers)]
    if args.json:
        print(json.dumps(doc, allow_nan=False))
        return 0
    print(f"dims={dims(net)} " + " ".join(f"{key}={doc[key]}" for key in "LHPIO"))
    if args.layers:
        print("layer form    rows  cols nonzeros   density planned blocks groups")
        for row in doc["layers"]:
            groups = ",".join(f"{g}*{a}x{b}" for g, a, b in row["groups"]) or "-"
            print(f"{row['layer']:>5} {row['form']:<7} {row['rows']:>5} {row['cols']:>5} "
                  f"{row['nonzeros']:>8} {row['density']:>9.3g} "
                  f"{'yes' if row['planned'] else 'no':<7} {row['blocks']:>6} {groups}")
    return 0


def _layer_info(k: int, layer: Layer) -> dict:
    """One layer's form, shape, nonzeros and density, and its block plan:
    planned or not, the number of blocks and each group's [blocks, rows, cols]."""
    nonzeros = int(np.count_nonzero(layer._entries[2]))
    plan = layer._block_plan
    groups = [[r.shape[0], r.shape[1], c.shape[1]] for r, c, _ in plan or ()]
    return {"layer": k, "form": layer.form, "rows": layer.rows, "cols": layer.cols,
            "nonzeros": nonzeros, "density": nonzeros / (layer.rows * layer.cols),
            "planned": plan is not None, "blocks": sum(g for g, _, _ in groups),
            "groups": groups}


def _print_summary(name: str, report: BoundReport) -> None:
    n_fail = len(report.failures())
    print(f"suite {name}: {len(report.entries) - n_fail}/{len(report.entries)} checks pass")


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        report = run_suite(name, args.seed)
        for e in report.entries:
            status = "pass" if e.passed else "FAIL"
            print(f"{status} {e.name}: measured={e.measured:.6g} bound={e.bound:.6g}")
        _print_summary(name, report)
        reports.append(report)
    if len(reports) > 1:
        report = BoundReport(
            metadata={"suite": "all", "seed": args.seed, "suites": [r.metadata for r in reports]},
            entries=[e for r in reports for e in r.entries],
        )
        _print_summary("all", report)
    if args.csv:
        _write_text(report.to_csv(), args.csv)
    if args.json:
        _write_text(report.to_json(), args.json)
    return 0 if report.all_pass else 1


def _cmd_report(args) -> int:
    ds = _split_numbers(args.d, "--d", int)
    Ns = _split_numbers(args.N, "--N", int)
    epss = _split_numbers(args.eps, "--eps")
    for flag, values in (("--d", ds), ("--N", Ns), ("--eps", epss)):
        repeated = [v for k, v in enumerate(values) if v in values[:k]]
        if repeated:
            raise ParseError(f"{flag}: {repeated[0]!r} is given more than once")
    rng = np.random.default_rng(args.seed)
    rows = ["d,N,eps,measured_params,param_bound,error_ratio,growth_ratio"]
    counts = {(d, eps): [] for d in ds for eps in epss}
    for d in ds:
        drift = identity_net(d)
        growth_c = max(1.0, param_count(drift) / float(d) ** args.size_exp)
        for N in Ns:
            y = tuple(0.3 * rng.standard_normal((N, d)))
            for eps in epss:
                spec = EulerSpec(drift, args.T, N, y, eps, 3.0)
                rep = scaling_report(spec, growth_c, args.size_exp)
                vals = {e.name.split("_", 1)[1]: e for e in rep.entries}
                p = vals["param_bound"]
                err = vals["error_vs_bound_ratio"]
                gro = vals["growth_vs_bound_ratio"]
                counts[(d, eps)].append(int(p.measured))
                rows.append(
                    f"{d},{N},{eps!r},{int(p.measured)},{p.bound!r},"
                    f"{err.measured!r},{gro.measured!r}"
                )
    _write_text("\n".join(rows) + "\n", args.output)
    if len(Ns) > 1:
        for (d, eps), measured in counts.items():
            slope = float(np.polyfit(np.log(Ns), np.log(measured), 1)[0])
            print(f"# d={d} eps={eps:g}: log-log slope of params in N = {slope:.3f}",
                  file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anncalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a network and write it to a file")
    p.add_argument("--kind", required=True,
                   choices=["square-unit", "square", "product", "scalvec", "hat",
                            "identity", "euler-space", "spacetime"])
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=2.0)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--n", type=int, default=None, help="step index for euler-space")
    p.add_argument("--spec", default=None, help="JSON scheme file for euler kinds")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("op", help="apply an algebra operation to network files")
    p.add_argument("operation", choices=["compose", "parallel", "sum", "power", "extend"])
    p.add_argument("inputs", nargs="+")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--L", type=int, default=None)
    p.add_argument("--weights", default=None, help="comma-separated sum weights")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_op)

    p = sub.add_parser("eval", help="evaluate a network on points, CSV out")
    p.add_argument("network")
    p.add_argument("--act", choices=["relu", "identity"], default="relu")
    p.add_argument("--points", default=None, help="inline points 'x1,x2;y1,y2'")
    p.add_argument("--points-csv", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("info", help="print dims/L/H/P/I/O of a network file, or its layers")
    p.add_argument("network")
    p.add_argument("--layers", action="store_true",
                   help="one row per layer: form, shape, nonzeros, density and block plan")
    p.add_argument("--json", action="store_true", help="print one strict JSON document")
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"],
                   help="one suite, or all of them in turn with one combined report")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--csv", default=None)
    p.add_argument("--json", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("report", help="sweep scaling bounds, emit plot-ready CSV")
    p.add_argument("--sweep", required=True, choices=["thm1"])
    p.add_argument("--d", default="1,2")
    p.add_argument("--N", default="1,2,4")
    p.add_argument("--eps", default="1e-1,1e-2")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--size-exp", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, ShapeError, ParseError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
