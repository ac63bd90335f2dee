#!/usr/bin/env python3
"""anncalc benchmark: one workload, one seed, one process, one caller.

    python3 perfbench/run.py --workload verify --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; anncalc is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced run.  The line before it holds the workload's detailed timings.  Each
run also writes a run record (and, traced, the spans and the per-layer table
of the largest space-time net) under ``perfbench/out/``.

Exit status is 0 whenever a result line is printed; the ``correct`` field says
whether every output passed its check.  Without ``src/anncalc`` the benchmark
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
CPUS = len(os.sched_getaffinity(0))
# OpenBLAS runs one thread.  On a small shared machine a parallel product
# waits for its slowest core: a fixed series of 200x200 products swung
# several-fold with two threads while a neighbour held the other core.  The
# variable has to be set before numpy is first imported.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT_SPAN = "pass"


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _fresh_import():
    """Import anncalc anew: drop every loaded anncalc module first."""
    for name in [n for n in sys.modules if n == "anncalc" or n.startswith("anncalc.")]:
        del sys.modules[name]
    ac = importlib.import_module("anncalc")
    if Path(ac.__file__).resolve().parent != SRC / "anncalc":
        _fail(f"anncalc was imported from {ac.__file__}, not from {SRC}")
    return ac


def _quantiles(values) -> dict:
    """Median, the highest of p90/p95/p99/p99.9 with at least ten samples
    above it, and the sample count."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    out = {"median": float(np.median(v)), "n": int(len(v))}
    for p in (99.9, 99.0, 95.0, 90.0):
        if len(v) * (1.0 - p / 100.0) >= 10.0:
            out[f"p{p:g}"] = float(np.percentile(v, p))
            break
    return out


def _blas_threads():
    """Thread count OpenBLAS reports, asked of the copy bundled with numpy."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout's git metadata, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _line_count() -> int:
    """Lines of Python under src/ and scripts/, the size ROADMAP tracks."""
    total = 0
    for top in (ROOT / "src", ROOT / "scripts"):
        for path in sorted(top.rglob("*.py")) if top.is_dir() else ():
            with open(path, "rb") as fh:
                total += sum(1 for _ in fh)
    return total


def _environment(seed: int) -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": CPUS,
        "blas_threads": _blas_threads(),
        "src_scripts_lines": _line_count(),
    }


def _make_workload(name: str):
    return {
        "verify": workloads.Verify,
        "spacetime": workloads.Spacetime,
        "roundtrip": lambda: workloads.Roundtrip(OUT),
    }[name]()


def _no_span(name):
    return contextlib.nullcontext()


def _collect(series: dict, times: dict) -> None:
    """Append one pass's timings; a list holds several samples of a pass."""
    for key, v in times.items():
        series.setdefault(key, []).extend(v if isinstance(v, list) else [v])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "spacetime", "roundtrip"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not (SRC / "anncalc" / "__init__.py").is_file():
        _fail(f"no anncalc package under {SRC}; run from the root of a source checkout")
    sys.path.insert(0, str(SRC))

    wl = _make_workload(args.workload)
    attempted = failed = 0

    def checked(st, out):
        nonlocal attempted, failed
        a, f = wl.check(st, out)
        attempted += a
        failed += f

    # Set-up: import anncalc, build the inputs and call into every layer once;
    # repeated from a fresh import, and the last one is kept.  Then one
    # untimed pass fills whatever caches the workload itself reaches.
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ac = _fresh_import()
        st = wl.setup(ac, args.seed)
        workloads.warm_up(ac)
        setup_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    _, out = wl.run_pass(st, _no_span)
    warmup_s = time.perf_counter() - t0
    checked(st, out)

    series: dict[str, list] = {}
    env = _environment(args.seed)
    result_metrics: dict = {}
    record: dict = {"workload": args.workload, "trace": args.trace, "environment": env}

    if args.trace == 0:
        t_start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
            times, out = wl.run_pass(st, _no_span)
            _collect(series, times)
            checked(st, out)
            passes += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result_metrics = {
            "setup_s": {"value": float(np.median(setup_s)), "unit": "s"},
            "pass_s": {"value": float(np.median(series["pass_s"])), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        detail = {
            "setup_s": ("s", setup_s),
            "warmup_s": ("s", [warmup_s]),
            "error_rate": ("failed/attempted", [failed / attempted]),
            "peak_rss_mb": ("MiB", [peak_rss_mb]),
            **wl.detail(series),
        }
    else:
        tr = tracing.Tracer()
        plain, traced = [], []
        t_start = time.perf_counter()
        # Untraced and traced passes alternate so drift in machine speed
        # falls on both sides of the overhead estimate.
        while (len(traced) < MIN_TRACED_PASSES
               or time.perf_counter() - t_start < args.seconds):
            times, out = wl.run_pass(st, _no_span)
            plain.append(times["pass_s"])
            checked(st, out)
            tr.install()
            try:
                with tr.span(ROOT_SPAN):
                    times, out = wl.run_pass(st, tr.span)
            finally:
                tr.uninstall()
            traced.append(times["pass_s"])
            checked(st, out)
        overhead = float(np.median(traced) - np.median(plain))
        layer_metrics, sums = tr.aggregate(len(traced), ROOT_SPAN, overhead)
        total = sums["layer_self_ns"] + sums["bookkeeping_ns"] + sums["remainder_ns"]
        # The tracer's own consistency gate: self times and the remainder
        # must tile the traced wall time exactly (integer nanoseconds).
        attempted += 1
        failed += total != sums["wall_ns"]
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        result_metrics = {k: {"value": layer_metrics[k], "unit": units[k]} for k in units}
        detail = {
            "untraced_pass_s": ("s", plain),
            "traced_pass_s": ("s", traced),
        }
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tr.dump(OUT / f"spans-{stem}.npz")
        record["trace_sums"] = sums
        if isinstance(wl, workloads.Spacetime):
            table = wl.layer_table(st)
            record["layer_table"] = table
            _write_table(OUT / f"layers-{stem}-d4-N16.csv", table)

    if isinstance(wl, workloads.Verify):
        record["csv_sha256"] = wl.digests()
    summary = {
        k: {"unit": unit, **_quantiles(v)} for k, (unit, v) in detail.items()
    }
    record.update(
        attempted=attempted, failed=failed, error_rate=failed / attempted,
        detail=summary, metrics=result_metrics,
    )
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(json.dumps({"workload": args.workload, "environment": env, "detail": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


def _write_table(path: Path, rows: list[dict]) -> None:
    cols = list(rows[0])
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in cols) + "\n")


if __name__ == "__main__":
    sys.exit(main())
