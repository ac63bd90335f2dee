"""The three benchmark workloads.

Each workload is a closed loop with one caller.  ``setup`` builds the inputs
from the seed through the public API only; ``run_pass`` does the timed work
once and returns its timings and outputs; ``check`` verifies those outputs
outside the timed region and returns (attempted, failed) operation counts.

Why these three:

- ``verify`` is the paper's verification harness: thousands of tiny
  networks, bound by Python overhead in construction, oracle calls and
  per-call ``realize``.  No file I/O and no large matrix products.
- ``spacetime`` builds the headline space-time networks up to d=4, N=16,
  whose dense weights are under 1% nonzero, and evaluates them in batches
  and point by point: large-block ``ops`` and arithmetic-bound ``realize``.
- ``roundtrip`` writes and reads the ``.ann.json`` interchange format of
  three space-time nets: JSON and float conversion only, no BLAS, and the
  only workload that touches ``serialize``/``deserialize``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time

import numpy as np

SUITES = ("calculus", "square", "product", "scalvec", "euler", "spacetime", "thm1")

# Space-time grid and accuracy shared by the spacetime and roundtrip workloads.
SPACETIME_D = (1, 2, 4)
SPACETIME_N = (2, 4, 8, 16)
ROUNDTRIP_N = 8
EPS, Q, T = 1e-2, 3.0, 1.0
# The drift's hidden width is fixed so that net sizes, and with them the cost
# of a pass, do not depend on the seed; only the weights do.
DRIFT_WIDTH = 3
BATCH_POINTS = 256
SINGLE_POINTS = 48
SINGLE_NET = (4, 16)
LAYER_REPS = 5  # realize runs per layer in the traced per-layer table

BOUND_HEADROOM = 1e-9  # the suites' analytic-bound headroom
REALIZE_TOL = 1e-12  # the suites' realization-identity tolerance


def _drift(ac, rng, d: int):
    """Seeded two-layer drift R^d -> R^d with moderate growth."""
    w = DRIFT_WIDTH
    return ac.Network((
        ac.Layer(0.7 * rng.standard_normal((w, d)) / math.sqrt(d), 0.35 * rng.standard_normal(w)),
        ac.Layer(0.7 * rng.standard_normal((d, w)) / math.sqrt(w), 0.35 * rng.standard_normal(d)),
    ))


def _specs(ac, seed: int, Ns) -> dict:
    """EulerSpec per (d, N): one seeded drift per d, seeded perturbations y."""
    rng = np.random.default_rng([seed, 1])
    specs = {}
    for d in SPACETIME_D:
        drift = _drift(ac, rng, d)
        for N in Ns:
            y = tuple(0.4 * rng.standard_normal((N, d)))
            specs[(d, N)] = ac.EulerSpec(drift, T, N, y, EPS, Q)
    return specs


def _growth_constant(ac, drift) -> float:
    """Certified c with ||drift(x)|| <= c (1 + ||x||): value at 0 and the
    product of spectral norms both bound it."""
    at_zero = float(np.linalg.norm(ac.realize(drift, ac.RELU, np.zeros(drift.input_dim))))
    lip = 1.0
    for layer in drift.layers:
        lip *= float(np.linalg.norm(layer.weights, ord=2))
    return max(at_zero, lip)


def warm_up(ac) -> None:
    """Call into every layer once at the smallest size: construction, the
    oracle, realize, the file format and the verification helpers."""
    rng = np.random.default_rng(0)
    spec = ac.EulerSpec(_drift(ac, rng, 1), T, 1, (np.zeros(1),), 1e-1, Q)
    net = ac.spacetime_net(spec)
    ac.realize(net, ac.RELU, [[0.5, 0.1]])
    ac.euler_oracle(spec, 0.5, np.array([0.1]))
    ac.deserialize(ac.serialize(net))
    ac.halton(4, 2)


class Verify:
    name = "verify"

    def __init__(self):
        self.reference = None  # CSV lines of the run's first pass, per suite

    def setup(self, ac, seed: int) -> dict:
        return {"ac": ac, "seed": seed}

    def run_pass(self, st: dict, span) -> tuple[dict, dict]:
        ac, seed = st["ac"], st["seed"]
        times, reports = {}, {}
        t_pass = time.perf_counter()
        for suite in SUITES:
            with span(f"verification.{suite}"):
                t0 = time.perf_counter()
                reports[suite] = ac.run_suite(suite, seed)
                times[f"suite_{suite}_s"] = time.perf_counter() - t0
        times["pass_s"] = time.perf_counter() - t_pass
        return times, reports

    def check(self, st: dict, reports: dict) -> tuple[int, int]:
        """One op per check entry: fails unless it passed and its CSV line is
        byte-identical to the first pass of the run."""
        csvs = {s: r.to_csv().splitlines() for s, r in reports.items()}
        if self.reference is None:
            self.reference = csvs
        attempted = failed = 0
        for suite, report in reports.items():
            lines, ref = csvs[suite], self.reference[suite]
            for k, entry in enumerate(report.entries, start=1):
                same = k < len(ref) and lines[k] == ref[k]
                failed += not (entry.passed and same)
            missing = max(0, len(ref) - len(lines))
            attempted += len(report.entries) + missing
            failed += missing
        return attempted, failed

    def digests(self) -> dict:
        """SHA-256 of each suite's CSV, identical in traced and untraced runs."""
        return {
            suite: hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
            for suite, lines in self.reference.items()
        }

    def detail(self, series: dict) -> dict:
        out = {"verify_s": ("s", series["pass_s"])}
        for suite in SUITES:
            out[f"verify_{suite}_s"] = ("s", series[f"suite_{suite}_s"])
        return out


class Spacetime:
    name = "spacetime"

    def __init__(self):
        self.truth_seed = None  # seed the cached oracle values belong to

    def setup(self, ac, seed: int) -> dict:
        specs = _specs(ac, seed, SPACETIME_N)
        rng = np.random.default_rng([seed, 2])
        batches = {}
        for (d, N) in specs:
            t = rng.uniform(0.0, T, BATCH_POINTS)
            x = rng.uniform(-2.0, 2.0, (BATCH_POINTS, d))
            batches[(d, N)] = np.column_stack([t, x])
        return {"ac": ac, "seed": seed, "specs": specs, "batches": batches}

    def run_pass(self, st: dict, span) -> tuple[dict, dict]:
        ac = st["ac"]
        build, batch, points = [], [], []
        values, singles = {}, []
        t_pass = time.perf_counter()
        for key, spec in st["specs"].items():
            t0 = time.perf_counter()
            net = ac.spacetime_net(spec)
            t1 = time.perf_counter()
            values[key] = ac.realize(net, ac.RELU, st["batches"][key])
            t2 = time.perf_counter()
            build.append(t1 - t0)
            batch.append(t2 - t1)
            if key == SINGLE_NET:
                for p in st["batches"][key][:SINGLE_POINTS]:
                    t3 = time.perf_counter()
                    singles.append(ac.realize(net, ac.RELU, p))
                    points.append((time.perf_counter() - t3) * 1e3)
            del net
        pass_s = time.perf_counter() - t_pass
        n_batch = sum(len(b) for b in st["batches"].values())
        times = {
            "pass_s": pass_s,
            "build_s": sum(build),
            "realize_batch_pts_per_s": n_batch / sum(batch),
            "realize_point_ms": points,
        }
        return times, {"values": values, "singles": singles}

    def _reference(self, st: dict) -> None:
        """Oracle values and the pointwise error bound of every batch point,
        as the spacetime suite states them; computed once per seed."""
        if self.truth_seed == st["seed"]:
            return
        ac = st["ac"]
        self.truth, self.err_bound = {}, {}
        growth = {}
        for (d, N), spec in st["specs"].items():
            if d not in growth:
                growth[d] = _growth_constant(ac, spec.drift)
            c = growth[d]
            inputs = ac.GrowthBoundInputs.from_steps(c, c, [(T / N) * np.eye(d)] * N, spec.y)
            times = spec.times()
            pts = st["batches"][(d, N)]
            truth = np.empty((len(pts), d))
            bound = np.empty(len(pts))
            for k, (t, *x) in enumerate(pts):
                x = np.asarray(x)
                truth[k] = ac.euler_oracle(spec, float(t), x)
                n = max(min(int(np.searchsorted(times, t, side="right")) - 1, N - 1), 0)
                xn = float(np.linalg.norm(x))
                gn = ac.gronwall_bound(inputs, xn, n)
                gn1 = ac.gronwall_bound(inputs, xn, n + 1)
                bound[k] = spec.epsilon * (2.0 * math.sqrt(d) + gn**spec.q + gn1**spec.q)
            self.truth[(d, N)], self.err_bound[(d, N)] = truth, bound
        self.truth_seed = st["seed"]

    def check(self, st: dict, out: dict) -> tuple[int, int]:
        """One op per evaluated point.  A batch point fails if its error
        against the oracle exceeds the suite's pointwise bound; a single
        point fails if it differs from its batch value by more than 1e-12."""
        self._reference(st)
        attempted = failed = 0
        for key, vals in out["values"].items():
            err = np.linalg.norm(vals - self.truth[key], axis=1) / self.err_bound[key]
            attempted += len(err)
            failed += int(np.count_nonzero(~(err <= 1.0 + BOUND_HEADROOM)))
        ref = out["values"][SINGLE_NET]
        for k, v in enumerate(out["singles"]):
            attempted += 1
            failed += not float(np.max(np.abs(v - ref[k]))) <= REALIZE_TOL
        return attempted, failed

    def detail(self, series: dict) -> dict:
        return {
            "build_s": ("s", series["build_s"]),
            "realize_batch_pts_per_s": ("points/s", series["realize_batch_pts_per_s"]),
            "realize_point_ms": ("ms", series["realize_point_ms"]),
        }

    def layer_table(self, st: dict) -> list[dict]:
        """Per-layer shape, sparsity, arithmetic and realize time of the
        d=4, N=16 net, each layer timed alone on its input from the batch."""
        ac = st["ac"]
        net = ac.spacetime_net(st["specs"][SINGLE_NET])
        pts = st["batches"][SINGLE_NET]
        states = ac.forward_states(net, ac.RELU, pts)
        rows = []
        for k, layer in enumerate(net.layers):
            one = ac.Network((layer,))
            samples = []
            for _ in range(LAYER_REPS):
                t0 = time.perf_counter()
                ac.realize(one, ac.RELU, states[k])
                samples.append(time.perf_counter() - t0)
            nnz = int(np.count_nonzero(layer.weights))
            size = layer.rows * layer.cols
            rows.append({
                "layer": k,
                "rows": layer.rows,
                "cols": layer.cols,
                "nnz": nnz,
                "density": nnz / size,
                "dense_mults": len(pts) * size,
                "nnz_mults": len(pts) * nnz,
                "realize_ms": float(np.median(samples)) * 1e3,
            })
        return rows


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in file")


class Roundtrip:
    name = "roundtrip"

    def __init__(self, out_dir):
        self.out_dir = out_dir

    def setup(self, ac, seed: int) -> dict:
        specs = _specs(ac, seed, (ROUNDTRIP_N,))
        nets = {key: ac.spacetime_net(spec) for key, spec in specs.items()}
        return {"ac": ac, "nets": nets}

    def run_pass(self, st: dict, span) -> tuple[dict, dict]:
        ac = st["ac"]
        save, load, loaded, paths = [], [], {}, {}
        os.makedirs(self.out_dir, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="roundtrip-", dir=self.out_dir)
        t_pass = time.perf_counter()
        for (d, N), net in st["nets"].items():
            path = paths[(d, N)] = os.path.join(tmp, f"spacetime-d{d}-N{N}.ann.json")
            t0 = time.perf_counter()
            ac.save_network(net, path)
            t1 = time.perf_counter()
            loaded[(d, N)] = ac.load_network(path)
            t2 = time.perf_counter()
            save.append(t1 - t0)
            load.append(t2 - t1)
        pass_s = time.perf_counter() - t_pass
        times = {
            "pass_s": pass_s,
            "save_s": sum(save),
            "load_s": sum(load),
            "file_bytes": float(sum(os.path.getsize(p) for p in paths.values())),
        }
        return times, {"dir": tmp, "paths": paths, "loaded": loaded}

    def check(self, st: dict, out: dict) -> tuple[int, int]:
        """One op per file: fails unless it is strict JSON and reads back as
        a network bit-identical to the one saved."""
        attempted = failed = 0
        try:
            for key, path in out["paths"].items():
                attempted += 1
                try:
                    with open(path, "rb") as fh:
                        json.loads(fh.read(), parse_constant=_reject_constant)
                except ValueError:
                    failed += 1
                    continue
                failed += not st["ac"].networks_equal(out["loaded"][key], st["nets"][key])
        finally:
            for path in out["paths"].values():
                if os.path.exists(path):
                    os.remove(path)
            os.rmdir(out["dir"])
        return attempted, failed

    def detail(self, series: dict) -> dict:
        return {
            "save_s": ("s", series["save_s"]),
            "load_s": ("s", series["load_s"]),
            "file_bytes": ("bytes", series["file_bytes"]),
        }
