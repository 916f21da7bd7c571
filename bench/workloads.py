"""The four workloads: inputs made from the seed, one round of program calls,
and the checks of that round's outputs.

A round is one user's whole task, issued closed-loop: each program call
starts after the previous one returned. Only the program calls are timed;
the benchmark's own file handling between them is not. Every round of a run
repeats the same operations on the same inputs.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from hopftda import cli, persistence
from hopftda.embedding import PointCloud
from hopftda.lyapunov import LyapunovConfig

TAGS = ("untraced", "traced")


@dataclass
class RoundResult:
    seconds: float  # time inside program calls
    attempted: int
    failed: int


def default_jobs() -> int:
    """The CLI's default worker count (os.cpu_count()), capped at the CPUs
    this process may run on."""
    jobs = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        jobs = min(jobs, len(os.sched_getaffinity(0)))
    return max(jobs, 1)


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def read_diagram_csv(path: str) -> List[Tuple[int, float, float]]:
    with open(path) as fh:
        lines = fh.read().split()
    if not lines or lines[0] != "dim,birth,death":
        raise ValueError(f"{path}: not a diagram CSV")
    rows = []
    for line in lines[1:]:
        dim, birth, death = line.split(",")
        rows.append((int(dim), float(birth), float(death)))
    return rows


def read_matrix_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().split()
    return np.array([[float(c) for c in line.split(",")] for line in lines[1:]])


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir

    def prepare(self) -> None:
        """Make the inputs from the seed (after set-up, before timing)."""

    def run_round(self, tag: str, traced: bool) -> RoundResult:
        raise NotImplementedError

    def check(self, tags: List[str]) -> List[str]:
        """Check the outputs the given tags' last rounds left on disk."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sweeps through cli.run_case


class SweepWorkload(Workload):
    config_name = ""
    overrides: Dict[str, object] = {}

    def __init__(self, seed: int, out_dir: str, jobs: int):
        super().__init__(seed, out_dir)
        base = replace(cli.bundled_config(self.config_name), seed=seed, **self.overrides)
        # replace() re-runs the config's validation
        self.configs = {tag: replace(base, out_dir=os.path.join(out_dir, tag)) for tag in TAGS}
        self.jobs = jobs

    def run_round(self, tag: str, traced: bool) -> RoundResult:
        config = self.configs[tag]
        shutil.rmtree(config.out_dir, ignore_errors=True)
        # the traced run is serial so that every span lands in this process
        _, seconds = _timed(cli.run_case, config, jobs=1 if traced else self.jobs)
        points = [p for entry in self.summary(tag)["noise"] for p in entry["points"]]
        failed = sum(1 for p in points if p["status"] != "ok")
        return RoundResult(seconds, len(points), failed)

    def summary(self, tag: str) -> dict:
        with open(os.path.join(self.configs[tag].out_dir, "summary.json")) as fh:
            return json.load(fh)

    def artifacts(self, tag: str) -> Dict[str, bytes]:
        """sweep.csv and diagram_*.csv of every level, by relative path."""
        root = self.configs[tag].out_dir
        files = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name == "sweep.csv" or (name.startswith("diagram_") and name.endswith(".csv")):
                    path = os.path.join(dirpath, name)
                    with open(path, "rb") as fh:
                        files[os.path.relpath(path, root)] = fh.read()
        return files


class SweepHopf(SweepWorkload):
    name = "sweep_hopf"
    config_name = "case_a"

    def __init__(self, seed: int, out_dir: str, jobs: int):
        super().__init__(seed, out_dir, jobs=1)

    def check(self, tags: List[str]) -> List[str]:
        from checks import check_hopf_sweep

        errors = []
        for tag in tags:
            entry = self.summary(tag)["noise"][0]
            config = self.configs[tag]
            step = (config.sweep_max - config.sweep_min) / (config.sweep_count - 1)
            if entry["status"] != "ok":
                errors.append(f"{tag}: sweep status {entry['status']!r}")
                continue
            ok = [p for p in entry["points"] if p["status"] == "ok"]
            errors += [f"{tag}: {e}" for e in check_hopf_sweep(
                [p["mu"] for p in ok], [p["H"] for p in ok], entry["mu_hat"], step)]
        return errors


class SweepLorenzNoise(SweepWorkload):
    name = "sweep_lorenz_noise"
    config_name = "case_b"
    # case_b's three noise levels on a coarser grid: 16 and 20 collapse to a
    # fixed point, 24 and above oscillate
    overrides = {"sweep_min": 16.0, "sweep_max": 32.0, "sweep_count": 5}

    def check(self, tags: List[str]) -> List[str]:
        from checks import check_lorenz_levels, check_same_bytes

        errors = []
        for tag in tags:
            errors += [f"{tag}: {e}" for e in check_lorenz_levels(self.summary(tag)["noise"])]
        if set(TAGS) <= set(tags):
            errors += check_same_bytes(self.artifacts("untraced"), self.artifacts("traced"))
        return errors


# ---------------------------------------------------------------------------
# hopftda lyapunov over grids of all three systems


class LyapunovGrid(Workload):
    name = "lyapunov_grid"
    # (system, fixed parameters, swept parameter, min, max, count); hopf mu = 0
    # lies on the critical value, where largest_lyapunov doubles its budget
    GRIDS = (
        ("hopf", {}, "mu", -0.5, 0.5, 3),
        ("bz", {"a": 10.0}, "b", 2.5, 4.5, 2),
        ("lorenz", {}, "rho", 20.0, 28.0, 2),
    )
    STEPS, TRANSIENT = 50_000, 10_000

    def __init__(self, seed: int, out_dir: str, jobs: int):
        super().__init__(seed, out_dir)
        LyapunovConfig(n_steps=self.STEPS, transient_steps=self.TRANSIENT, seed=seed)
        self.argvs = {}
        for tag in TAGS:
            self.argvs[tag] = []
            for system, fixed, swept, lo, hi, count in self.GRIDS:
                argv = ["lyapunov", "--system", system, "--sweep-param", swept,
                        "--min", repr(lo), "--max", repr(hi), "--count", str(count),
                        "--steps", str(self.STEPS), "--transient", str(self.TRANSIENT),
                        "--seed", str(seed)]
                for name, value in fixed.items():
                    argv += [f"--{name}", repr(value)]
                # the output path stays last: run_round and check read it back
                self.argvs[tag].append(argv + ["--out", os.path.join(out_dir, tag, f"{system}.csv")])

    def _values(self, path: str) -> List[Tuple[float, float]]:
        if not os.path.exists(path):
            return []
        return [(float(a), float(b)) for a, b in read_matrix_csv(path)]

    def run_round(self, tag: str, traced: bool) -> RoundResult:
        fresh_dir(os.path.join(self.out_dir, tag))
        seconds, attempted, failed = 0.0, 0, 0
        for argv, (_, _, _, _, _, count) in zip(self.argvs[tag], self.GRIDS):
            code, dt = _timed(cli.main, argv)
            seconds += dt
            written = len(self._values(argv[-1])) if code == 0 else 0
            attempted += count
            failed += count - written
        return RoundResult(seconds, attempted, failed)

    def check(self, tags: List[str]) -> List[str]:
        from checks import check_exponents

        errors = []
        for tag in tags:
            for argv, (system, fixed, _, lo, hi, count) in zip(self.argvs[tag], self.GRIDS):
                grid = np.round(np.linspace(lo, hi, count), 12)
                errors += [f"{tag}: {e}" for e in check_exponents(
                    system, fixed, self._values(argv[-1]), [float(g) for g in grid])]
        return errors


# ---------------------------------------------------------------------------
# embed --auto | persist | bottleneck_distance against a perturbed copy


class PersistChain(Workload):
    name = "persist_chain"
    N_SAMPLES = 3000
    NOISE = 0.02  # uniform noise bound, relative to the amplitude
    # The shape of the series is the same on every seed; the seed sets its
    # amplitude and the perturbation. The period (in samples) fixes the delay
    # and dimension embed --auto picks (4 and 4), and with them the Rips work:
    # the reduction's time and peak memory move by +-12% with the phase or
    # noise draw alone. The period is not an integer, so no two samples
    # repeat, and about 30 times the delay, so the embedded ellipse is flat
    # and its loop dies at a fifth of the diameter, keeping n = 400 affordable.
    PERIOD = 119.37
    PHASE = 0.3
    SHAPE_SEED = 0  # noise draw and landmark start

    def __init__(self, seed: int, out_dir: str, jobs: int):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        self.r = float(rng.uniform(0.5, 2.0))
        self.scale = 1.0 + float(rng.uniform(0.01, 0.02))
        self.noise = np.random.default_rng(self.SHAPE_SEED).uniform(-1.0, 1.0, self.N_SAMPLES)
        self.series_path = os.path.join(out_dir, "series.csv")
        self.d_b: Dict[str, float] = {}

    def prepare(self) -> None:
        k = np.arange(self.N_SAMPLES)
        self.series = (self.r * np.cos(2 * np.pi * k / self.PERIOD + self.PHASE)
                       + self.NOISE * self.r * self.noise)
        lines = ["t,x"] + [f"{0.01 * i!r},{float(v)!r}" for i, v in enumerate(self.series)]
        with open(self.series_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def _paths(self, tag: str) -> Dict[str, str]:
        d = os.path.join(self.out_dir, tag)
        return {key: os.path.join(d, f"{key}.csv")
                for key in ("cloud", "cloud_scaled", "diagram", "diagram_scaled")}

    def run_round(self, tag: str, traced: bool) -> RoundResult:
        fresh_dir(os.path.join(self.out_dir, tag))
        self.d_b.pop(tag, None)
        p = self._paths(tag)
        seed = ["--seed", str(self.SHAPE_SEED)]
        code, seconds = _timed(cli.main, ["embed", "--in", self.series_path, "--auto",
                                          "--out", p["cloud"]])
        if code != 0:
            return RoundResult(seconds, 3, 3)
        code1, dt = _timed(cli.main, ["persist", "--in", p["cloud"], *seed, "--out", p["diagram"]])
        seconds += dt
        with open(p["cloud"]) as fh:
            header = fh.readline()
        scaled = read_matrix_csv(p["cloud"]) * self.scale
        with open(p["cloud_scaled"], "w") as fh:
            fh.write(header + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in scaled))
        code2, dt = _timed(cli.main, ["persist", "--in", p["cloud_scaled"], *seed,
                                      "--out", p["diagram_scaled"]])
        seconds += dt
        failed = int(code1 != 0) + int(code2 != 0)
        if failed:
            return RoundResult(seconds, 3, failed + 1)
        d1 = _diagram(read_diagram_csv(p["diagram"]))
        d2 = _diagram(read_diagram_csv(p["diagram_scaled"]))
        d_b, dt = _timed(persistence.bottleneck_distance, d1, d2, 1)
        seconds += dt
        self.d_b[tag] = d_b
        return RoundResult(seconds, 3, int(not math.isfinite(d_b)))

    def check(self, tags: List[str]) -> List[str]:
        from checks import check_dominant_bar, check_stability, ellipse_axes, hausdorff_to_ellipse

        errors = []
        for tag in tags:
            p = self._paths(tag)
            cloud = read_matrix_csv(p["cloud"])
            m = cloud.shape[1]
            if m < 2:
                errors.append(f"{tag}: embedding dimension {m} has no loop")
                continue
            # x[tau] is the second-to-last coordinate of the first point
            where = np.nonzero(self.series == cloud[0, m - 2])[0]
            if where.size == 0 or tag not in self.d_b:
                errors.append(f"{tag}: cloud does not come from the series, or no distance")
                continue
            tau = int(where[0])
            n_max = persistence.DEFAULT_N_MAX
            marks = persistence.maxmin_subsample(
                PointCloud(cloud), n_max=n_max, seed=self.SHAPE_SEED).points
            marks_scaled = persistence.maxmin_subsample(
                PointCloud(read_matrix_csv(p["cloud_scaled"])),
                n_max=n_max, seed=self.SHAPE_SEED).points
            cross = np.sqrt(((marks[:, None, :] - marks_scaled[None, :, :]) ** 2).sum(axis=2))
            delta = max(float(cross.min(axis=0).max()), float(cross.min(axis=1).max()))
            errors += [f"{tag}: {e}" for e in check_stability(self.d_b[tag], delta)]
            mat, a, b = ellipse_axes(self.r, 2 * np.pi * tau / self.PERIOD, m)
            eps = hausdorff_to_ellipse(marks, mat)
            rows = read_diagram_csv(p["diagram"])
            errors += [f"{tag}: {e}" for e in check_dominant_bar(rows, a, b, eps)]
        return errors


def _diagram(rows):
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return persistence.PersistenceDiagram(dims=arr[:, 0].astype(np.int64),
                                          births=arr[:, 1], deaths=arr[:, 2])


WORKLOADS = {w.name: w for w in (SweepHopf, SweepLorenzNoise, LyapunovGrid, PersistChain)}
