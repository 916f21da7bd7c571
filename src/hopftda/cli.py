"""Command-line front end: subcommands over the pipeline plus canned sweeps.

Numbers in sweep artifacts use the shortest decimal that round-trips the
double, so reruns diff cleanly; simulate output uses 17 significant digits.
summary.json is byte-stable across identical runs; wall-clock numbers go to
a separate timings.json for that reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dynsys import (
    SYSTEMS,
    IntegrationDiverged,
    NoiseSpec,
    SystemParams,
    TimeSeries,
    TrajectoryConfig,
    add_noise,
    integrate,
)
from .embedding import (
    DEFAULT_MAX_LAG,
    DEFAULT_N_BINS,
    EmbeddingParams,
    PointCloud,
    delay_embed,
    select_delay,
    select_dimension,
)
from .functional import PersistenceConfig, delta_series, estimate_critical, sweep_levels
from .lyapunov import LyapunovConfig, correlate_sweep, largest_lyapunov
from .persistence import (
    DEFAULT_N_MAX,
    maxmin_subsample,
    pairwise_distances,
    rips_persistence,
)
from . import functional

logger = logging.getLogger(__name__)

# one --flag per parameter name of any system, in declaration order
_PARAM_FLAGS = tuple(dict.fromkeys(f.name for cls in SYSTEMS.values() for f in fields(cls)))

SWEEP_HEADER = ("mu", "H", "betti_l1", "delta_H")
DIAGRAM_HEADER = ("dim", "birth", "death")


def _fmt(x: float) -> str:
    """Shortest decimal that parses back to the same double."""
    return repr(float(x))


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# experiment configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible sweep: system, grid, integration, embedding, seeds."""

    system: str
    sweep_name: str
    sweep_min: float
    sweep_max: float
    sweep_count: int
    fixed: Tuple[Tuple[str, float], ...] = ()
    dt: float = 0.01
    n_steps: int = 20_000
    transient_steps: int = 10_000
    noise_levels: Tuple[float, ...] = (0.0,)
    embedding_mode: str = "fixed"
    tau: Optional[int] = None
    m: Optional[int] = None
    max_lag: int = DEFAULT_MAX_LAG
    n_max: int = 200
    eps_grid_size: int = 64
    seed: int = 0
    out_dir: str = "results"
    critical_reference: Optional[float] = None

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}; expected one of {sorted(SYSTEMS)}")
        for name, _ in self.fixed:
            if name == self.sweep_name:
                raise ValueError(f"fixed parameter {name!r} collides with the sweep parameter")
        _check_params(self.system, [self.sweep_name] + [name for name, _ in self.fixed])
        if self.sweep_count < 2:
            raise ValueError(f"sweep count must be >= 2, got {self.sweep_count}")
        if not self.sweep_min < self.sweep_max:
            raise ValueError("sweep min must be < max")
        if not self.noise_levels:
            raise ValueError("need at least one noise level")
        for s in self.noise_levels:
            if s < 0:
                raise ValueError(f"noise levels must be >= 0, got {s}")
        if self.embedding_mode not in ("fixed", "auto"):
            raise ValueError(f"embedding mode must be 'fixed' or 'auto', got {self.embedding_mode!r}")
        if self.embedding_mode == "fixed" and (self.tau is None or self.m is None):
            raise ValueError("fixed embedding mode requires tau and m")
        if self.n_max < 2:
            raise ValueError(f"n_max must be >= 2, got {self.n_max}")
        if self.eps_grid_size < 2:
            raise ValueError(f"eps_grid_size must be >= 2, got {self.eps_grid_size}")
        # TrajectoryConfig re-validates dt/steps; fail here, before any work
        TrajectoryConfig(dt=self.dt, n_steps=self.n_steps, transient_steps=self.transient_steps)

    def grid(self) -> np.ndarray:
        # rounding keeps csv values like 0.1 instead of 0.10000000000000009
        g = np.round(np.linspace(self.sweep_min, self.sweep_max, self.sweep_count), 12)
        if np.any(np.diff(g) <= 0):
            raise ValueError("sweep grid is not strictly ascending at 12-decimal resolution")
        return g

    def embedding(self) -> Optional[EmbeddingParams]:
        if self.embedding_mode == "fixed":
            return EmbeddingParams(tau=int(self.tau), m=int(self.m))
        return None

    def params_at(self, value: float) -> SystemParams:
        kwargs = {name: v for name, v in self.fixed}
        kwargs[self.sweep_name] = float(value)
        return SYSTEMS[self.system](**kwargs)

    def to_dict(self) -> dict:
        return {
            "system": self.system,
            "fixed": {name: v for name, v in self.fixed},
            "sweep": {
                "name": self.sweep_name,
                "min": self.sweep_min,
                "max": self.sweep_max,
                "count": self.sweep_count,
            },
            "dt": self.dt,
            "n_steps": self.n_steps,
            "transient_steps": self.transient_steps,
            "noise_levels": list(self.noise_levels),
            "embedding": (
                {"mode": "fixed", "tau": self.tau, "m": self.m}
                if self.embedding_mode == "fixed"
                else {"mode": "auto", "max_lag": self.max_lag}
            ),
            "n_max": self.n_max,
            "eps_grid_size": self.eps_grid_size,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "critical_reference": self.critical_reference,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            sweep = d["sweep"]
            emb = d.get("embedding", {"mode": "auto"})
            kwargs = dict(
                system=d["system"],
                sweep_name=sweep["name"],
                sweep_min=float(sweep["min"]),
                sweep_max=float(sweep["max"]),
                sweep_count=int(sweep["count"]),
                fixed=tuple(sorted((k, float(v)) for k, v in d.get("fixed", {}).items())),
                noise_levels=tuple(float(s) for s in d.get("noise_levels", [0.0])),
                embedding_mode=emb.get("mode", "fixed"),
            )
            if kwargs["embedding_mode"] == "fixed":
                kwargs["tau"] = int(emb["tau"])
                kwargs["m"] = int(emb["m"])
            elif "max_lag" in emb:
                kwargs["max_lag"] = int(emb["max_lag"])
        except KeyError as exc:
            raise ValueError(f"config is missing required key {exc}") from None
        for key in ("dt", "critical_reference"):
            if d.get(key) is not None:
                kwargs[key] = float(d[key])
        for key in ("n_steps", "transient_steps", "n_max", "eps_grid_size", "seed"):
            if key in d:
                kwargs[key] = int(d[key])
        if "out_dir" in d:
            kwargs["out_dir"] = str(d["out_dir"])
        return cls(**kwargs)


def bundled_config(name: str) -> ExperimentConfig:
    """Load one of the packaged experiment configs (case_a, case_b, case_c)."""
    ref = resources.files("hopftda.configs").joinpath(f"{name}.json")
    try:
        text = ref.read_text()
    except FileNotFoundError:
        raise ValueError(f"no bundled config named {name!r}") from None
    return ExperimentConfig.from_dict(json.loads(text))


def load_config(path: str) -> ExperimentConfig:
    """Read a config from a JSON file, or from the bundle by bare name."""
    if not os.path.isfile(path) and "/" not in path and not path.endswith(".json"):
        return bundled_config(path)
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# sweep execution


def _check_params(system: str, names: Sequence[str]) -> None:
    """Reject names the system's record lacks, and required ones left out."""
    declared = fields(SYSTEMS[system])
    known = {f.name for f in declared}
    for name in names:
        if name not in known:
            raise ValueError(f"{system} has no parameter {name!r}")
    missing = [f.name for f in declared if f.default is MISSING and f.name not in names]
    if missing:
        raise ValueError(f"{system} parameters: missing required {', '.join(missing)}")


@dataclass(frozen=True)
class _CleanSeries:
    """Picklable series factory of a config: the clean observed series at a value."""

    config: ExperimentConfig

    def __call__(self, value: float) -> TimeSeries:
        c = self.config
        traj = TrajectoryConfig(dt=c.dt, n_steps=c.n_steps, transient_steps=c.transient_steps)
        return integrate(c.params_at(value), traj)


def _write_sweep_csv(path: str, mus: Sequence[float], hs: Sequence[float], l1s: Sequence[float]):
    deltas = delta_series(hs)
    lines = [",".join(SWEEP_HEADER)]
    for i, (mu, h, l1) in enumerate(zip(mus, hs, l1s)):
        d = "" if i == 0 else _fmt(deltas[i - 1])
        lines.append(f"{_fmt(mu)},{_fmt(h)},{_fmt(l1)},{d}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_diagram_csv(path: str, rows: Sequence[Tuple[int, float, float]]):
    lines = [",".join(DIAGRAM_HEADER)]
    for dim, birth, death in rows:
        lines.append(f"{int(dim)},{_fmt(birth)},{_fmt(death)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_case(config: ExperimentConfig, jobs: int = 1) -> int:
    """Execute the configured sweep at every noise level and write artifacts.

    Returns a process exit code: 0 when every noise level produced a sweep,
    1 when any level failed (partial outputs are kept either way).
    """
    t_start = time.perf_counter()
    os.makedirs(config.out_dir, exist_ok=True)
    if not os.access(config.out_dir, os.W_OK):
        raise ValueError(f"output directory {config.out_dir!r} is not writable")

    grid = config.grid()
    pcfg = PersistenceConfig(n_max=config.n_max, seed=config.seed,
                             eps_grid_size=config.eps_grid_size)
    timings: dict = {}
    results = sweep_levels(grid, _CleanSeries(config), config.noise_levels,
                           config.embedding(), pcfg, jobs=jobs, timings=timings)
    t_render = time.perf_counter()
    multi = len(config.noise_levels) > 1
    entries = []
    for v, (sigma, res) in enumerate(zip(config.noise_levels, results)):
        subdir = f"noise_{v:02d}" if multi else "."
        out = os.path.join(config.out_dir, subdir) if multi else config.out_dir
        os.makedirs(out, exist_ok=True)
        kept = dict(zip(res.params.tolist(), zip(res.h_values, res.betti_l1, res.diagrams)))
        reasons = dict(res.failures)
        points = []
        for j, mu in enumerate(grid.tolist()):
            if mu not in kept:
                points.append({"mu": mu, "status": f"failed: {reasons[mu]}"})
                continue
            h, l1, diagram = kept[mu]
            _write_diagram_csv(os.path.join(out, f"diagram_{j:02d}.csv"), diagram.rows())
            points.append({"mu": mu, "status": "ok", "H": float(h), "betti_l1": float(l1)})
        if res.mu_hat is not None:
            csv_path = os.path.join(out, "sweep.csv")
            _write_sweep_csv(csv_path, res.params, res.h_values, res.betti_l1)
            render_svg(csv_path, os.path.join(out, "sweep.svg"), config.critical_reference)
        entries.append({"sigma_rel": float(sigma), "points": points, "status": res.status,
                        "mu_hat": res.mu_hat, "dir": subdir})
        logger.info("noise level %g: %s (mu_hat=%s)", sigma, res.status, res.mu_hat)
    timings["render_s"] = time.perf_counter() - t_render

    summary = {
        "config": config.to_dict(),
        "mu_hat": entries[0]["mu_hat"],
        "noise": entries,
    }
    with open(os.path.join(config.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    timings["total_s"] = time.perf_counter() - t_start
    with open(os.path.join(config.out_dir, "timings.json"), "w") as fh:
        json.dump(timings, fh, indent=2)
        fh.write("\n")
    return 0 if all(e["status"] == "ok" for e in entries) else 1


# ---------------------------------------------------------------------------
# csv io


def _read_csv(path: str, expect_header: Sequence[str]) -> List[List[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if header != list(expect_header):
        raise ValueError(f"{path}: expected header {','.join(expect_header)}, got {','.join(header)}")
    return rows[1:]


def _cell(path: str, row_num: int, name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"{path}: row {row_num}: non-numeric value {text!r} in column {name}"
        ) from None


def read_sweep_csv(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a sweep CSV back into (mu, H, betti_l1) arrays."""
    body = _read_csv(path, SWEEP_HEADER)
    if len(body) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(body)}")
    mus, hs, l1s = [], [], []
    for i, row in enumerate(body):
        row_num = i + 2  # 1-based, counting the header row
        if len(row) != 4:
            raise ValueError(f"{path}: row {row_num}: expected 4 cells, got {len(row)}")
        mus.append(_cell(path, row_num, "mu", row[0]))
        hs.append(_cell(path, row_num, "H", row[1]))
        l1s.append(_cell(path, row_num, "betti_l1", row[2]))
        if i == 0:
            if row[3] != "":
                raise ValueError(f"{path}: row {row_num}: first delta_H cell must be empty")
        else:
            _cell(path, row_num, "delta_H", row[3])
    return np.array(mus), np.array(hs), np.array(l1s)


def read_series_csv(path: str) -> TimeSeries:
    body = _read_csv(path, ("t", "x"))
    if len(body) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    ts, xs = [], []
    for i, row in enumerate(body):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i + 2}: expected 2 cells, got {len(row)}")
        ts.append(_cell(path, i + 2, "t", row[0]))
        xs.append(_cell(path, i + 2, "x", row[1]))
    # dt from the first gap; only the values drive the pipeline downstream
    return TimeSeries(t0=ts[0], dt=ts[1] - ts[0], values=np.array(xs))


def read_cloud_csv(path: str) -> PointCloud:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    if not header or header != [f"x{k}" for k in range(len(header))]:
        raise ValueError(f"{path}: expected header x0,x1,...")
    pts = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2}: expected {len(header)} cells, got {len(row)}")
        pts.append([_cell(path, i + 2, header[k], c) for k, c in enumerate(row)])
    if not pts:
        raise ValueError(f"{path}: no points")
    return PointCloud(points=np.array(pts))


# ---------------------------------------------------------------------------
# svg rendering

_SVG_W, _SVG_H = 640, 400
_ML, _MR, _MT, _MB = 56, 16, 16, 44


def render_svg(csv_path: str, svg_path: str, critical_reference: Optional[float] = None) -> str:
    """Plot H against the parameter as a deterministic standalone SVG.

    Dashed vertical markers show the estimated transition and, when given,
    the known critical reference. Identical inputs give identical bytes.
    """
    mus, hs, _ = read_sweep_csv(csv_path)
    mu_hat = estimate_critical(mus, hs)

    x0, x1 = float(mus[0]), float(mus[-1])
    y0 = 0.0
    y1 = float(max(hs.max() * 1.06, 1e-9))
    inner_w = _SVG_W - _ML - _MR
    inner_h = _SVG_H - _MT - _MB

    def px(v: float) -> str:
        return format(_ML + (v - x0) / (x1 - x0) * inner_w, ".2f")

    def py(v: float) -> str:
        return format(_SVG_H - _MB - (v - y0) / (y1 - y0) * inner_h, ".2f")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect x="0" y="0" width="{_SVG_W}" height="{_SVG_H}" fill="#ffffff"/>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" y2="{_SVG_H - _MB}" '
        'stroke="#222222" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" '
        'stroke="#222222" stroke-width="1"/>',
        f'<text x="{_ML}" y="{_SVG_H - _MB + 18}" font-size="12" font-family="monospace" '
        f'text-anchor="middle">{x0:g}</text>',
        f'<text x="{_SVG_W - _MR}" y="{_SVG_H - _MB + 18}" font-size="12" '
        f'font-family="monospace" text-anchor="middle">{x1:g}</text>',
        f'<text x="{_ML - 6}" y="{_SVG_H - _MB + 4}" font-size="12" font-family="monospace" '
        f'text-anchor="end">{y0:g}</text>',
        f'<text x="{_ML - 6}" y="{_MT + 4}" font-size="12" font-family="monospace" '
        f'text-anchor="end">{y1:.3g}</text>',
        f'<text x="{_ML + inner_w / 2:.0f}" y="{_SVG_H - 8}" font-size="13" '
        'font-family="monospace" text-anchor="middle">parameter</text>',
        f'<text x="14" y="{_MT + inner_h / 2:.0f}" font-size="13" font-family="monospace" '
        f'text-anchor="middle" transform="rotate(-90 14 {_MT + inner_h / 2:.0f})">H</text>',
    ]
    if critical_reference is not None and x0 <= critical_reference <= x1:
        cx = px(float(critical_reference))
        parts.append(
            f'<line class="critical" x1="{cx}" y1="{_MT}" x2="{cx}" y2="{_SVG_H - _MB}" '
            'stroke="#777777" stroke-width="1" stroke-dasharray="2 3"/>'
        )
    mx = px(float(mu_hat))
    parts.append(
        f'<line class="mu-hat" x1="{mx}" y1="{_MT}" x2="{mx}" y2="{_SVG_H - _MB}" '
        'stroke="#c0392b" stroke-width="1.5" stroke-dasharray="6 3"/>'
    )
    pts = " ".join(f"{px(float(m))},{py(float(h))}" for m, h in zip(mus, hs))
    parts.append(
        f'<polyline class="curve" fill="none" stroke="#1f4e8c" stroke-width="1.5" '
        f'points="{pts}"/>'
    )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    with open(svg_path, "w") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# subcommands


def _flag_param_kwargs(args, swept: Sequence[str] = ()) -> dict:
    """Parameter flags given on the command line, checked against the system."""
    kwargs = {flag: getattr(args, flag) for flag in _PARAM_FLAGS
              if getattr(args, flag, None) is not None}
    _check_params(args.system, list(kwargs) + list(swept))
    return kwargs


def _cmd_simulate(args) -> int:
    params = SYSTEMS[args.system](**_flag_param_kwargs(args))
    traj = TrajectoryConfig(dt=args.dt, n_steps=args.steps, transient_steps=args.transient)
    series = integrate(params, traj)
    series = add_noise(series, NoiseSpec(sigma_rel=args.noise, seed=args.seed or 0))
    lines = ["t,x"]
    for t, x in zip(series.times, series.values):
        lines.append(f"{_fmt17(t)},{_fmt17(x)}")
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    logger.info("wrote %d samples to %s", len(series), args.out)
    return 0


def _cmd_embed(args) -> int:
    series = read_series_csv(args.input)
    if args.auto:
        tau = select_delay(series, max_lag=args.max_lag, n_bins=args.bins).tau
        m = select_dimension(series, tau).m
        logger.info("auto embedding selected tau=%d m=%d", tau, m)
    else:
        if args.tau is None or args.m is None:
            raise ValueError("embed needs either --auto or both --tau and --m")
        tau, m = args.tau, args.m
    cloud = delay_embed(series, EmbeddingParams(tau=tau, m=m))
    lines = [",".join(f"x{k}" for k in range(cloud.dim))]
    for row in cloud.points:
        lines.append(",".join(_fmt(v) for v in row))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_persist(args) -> int:
    cloud = read_cloud_csv(args.input)
    cloud = maxmin_subsample(cloud, n_max=args.n_max, seed=args.seed or 0)
    diagram = rips_persistence(pairwise_distances(cloud), eps_max=args.eps_max)
    _write_diagram_csv(args.out, diagram.rows())
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return run_case(config, jobs=args.jobs)


def _cmd_lyapunov(args) -> int:
    if args.config is not None:
        config = load_config(args.config)
        grid = config.grid()
        params_at = config.params_at
        seed = config.seed if args.seed is None else args.seed
    else:
        if args.system is None or args.min is None or args.max is None or args.count is None:
            raise ValueError("lyapunov needs --config, or --system with --min/--max/--count")
        if args.count < 2:
            raise ValueError(f"count must be >= 2, got {args.count}")
        grid = np.round(np.linspace(args.min, args.max, args.count), 12)
        sweep_name = args.sweep_param
        cls = SYSTEMS[args.system]
        kwargs = _flag_param_kwargs(args, swept=[sweep_name])

        def params_at(value):
            return cls(**{**kwargs, sweep_name: float(value)})

        seed = args.seed or 0
    lcfg = LyapunovConfig(
        dt=args.dt,
        n_steps=args.steps,
        transient_steps=args.transient,
        renorm_interval=args.renorm,
        d0=args.d0,
        seed=seed,
    )
    lines = ["mu,lambda1"]
    written = 0
    for mu in grid:
        try:
            lam = largest_lyapunov(params_at(float(mu)), lcfg)
        except IntegrationDiverged as exc:
            logger.warning("lambda1 at %g failed: %s", mu, exc)
            continue
        lines.append(f"{_fmt(mu)},{_fmt(lam)}")
        written += 1
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if written == 0:
        logger.error("no grid point produced an exponent")
        return 1
    return 0


def read_lyapunov_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    body = _read_csv(path, ("mu", "lambda1"))
    mus, lams = [], []
    for i, row in enumerate(body):
        if len(row) != 2:
            raise ValueError(f"{path}: row {i + 2}: expected 2 cells, got {len(row)}")
        mus.append(_cell(path, i + 2, "mu", row[0]))
        lams.append(_cell(path, i + 2, "lambda1", row[1]))
    return np.array(mus), np.array(lams)


def _cmd_correlate(args) -> int:
    mus, hs, l1s = read_sweep_csv(args.sweep)
    lmus, lams = read_lyapunov_csv(args.lyapunov)
    if mus.shape != lmus.shape or not np.allclose(mus, lmus, rtol=0, atol=1e-12):
        raise ValueError("sweep and lyapunov CSVs cover different parameter grids")
    sweep = functional.SweepResult(
        params=mus,
        h_values=hs,
        betti_l1=l1s,
        delta_h=delta_series(hs),
        mu_hat=estimate_critical(mus, hs),
    )
    report = correlate_sweep(sweep, lams)
    text = json.dumps(asdict(report), indent=2) + "\n"
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_render(args) -> int:
    critical = None
    if args.config is not None:
        critical = load_config(args.config).critical_reference
    if args.critical is not None:
        critical = args.critical
    render_svg(args.input, args.out, critical)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config: a JSON path or a bundled name")
    common.add_argument("--out", help="output path (directory for sweep, file otherwise)")
    common.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for grid points")
    common.add_argument("--seed", type=int, default=None, help="base random seed")

    p = argparse.ArgumentParser(prog="hopftda",
                                description="Topological transition detection pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", parents=[common], help="integrate a system to a t,x CSV")
    sim.add_argument("--system", required=True, choices=sorted(SYSTEMS))
    for flag in _PARAM_FLAGS:
        sim.add_argument(f"--{flag}", type=float, default=None)
    sim.add_argument("--dt", type=float, default=0.01)
    sim.add_argument("--steps", type=int, default=20_000)
    sim.add_argument("--transient", type=int, default=10_000)
    sim.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    sim.set_defaults(func=_cmd_simulate)

    emb = sub.add_parser("embed", parents=[common], help="delay-embed a series CSV")
    emb.add_argument("--in", dest="input", required=True)
    emb.add_argument("--tau", type=int, default=None)
    emb.add_argument("--m", type=int, default=None)
    emb.add_argument("--auto", action="store_true", help="select tau and m automatically")
    emb.add_argument("--max-lag", type=int, default=DEFAULT_MAX_LAG)
    emb.add_argument("--bins", type=int, default=DEFAULT_N_BINS)
    emb.set_defaults(func=_cmd_embed)

    per = sub.add_parser("persist", parents=[common], help="persistence diagram of a cloud CSV")
    per.add_argument("--in", dest="input", required=True)
    per.add_argument("--eps-max", type=float, default=None)
    per.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    per.set_defaults(func=_cmd_persist)

    swe = sub.add_parser("sweep", parents=[common], help="run a configured parameter sweep")
    swe.set_defaults(func=_cmd_sweep)

    lya = sub.add_parser("lyapunov", parents=[common], help="largest exponents over a grid")
    lya.add_argument("--system", choices=sorted(SYSTEMS), default=None)
    for flag in _PARAM_FLAGS:
        lya.add_argument(f"--{flag}", type=float, default=None)
    lya.add_argument("--sweep-param", default="mu", help="parameter swept over the grid")
    lya.add_argument("--min", type=float, default=None)
    lya.add_argument("--max", type=float, default=None)
    lya.add_argument("--count", type=int, default=None)
    lya.add_argument("--dt", type=float, default=0.01)
    lya.add_argument("--steps", type=int, default=200_000)
    lya.add_argument("--transient", type=int, default=40_000)
    lya.add_argument("--renorm", type=int, default=10)
    lya.add_argument("--d0", type=float, default=1e-8)
    lya.set_defaults(func=_cmd_lyapunov)

    cor = sub.add_parser("correlate", parents=[common], help="correlate H with lambda1")
    cor.add_argument("--sweep", required=True, help="sweep.csv path")
    cor.add_argument("--lyapunov", required=True, help="mu,lambda1 CSV path")
    cor.set_defaults(func=_cmd_correlate)

    ren = sub.add_parser("render", parents=[common], help="render a sweep CSV to SVG")
    ren.add_argument("--in", dest="input", required=True)
    ren.add_argument("--critical", type=float, default=None,
                     help="critical reference marker position")
    ren.set_defaults(func=_cmd_render)
    return p


_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _configure_logging() -> Optional[str]:
    name = os.environ.get("HOPF_TDA_LOG", "error").lower()
    if name not in _LOG_LEVELS:
        return name
    logging.basicConfig(level=_LOG_LEVELS[name],
                        format="%(levelname)s %(name)s: %(message)s")
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    bad = _configure_logging()
    if bad is not None:
        print(f"error: HOPF_TDA_LOG must be one of error, info, debug; got {bad!r}",
              file=sys.stderr)
        return 2
    args = _parser().parse_args(argv)
    needs_out = args.command in ("simulate", "embed", "persist", "lyapunov", "render")
    if needs_out and args.out is None:
        print("error: this command requires --out", file=sys.stderr)
        return 2
    if args.command == "sweep" and args.config is None:
        print("error: sweep requires --config", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationDiverged, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
