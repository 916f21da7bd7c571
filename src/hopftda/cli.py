"""Command-line front end: subcommands over the pipeline plus canned sweeps.

The module parses arguments, reads and writes files, and calls the library.
Every CSV is read by one checked reader (`_read_table`) and written by one
writer (`_write_csv`); a lyapunov grid given by flags becomes an
ExperimentConfig, so each grid comes from `ExperimentConfig.grid`. Each
subcommand accepts only the flags it reads, and rejects flag mixes in which
one flag would override another.

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
import numbers
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields, replace
from importlib import resources
from typing import Iterable, Optional, Sequence, Tuple

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
from .functional import (
    DEFAULT_EPS_GRID_SIZE,
    PersistenceConfig,
    delta_series,
    estimate_critical,
    sweep_levels,
)
from .lyapunov import LyapunovConfig, correlate_sweep, largest_lyapunov
from .persistence import (
    DEFAULT_N_MAX,
    maxmin_subsample,
    pairwise_distances,
    rips_persistence,
)

logger = logging.getLogger(__name__)

# one --flag per parameter name of any system, in declaration order
_PARAM_FLAGS = tuple(dict.fromkeys(f.name for cls in SYSTEMS.values() for f in fields(cls)))

SWEEP_HEADER = ("mu", "H", "betti_l1", "delta_H")
DIAGRAM_HEADER = ("dim", "birth", "death")


def _fmt(x: float) -> str:
    """Shortest decimal that parses back to the same double."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# experiment configuration


def _object(value, name: str) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {json.dumps(value, default=repr)}")
    return value


def _integer(value, key: str) -> int:
    """An integer setting: an int or an integral float, never a boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(
            f"config key {key} must be an integer, got {json.dumps(value, default=repr)}"
        )
    return int(value)


def _number(value, key: str) -> float:
    """A real setting: an int or a float, never a boolean, string or list."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(
            f"config key {key} must be a number, got {json.dumps(value, default=repr)}"
        )
    return float(value)


def _text(value, key: str) -> str:
    """A string setting."""
    if not isinstance(value, str):
        raise ValueError(
            f"config key {key} must be a string, got {json.dumps(value, default=repr)}"
        )
    return value


# the optional scalars of a config file and their checked conversions; absent
# or null keeps the default. The trajectory record's fields go to that record.
_SCALARS = {"dt": _number, "n_steps": _integer, "transient_steps": _integer,
            "n_max": _integer, "eps_grid_size": _integer, "seed": _integer,
            "out_dir": _text, "critical_reference": _number}
_TRAJECTORY_KEYS = {f.name for f in fields(TrajectoryConfig)}
# the keys from_dict reads, per section; the embedding's depend on its mode
_CONFIG_KEYS = ("system", "fixed", "sweep", "noise_levels", "embedding", *_SCALARS)
_SWEEP_KEYS = ("name", "min", "max", "count")
_EMBEDDING_KEYS = {"fixed": ("mode", "tau", "m"), "auto": ("mode",)}


def _reject_unknown(section: dict, known: Sequence[str], prefix: str = "") -> None:
    unknown = [prefix + key for key in section if key not in known]
    if unknown:
        raise ValueError(f"unknown config key {', '.join(unknown)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible sweep: system, grid, integration, embedding, seeds.

    embedding None selects tau (first MI minimum up to lag DEFAULT_MAX_LAG)
    and m (false nearest neighbors) per series. Loading builds every record
    the config feeds, so a bad value fails here rather than mid-run.
    """

    system: str
    sweep_name: str
    sweep_min: float
    sweep_max: float
    sweep_count: int
    fixed: Tuple[Tuple[str, float], ...] = ()
    trajectory: TrajectoryConfig = TrajectoryConfig()
    noise_levels: Tuple[float, ...] = (0.0,)
    embedding: Optional[EmbeddingParams] = None
    n_max: int = 200
    eps_grid_size: int = DEFAULT_EPS_GRID_SIZE
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
        if any(s < 0 for s in self.noise_levels):
            raise ValueError(f"noise levels must be >= 0, got {list(self.noise_levels)}")
        self.persistence()

    def grid(self) -> np.ndarray:
        # rounding keeps csv values like 0.1 instead of 0.10000000000000009
        g = np.round(np.linspace(self.sweep_min, self.sweep_max, self.sweep_count), 12)
        if np.any(np.diff(g) <= 0):
            raise ValueError("sweep grid is not strictly ascending at 12-decimal resolution")
        return g

    def persistence(self) -> PersistenceConfig:
        return PersistenceConfig(n_max=self.n_max, seed=self.seed, eps_grid_size=self.eps_grid_size)

    def params_at(self, value: float) -> SystemParams:
        kwargs = {name: v for name, v in self.fixed}
        kwargs[self.sweep_name] = float(value)
        return SYSTEMS[self.system](**kwargs)

    def series_at(self, value: float) -> TimeSeries:
        """The clean observed series at a grid value (a picklable bound method)."""
        return integrate(self.params_at(value), self.trajectory)

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
            "dt": self.trajectory.dt,
            "n_steps": self.trajectory.n_steps,
            "transient_steps": self.trajectory.transient_steps,
            "noise_levels": list(self.noise_levels),
            "embedding": (
                {"mode": "auto"}
                if self.embedding is None
                else {"mode": "fixed", "tau": self.embedding.tau, "m": self.embedding.m}
            ),
            "n_max": self.n_max,
            "eps_grid_size": self.eps_grid_size,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "critical_reference": self.critical_reference,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config of a to_dict-shaped dict; an unknown key is an error."""
        _reject_unknown(_object(d, "config"), _CONFIG_KEYS)
        try:
            sweep = _object(d["sweep"], "config key sweep")
            emb = _object(d.get("embedding", {"mode": "auto"}), "config key embedding")
            fixed = _object(d.get("fixed", {}), "config key fixed")
            _reject_unknown(sweep, _SWEEP_KEYS, "sweep.")
            mode = emb.get("mode", "fixed")
            if mode not in _EMBEDDING_KEYS:
                raise ValueError(f"embedding mode must be 'fixed' or 'auto', got {mode!r}")
            _reject_unknown(emb, _EMBEDDING_KEYS[mode], "embedding.")
            levels = d.get("noise_levels", [0.0])
            if not isinstance(levels, list):
                raise ValueError(f"config key noise_levels must be a list, "
                                 f"got {json.dumps(levels, default=repr)}")
            kwargs = dict(
                system=d["system"],
                sweep_name=sweep["name"],
                sweep_min=_number(sweep["min"], "sweep.min"),
                sweep_max=_number(sweep["max"], "sweep.max"),
                sweep_count=_integer(sweep["count"], "sweep.count"),
                fixed=tuple(sorted((k, _number(v, f"fixed.{k}")) for k, v in fixed.items())),
                noise_levels=tuple(_number(s, f"noise_levels[{i}]") for i, s in enumerate(levels)),
            )
            if mode == "fixed":
                kwargs["embedding"] = EmbeddingParams(tau=_integer(emb["tau"], "embedding.tau"),
                                                      m=_integer(emb["m"], "embedding.m"))
        except KeyError as exc:
            raise ValueError(f"config is missing required key {exc}") from None
        trajectory = {}
        for key, convert in _SCALARS.items():
            if d.get(key) is not None:
                (trajectory if key in _TRAJECTORY_KEYS else kwargs)[key] = convert(d[key], key)
        return cls(trajectory=TrajectoryConfig(**trajectory), **kwargs)


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


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Iterable[str]]) -> None:
    """Write formatted cells under a header, one line per row."""
    lines = [",".join(header)] + [",".join(row) for row in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2) + "\n")


def _write_sweep_csv(path: str, mus: Sequence[float], hs: Sequence[float], l1s: Sequence[float]):
    blank_then_deltas = [""] + [_fmt(d) for d in delta_series(hs)]
    _write_csv(path, SWEEP_HEADER, ((_fmt(mu), _fmt(h), _fmt(l1), d)
                                    for mu, h, l1, d in zip(mus, hs, l1s, blank_then_deltas)))


def _write_diagram_csv(path: str, rows: Sequence[Tuple[int, float, float]]):
    _write_csv(path, DIAGRAM_HEADER,
               ((str(int(dim)), _fmt(birth), _fmt(death)) for dim, birth, death in rows))


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
    timings: dict = {}
    results = sweep_levels(grid, config.series_at, config.noise_levels,
                           config.embedding, config.persistence(), jobs=jobs, timings=timings)
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
            _write_sweep_csv(os.path.join(out, "sweep.csv"), res.params, res.h_values, res.betti_l1)
            render_svg(res.params, res.h_values, os.path.join(out, "sweep.svg"),
                       config.critical_reference)
        entries.append({"sigma_rel": float(sigma), "points": points, "status": res.status,
                        "mu_hat": res.mu_hat, "dir": subdir})
        logger.info("noise level %g: %s (mu_hat=%s)", sigma, res.status, res.mu_hat)
    timings["render_s"] = time.perf_counter() - t_render

    summary = {"config": config.to_dict(), "mu_hat": entries[0]["mu_hat"], "noise": entries}
    _write_json(os.path.join(config.out_dir, "summary.json"), summary)
    timings["total_s"] = time.perf_counter() - t_start
    _write_json(os.path.join(config.out_dir, "timings.json"), timings)
    return 0 if all(e["status"] == "ok" for e in entries) else 1


# ---------------------------------------------------------------------------
# csv io


def _read_table(path: str, header: Optional[Sequence[str]], min_rows: int,
                blank_first: Optional[str] = None) -> np.ndarray:
    """The data rows of a CSV as a float matrix, one column per header name.

    A ``None`` header accepts numbered columns x0,x1,... of any width. The
    first data cell of column ``blank_first``, when given, must be empty; it
    reads as nan. Every other cell must parse as a float.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    got = [c.strip() for c in rows[0]]
    names = list(header) if header is not None else [f"x{k}" for k in range(len(got))]
    if not got or got != names:
        want = ",".join(names) if header is not None else "x0,x1,..."
        raise ValueError(f"{path}: row 1: expected header {want}, got {','.join(got)}")
    body = rows[1:]
    if len(body) < min_rows:
        raise ValueError(f"{path}: need at least {min_rows} data rows, got {len(body)}")
    blank = names.index(blank_first) if blank_first is not None else None
    table = np.empty((len(body), len(names)))
    for i, row in enumerate(body):
        if len(row) != len(names):
            raise ValueError(f"{path}: row {i + 2}: expected {len(names)} cells, got {len(row)}")
        if i == 0 and blank is not None:
            if row[blank] != "":
                raise ValueError(f"{path}: row 2: first {blank_first} cell must be empty")
            row = row[:blank] + ["nan"] + row[blank + 1:]
        for k, text in enumerate(row):
            try:
                table[i, k] = float(text)
            except ValueError:
                raise ValueError(f"{path}: row {i + 2}: non-numeric value {text!r} "
                                 f"in column {names[k]}") from None
    return table


def read_sweep_csv(path: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse a sweep CSV back into (mu, H, betti_l1) arrays."""
    table = _read_table(path, SWEEP_HEADER, 2, blank_first="delta_H")
    return table[:, 0], table[:, 1], table[:, 2]


def read_series_csv(path: str) -> TimeSeries:
    """A t,x CSV whose t rises by one step (to 1e-6 of it) from row to row."""
    t, x = _read_table(path, ("t", "x"), 2).T
    steps = np.diff(t)
    bad = np.flatnonzero(~((np.abs(steps - steps[0]) <= 1e-6 * steps[0]) & (steps > 0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"{path}: row {k + 3}: t steps by {steps[k]!r}; a series must rise "
                         f"by its first step ({steps[0]!r}, > 0) on every row")
    return TimeSeries(t0=t[0], dt=steps[0], values=x)


def read_cloud_csv(path: str) -> PointCloud:
    return PointCloud(points=_read_table(path, None, 1))


def read_lyapunov_csv(path: str) -> Tuple[np.ndarray, np.ndarray]:
    table = _read_table(path, ("mu", "lambda1"), 0)
    return table[:, 0], table[:, 1]


# ---------------------------------------------------------------------------
# svg rendering

_SVG_W, _SVG_H = 640, 400
_ML, _MR, _MT, _MB = 56, 16, 16, 44


def render_svg(mus: np.ndarray, hs: np.ndarray, svg_path: str,
               critical_reference: Optional[float] = None) -> str:
    """Plot H against the parameter as a deterministic standalone SVG.

    Dashed vertical markers show the estimated transition and, when given,
    the known critical reference. Identical inputs give identical bytes.
    """
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


def _reject(flags: dict, why: str) -> None:
    """Fail on any of the given flags that was set, naming them."""
    given = [flag for flag, value in flags.items() if value is not None]
    if given:
        raise ValueError(f"{', '.join(given)} {why}")


def _param_flags(args) -> dict:
    """The system-parameter flags set on the command line, by parameter name."""
    return {flag: getattr(args, flag) for flag in _PARAM_FLAGS if getattr(args, flag) is not None}


def _cmd_simulate(args) -> int:
    kwargs = _param_flags(args)
    _check_params(args.system, list(kwargs))
    traj = TrajectoryConfig(dt=args.dt, n_steps=args.steps, transient_steps=args.transient)
    series = integrate(SYSTEMS[args.system](**kwargs), traj)
    series = add_noise(series, NoiseSpec(sigma_rel=args.noise, seed=args.seed))
    rows = ((format(t, ".17g"), format(x, ".17g")) for t, x in zip(series.times, series.values))
    _write_csv(args.out, ("t", "x"), rows)
    logger.info("wrote %d samples to %s", len(series), args.out)
    return 0


def _cmd_embed(args) -> int:
    series = read_series_csv(args.input)
    if args.auto:
        _reject({"--tau": args.tau, "--m": args.m}, "cannot be combined with --auto")
        given = {"max_lag": args.max_lag, "n_bins": args.bins}
        tau = select_delay(series, **{k: v for k, v in given.items() if v is not None}).tau
        m = select_dimension(series, tau).m
        logger.info("auto embedding selected tau=%d m=%d", tau, m)
    else:
        _reject({"--max-lag": args.max_lag, "--bins": args.bins}, "apply only with --auto")
        if args.tau is None or args.m is None:
            raise ValueError("embed needs either --auto or both --tau and --m")
        tau, m = args.tau, args.m
    cloud = delay_embed(series, EmbeddingParams(tau=tau, m=m))
    _write_csv(args.out, [f"x{k}" for k in range(cloud.dim)],
               ([_fmt(v) for v in row] for row in cloud.points))
    return 0


def _cmd_persist(args) -> int:
    cloud = maxmin_subsample(read_cloud_csv(args.input), n_max=args.n_max, seed=args.seed)
    diagram = rips_persistence(pairwise_distances(cloud), eps_max=args.eps_max)
    _write_diagram_csv(args.out, diagram.rows())
    return 0


def _cmd_sweep(args) -> int:
    given = {"out_dir": args.out, "seed": args.seed}
    config = replace(load_config(args.config), **{k: v for k, v in given.items() if v is not None})
    return run_case(config, jobs=args.jobs)


def _lyapunov_grid(args) -> ExperimentConfig:
    """The system, grid and seed of a lyapunov run: from --config or from flags."""
    grid_flags = {"--system": args.system, "--sweep-param": args.sweep_param,
                  "--min": args.min, "--max": args.max, "--count": args.count,
                  **{f"--{name}": v for name, v in _param_flags(args).items()}}
    if args.config is not None:
        _reject(grid_flags, "cannot be combined with --config, which sets the grid")
        return load_config(args.config)
    if args.system is None or args.min is None or args.max is None or args.count is None:
        raise ValueError("lyapunov needs --config, or --system with --min/--max/--count")
    return ExperimentConfig(system=args.system,
                            sweep_name=args.sweep_param or SYSTEMS[args.system].swept,
                            sweep_min=args.min, sweep_max=args.max, sweep_count=args.count,
                            fixed=tuple(_param_flags(args).items()))


def _cmd_lyapunov(args) -> int:
    config = _lyapunov_grid(args)
    lcfg = LyapunovConfig(dt=args.dt, n_steps=args.steps, transient_steps=args.transient,
                          renorm_interval=args.renorm, d0=args.d0,
                          seed=config.seed if args.seed is None else args.seed)
    rows = []
    for mu in config.grid():
        try:
            lam = largest_lyapunov(config.params_at(float(mu)), lcfg)
        except IntegrationDiverged as exc:
            logger.warning("lambda1 at %g failed: %s", mu, exc)
            continue
        rows.append((_fmt(mu), _fmt(lam)))
    _write_csv(args.out, ("mu", "lambda1"), rows)
    if not rows:
        logger.error("no grid point produced an exponent")
        return 1
    return 0


def _cmd_correlate(args) -> int:
    mus, hs, _ = read_sweep_csv(args.sweep)
    lmus, lams = read_lyapunov_csv(args.lyapunov)
    if mus.shape != lmus.shape or not np.allclose(mus, lmus, rtol=0, atol=1e-12):
        raise ValueError("sweep and lyapunov CSVs cover different parameter grids")
    report = asdict(correlate_sweep(hs, lams))
    if args.out is None:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _write_json(args.out, report)
    return 0


def _cmd_render(args) -> int:
    critical = args.critical
    if args.config is not None:
        critical = load_config(args.config).critical_reference
    mus, hs, _ = read_sweep_csv(args.input)
    render_svg(mus, hs, args.out, critical)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

_CONFIG_HELP = "experiment config: a JSON path or a bundled name"


def _add_system_flags(cmd: argparse.ArgumentParser, required: bool) -> None:
    cmd.add_argument("--system", required=required, choices=sorted(SYSTEMS))
    for flag in _PARAM_FLAGS:
        cmd.add_argument(f"--{flag}", type=float)


def _parser() -> argparse.ArgumentParser:
    """One subparser per command, each with only the flags its command reads."""
    p = argparse.ArgumentParser(prog="hopftda",
                                description="Topological transition detection pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, optional_out=None):
        """A subparser with --out, required unless optional_out says what it defaults to."""
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(func=func)
        cmd.add_argument("--out", required=optional_out is None,
                         help=optional_out or "output file")
        return cmd

    sim = command("simulate", _cmd_simulate, "integrate a system to a t,x CSV")
    _add_system_flags(sim, required=True)
    sim.add_argument("--dt", type=float, default=TrajectoryConfig.dt)
    sim.add_argument("--steps", type=int, default=TrajectoryConfig.n_steps)
    sim.add_argument("--transient", type=int, default=TrajectoryConfig.transient_steps)
    sim.add_argument("--noise", type=float, default=0.0, help="relative noise level")
    sim.add_argument("--seed", type=int, default=NoiseSpec.seed, help="noise seed")

    emb = command("embed", _cmd_embed, "delay-embed a series CSV")
    emb.add_argument("--in", dest="input", required=True)
    emb.add_argument("--tau", type=int)
    emb.add_argument("--m", type=int)
    emb.add_argument("--auto", action="store_true", help="select tau and m automatically")
    emb.add_argument("--max-lag", type=int, help=f"with --auto (default {DEFAULT_MAX_LAG})")
    emb.add_argument("--bins", type=int, help=f"with --auto (default {DEFAULT_N_BINS})")

    per = command("persist", _cmd_persist, "persistence diagram of a cloud CSV")
    per.add_argument("--in", dest="input", required=True)
    per.add_argument("--eps-max", type=float)
    per.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    per.add_argument("--seed", type=int, default=0, help="landmark seed")

    swe = command("sweep", _cmd_sweep, "run a configured parameter sweep",
                  optional_out="output directory (default: the config's out_dir)")
    swe.add_argument("--config", required=True, help=_CONFIG_HELP)
    swe.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                     help="worker processes for grid points")
    swe.add_argument("--seed", type=int, help="base random seed (default: the config's)")

    lya = command("lyapunov", _cmd_lyapunov, "largest exponents over a grid")
    lya.add_argument("--config", help=_CONFIG_HELP + "; replaces the grid flags below")
    _add_system_flags(lya, required=False)
    lya.add_argument("--sweep-param", help="parameter swept over the grid "
                     "(default: the system's, mu, rho or b)")
    lya.add_argument("--min", type=float)
    lya.add_argument("--max", type=float)
    lya.add_argument("--count", type=int)
    lya.add_argument("--dt", type=float, default=LyapunovConfig.dt)
    lya.add_argument("--steps", type=int, default=LyapunovConfig.n_steps)
    lya.add_argument("--transient", type=int, default=LyapunovConfig.transient_steps)
    lya.add_argument("--renorm", type=int, default=LyapunovConfig.renorm_interval)
    lya.add_argument("--d0", type=float, default=LyapunovConfig.d0)
    lya.add_argument("--seed", type=int, help="perturbation seed (default: the config's, or 0)")

    cor = command("correlate", _cmd_correlate, "correlate H with lambda1",
                  optional_out="report JSON path (default: stdout)")
    cor.add_argument("--sweep", required=True, help="sweep.csv path")
    cor.add_argument("--lyapunov", required=True, help="mu,lambda1 CSV path")

    ren = command("render", _cmd_render, "render a sweep CSV to SVG")
    ren.add_argument("--in", dest="input", required=True)
    marker = ren.add_mutually_exclusive_group()
    marker.add_argument("--critical", type=float, help="critical reference marker position")
    marker.add_argument("--config", help=_CONFIG_HELP + "; its critical reference")
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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input exits 2; a computation that failed (IntegrationDiverged too) exits 1
        return 2 if isinstance(exc, (ValueError, OSError)) else 1
