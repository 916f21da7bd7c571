import argparse
import inspect
import json
import os
import re
from dataclasses import fields

import numpy as np
import pytest

from _golden import SUBCOMMANDS, assert_golden, file_digest
from hopftda.cli import (
    ExperimentConfig,
    bundled_config,
    load_config,
    _parser,
    main,
    read_cloud_csv,
    read_lyapunov_csv,
    read_series_csv,
    read_sweep_csv,
    render_svg,
    run_case,
)
from hopftda.dynsys import NoiseSpec, TrajectoryConfig, add_noise, integrate
from hopftda.embedding import EmbeddingParams, fnn_fraction, select_dimension
from hopftda.functional import PersistenceConfig, run_sweep


def tiny_config(out_dir, **overrides):
    base = dict(
        system="hopf",
        sweep_name="mu",
        sweep_min=-1.0,
        sweep_max=1.0,
        sweep_count=5,
        fixed=(("omega", 1.0),),
        dt=0.01,
        n_steps=3000,
        transient_steps=1500,
        noise_levels=(0.0,),
        embedding_mode="fixed",
        tau=26,
        m=2,
        n_max=60,
        seed=0,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_bundled_configs_load(self):
        for name, system in [("case_a", "hopf"), ("case_b", "lorenz"), ("case_c", "bz")]:
            cfg = bundled_config(name)
            assert cfg.system == system
            assert cfg.sweep_count >= 21

    def test_bundled_name_beats_same_named_directory(self, tmp_path, monkeypatch):
        # a stray ./case_a directory must not shadow the bundled config
        (tmp_path / "case_a").mkdir()
        monkeypatch.chdir(tmp_path)
        assert load_config("case_a").system == "hopf"

    def test_round_trip_lossless(self):
        cfg = bundled_config("case_b")
        again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_count_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="count"):
            tiny_config(tmp_path, sweep_count=1)

    def test_bad_fields_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown system"):
            tiny_config(tmp_path, system="rossler")
        with pytest.raises(ValueError, match="no parameter"):
            tiny_config(tmp_path, sweep_name="rho")
        with pytest.raises(ValueError, match="noise"):
            tiny_config(tmp_path, noise_levels=(-0.1,))
        with pytest.raises(ValueError, match="collides"):
            tiny_config(tmp_path, fixed=(("mu", 0.0),))
        with pytest.raises(ValueError, match="tau and m"):
            tiny_config(tmp_path, tau=None)
        with pytest.raises(ValueError, match="mode"):
            tiny_config(tmp_path, embedding_mode="manual")

    @pytest.mark.parametrize("section,key", [
        (None, "n_step"), ("sweep", "cout"), ("embedding", "tau"), ("embedding", "max_lag"),
    ])
    def test_unknown_key_rejected(self, section, key):
        d = bundled_config("case_a").to_dict()
        d["embedding"] = {"mode": "auto"}
        (d if section is None else d[section])[key] = 5
        name = key if section is None else f"{section}.{key}"
        with pytest.raises(ValueError, match=f"^unknown config key {re.escape(name)}$"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("section,value", [
        ("embedding", None), ("sweep", [1, 2]), ("fixed", 3),
    ])
    def test_section_must_be_an_object(self, tmp_path, capsys, section, value):
        d = bundled_config("case_a").to_dict()
        d[section] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: config key {section} must be a JSON object, got {json.dumps(value)}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("sweep.count", 21.7), ("sweep.count", True), ("n_steps", 20000.5),
        ("transient_steps", False), ("embedding.tau", 26.5), ("embedding.m", "2"),
        ("n_max", 200.1), ("eps_grid_size", 1e400), ("seed", True), ("seed", 0.5),
    ])
    def test_integer_keys_must_be_integral(self, key, value):
        d = bundled_config("case_a").to_dict()
        *section, name = key.split(".")
        (d[section[0]] if section else d)[name] = value
        shown = json.dumps(value)
        with pytest.raises(ValueError, match=f"^config key {re.escape(key)} must be an integer, "
                                             f"got {re.escape(shown)}$"):
            ExperimentConfig.from_dict(d)

    def test_integral_float_loads_as_int(self):
        d = bundled_config("case_a").to_dict()
        d["sweep"]["count"], d["seed"] = 21.0, 3.0
        cfg = ExperimentConfig.from_dict(d)
        assert (cfg.sweep_count, cfg.seed) == (21, 3)
        assert type(cfg.sweep_count) is int and type(cfg.seed) is int

    def test_non_integral_count_rejected_by_cli(self, tmp_path, capsys):
        d = bundled_config("case_a").to_dict()
        d["sweep"]["count"] = 21.7
        path = tmp_path / "config.json"
        path.write_text(json.dumps(d))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == "error: config key sweep.count must be an integer, got 21.7\n"

    def test_records_built_at_load(self, tmp_path):
        with pytest.raises(ValueError, match="tau must be >= 1"):
            tiny_config(tmp_path, tau=0)
        d = bundled_config("case_a").to_dict()
        d["embedding"]["tau"] = 0
        with pytest.raises(ValueError, match="tau must be >= 1"):
            ExperimentConfig.from_dict(d)
        with pytest.raises(ValueError, match="eps_grid_size"):
            tiny_config(tmp_path, eps_grid_size=1)
        with pytest.raises(ValueError, match="auto embedding mode"):
            tiny_config(tmp_path, embedding_mode="auto")
        cfg = tiny_config(tmp_path, eps_grid_size=32)
        assert cfg.trajectory() == TrajectoryConfig(dt=0.01, n_steps=3000, transient_steps=1500)
        assert cfg.embedding() == EmbeddingParams(tau=26, m=2)
        assert cfg.persistence() == PersistenceConfig(n_max=60, seed=0, eps_grid_size=32)

    def test_auto_round_trip(self, tmp_path):
        cfg = tiny_config(tmp_path, embedding_mode="auto", tau=None, m=None)
        d = json.loads(json.dumps(cfg.to_dict()))
        assert d["embedding"] == {"mode": "auto"}
        assert ExperimentConfig.from_dict(d) == cfg
        assert cfg.embedding() is None

    def test_grid_endpoints(self, tmp_path):
        g = tiny_config(tmp_path).grid()
        assert g[0] == -1.0 and g[-1] == 1.0 and g.shape == (5,)

    def test_unknown_bundled_name(self):
        with pytest.raises(ValueError, match="bundled"):
            load_config("case_z")


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("case")
    cfg = tiny_config(out)
    assert run_case(cfg, jobs=1) == 0
    return out, cfg


class TestRunCase:
    def test_artifacts_exist(self, case_dir):
        out, cfg = case_dir
        names = sorted(os.listdir(out))
        assert "sweep.csv" in names and "sweep.svg" in names
        assert "summary.json" in names and "timings.json" in names
        assert [n for n in names if n.startswith("diagram_")] == [
            f"diagram_{j:02d}.csv" for j in range(5)
        ]

    def test_matches_library_sweep(self, case_dir):
        out, cfg = case_dir
        mus, hs, l1s = read_sweep_csv(out / "sweep.csv")

        def factory(mu):
            return add_noise(integrate(cfg.params_at(mu), cfg.trajectory()),
                             NoiseSpec(0.0, seed=0))

        res = run_sweep(cfg.grid(), factory, EmbeddingParams(tau=26, m=2), cfg.persistence())
        assert np.array_equal(mus, res.params)
        assert np.array_equal(hs, res.h_values)
        assert np.array_equal(l1s, res.betti_l1)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mu_hat"] == res.mu_hat

    def test_rerun_byte_identical(self, case_dir, tmp_path):
        out, cfg = case_dir
        first = {n: (out / n).read_bytes() for n in os.listdir(out) if n != "timings.json"}
        assert run_case(cfg, jobs=1) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob, name

    def test_parallel_matches_serial(self, case_dir, tmp_path):
        out, cfg = case_dir
        cfg2 = tiny_config(tmp_path, sweep_count=4)
        cfg2_serial = tiny_config(tmp_path / "serial", sweep_count=4)
        assert run_case(cfg2, jobs=2) == 0
        assert run_case(cfg2_serial, jobs=1) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (
            tmp_path / "serial" / "sweep.csv"
        ).read_bytes()

    def test_noise_levels_get_subdirs(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_levels=(0.0, 0.02), sweep_count=3,
                          n_steps=2000, transient_steps=1000)
        assert run_case(cfg, jobs=1) == 0
        assert (tmp_path / "noise_00" / "sweep.csv").exists()
        assert (tmp_path / "noise_01" / "sweep.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [lvl["dir"] for lvl in summary["noise"]] == ["noise_00", "noise_01"]
        assert summary["mu_hat"] == summary["noise"][0]["mu_hat"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_two_level_golden_digests(self, tmp_path, jobs):
        cfg = tiny_config(tmp_path, noise_levels=(0.0, 0.02))
        assert run_case(cfg, jobs=jobs) == 0
        assert_golden("tiny_two_level", tmp_path)

    def test_auto_two_level_golden_digests(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_levels=(0.0, 0.02), embedding_mode="auto",
                          tau=None, m=None)
        assert run_case(cfg, jobs=1) == 0
        assert_golden("tiny_auto", tmp_path)

    def test_timings_are_wall_time_parts(self, tmp_path):
        cfg = tiny_config(tmp_path, noise_levels=(0.0, 0.02))
        assert run_case(cfg, jobs=2) == 0
        t = json.loads((tmp_path / "timings.json").read_text())
        assert t["simulate_s"] + t["embed_persist_s"] + t["render_s"] <= t["total_s"]

    def test_all_points_failing_is_reported(self, tmp_path):
        # dt far beyond the stability limit makes every grid point diverge
        cfg = ExperimentConfig(
            system="lorenz", sweep_name="rho", sweep_min=25.0, sweep_max=30.0,
            sweep_count=3, dt=5.0, n_steps=50, transient_steps=10,
            embedding_mode="fixed", tau=2, m=2, n_max=20, out_dir=str(tmp_path),
        )
        assert run_case(cfg, jobs=1) == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mu_hat"] is None
        level = summary["noise"][0]
        assert level["status"].startswith("failed")
        assert all(p["status"].startswith("failed") for p in level["points"])
        assert not (tmp_path / "sweep.csv").exists()


class TestSubcommands:
    def test_pipe_chain_matches_run_case(self, tmp_path):
        out = tmp_path / "case"
        cfg = tiny_config(out, sweep_count=3)
        assert run_case(cfg, jobs=1) == 0
        j, mu = 1, cfg.grid()[1]
        series_csv = str(tmp_path / "series.csv")
        cloud_csv = str(tmp_path / "cloud.csv")
        diag_csv = str(tmp_path / "diag.csv")
        assert main([
            "simulate", "--system", "hopf", "--mu", repr(float(mu)), "--omega", "1.0",
            "--dt", "0.01", "--steps", "3000", "--transient", "1500",
            "--noise", "0.0", "--seed", str(j), "--out", series_csv,
        ]) == 0
        assert main(["embed", "--in", series_csv, "--tau", "26", "--m", "2",
                     "--out", cloud_csv]) == 0
        assert main(["persist", "--in", cloud_csv, "--n-max", "60", "--seed", str(j),
                     "--out", diag_csv]) == 0
        chained = open(diag_csv, "rb").read()
        from_case = (out / f"diagram_{j:02d}.csv").read_bytes()
        assert chained == from_case

    def test_simulate_full_precision(self, tmp_path):
        path = str(tmp_path / "s.csv")
        assert main(["simulate", "--system", "hopf", "--mu", "1.0", "--steps", "1200",
                     "--transient", "1000", "--out", path]) == 0
        lines = open(path).read().splitlines()
        assert lines[0] == "t,x"
        assert len(lines) == 201
        params = bundled_config("case_a").params_at(1.0)
        series = integrate(params, TrajectoryConfig(n_steps=1200, transient_steps=1000))
        parsed = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.array_equal(parsed, series.values)

    def test_embed_auto(self, tmp_path):
        src = str(tmp_path / "s.csv")
        dst = str(tmp_path / "c.csv")
        assert main(["simulate", "--system", "hopf", "--mu", "1.0", "--steps", "4000",
                     "--transient", "2000", "--out", src]) == 0
        assert main(["embed", "--in", src, "--auto", "--out", dst]) == 0
        header = open(dst).readline().strip().split(",")
        assert header[0] == "x0" and len(header) >= 2

    def test_embed_requires_tau_and_m(self, tmp_path, capsys):
        src = str(tmp_path / "s.csv")
        main(["simulate", "--system", "hopf", "--mu", "1.0", "--steps", "1500",
              "--transient", "1000", "--out", src])
        code = main(["embed", "--in", src, "--tau", "5", "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "--tau and --m" in capsys.readouterr().err

    def test_persist_square_cloud(self, tmp_path):
        cloud = tmp_path / "sq.csv"
        cloud.write_text("x0,x1\n0.0,0.0\n1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        out = tmp_path / "d.csv"
        assert main(["persist", "--in", str(cloud), "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == "dim,birth,death"
        assert "0,0.0,inf" in text
        assert "1,1.0,1.4142135623730951" in text

    def test_missing_required_param_is_clean(self, tmp_path, capsys):
        code = main(["simulate", "--system", "hopf", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "mu" in capsys.readouterr().err

    def test_lyapunov_flags_path(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lyapunov", "--system", "hopf", "--sweep-param", "mu",
                     "--min", "-1.0", "--max", "-0.5", "--count", "2",
                     "--steps", "6000", "--transient", "1000", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu,lambda1"
        mus = [float(l.split(",")[0]) for l in lines[1:]]
        lams = [float(l.split(",")[1]) for l in lines[1:]]
        assert mus == [-1.0, -0.5]
        assert lams[0] == pytest.approx(-1.0, rel=0.05)

    def test_correlate_cmd(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.0,\n0.5,0.4,0.0,0.3\n1.0,0.9,0.0,0.5\n")
        lyap = tmp_path / "lyap.csv"
        lyap.write_text("mu,lambda1\n0.0,-1.0\n0.5,-0.2\n1.0,0.1\n")
        report_path = tmp_path / "r.json"
        assert main(["correlate", "--sweep", str(sweep), "--lyapunov", str(lyap),
                     "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n"] == 3
        assert report["pearson_r"] > 0.9
        assert report["p_method"] == "student-t"

    def test_correlate_grid_mismatch(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        sweep.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.0,\n1.0,0.9,0.0,0.8\n")
        lyap = tmp_path / "lyap.csv"
        lyap.write_text("mu,lambda1\n0.0,-1.0\n2.0,0.1\n")
        code = main(["correlate", "--sweep", str(sweep), "--lyapunov", str(lyap)])
        assert code == 2
        assert "different parameter grids" in capsys.readouterr().err

    def test_sweep_requires_config(self, capsys):
        assert main(["sweep"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_out_required(self, capsys):
        assert main(["simulate", "--system", "hopf", "--mu", "1.0"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_bad_log_level(self, monkeypatch, capsys):
        monkeypatch.setenv("HOPF_TDA_LOG", "verbose")
        assert main(["render", "--in", "x.csv", "--out", "y.svg"]) == 2
        assert "HOPF_TDA_LOG" in capsys.readouterr().err


PARAM_FLAGS = {"--mu", "--omega", "--sigma", "--rho", "--beta", "--a", "--b"}
ACCEPTED_FLAGS = {
    "simulate": {"--out", "--system", *PARAM_FLAGS, "--dt", "--steps", "--transient",
                 "--noise", "--seed"},
    "embed": {"--out", "--in", "--tau", "--m", "--auto", "--max-lag", "--bins"},
    "persist": {"--out", "--in", "--eps-max", "--n-max", "--seed"},
    "sweep": {"--out", "--config", "--jobs", "--seed"},
    "lyapunov": {"--out", "--config", "--system", *PARAM_FLAGS, "--sweep-param", "--min",
                 "--max", "--count", "--dt", "--steps", "--transient", "--renorm", "--d0",
                 "--seed"},
    "correlate": {"--out", "--sweep", "--lyapunov"},
    "render": {"--out", "--in", "--critical", "--config"},
}


# every value a caller can set on the records and selectors of the pipeline
SETTABLE = {
    "ExperimentConfig": {"system", "sweep_name", "sweep_min", "sweep_max", "sweep_count",
                         "fixed", "dt", "n_steps", "transient_steps", "noise_levels",
                         "embedding_mode", "tau", "m", "n_max", "eps_grid_size", "seed",
                         "out_dir", "critical_reference"},
    "PersistenceConfig": {"n_max", "seed", "eps_grid_size"},
    "TrajectoryConfig": {"dt", "n_steps", "transient_steps", "initial_state"},
    "select_dimension": set(),
    "fnn_fraction": set(),
}


def test_every_settable_value_is_listed():
    got = {cls.__name__: {f.name for f in fields(cls)}
           for cls in (ExperimentConfig, PersistenceConfig, TrajectoryConfig)}
    for fn in (select_dimension, fnn_fraction):
        got[fn.__name__] = {p.name for p in inspect.signature(fn).parameters.values()
                            if p.default is not p.empty}
    assert got == SETTABLE
    assert sum(len(names) for names in got.values()) == 25


class TestFlags:
    def test_each_subcommand_accepts_only_the_flags_it_reads(self):
        sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
        got = {name: {flag for action in cmd._actions for flag in action.option_strings}
               - {"-h", "--help"} for name, cmd in sub.choices.items()}
        assert got == ACCEPTED_FLAGS
        assert sum(len(flags) for flags in got.values()) == 57

    def test_unread_flag_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--system", "hopf", "--mu", "1.0", "--jobs", "7",
                     "--config", "nonexistent", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "unrecognized arguments: --jobs 7 --config nonexistent" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("system,swept,lo,hi,fixed", [
        ("lorenz", "rho", "20.0", "28.0", []),
        ("bz", "b", "2.5", "4.5", ["--a", "10.0"]),
    ])
    def test_lyapunov_sweeps_the_systems_parameter_by_default(self, tmp_path, system, swept,
                                                              lo, hi, fixed):
        argv = ["lyapunov", "--system", system, *fixed, "--min", lo, "--max", hi,
                "--count", "2", "--steps", "2000", "--transient", "500"]
        assert main(argv + ["--out", str(tmp_path / "default.csv")]) == 0
        assert main(argv + ["--sweep-param", swept, "--out", str(tmp_path / "named.csv")]) == 0
        text = (tmp_path / "default.csv").read_text()
        assert text == (tmp_path / "named.csv").read_text()
        assert [line.split(",")[0] for line in text.splitlines()] == ["mu", lo, hi]

    @pytest.mark.parametrize("argv,message", [
        (["lyapunov", "--config", "case_a", "--system", "lorenz"],
         "--system cannot be combined with --config"),
        (["lyapunov", "--config", "case_a", "--min", "0.0", "--omega", "2.0"],
         "--min, --omega cannot be combined with --config"),
        (["lyapunov", "--system", "hopf", "--min", "1.0", "--max", "-1.0", "--count", "3"],
         "min must be < max"),
        (["lyapunov", "--system", "hopf", "--mu", "0.3", "--min", "-1.0", "--max", "1.0",
          "--count", "3"], "'mu' collides with the sweep parameter"),
        (["lyapunov", "--system", "hopf", "--sweep-param", "rho", "--min", "20.0",
          "--max", "28.0", "--count", "2"], "hopf has no parameter 'rho'"),
        (["lyapunov", "--system", "hopf", "--min", "-1.0", "--max", "1.0"],
         "--system with --min/--max/--count"),
        (["embed", "--in", "s.csv", "--auto", "--tau", "5"], "--tau cannot be combined with --auto"),
        (["embed", "--in", "s.csv", "--tau", "5", "--m", "2", "--bins", "8"],
         "--bins apply only with --auto"),
        (["render", "--in", "sweep.csv", "--config", "case_a", "--critical", "0.5"],
         "not allowed with argument"),
    ])
    def test_flag_mixes_rejected(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        main(["simulate", "--system", "hopf", "--mu", "1.0", "--steps", "1200",
              "--transient", "1000", "--out", "s.csv"])
        assert main(argv + ["--out", "out.file"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.file").exists()


# format -> (reader, header line, two valid data rows)
CSV_FORMATS = {
    "series": (read_series_csv, "t,x", ["0.0,1.0", "0.01,2.0"]),
    "cloud": (read_cloud_csv, "x0,x1", ["0.0,1.0", "1.0,0.0"]),
    "lyapunov": (read_lyapunov_csv, "mu,lambda1", ["0.0,-1.0", "1.0,0.5"]),
    "sweep": (read_sweep_csv, "mu,H,betti_l1,delta_H", ["0.0,0.1,0.0,", "1.0,0.5,1.0,0.4"]),
}
# defect -> (lines of the damaged file, expected message after "<path>: ")
CSV_DEFECTS = {
    "wrong header": (lambda header, rows: [header.rsplit(",", 1)[0] + ",bogus", *rows],
                     "row 1: expected header"),
    "short row": (lambda header, rows: [header, rows[0], rows[1].rsplit(",", 1)[0]],
                  "row 3: expected"),
    "non-numeric cell": (lambda header, rows: [header, rows[0],
                                               "oops" + rows[1][rows[1].index(","):]],
                         "row 3: non-numeric value 'oops' in column {first}"),
}


@pytest.mark.parametrize("defect", list(CSV_DEFECTS))
@pytest.mark.parametrize("fmt", list(CSV_FORMATS))
def test_reader_errors_name_file_and_row(tmp_path, fmt, defect):
    reader, header, rows = CSV_FORMATS[fmt]
    path = tmp_path / f"{fmt}.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    reader(str(path))
    damage, message = CSV_DEFECTS[defect]
    path.write_text("\n".join(damage(header, rows)) + "\n")
    message = message.format(first=header.split(",")[0])
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        reader(str(path))


@pytest.mark.parametrize("times,row", [("0.0 0.01 5.0 -7.0", 4), ("0.0 0.0 0.0", 3)])
def test_series_reader_rejects_uneven_times(tmp_path, times, row):
    path = tmp_path / "series.csv"
    path.write_text("t,x\n" + "".join(f"{t},1.0\n" for t in times.split()))
    with pytest.raises(ValueError, match=re.escape(f"{path}: row {row}: t steps by")):
        read_series_csv(str(path))


# one run of each single-artifact subcommand on a tiny input, in run order;
# {d} is the output directory, later runs read earlier outputs, and the
# written file is the last argument
SUBCOMMAND_RUNS = {
    "simulate_noise": ["simulate", "--system", "hopf", "--mu", "0.5", "--steps", "3000",
                       "--transient", "1000", "--noise", "0.05", "--seed", "3",
                       "--out", "{d}/series.csv"],
    "embed_fixed": ["embed", "--in", "{d}/series.csv", "--tau", "26", "--m", "2",
                    "--out", "{d}/cloud.csv"],
    "embed_auto": ["embed", "--in", "{d}/series.csv", "--auto", "--out", "{d}/cloud_auto.csv"],
    "persist": ["persist", "--in", "{d}/cloud.csv", "--n-max", "40", "--seed", "2",
                "--out", "{d}/diagram.csv"],
    "lyapunov_flags": ["lyapunov", "--system", "bz", "--sweep-param", "b", "--a", "10.0",
                       "--min", "2.5", "--max", "4.5", "--count", "3", "--steps", "3000",
                       "--transient", "500", "--seed", "1", "--out", "{d}/lyap_flags.csv"],
    "lyapunov_config": ["lyapunov", "--config", "{d}/tiny.json", "--steps", "2000",
                        "--transient", "500", "--out", "{d}/lyap_config.csv"],
    "correlate": ["correlate", "--sweep", "{d}/sweep.csv", "--lyapunov", "{d}/lyap_config.csv",
                  "--out", "{d}/report.json"],
    "render_config": ["render", "--in", "{d}/sweep.csv", "--config", "{d}/tiny.json",
                      "--out", "{d}/config.svg"],
    "render_critical": ["render", "--in", "{d}/sweep.csv", "--critical", "0.25",
                        "--out", "{d}/critical.svg"],
}


@pytest.fixture(scope="module")
def subcommand_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("subcommands")
    cfg = tiny_config(d, sweep_count=3, critical_reference=0.0)
    (d / "tiny.json").write_text(json.dumps(cfg.to_dict()))
    (d / "sweep.csv").write_text(
        "mu,H,betti_l1,delta_H\n-1.0,0.1,0.0,\n0.0,0.4,1.0,0.30000000000000004\n1.0,0.9,2.0,0.5\n")
    codes = {name: main([arg.format(d=d) for arg in argv])
             for name, argv in SUBCOMMAND_RUNS.items()}
    return codes, {name: argv[-1].format(d=d) for name, argv in SUBCOMMAND_RUNS.items()}


@pytest.mark.parametrize("name", list(SUBCOMMAND_RUNS))
def test_subcommand_golden_digest(subcommand_outputs, name):
    codes, paths = subcommand_outputs
    assert codes[name] == 0
    assert file_digest(paths[name]) == SUBCOMMANDS.get(name), name


class TestRenderSvg:
    def write_two_rows(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.2,\n1.0,0.5,0.6,0.4\n")
        return str(path)

    def test_two_row_polyline(self, tmp_path):
        csv_path = self.write_two_rows(tmp_path)
        text = render_svg(csv_path, str(tmp_path / "o.svg"))
        assert text.count("<polyline") == 1
        pts = text.split('points="')[1].split('"')[0]
        assert len(pts.split()) == 2

    def test_byte_identical_reruns(self, tmp_path):
        csv_path = self.write_two_rows(tmp_path)
        a = render_svg(csv_path, str(tmp_path / "a.svg"), critical_reference=0.3)
        b = render_svg(csv_path, str(tmp_path / "b.svg"), critical_reference=0.3)
        assert a == b
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_markers(self, tmp_path):
        csv_path = self.write_two_rows(tmp_path)
        with_ref = render_svg(csv_path, str(tmp_path / "a.svg"), critical_reference=0.25)
        assert 'class="critical"' in with_ref
        assert 'class="mu-hat"' in with_ref
        out_of_range = render_svg(csv_path, str(tmp_path / "b.svg"), critical_reference=7.0)
        assert 'class="critical"' not in out_of_range

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.2,\n1.0,oops,0.6,0.4\n")
        with pytest.raises(ValueError, match="row 3"):
            render_svg(str(path), str(tmp_path / "o.svg"))

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.2,\n1.0,0.5\n")
        with pytest.raises(ValueError, match="row 3"):
            render_svg(str(path), str(tmp_path / "o.svg"))

    def test_first_delta_must_be_blank(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.2,0.0\n1.0,0.5,0.6,0.4\n")
        with pytest.raises(ValueError, match="delta_H"):
            render_svg(str(path), str(tmp_path / "o.svg"))

    def test_single_row_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("mu,H,betti_l1,delta_H\n0.0,0.1,0.2,\n")
        with pytest.raises(ValueError, match="2 data rows"):
            render_svg(str(path), str(tmp_path / "o.svg"))
