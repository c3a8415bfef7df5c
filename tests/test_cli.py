"""Config handling and the four subcommands."""

import csv
import json

import pytest

from qgd1d.cli import (
    apply_overrides,
    build_mesh,
    build_model,
    build_scheme,
    build_setup,
    build_thresholds,
    load_config,
    main,
    serialize_config,
    validate_config,
)
from qgd1d.errors import ConfigError
from qgd1d.experiments import classify_run, compare_transition, riemann_initial, sweep_region
from qgd1d.schemes import run_simulation


class TestConfig:
    def test_defaults_validate(self):
        cfg = validate_config({})
        assert cfg["scheme"]["kind"] == "enthalpy"
        assert cfg["mesh"]["n"] == 250

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"scheme": {"alpha": 0.4, "bogus": 1}})
        with pytest.raises(ConfigError, match="unknown key"):
            validate_config({"bogus": {}})

    def test_range_violations_rejected(self):
        with pytest.raises(ConfigError, match="scheme.alpha"):
            validate_config({"scheme": {"alpha": -0.1}})
        with pytest.raises(ConfigError, match="gas.gamma"):
            validate_config({"gas": {"gamma": 1.0}})
        with pytest.raises(ConfigError, match="mesh.n"):
            validate_config({"mesh": {"n": 2}})
        with pytest.raises(ConfigError, match="sweep.betas"):
            validate_config({"sweep": {"betas": []}})
        with pytest.raises(ConfigError, match="mesh.boundary"):
            validate_config({"mesh": {"boundary": "reflecting"}})

    def test_round_trip_is_idempotent(self):
        cfg = validate_config({"scheme": {"alpha": 0.45}, "mesh": {"n": 64}})
        text = serialize_config(cfg)
        again = validate_config(json.loads(text))
        assert again == cfg
        assert serialize_config(again) == text

    def test_overrides(self):
        cfg = validate_config({})
        out = apply_overrides(cfg, ["scheme.alpha=0.7", "mesh.boundary=periodic",
                                    "sweep.workers=4"])
        assert out["scheme"]["alpha"] == 0.7
        assert out["mesh"]["boundary"] == "periodic"
        assert out["sweep"]["workers"] == 4
        assert cfg["scheme"]["alpha"] == 0.4  # input untouched

    def test_override_syntax_errors(self):
        cfg = validate_config({})
        with pytest.raises(ConfigError, match="KEY=VALUE"):
            apply_overrides(cfg, ["scheme.alpha"])
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(cfg, ["scheme.nope=1"])

    def test_load_config_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "scheme": {\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.json:\d+:\d+"):
            load_config(str(bad))

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.json")


def _parse_field(text):
    """A CSV field as the value it spells: empty, a bool, a number or a word."""
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def assert_csv_matches(path, header, expected):
    """The CSV at path has this header and parses back to the expected rows."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == header, path.name
    parsed = [[_parse_field(field) for field in row] for row in rows[1:]]
    assert parsed == [list(row) for row in expected], path.name


def _fast_config(tmp_path, **scheme):
    cfg = {
        "scheme": {"kind": "enthalpy", "alpha": 0.4, "alpha_s": 4.0 / 3.0,
                   "beta": 0.3, **scheme},
        "mesh": {"x_min": -0.5, "h": 0.02, "n": 50},
        "experiment": {"t_end": 0.1, "record_every": 5},
        "output": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSolve:
    def test_conservative_run_exit_zero(self, tmp_path, capsys):
        path = _fast_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        out_dir = tmp_path / "out"
        assert (out_dir / "diagnostics.csv").exists()
        assert (out_dir / "profile.svg").exists()
        assert (out_dir / "verdict.csv").read_text().splitlines()[1].startswith("conservative")
        snapshots = sorted(out_dir.glob("snapshot_*.csv"))
        assert snapshots and snapshots[0].read_text().startswith("x,rho,u")
        assert "conservative" in capsys.readouterr().out

    def test_csv_outputs_parse_back_to_memory(self, tmp_path):
        path = _fast_config(tmp_path)
        assert main(["solve", str(path)]) == 0
        cfg = load_config(str(path))
        setup = build_setup(cfg)
        traj = run_simulation(riemann_initial(setup, build_mesh(cfg)), build_model(cfg),
                              build_scheme(cfg), setup.t_end, record_every=5)
        verdict = classify_run(traj, build_thresholds(cfg, setup))
        out_dir = tmp_path / "out"
        assert len(list(out_dir.glob("snapshot_*.csv"))) == len(traj.snapshots)
        for idx, (_, state) in enumerate(traj.snapshots):
            assert_csv_matches(out_dir / f"snapshot_{idx:04d}.csv", ["x", "rho", "u"],
                               zip(state.mesh.nodes, state.rho, state.u))
        d = traj.diagnostics
        assert_csv_matches(out_dir / "diagnostics.csv",
                           ["t", "mass", "momentum", "min_rho", "max_abs_u"],
                           zip(d.t, d.mass, d.momentum, d.min_rho, d.max_abs_u))
        assert_csv_matches(out_dir / "verdict.csv",
                           ["classification", "oscillation_score", "completed", "steps"],
                           [(verdict.classification.value, verdict.oscillation_score,
                             verdict.completed, traj.steps)])

    def test_overflow_run_exit_two(self, tmp_path, capsys):
        path = _fast_config(tmp_path, beta=6.0)
        assert main(["solve", str(path)]) == 2
        assert "overflow" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scheme": {"alpha": -1}}', encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        assert "scheme.alpha" in capsys.readouterr().err

    def test_override_changes_run(self, tmp_path):
        path = _fast_config(tmp_path)
        code = main(["solve", str(path), "scheme.beta=6.0",
                     f"output.directory={tmp_path / 'out2'}"])
        assert code == 2


class TestStability:
    def test_reference_point_output(self, capsys):
        assert main(["stability", "--alpha", "0.5", "--beta", "1.0", "--kappa", "1"]) == 0
        out = capsys.readouterr().out
        assert "criterion          : yes" in out
        assert "beta_max = 1" in out
        assert "optimal alpha      : 0.5" in out

    def test_failing_point(self, capsys):
        assert main(["stability", "--alpha", "0.4", "--beta", "0.6",
                     "--kappa", str(7.0 / 3.0)]) == 0
        out = capsys.readouterr().out
        assert "criterion          : NO" in out
        assert "necessary condition: NO" in out
        assert "sufficient         : NO" in out

    def test_qhd_without_viscosity_has_no_stable_beta(self, capsys):
        assert main(["stability", "--alpha", "0.5", "--beta", "0.1",
                     "--alpha-s", "0", "--variant", "qhd"]) == 0
        out = capsys.readouterr().out
        assert "criterion          : NO" in out
        assert "no stable beta" in out

    def test_invalid_kappa_exit_one(self, capsys):
        assert main(["stability", "--alpha", "0.5", "--beta", "0.5",
                     "--kappa", "0.5", "--variant", "qgd"]) == 1
        assert "kappa" in capsys.readouterr().err

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "verdict.csv"
        assert main(["stability", "--alpha", "0.5", "--beta", "1.0", "--kappa", "1",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "alpha,beta,kappa,variant,necessary,criterion,sufficient,oracle_rho,oracle_gram"
        assert lines[1].startswith("0.5,1.0,1.0,qgd,True,True")


class TestSweep:
    def _sweep_config(self, tmp_path, workers, out_name):
        cfg = {
            "scheme": {"kind": "enthalpy", "alpha": 0.4, "alpha_s": 4.0 / 3.0, "beta": 0.3},
            "mesh": {"x_min": -0.5, "h": 0.02, "n": 50},
            "experiment": {"t_end": 0.1, "record_every": 5},
            "sweep": {"alphas": [0.3, 0.5], "betas": [0.5, 0.9, 1.3],
                      "beta_mode": "relative", "workers": workers},
            "output": {"directory": str(tmp_path / out_name)},
        }
        path = tmp_path / f"sweep_{workers}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_outputs_and_worker_determinism(self, tmp_path, capsys):
        one = self._sweep_config(tmp_path, 1, "out1")
        two = self._sweep_config(tmp_path, 2, "out2")
        assert main(["sweep", str(one)]) == 0
        assert main(["sweep", str(two)]) == 0
        for name in ("region.csv", "overlays.csv", "transitions.csv"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b, name
        svg = (tmp_path / "out1" / "region.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg
        region = (tmp_path / "out1" / "region.csv").read_text().splitlines()
        assert region[0] == "alpha,beta,verdict,oscillation_score"
        assert len(region) == 1 + 2 * 3


    def test_csv_outputs_parse_back_to_memory(self, tmp_path):
        path = self._sweep_config(tmp_path, 1, "out")
        assert main(["sweep", str(path)]) == 0
        cfg = load_config(str(path))
        setup = build_setup(cfg)
        sweep = cfg["sweep"]
        region = sweep_region(setup, build_model(cfg), build_scheme(cfg),
                              alphas=sweep["alphas"], betas=sweep["betas"],
                              beta_mode=sweep["beta_mode"],
                              thresholds=build_thresholds(cfg, setup), record_every=5)
        out_dir = tmp_path / "out"
        cells = [(alpha, beta, v.classification.value, v.oscillation_score)
                 for i, alpha in enumerate(region.alphas)
                 for beta, v in zip(*region.column(i))]
        assert_csv_matches(out_dir / "region.csv",
                           ["alpha", "beta", "verdict", "oscillation_score"], cells)
        ov = region.overlays
        assert_csv_matches(out_dir / "overlays.csv",
                           ["alpha", "beta_necessary", "beta_criterion", "beta_sufficient"],
                           zip(ov.alphas, ov.necessary, ov.criterion, ov.sufficient))
        rows = compare_transition(region)
        assert any(r.transition is not None for r in rows)
        assert_csv_matches(out_dir / "transitions.csv",
                           ["alpha", "largest_conservative", "smallest_nonconservative",
                            "monotone", "transition", "gap_to_criterion", "gap_to_necessary",
                            "gap_to_sufficient"],
                           [(r.alpha, r.largest_conservative, r.smallest_nonconservative,
                             r.monotone, r.transition, r.gap_to_criterion,
                             r.gap_to_necessary, r.gap_to_sufficient) for r in rows])


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out


def test_worker_count_env_var(monkeypatch):
    from qgd1d.cli import _worker_count

    cfg = validate_config({})
    assert cfg["sweep"]["workers"] == 0
    monkeypatch.delenv("QGD1D_WORKERS", raising=False)
    assert _worker_count(cfg) == 1
    monkeypatch.setenv("QGD1D_WORKERS", "6")
    assert _worker_count(cfg) == 6
    explicit = validate_config({"sweep": {"workers": 3}})
    assert _worker_count(explicit) == 3  # config beats the environment
