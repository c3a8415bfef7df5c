"""Config handling and the four subcommands."""

import ast
import collections
import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qgd1d
from qgd1d.cli import (
    DEFAULT_CONFIG,
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

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "configs" / "riemann_demo.json"
# the demo on ten times the nodes at a tenth of the spacing, to t = 0.05
_WIDE = ("mesh.n=2500", "mesh.h=0.0008", "experiment.t_end=0.05")
# the benchmark's solve-large run: the standard scheme on 25 000 nodes, 7 snapshots
_SOLVE_LARGE = ("scheme.kind=standard", "mesh.n=25000", "mesh.h=8e-5", "experiment.t_end=0.02",
                "experiment.record_every=200")


def _solve_digest(out_dir, overrides):
    """The number of files a demo solve writes and the md5 of their names and bytes."""
    assert main(["solve", str(DEMO_CONFIG), *overrides, "--out", str(out_dir)]) == 0
    names = sorted(p.name for p in out_dir.iterdir())
    md5 = hashlib.md5()
    for name in names:
        md5.update(name.encode() + b"\0" + (out_dir / name).read_bytes())
    return len(names), md5.hexdigest()


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

    @pytest.mark.parametrize("override, key", [
        ("gas.gamma=NaN", "gas.gamma"),
        ("scheme.beta=Infinity", "scheme.beta"),
        ("scheme.alpha=NaN", "scheme.alpha"),
        ("gas.p1=1" + "0" * 400, "gas.p1"),
        ("mesh.n=1" + "0" * 400, "mesh.n"),
        ("experiment.record_every=true", "experiment.record_every"),
        ("sweep.alphas=[0.4, -Infinity]", "sweep.alphas"),
        ("sweep.betas=[NaN]", "sweep.betas"),
        # finite values out of range or of the wrong type take the same path
        ("scheme.c_ref=-1", "scheme.c_ref"),
        ('scheme.c_ref="fast"', "scheme.c_ref"),
        ("gas.r0=-1", "gas.r0"),
        ('output.formats=["pdf"]', "output.formats"),
    ])
    def test_non_finite_numbers_rejected(self, override, key):
        with pytest.raises(ConfigError, match=key):
            apply_overrides(validate_config({}), [override])

    def test_override_below_a_value_rejected(self):
        with pytest.raises(ConfigError, match="already set"):
            apply_overrides(validate_config({}), ["scheme=1", "scheme.alpha=0.5"])

    def test_load_config_reports_json_position(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "scheme": {\n}', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"bad\.json:\d+:\d+"):
            load_config(str(bad))

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.json")

    def test_load_config_rejects_a_top_level_list(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            load_config(str(path))

    @pytest.mark.xfail(strict=True, reason="build_setup ends the domain at the last node, "
                                           "so RiemannSetup.mesh() has n - 1 nodes")
    def test_setup_mesh_has_the_config_node_count(self):
        cfg = load_config(str(DEMO_CONFIG))
        assert build_setup(cfg).mesh().n == build_mesh(cfg).n


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(min_value=-(2**1100), max_value=2**1100),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2),
    max_leaves=5,
)
_OVERRIDE_KEYS = (
    st.sampled_from([f"{section}.{key}" for section, body in DEFAULT_CONFIG.items() for key in body])
    | st.sampled_from(sorted(DEFAULT_CONFIG))
    | st.text(alphabet="acehmnps.", max_size=10)
)
_OVERRIDES = st.tuples(_OVERRIDE_KEYS, _JSON_VALUES.map(json.dumps) | st.text(max_size=6)).map("=".join)


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _numbers(item)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


@settings(max_examples=150, deadline=None)
@given(st.lists(_OVERRIDES, max_size=4))
def test_overrides_raise_only_config_error_and_keep_numbers_finite(items):
    try:
        cfg = apply_overrides(validate_config({}), items)
    except ConfigError:
        return
    for number in _numbers(cfg):
        assert math.isfinite(number)


@pytest.mark.parametrize("module", ["scipy.integrate", "concurrent.futures.process",
                                    "multiprocessing", "csv"])
def test_cli_import_leaves_scipy_out(module):
    src = os.path.dirname(os.path.dirname(qgd1d.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"import sys, qgd1d.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_package_imports_only_the_standard_library_and_numpy():
    # ast.walk enters function bodies, so a lazy import is found as well
    allowed = set(sys.stdlib_module_names) | {"numpy", "qgd1d"}
    package = pathlib.Path(qgd1d.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.split(".")[0]))
    assert found, "no imports parsed"
    assert sorted((name, mod) for name, mod in found if mod not in allowed) == []


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

    def test_no_config_file_runs_the_defaults(self, tmp_path, capsys):
        # the default beta overflows the demo within a few steps: exit 2
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        assert main(["solve", "--out", str(tmp_path / "a")]) == 2
        out_a = capsys.readouterr().out
        assert main(["solve", str(empty), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().out.replace("/b\n", "/a\n") == out_a
        files = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in "ab"]
        assert files[0] == files[1] and "verdict.csv" in files[0]

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

    @pytest.mark.parametrize("overrides, digest", [
        ([], "d7e00f0a6ad77c3ba2b91679b0717494"),
        (["scheme.kind=standard"], "4a4b954af3ffa96100ffa6e5112290fa"),
        (["gas.gamma=1.4"], "c106e44ce6986c5ddfab70355c6b7995"),
        (["gas.r0=0.05"], "d8e45c44140f810d8d8961a7ec386824"),
        (["scheme.kind=standard", "gas.gamma=1.4", "scheme.regularization=qhd"],
         "321f4a533c9ea2395e47e71259957219"),
        # 2 500 nodes, where the step window leaves out most of the mesh
        ([*_WIDE], "9f9e81229daabb99a75f78ca0482debc"),
        ([*_WIDE, "scheme.kind=standard"], "b50c32198108ae73054dc22d9451c346"),
        # the far u of the right run drifts by one ulp on the first step
        ([*_WIDE, "experiment.rho_right=0.7", "experiment.u_right=0.1"],
         "489b6093c0ec0098ffbb57a126fe58ed"),
        ([*_WIDE, "scheme.kind=standard", "experiment.u_left=-0.0", "experiment.u_right=-0.0"],
         "debdd091ea60018f768a0e35ee7c0742"),
    ], ids=["demo", "standard", "gamma-1.4", "r0-0.05", "standard-gamma-1.4-qhd", "wide",
            "wide-standard", "wide-drifting-run", "wide-standard-negative-zero-u"])
    def test_demo_solve_outputs_are_byte_identical_to_the_reference(self, tmp_path, overrides,
                                                                    digest):
        # every snapshot, diagnostics, verdict and SVG byte of the demo solve must not move
        assert _solve_digest(tmp_path, overrides) == (33, digest)

    def test_solve_large_outputs_are_byte_identical_to_the_reference(self, tmp_path):
        # 24 000-node end runs, written a run of equal rows at a time
        assert _solve_digest(tmp_path, _SOLVE_LARGE) == (10, "7891973032e9691762286376f47ffc1a")

    def test_overflow_run_exit_two(self, tmp_path, capsys):
        path = _fast_config(tmp_path, beta=6.0)
        assert main(["solve", str(path)]) == 2
        assert "overflow" in capsys.readouterr().out

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"scheme": {"alpha": -1}}', encoding="utf-8")
        assert main(["solve", str(path)]) == 1
        assert "scheme.alpha" in capsys.readouterr().err

    def test_overflowing_domain_span_exit_one(self, tmp_path, capsys):
        assert main(["solve", str(DEMO_CONFIG), "mesh.h=1e308", "--out", str(tmp_path / "out")]) == 1
        assert "error: the domain must span a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_directory_exit_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        path = _fast_config(tmp_path)
        assert main(["solve", str(path), "--out", str(blocker / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    @pytest.mark.parametrize("name, value", [("alpha", "nan"), ("beta", "inf"), ("kappa", "nan"),
                                             ("kappa", "inf")])
    def test_non_finite_parameter_exit_one(self, name, value, capsys):
        args = {"alpha": "0.5", "beta": "0.5", "kappa": "1", name: value}
        argv = ["stability"] + [item for key, v in args.items() for item in (f"--{key}", v)]
        assert main(argv) == 1
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha, kappa", [("1e308", "1"), ("1", "1e308"), ("1e200", "1")])
    def test_overflowing_scan_exit_one(self, alpha, kappa, capsys):
        # RuntimeWarnings are errors under the suite's filterwarnings
        assert main(["stability", "--alpha", alpha, "--beta", "0.5", "--kappa", kappa]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: the spectral scan overflows float64 at alpha={float(alpha):g}, "
                       f"beta=0.5, kappa={float(kappa):g}\n")

    def test_negative_alpha_s_exit_one(self, capsys):
        assert main(["stability", "--alpha", "0.5", "--beta", "0.5", "--alpha-s", "-1"]) == 1
        assert capsys.readouterr().err == "error: alpha_s must be >= 0\n"

    def test_kappa_and_alpha_s_together_exit_one(self, capsys):
        assert main(["stability", "--alpha", "0.5", "--beta", "0.5",
                     "--kappa", "1", "--alpha-s", "0"]) == 1
        assert "--kappa or --alpha-s" in capsys.readouterr().err

    def test_csv_export(self, tmp_path):
        csv_path = tmp_path / "verdict.csv"
        assert main(["stability", "--alpha", "0.5", "--beta", "1.0", "--kappa", "1",
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "alpha,beta,kappa,variant,necessary,criterion,sufficient,oracle_rho,oracle_gram"
        assert lines[1].startswith("0.5,1.0,1.0,qgd,True,True")

    def test_unwritable_csv_path_exit_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert main(["stability", "--alpha", "0.4", "--beta", "0.4", "--kappa", "2",
                     "--csv", str(blocker / "x.csv")]) == 1
        # the error names the parent that is not a directory, as solve --out does
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{blocker}'\n"
        assert blocker.read_text(encoding="utf-8") == ""

    def test_csv_path_that_is_a_directory_exit_one(self, tmp_path, capsys):
        target = tmp_path / "x.csv"
        target.mkdir()
        assert main(["stability", "--alpha", "0.4", "--beta", "0.5", "--kappa", "1",
                     "--csv", str(target)]) == 1
        # refused before any write: the error names the target, and no temp file is left
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert os.listdir(tmp_path) == ["x.csv"] and os.listdir(target) == []


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

    def test_overflowing_domain_span_exit_one(self, tmp_path, capsys):
        assert main(["sweep", str(DEMO_CONFIG), "mesh.h=1e308", "sweep.workers=1",
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: the domain must span a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_periodic_boundary_rejected(self, tmp_path, capsys):
        path = self._sweep_config(tmp_path, 1, "out")
        assert main(["sweep", str(path), "mesh.boundary=periodic"]) == 1
        assert "mesh.boundary" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_demo_sweep_region_is_byte_identical_to_the_reference(self, tmp_path, workers):
        # the demo sweep's region.csv, full-precision scores included, must not
        # move, in process and in the benchmark's 2-worker pool
        reference = json.loads((ROOT / "perfbench" / "references.json").read_text(
            encoding="utf-8"))["sweep-demo"]["full"]
        assert main(["sweep", str(DEMO_CONFIG), f"sweep.workers={workers}",
                     "--out", str(tmp_path)]) == 0
        region = (tmp_path / "region.csv").read_bytes()
        assert hashlib.md5(region).hexdigest() == reference["region_md5"]
        with open(tmp_path / "region.csv", newline="", encoding="utf-8") as f:
            counts = collections.Counter(row["verdict"] for row in csv.DictReader(f))
        assert dict(counts) == reference["verdicts"]


class TestVerify:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    @pytest.mark.parametrize("blow_up, detail", [
        (lambda rho, u: (rho * math.nan, u), "mass drift for standard"),
        (lambda rho, u: (rho, u * math.nan), "momentum drift for standard scheme"),
    ], ids=["nan-density", "nan-velocity"])
    def test_conservation_fails_when_the_scheme_blows_up(self, monkeypatch, capsys, blow_up, detail):
        # a NaN sum must fail the check, not slip through a comparison
        from qgd1d import cli

        monkeypatch.setattr(cli, "step_batch", lambda rho, u, *args, **kwargs: blow_up(rho, u))
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert f"suite discrete-conservation   : FAIL  ({detail})" in out

    def test_spectral_suites_fail_on_a_mismatch_and_a_growing_norm(self, monkeypatch, capsys):
        from qgd1d import cli, spectral

        recurrence = spectral._recurrence
        monkeypatch.setattr(spectral, "_recurrence",
                            lambda *args: tuple(1.5 * v for v in recurrence(*args)))
        monkeypatch.setattr(cli, "oracle_mismatches",
                            lambda: (6720, ["necessary mismatch at alpha=0.5 beta=0.5 kappa=1.0 qgd"]))
        assert main(["verify"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "suite oracle-vs-closed-forms  : FAIL  (necessary mismatch at alpha=0.5 beta=0.5 "
            "kappa=1.0 qgd)",
            # the first failing check, inside the criterion: every step of its 3 trials grows
            "suite norm-monotonicity       : FAIL  (norm-monotonicity check failed at "
            "alpha=0.7876050132651335 beta=0.1384384408795907 kappa=3.6916414029087266 qgd: "
            "360 point(s): [(0, 1, 1.0531287231224584), (0, 2, 1.23429156427611), "
            "(0, 3, 1.3295323859249504)])",
            "suite discrete-conservation   : PASS  (mass and momentum checks on periodic meshes)",
        ]

    def test_takes_no_config(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", str(DEMO_CONFIG)])
        assert exc.value.code == 2


def test_worker_count_env_var(monkeypatch, tmp_path, capsys):
    from qgd1d.cli import _worker_count

    cfg = validate_config({})
    assert cfg["sweep"]["workers"] == 0
    monkeypatch.delenv("QGD1D_WORKERS", raising=False)
    assert _worker_count(cfg) == 1
    monkeypatch.setenv("QGD1D_WORKERS", "6")
    assert _worker_count(cfg) == 6
    explicit = validate_config({"sweep": {"workers": 3}})
    assert _worker_count(explicit) == 3  # config beats the environment
    for raw in ("abc", "-3", "0", "2.5", ""):
        monkeypatch.setenv("QGD1D_WORKERS", raw)
        with pytest.raises(ConfigError, match="QGD1D_WORKERS: must be an integer >= 1"):
            _worker_count(cfg)
    assert _worker_count(explicit) == 3  # a set config never reads the variable
    monkeypatch.setenv("QGD1D_WORKERS", "abc")  # the demo config leaves sweep.workers at 0
    assert main(["sweep", str(DEMO_CONFIG), "--out", str(tmp_path / "out")]) == 1
    assert "QGD1D_WORKERS: must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
