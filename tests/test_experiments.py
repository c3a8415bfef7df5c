"""Riemann initial data, run classification, region sweeps."""

import collections
import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from qgd1d import (
    Boundary,
    Classification,
    ClassifyThresholds,
    DomainMismatch,
    EmptyTrajectory,
    GasModel,
    Mesh,
    MeshState,
    RiemannSetup,
    SchemeConfig,
    SchemeKind,
    Variant,
    classify_run,
    compare_transition,
    estimate_signal_speed,
    riemann_initial,
    run_simulation,
    sweep_region,
)
from qgd1d import experiments, output, schemes
from qgd1d.schemes import _diagnostics
from qgd1d.schemes import Diagnostics, Trajectory


def _mirrored(setup):
    """Swap sides and negate velocities (the x -> -x image of the data)."""
    return replace(
        setup,
        rho_left=setup.rho_right, u_left=-setup.u_right,
        rho_right=setup.rho_left, u_right=-setup.u_left,
        x0=-setup.x0, x_min=-setup.x_max, x_max=-setup.x_min,
    )


MODEL = GasModel(1.0, 2.0)

PAPER_SETUP = RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.1, u_right=0.0,
                           x0=0.0, x_min=-1.0, x_max=1.0, h=1.0 / 125.0, t_end=0.5)


def enthalpy_cfg(alpha, beta, c_ref):
    return SchemeConfig(alpha=alpha, beta=beta, alpha_s=4.0 / 3.0,
                        regularization=Variant.FULL_QGD, scheme=SchemeKind.ENTHALPY,
                        c_ref=c_ref)


class TestRiemannInitial:
    def test_step_function(self):
        mesh = PAPER_SETUP.mesh()
        state = riemann_initial(PAPER_SETUP, mesh)
        assert mesh.n == 250 and mesh.boundary is Boundary.OUTFLOW
        x = mesh.nodes
        assert np.all(state.rho[x < -1e-9] == 1.0)
        assert np.all(state.rho[x > 1e-9] == 0.1)
        k0 = int(np.argmin(np.abs(x)))
        assert abs(x[k0]) < 1e-12          # a node sits exactly on the jump
        assert state.rho[k0] == 1.0        # and takes the left state
        assert state.u[k0] == 0.1

    def test_degenerate_setup_is_fixed_point(self):
        setup = RiemannSetup(rho_left=0.8, u_left=0.2, rho_right=0.8, u_right=0.2,
                             x0=0.0, x_min=-0.5, x_max=0.5, h=0.05, t_end=0.2)
        mesh = setup.mesh()
        state = riemann_initial(setup, mesh)
        traj = run_simulation(state, MODEL, enthalpy_cfg(0.4, 0.4, None), setup.t_end)
        assert np.allclose(traj.snapshots[-1][1].rho, 0.8, atol=1e-13)
        assert np.allclose(traj.snapshots[-1][1].u, 0.2, atol=1e-13)

    @pytest.mark.parametrize("field", ["rho_left", "rho_right", "u_left", "u_right", "x0",
                                       "h", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            replace(PAPER_SETUP, **{field: value})

    @pytest.mark.parametrize("x_min, x_max, h", [(-1e308, 1e308, 1.0), (-1.0, 1.0, 5e-324)])
    def test_rejects_a_domain_of_overflowing_span(self, x_min, x_max, h):
        # (x_max - x_min) / h is inf, whose node count mesh() cannot round
        with pytest.raises(ValueError, match="finite number of mesh steps"):
            RiemannSetup(1.0, 0.0, 0.1, 0.0, x_min=x_min, x_max=x_max, h=h)

    @pytest.mark.parametrize("x0", [-1.0, 1.0, 2.0])
    def test_rejects_a_jump_not_strictly_inside_the_domain(self, x0):
        with pytest.raises(ValueError, match="x0 must lie strictly inside the domain"):
            replace(PAPER_SETUP, x_min=-1.0, x_max=1.0, x0=x0)

    def test_domain_mismatch(self):
        mesh = Mesh(n=100, h=0.05, x_min=-2.0, boundary=Boundary.OUTFLOW)
        with pytest.raises(DomainMismatch):
            riemann_initial(PAPER_SETUP, mesh)

    @pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
    def test_mirror_symmetry(self, kind):
        # even node count symmetric about the jump: no node on x0, so the
        # mirrored run is the exact node-wise mirror with negated velocity
        n, h = 80, 0.01
        setup = RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.1, u_right=0.0,
                             x0=0.0, x_min=-(n - 1) * h / 2.0 - h / 2.0,
                             x_max=(n - 1) * h / 2.0 + h / 2.0, h=h, t_end=0.15)
        mesh = Mesh(n=n, h=h, x_min=-(n - 1) * h / 2.0, boundary=Boundary.OUTFLOW)
        cfg = SchemeConfig(alpha=0.4, beta=0.25, alpha_s=4.0 / 3.0, scheme=kind,
                           c_ref=math.sqrt(2.0))
        fwd = run_simulation(riemann_initial(setup, mesh), MODEL, cfg, setup.t_end)
        mirrored = _mirrored(setup)
        bwd = run_simulation(riemann_initial(mirrored, mesh), MODEL, cfg, setup.t_end)
        assert not fwd.overflow and not bwd.overflow
        f, b = fwd.snapshots[-1][1], bwd.snapshots[-1][1]
        assert np.allclose(b.rho, f.rho[::-1], rtol=1e-10, atol=1e-12)
        assert np.allclose(b.u, -f.u[::-1], rtol=1e-10, atol=1e-12)


class TestClassify:
    def _trajectory(self, cfg_beta, c_ref=2.0176878258221596):
        mesh = PAPER_SETUP.mesh()
        initial = riemann_initial(PAPER_SETUP, mesh)
        return run_simulation(initial, MODEL, enthalpy_cfg(0.4, cfg_beta, c_ref),
                              PAPER_SETUP.t_end, record_every=10)

    def test_constant_state_scores_zero(self):
        mesh = Mesh(n=10, h=0.1, boundary=Boundary.PERIODIC)
        state = MeshState(mesh, np.ones(10), np.zeros(10))
        traj = run_simulation(state, MODEL, enthalpy_cfg(0.4, 0.4, None), 0.05)
        verdict = classify_run(traj, ClassifyThresholds())
        assert verdict.classification is Classification.CONSERVATIVE
        assert verdict.oscillation_score == 0.0

    def test_smooth_run_conservative(self):
        verdict = classify_run(self._trajectory(0.40),
                               ClassifyThresholds.for_setup(PAPER_SETUP))
        assert verdict.classification is Classification.CONSERVATIVE
        assert verdict.completed and verdict.oscillation_score < 1.2

    def test_unstable_run_flagged(self):
        verdict = classify_run(self._trajectory(0.80),
                               ClassifyThresholds.for_setup(PAPER_SETUP))
        assert verdict.classification in (Classification.NON_CONSERVATIVE,
                                          Classification.OVERFLOW)

    def test_overflow_maps_to_overflow(self):
        verdict = classify_run(self._trajectory(3.0),
                               ClassifyThresholds.for_setup(PAPER_SETUP))
        assert verdict.classification is Classification.OVERFLOW
        assert not verdict.completed

    def test_empty_trajectory_rejected(self):
        empty = Trajectory(snapshots=[], diagnostics=Diagnostics(*(np.zeros(0),) * 6),
                           overflow=False, steps=0, tv=np.zeros(0))
        with pytest.raises(EmptyTrajectory):
            classify_run(empty, ClassifyThresholds())

    @staticmethod
    def _hand_made(profiles, min_rho, max_rho):
        """A completed trajectory with one snapshot per density profile, their
        TV record and the given per-step minimum and maximum densities."""
        mesh = Mesh(n=len(profiles[0]), h=0.1, boundary=Boundary.OUTFLOW)
        snapshots = [(0.1 * k, MeshState(mesh, rho, np.zeros(mesh.n), 0.1 * k))
                     for k, rho in enumerate(profiles)]
        tv = np.array([np.sum(np.abs(np.diff(state.rho))) for _, state in snapshots])
        t = np.linspace(0.0, 0.1 * (len(profiles) - 1), len(min_rho))
        diagnostics = Diagnostics(t, np.ones_like(t), np.zeros_like(t), np.asarray(min_rho),
                                  np.zeros_like(t), np.asarray(max_rho))
        return Trajectory(snapshots, diagnostics, overflow=False, steps=len(min_rho) - 1, tv=tv)

    def test_floor_dip_between_snapshots_is_non_conservative(self):
        # every snapshot stays above the floor; only the per-step record dips
        traj = self._hand_made([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5]], min_rho=[0.5, 0.2, 0.5],
                               max_rho=[1.0, 1.0, 1.0])
        verdict = classify_run(traj, ClassifyThresholds(rho_floor=0.3, rho_ceil=2.0))
        assert verdict.oscillation_score == 1.0
        assert verdict.classification is Classification.NON_CONSERVATIVE

    def test_snapshot_above_ceiling_is_non_conservative(self):
        traj = self._hand_made([[1.0, 1.0, 0.5], [1.0, 2.5, 1.75]], min_rho=[0.5, 0.5],
                               max_rho=[1.0, 2.5])
        verdict = classify_run(traj, ClassifyThresholds(tv_ratio_max=10.0, rho_floor=0.3,
                                                        rho_ceil=2.0))
        assert verdict.oscillation_score == 4.5  # below tv_ratio_max: the ceiling decides
        assert verdict.classification is Classification.NON_CONSERVATIVE

    def test_ceiling_overshoot_between_snapshots_is_non_conservative(self):
        # every snapshot stays below the ceiling; only the per-step record exceeds it
        traj = self._hand_made([[1.0, 1.0, 0.5], [1.0, 1.0, 0.5]], min_rho=[0.5, 0.5, 0.5],
                               max_rho=[1.0, 2.1, 1.0])
        verdict = classify_run(traj, ClassifyThresholds(rho_floor=0.3, rho_ceil=2.0))
        assert verdict.oscillation_score == 1.0
        assert verdict.classification is Classification.NON_CONSERVATIVE

    def test_flat_start_that_develops_variation_scores_inf(self):
        traj = self._hand_made([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.1, 1.0]],
                               min_rho=[1.0, 1.0, 1.0], max_rho=[1.0, 1.0, 1.1])
        verdict = classify_run(traj, ClassifyThresholds())
        assert verdict.oscillation_score == math.inf
        assert verdict.classification is Classification.NON_CONSERVATIVE

    @pytest.mark.parametrize("n", [3, 249, 8192, 8194, 25_000])
    def test_total_variation_has_the_bits_of_sum_abs_diff(self, n):
        # subnormal to large magnitudes, and -0.0 after 0.0 (a -0.0 difference),
        # as the rows of a batch and of the first rows of its buffers, as when
        # rows have left it; 8 192 is numpy's buffer size
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        v[:3] = 0.0, -0.0, 5e-324
        v[n // 2:n // 2 + 2] = 0.0, -0.0
        rows = np.stack((v, v[::-1], np.abs(v)))
        diffs, out, abs_u = np.empty((4, n - 1)), np.empty((4, 7)), np.empty((4, n))
        for batch in (rows, rows[1:]):
            k = len(batch)
            d = _diagnostics(np.zeros(k), batch, batch, 1.0, (0, n), out[:k], None, abs_u[:k],
                             diffs[:k])
            assert [x.hex() for x in d[:, 6].tolist()] == [
                float(np.sum(np.abs(np.diff(w)))).hex() for w in batch]

    def test_thresholds_from_setup(self):
        thr = ClassifyThresholds.for_setup(PAPER_SETUP)
        assert thr.rho_floor == pytest.approx(0.05)
        assert thr.rho_ceil == pytest.approx(2.0)


class TestSweep:
    def _small_setup(self):
        return RiemannSetup(rho_left=1.0, u_left=0.1, rho_right=0.1, u_right=0.0,
                            x0=0.0, x_min=-0.5, x_max=0.5, h=0.02, t_end=0.1)

    def test_shapes_and_overlays(self):
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None),
                              alphas=[0.3, 0.4], betas=[0.5, 0.8, 1.1],
                              beta_mode="relative", record_every=5)
        assert region.actual_betas.shape == (2, 3)
        assert len(region.verdicts) == 2 and len(region.verdicts[0]) == 3
        assert region.overlays.sufficient is not None  # p = rho^2, kappa = 7/3
        assert np.all(region.overlays.criterion <= region.overlays.necessary + 1e-15)

    @pytest.mark.parametrize("alphas, betas, beta_mode, match", [
        ([], [0.5], "absolute", "non-empty"),
        ([0.4], [], "relative", "non-empty"),
        ([0.4], [0.5], "log", "beta_mode"),
    ])
    def test_invalid_grid_rejected(self, alphas, betas, beta_mode, match):
        with pytest.raises(ValueError, match=match):
            sweep_region(self._small_setup(), MODEL, enthalpy_cfg(0.4, 1.0, None),
                         alphas=alphas, betas=betas, beta_mode=beta_mode)

    def test_relative_mode_scales_by_criterion(self):
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None),
                              alphas=[0.4], betas=[0.5, 1.0], beta_mode="relative",
                              record_every=5)
        crit = 15.0 / 28.0
        assert region.actual_betas[0, 0] == pytest.approx(0.5 * crit, rel=1e-13)
        assert region.actual_betas[0, 1] == pytest.approx(crit, rel=1e-13)

    def test_deterministic_across_worker_counts(self):
        setup = self._small_setup()
        kwargs = dict(alphas=[0.3, 0.5], betas=[0.4, 0.9, 1.3], beta_mode="relative",
                      record_every=5)
        serial = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None), workers=1, **kwargs)
        parallel = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None), workers=2, **kwargs)
        for i in range(2):
            for j in range(3):
                a, b = serial.verdicts[i][j], parallel.verdicts[i][j]
                assert a.classification is b.classification
                assert a.oscillation_score == b.oscillation_score
        assert np.array_equal(serial.actual_betas, parallel.actual_betas)

    def test_sufficient_region_all_conservative(self):
        # cells strictly below the published sufficient bound must all pass
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None),
                              alphas=[0.3, 0.5, 0.8], betas=[0.15], beta_mode="absolute",
                              record_every=5)
        for column in region.verdicts:
            for verdict in column:
                assert verdict.classification is Classification.CONSERVATIVE

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_far_unstable_region_and_monotone_columns(self, workers):
        # overflowing and finite rows share a batch; any numpy RuntimeWarning fails
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None),
                              alphas=[0.4], betas=[0.5, 2.2, 2.6, 3.0], beta_mode="relative",
                              record_every=5, workers=workers)
        assert region.verdicts[0][0].classification is Classification.CONSERVATIVE
        for verdict in region.verdicts[0][1:]:
            assert verdict.classification in (Classification.NON_CONSERVATIVE,
                                              Classification.OVERFLOW)
        assert Classification.OVERFLOW in {v.classification for v in region.verdicts[0]}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("kind", [SchemeKind.STANDARD, SchemeKind.ENTHALPY])
    @pytest.mark.parametrize("variant", [Variant.FULL_QGD, Variant.SIMPLIFIED_QHD])
    def test_batched_sweep_matches_per_cell_runs(self, kind, variant, workers):
        # the per-cell loop of run_simulation + classify_run is the reference
        setup = self._small_setup()
        cfg = SchemeConfig(alpha=0.4, beta=1.0, alpha_s=4.0 / 3.0, regularization=variant,
                           scheme=kind)
        thresholds = ClassifyThresholds.for_setup(setup)
        region = sweep_region(setup, MODEL, cfg, alphas=[0.3, 0.6],
                              betas=[0.6, 1.0, 1.2, 1.4, 1.8, 2.6], beta_mode="relative",
                              thresholds=thresholds, record_every=5, workers=workers)
        initial = riemann_initial(setup, setup.mesh())
        seen = set()
        for i, alpha in enumerate(region.alphas):
            for j, beta in enumerate(region.actual_betas[i]):
                cell_cfg = replace(cfg, alpha=float(alpha), beta=float(beta))
                traj = run_simulation(initial, MODEL, cell_cfg, setup.t_end, record_every=5)
                want = classify_run(traj, thresholds)
                got = region.verdicts[i][j]
                assert got.classification is want.classification
                assert got.oscillation_score == want.oscillation_score
                seen.add(got.classification)
        assert seen == set(Classification)

    @pytest.mark.parametrize("model, shallow_water", [
        (GasModel(p1=2.0), False), (GasModel(gamma=1.4), False), (GasModel(), True),
    ], ids=["p1=2", "gamma=1.4", "p=rho^2"])
    def test_sufficient_overlay_only_for_shallow_water(self, tmp_path, model, shallow_water):
        region = sweep_region(self._small_setup(), model, enthalpy_cfg(0.4, 1.0, 2.0),
                              alphas=[0.3, 0.6], betas=[0.1], beta_mode="absolute",
                              record_every=5)
        assert (region.overlays.sufficient is not None) is shallow_water
        output.write_overlay_csv(str(tmp_path / "overlays.csv"), region)
        with open(tmp_path / "overlays.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert all((row["beta_sufficient"] != "") is shallow_water for row in rows)

    def test_compare_transition_report(self):
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, 2.02),
                              alphas=[0.4], betas=[0.5, 0.7, 0.9, 1.1, 1.3, 1.5],
                              beta_mode="relative", record_every=5)
        rows = compare_transition(region)
        assert len(rows) == 1
        row = rows[0]
        assert row.monotone
        assert row.largest_conservative is not None
        assert row.smallest_nonconservative is not None
        assert row.largest_conservative < row.smallest_nonconservative
        assert row.transition == pytest.approx(
            0.5 * (row.largest_conservative + row.smallest_nonconservative))
        assert row.gap_to_criterion is not None
        assert row.gap_to_sufficient > 0.0

    def test_a_demo_sized_shard_does_per_row_work_only_for_exits_and_snapshots(self, monkeypatch):
        # one batch of 54 demo cells (every other demo beta) makes one
        # step_batch call per step, one _diagnostics call per step and one for
        # the initial state, and no MeshState: it runs verdict-only
        calls = collections.Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("step_batch", "_diagnostics", "MeshState"):
            monkeypatch.setattr(schemes, name, counted(name, getattr(schemes, name)))
        trajs = []
        monkeypatch.setattr(experiments, "classify_run",
                            lambda traj, thresholds: classify_run(trajs.append(traj) or traj,
                                                                  thresholds))
        sweep_region(PAPER_SETUP, MODEL, enthalpy_cfg(0.4, 0.45, 2.0176878258221596),
                     alphas=[0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                     betas=[0.6, 0.74, 0.88, 1.02, 1.16, 1.3], beta_mode="relative",
                     record_every=10, workers=1)
        assert len(trajs) == 54 and 0 < sum(traj.overflow for traj in trajs) < 54
        steps = max(traj.steps + traj.overflow for traj in trajs)
        assert dict(calls) == {"step_batch": steps, "_diagnostics": steps + 1}
        assert calls["MeshState"] == 0
        assert all(traj.snapshots is traj.diagnostics.mass is traj.diagnostics.momentum is None
                   for traj in trajs)

    def test_all_conservative_column_reports_open_transition(self):
        setup = self._small_setup()
        region = sweep_region(setup, MODEL, enthalpy_cfg(0.4, 1.0, None),
                              alphas=[0.4], betas=[0.1, 0.2], beta_mode="relative",
                              record_every=5)
        row = compare_transition(region)[0]
        assert row.smallest_nonconservative is None
        assert row.transition is None


def test_signal_speed_estimate_matches_dam_break_front():
    speed = estimate_signal_speed(PAPER_SETUP, MODEL, enthalpy_cfg(0.4, 1.0, None))
    assert speed == pytest.approx(2.017, abs=0.02)
