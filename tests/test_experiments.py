"""Riemann initial data, run classification, region sweeps."""

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
from qgd1d.schemes import Trajectory

MODEL = GasModel.isentropic(1.0, 2.0)

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
        assert mesh.n == 250
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
        mirrored = setup.mirrored()
        bwd = run_simulation(riemann_initial(mirrored, mesh), MODEL, cfg, setup.t_end)
        assert fwd.completed and bwd.completed
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
        from qgd1d.schemes import Diagnostics

        empty = Trajectory(snapshots=[], diagnostics=Diagnostics(*(np.zeros(0),) * 5),
                           completed=True, overflow=False, steps=0)
        with pytest.raises(EmptyTrajectory):
            classify_run(empty, ClassifyThresholds())

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
