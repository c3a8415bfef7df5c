"""Gas model, scheme configuration, and mesh state."""

import numpy as np
import pytest

from qgd1d import (
    GasModel,
    LengthMismatch,
    Mesh,
    MeshState,
    NonMonotonePressure,
    NonPositiveDensity,
    SchemeConfig,
    TabulatedLaw,
)


class TestPressure:
    def test_power_law_values(self):
        model = GasModel.isentropic(p1=1.0, gamma=2.0)
        assert model.pressure(1.0) == (1.0, 2.0)
        p, dp = model.pressure(0.1)
        assert p == pytest.approx(0.01, rel=1e-15)
        assert dp == pytest.approx(0.2, rel=1e-15)

    def test_power_law_noninteger_exponent(self):
        model = GasModel.isentropic(p1=1.0, gamma=1.4)
        p, dp = model.pressure(2.0)
        assert p == pytest.approx(2.6390158215457884, rel=1e-14)
        assert dp == pytest.approx(1.8473110750820518, rel=1e-14)

    def test_array_input(self):
        model = GasModel.isentropic(p1=2.0, gamma=3.0)
        rho = np.array([0.5, 1.0, 2.0])
        p, dp = model.pressure(rho)
        assert np.allclose(p, 2.0 * rho**3, rtol=1e-15)
        assert np.allclose(dp, 6.0 * rho**2, rtol=1e-15)

    def test_rejects_nonpositive_density(self):
        model = GasModel.isentropic()
        with pytest.raises(NonPositiveDensity):
            model.pressure(0.0)
        with pytest.raises(NonPositiveDensity):
            model.pressure(np.array([1.0, -0.5]))

    @pytest.mark.parametrize("p1, gamma, r0", [
        (float("nan"), 2.0, 0.0), (float("inf"), 2.0, 0.0), (1.0, float("nan"), 0.0),
        (1.0, float("inf"), 0.0), (1.0, 2.0, float("nan")), (1.0, 2.0, float("inf")),
    ])
    def test_rejects_non_finite_parameters(self, p1, gamma, r0):
        with pytest.raises(ValueError, match="finite"):
            GasModel.isentropic(p1=p1, gamma=gamma, r0=r0)

    def test_tabulated_monotonicity_checked(self):
        bad = GasModel(TabulatedLaw(p=lambda r: -r, p_prime=lambda r: -np.ones_like(np.asarray(r))), r0=0.5)
        with pytest.raises(NonMonotonePressure):
            bad.pressure(1.0)


class TestEnthalpy:
    def test_closed_form_gamma2(self):
        model = GasModel.isentropic(p1=1.0, gamma=2.0)
        assert model.enthalpy(1.0) == pytest.approx((2.0, 2.0), rel=1e-15)
        h, hp = model.enthalpy(0.25)
        assert h == pytest.approx(0.5, rel=1e-15)
        assert hp == pytest.approx(2.0, rel=1e-15)

    def test_closed_form_gamma14(self):
        model = GasModel.isentropic(p1=1.0, gamma=1.4)
        h, hp = model.enthalpy(1.0)
        assert h == pytest.approx(3.5, rel=1e-12)
        assert hp == pytest.approx(1.4, rel=1e-12)

    def test_derivative_identity(self):
        model = GasModel.isentropic(p1=0.7, gamma=1.8)
        for rho in (0.2, 1.0, 3.7):
            _, hp = model.enthalpy(rho)
            _, dp = model.pressure(rho)
            assert hp == pytest.approx(dp / rho, rel=1e-14)

    def test_quadrature_matches_closed_form_differences(self):
        # same law, once closed-form and once integrated from r0 = 0.7;
        # enthalpies may differ by a constant, their differences may not
        closed = GasModel.isentropic(p1=1.3, gamma=1.6)
        tab = GasModel(
            TabulatedLaw(p=lambda r: 1.3 * r**1.6, p_prime=lambda r: 1.3 * 1.6 * r**0.6),
            r0=0.7,
        )
        pairs = [(0.3, 1.1), (1.1, 2.4), (0.9, 4.0)]
        for r1, r2 in pairs:
            d_closed = closed.enthalpy(r2)[0] - closed.enthalpy(r1)[0]
            d_tab = tab.enthalpy(r2)[0] - tab.enthalpy(r1)[0]
            assert d_tab == pytest.approx(d_closed, abs=1e-8)


class TestSchemeConfig:
    def test_kappa_accessor(self):
        from qgd1d import Variant

        full = SchemeConfig(alpha=0.4, beta=0.5, alpha_s=4.0 / 3.0,
                            regularization=Variant.FULL_QGD)
        simplified = SchemeConfig(alpha=0.4, beta=0.5, alpha_s=4.0 / 3.0,
                                  regularization=Variant.SIMPLIFIED_QHD)
        assert full.kappa == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert simplified.kappa == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_time_step(self):
        cfg = SchemeConfig(alpha=0.4, beta=0.5, c_ref=2.0)
        assert cfg.time_step(0.008) == pytest.approx(0.5 * 0.008 / 2.0, rel=1e-15)
        from qgd1d import ConfigError

        with pytest.raises(ConfigError):
            SchemeConfig(alpha=0.4, beta=0.5).time_step(0.008)


class TestMeshState:
    def test_positive_density_enforced(self):
        mesh = Mesh(n=4, h=0.1)
        with pytest.raises(NonPositiveDensity):
            MeshState(mesh, np.array([1.0, 1.0, 0.0, 1.0]), np.zeros(4))

    def test_arrays_frozen_and_copied(self):
        mesh = Mesh(n=4, h=0.1)
        rho = np.ones(4)
        state = MeshState(mesh, rho, np.zeros(4))
        rho[0] = 5.0
        assert state.rho[0] == 1.0
        with pytest.raises(ValueError):
            state.rho[0] = 2.0

    def test_length_checked(self):
        mesh = Mesh(n=4, h=0.1)
        with pytest.raises(LengthMismatch):
            MeshState(mesh, np.ones(5), np.zeros(5))
