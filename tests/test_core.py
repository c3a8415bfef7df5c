"""Gas model, scheme configuration, and mesh state."""

import numpy as np
import pytest

from qgd1d import (
    ConfigError,
    GasModel,
    LengthMismatch,
    Mesh,
    MeshState,
    NonPositiveDensity,
    SchemeConfig,
)
from qgd1d.gas import _power


def _enthalpy(model, rho):
    """(h(rho), h'(rho)) through the kernel's unchecked GasModel._evaluate."""
    arr = np.asarray(rho, dtype=float)
    h, hp = np.empty_like(arr), np.empty_like(arr)
    model._evaluate(arr, h=h, hp=hp)
    return h, hp


class TestPressure:
    def test_power_law_values(self):
        model = GasModel(p1=1.0, gamma=2.0)
        assert model.pressure(1.0) == (1.0, 2.0)
        p, dp = model.pressure(0.1)
        assert p == pytest.approx(0.01, rel=1e-15)
        assert dp == pytest.approx(0.2, rel=1e-15)

    def test_power_law_noninteger_exponent(self):
        model = GasModel(p1=1.0, gamma=1.4)
        p, dp = model.pressure(2.0)
        assert p == pytest.approx(2.6390158215457884, rel=1e-14)
        assert dp == pytest.approx(1.8473110750820518, rel=1e-14)

    def test_array_input(self):
        model = GasModel(p1=2.0, gamma=3.0)
        rho = np.array([0.5, 1.0, 2.0])
        p, dp = model.pressure(rho)
        assert np.allclose(p, 2.0 * rho**3, rtol=1e-15)
        assert np.allclose(dp, 6.0 * rho**2, rtol=1e-15)

    def test_rejects_nonpositive_density(self):
        model = GasModel()
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
            GasModel(p1=p1, gamma=gamma, r0=r0)


class TestEnthalpy:
    def test_closed_form_gamma2(self):
        model = GasModel(p1=1.0, gamma=2.0)
        assert _enthalpy(model, 1.0) == pytest.approx((2.0, 2.0), rel=1e-15)
        h, hp = _enthalpy(model, 0.25)
        assert h == pytest.approx(0.5, rel=1e-15)
        assert hp == pytest.approx(2.0, rel=1e-15)

    def test_closed_form_gamma14(self):
        model = GasModel(p1=1.0, gamma=1.4)
        h, hp = _enthalpy(model, 1.0)
        assert h == pytest.approx(3.5, rel=1e-12)
        assert hp == pytest.approx(1.4, rel=1e-12)

    def test_derivative_identity(self):
        model = GasModel(p1=0.7, gamma=1.8)
        for rho in (0.2, 1.0, 3.7):
            _, hp = _enthalpy(model, rho)
            _, dp = model.pressure(rho)
            assert hp == pytest.approx(dp / rho, rel=1e-14)


def _copy_power(x, e):
    """x ** e the way the gas law used to take it: a copy, then **= e."""
    ref = np.empty_like(x)
    np.copyto(ref, x)
    ref **= e
    return ref


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# tiny, subnormal, huge (squares to inf) and the largest float beside ordinary values
_EXTREMES = np.array([5e-324, 1e-300, 0.1, 1.0 / 3.0, 1.0, 2.5, 1e200, 1.7976931348623157e308])
_POWER_INPUTS = [
    _EXTREMES,
    np.vstack([_EXTREMES, _EXTREMES[::-1], np.geomspace(1e-200, 1e200, _EXTREMES.size)]),
]


class TestPowerPath:
    """The one-pass power routes give the bits of the copy-and-**= route;
    a numpy whose ** routes exponents differently fails here by name."""

    @pytest.mark.parametrize("e", [2.0, 1.0, 0.0, 0.5, -1.0, 0.4, 1.4, -0.6, 3.0])
    @pytest.mark.parametrize("x", _POWER_INPUTS, ids=["1d", "rows"])
    def test_power_matches_copy_then_inplace_power(self, x, e):
        with np.errstate(all="ignore"):
            got = _power(x, e, np.empty_like(x))
            assert _same_bits(got, _copy_power(x, e))

    @pytest.mark.parametrize("gamma", [2.0, 1.4, 3.0])
    @pytest.mark.parametrize("r0", [0.0, 0.3])
    @pytest.mark.parametrize("x", _POWER_INPUTS, ids=["1d", "rows"])
    @pytest.mark.parametrize("outputs", [("p", "dp"), ("dp", "h", "hp"), ("dp", "h"), ("h",),
                                         ("dp",), ("hp",), ("p", "dp", "h", "hp")])
    def test_evaluate_matches_copy_power_formulas(self, gamma, r0, x, outputs):
        model = GasModel(p1=0.7, gamma=gamma, r0=r0)
        g, p1 = gamma, 0.7
        coeff = g / (g - 1.0)
        with np.errstate(all="ignore"):
            want = {"p": np.multiply(_copy_power(x, g), p1),
                    "dp": np.multiply(_copy_power(x, g - 1.0), g * p1),
                    "h": _copy_power(x, g - 1.0),
                    "hp": np.multiply(_copy_power(x, g - 2.0), g * p1)}
            want["h"] *= coeff * p1
            if r0 > 0.0:
                want["h"] -= coeff * p1 * r0 ** (g - 1.0)
            got = {name: np.full_like(x, np.nan) for name in outputs}
            model._evaluate(x, **got)
        for name in outputs:
            assert _same_bits(got[name], want[name]), name


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
        with pytest.raises(ConfigError):
            SchemeConfig(alpha=0.4, beta=0.5).time_step(0.008)

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("alpha", "beta", "alpha_s", "c_ref")
        for value in (float("nan"), float("inf"), -float("inf"))
    ])
    def test_rejects_non_finite_parameters(self, field, value):
        kwargs = dict(alpha=0.4, beta=0.5, alpha_s=1.0, c_ref=1.5)
        kwargs[field] = value
        with pytest.raises(ConfigError, match="finite"):
            SchemeConfig(**kwargs)


class TestMesh:
    @pytest.mark.parametrize("h, x_min", [
        (float("nan"), 0.0), (float("inf"), 0.0), (0.1, float("nan")),
        (0.1, float("inf")), (0.1, -float("inf")),
    ])
    def test_rejects_non_finite_parameters(self, h, x_min):
        with pytest.raises(ValueError, match="finite"):
            Mesh(n=10, h=h, x_min=x_min)

    def test_rejects_fewer_than_three_nodes(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            Mesh(n=2, h=0.1)


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
