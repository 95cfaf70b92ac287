import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from kerrosc.driven import DriveSpec, FrequencySpec
from kerrosc.driven import energy_level as driven_energy_level
from kerrosc.fock import FockState, coherent_state, momentum_operator, position_operator
from kerrosc.oracle import fidelity, integrate_schrodinger
from kerrosc.timemap import (
    MassSpec,
    evolve_via_timemap,
    heisenberg_coefficients,
    physical_time,
    rescaled_time,
    transformed_frequency,
)


# Every time function takes a time or an array of times through one path.
# Knots of the tabulated specs sit at 0, 1, 2, 3, 4; the times hit knots and
# fall between them.
_KNOTS = [0.0, 1.0, 2.0, 3.0, 4.0]
_TIMES = np.array([0.0, 0.1, 0.5, 1.0, 1.3, 2.0, 2.45, 3.1, 4.0])
_COSINE = DriveSpec.cosine(0.8, 1.3)
_MODULATED = FrequencySpec(1.2, 0.2)
ONE_PATH = {
    "drive-zero": DriveSpec.zero(),
    "drive-constant": DriveSpec.constant(0.7),
    "drive-cosine": _COSINE,
    "drive-tabulated": DriveSpec.tabulated(_KNOTS, [0.0, 0.5, -0.3, 0.8, 0.1]),
    "mass-constant": MassSpec.constant(1.4),
    "mass-exponential": MassSpec.exponential(0.9, 0.3),
    "mass-tabulated": MassSpec.tabulated(_KNOTS, [1.0, 1.2, 0.9, 1.5, 2.0]),
    "frequency-k0": FrequencySpec(1.2),
    "frequency-k": _MODULATED,
    "energy-level": lambda t: driven_energy_level(3, _COSINE, _MODULATED, t),
}
for _kind in ("constant", "exponential", "tabulated"):
    ONE_PATH[f"rescaled-time-{_kind}"] = (
        lambda t, m=ONE_PATH[f"mass-{_kind}"]: rescaled_time(m, t))
for _name in ("c_qq", "c_qp", "c_pq", "c_pp"):
    ONE_PATH[f"heisenberg-{_name}"] = (lambda t, c=_name: getattr(
        heisenberg_coefficients(1.1, 1.0, 0.4, t), c))


# Each kind's own parameters, valid; for every parameter, a valid value off
# its kind, and its field default (spelt as an int or -0.0 where it can be).
_OWN = {
    ("DriveSpec", "zero"): {},
    ("DriveSpec", "constant"): {"value": 1.5},
    ("DriveSpec", "cosine"): {"amplitude": 1.0, "frequency": 2.0},
    ("DriveSpec", "tabulated"): {"times": [0.0, 1.0], "values": [1.0, 2.0]},
    ("MassSpec", "constant"): {"m0": 2.0},
    ("MassSpec", "exponential"): {"m0": 2.0, "rate": 0.5},
    ("MassSpec", "tabulated"): {"times": [0.0, 1.0], "values": [1.0, 2.0]},
}
_OFF_KIND = {"value": 2.0, "amplitude": 1.0, "frequency": 1.0, "m0": 2.0,
             "rate": 0.5, "times": [0.0, 1.0], "values": [1.0, 2.0]}
_DEFAULTS = {"value": 0, "amplitude": 0, "frequency": -0.0, "m0": 1,
             "rate": 0.0, "times": None, "values": None}
_PARAMS = {DriveSpec: ("value", "amplitude", "frequency", "times", "values"),
           MassSpec: ("m0", "rate", "times", "values")}
_OFF_KIND_CASES = [
    pytest.param(cls, kind, param, id=f"{cls.__name__}-{kind}-{param}")
    for cls, params in _PARAMS.items()
    for (name, kind), own in _OWN.items() if name == cls.__name__
    for param in params if param not in own]


@pytest.mark.parametrize("name", sorted(ONE_PATH))
def test_array_call_matches_scalar_calls(name):
    f = ONE_PATH[name]
    scalars = [f(float(t)) for t in _TIMES]
    assert all(isinstance(value, float) for value in scalars)  # no 0-d array
    whole = f(_TIMES)
    assert isinstance(whole, np.ndarray) and whole.shape == _TIMES.shape
    np.testing.assert_allclose(whole, scalars, rtol=1e-14, atol=0.0)
    np.testing.assert_array_equal(f(_TIMES.reshape(3, 3)),
                                  whole.reshape(3, 3))


def test_energy_level_broadcasts_levels_against_times():
    levels = np.arange(5)[:, None]
    table = driven_energy_level(levels, _COSINE, _MODULATED, _TIMES)
    loop = [[driven_energy_level(n, _COSINE, _MODULATED, float(t))
             for t in _TIMES] for n in range(5)]
    np.testing.assert_allclose(table, loop, rtol=1e-14, atol=0.0)


class TestRescaledTime:
    def test_unit_mass_is_identity(self):
        assert rescaled_time(MassSpec.constant(1.0), 5.0) == 5.0

    def test_exponential_closed_form_and_saturation(self):
        m = MassSpec.exponential(1.0, 1.0)
        assert abs(rescaled_time(m, 2.0) - (1 - math.exp(-2.0))) < 1e-14
        assert abs(rescaled_time(m, 50.0) - 1.0) < 1e-12  # horizon at 1/rate

    def test_exponential_rate_half_frozen_value(self):
        m = MassSpec.exponential(1.0, 0.5)
        tau = rescaled_time(m, 2.0)
        assert abs(tau - 2.0 * (1 - math.exp(-1.0))) < 1e-14
        assert abs(tau - 1.2642411176571153) < 1e-12
        # quadrature oracle over 1/m
        oracle = quad(lambda s: math.exp(-0.5 * s), 0.0, 2.0, epsabs=1e-13)[0]
        assert abs(tau - oracle) < 1e-12

    def test_tabulated_against_quadrature_oracle(self):
        ts = np.linspace(0.0, 4.0, 41)
        ms = 1.0 + 0.5 * np.sin(ts) ** 2
        m = MassSpec.tabulated(ts, ms)
        t_eval = 3.3
        knots = [float(k) for k in ts if 0.0 < k < t_eval]
        oracle = quad(lambda s: 1.0 / float(m(s)), 0.0, t_eval,
                      epsabs=1e-13, limit=500, points=knots)[0]
        assert abs(rescaled_time(m, t_eval) - oracle) < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rescaled_time(MassSpec.constant(1.0), -0.1)
        with pytest.raises(ValueError, match="^tau must be non-negative$"):
            physical_time(MassSpec.constant(1.0), np.array([0.5, -0.1]))

    @pytest.mark.parametrize("make, name", [
        (lambda: MassSpec.exponential(math.nan, 0.3), "mass m0"),
        (lambda: MassSpec.exponential(1.0, math.inf), "mass rate"),
        (lambda: MassSpec.constant(math.inf), "mass m0"),
        # built directly, a spec runs the same checks
        pytest.param(lambda: MassSpec(kind="exponential", m0=math.nan),
                     "mass m0", id="direct-exponential-m0"),
        pytest.param(lambda: MassSpec(kind="exponential", rate=math.nan),
                     "mass rate", id="direct-exponential-rate"),
        pytest.param(lambda: MassSpec(kind="constant", m0=-math.inf),
                     "mass m0", id="direct-constant-m0"),
    ])
    def test_non_finite_mass_parameter_refused(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got "):
            make()

    def test_unknown_kind_refused_when_built(self):
        with pytest.raises(ValueError, match="unknown mass kind 'linear'"):
            MassSpec(kind="linear")
        with pytest.raises(ValueError, match="^unknown drive kind 'sine'$"):
            DriveSpec(kind="sine")

    @pytest.mark.parametrize("cls, kind, param", _OFF_KIND_CASES)
    def test_parameter_outside_its_kind_refused(self, cls, kind, param):
        own = _OWN[cls.__name__, kind]
        section = "drive" if cls is DriveSpec else "mass"
        with pytest.raises(ValueError, match=(
                f"^{section} kind '{kind}' takes no {param}$")):
            cls(kind=kind, **own, **{param: _OFF_KIND[param]})
        # the same parameter at its default is accepted and changes nothing
        at_default = cls(kind=kind, **own, **{param: _DEFAULTS[param]})
        assert at_default == cls(kind=kind, **own)
        assert getattr(at_default, param) is None or \
            type(getattr(at_default, param)) is float

    def test_each_kind_declares_its_own_parameters(self):
        # 10 settable values, where 5 drive parameters x 4 kinds and 4 mass
        # parameters x 3 kinds made 32
        declared = {(cls.__name__, kind): params for cls in _PARAMS
                    for kind, params in cls.KINDS.items()}
        assert declared == {key: tuple(own) for key, own in _OWN.items()}
        assert sum(map(len, declared.values())) == 10
        assert len(_OFF_KIND_CASES) == 32 - 10

    @pytest.mark.parametrize("cls", [DriveSpec, MassSpec])
    def test_tabulated_specs_compare_and_hash_by_value(self, cls):
        spec = cls.tabulated([0, 1, 2], [1, 2, 1])
        same = cls.tabulated(np.array([0.0, 1.0, 2.0]), (1.0, 2.0, 1.0))
        assert spec == same and hash(spec) == hash(same)
        assert len({spec, same, cls.tabulated([0, 1, 2], [1, 2, 1.5])}) == 2
        assert spec != cls.tabulated([0, 1, 3], [1, 2, 1])
        assert spec != cls(kind=next(iter(cls.KINDS)))

    @pytest.mark.parametrize("cls", [DriveSpec, MassSpec])
    def test_tabulated_samples_are_read_only_copies(self, cls):
        times, values = np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 1.5])
        spec = cls.tabulated(times, values)
        before = spec(np.linspace(0.0, 2.0, 9))
        times[2], values[1] = 5.0, 7.0  # the caller's arrays stay writeable
        np.testing.assert_array_equal(spec.times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(spec.values, [1.0, 2.0, 1.5])
        np.testing.assert_array_equal(spec(np.linspace(0.0, 2.0, 9)), before)
        for samples in (spec.times, spec.values):
            with pytest.raises(ValueError, match="read-only"):
                samples[0] = 0.5

    @pytest.mark.parametrize("cls", [DriveSpec, MassSpec])
    def test_parameters_after_kind_are_keyword_only(self, cls):
        # positionally, 2.0 would bind to the samples
        with pytest.raises(TypeError, match="positional"):
            cls("constant", 2.0)
        assert cls("constant", **_OWN[cls.__name__, "constant"]) == \
            cls(kind="constant", **_OWN[cls.__name__, "constant"])

    @pytest.mark.parametrize("cls", [DriveSpec, MassSpec])
    @pytest.mark.parametrize("times, values", [
        ([0.0, 1.0, 2.0], [1.0, 2.0]),
        ([[0.0, 1.0]], [[1.0, 2.0]]),
        ([0.0], [1.0]),
    ], ids=["unequal", "2-D", "one-sample"])
    def test_tabulated_samples_must_match(self, cls, times, values):
        section = "drive" if cls is DriveSpec else "mass"
        with pytest.raises(ValueError, match=(
                f"^tabulated {section} needs matching 1-D samples$")):
            cls.tabulated(times, values)

    def test_non_positive_mass_rejected(self):
        with pytest.raises(ValueError):
            MassSpec.constant(0.0)
        with pytest.raises(ValueError):
            MassSpec.tabulated([0.0, 1.0], [1.0, -2.0])
        with pytest.raises(ValueError, match="^mass samples must be positive$"):
            MassSpec(kind="tabulated", times=[0, 1], values=[1, -1])
        # positive samples, but the cubic's rounding takes the last one to
        # zero or below at its own time
        with pytest.raises(ValueError,
                           match="^interpolated mass is non-positive$"):
            MassSpec.tabulated([0.0, 1.0], [1.0, 1e-20])(1.0)

    def test_inverse_round_trip(self):
        for m in (MassSpec.constant(2.0), MassSpec.exponential(1.5, 0.4),
                  MassSpec.tabulated(np.linspace(0, 5, 21),
                                     2.0 + np.cos(np.linspace(0, 5, 21)))):
            t = 2.7
            assert abs(physical_time(m, rescaled_time(m, t)) - t) < 1e-9
            ts = np.array([[0.0, 0.4], [2.7, 4.9]])  # one whole-array call
            back = physical_time(m, rescaled_time(m, ts))
            assert back.shape == ts.shape
            assert np.abs(back - ts).max() < 1e-9

    def test_tabulated_round_trip_at_and_between_knots(self):
        ts = np.linspace(0.0, 5.0, 21)
        m = MassSpec.tabulated(ts, 2.0 + np.cos(3.0 * ts))
        between = 0.5 * (ts[:-1] + ts[1:]) + 0.1 * np.diff(ts)
        targets = np.concatenate((ts[1:], between))
        for t in targets:
            t = float(t)
            assert abs(physical_time(m, rescaled_time(m, t)) - t) < 1e-12
        back = physical_time(m, rescaled_time(m, targets))  # all at once
        assert np.abs(back - targets).max() < 1e-12

    def test_tau_beyond_exponential_horizon_rejected(self):
        # tau saturates at 1 / (rate m0) = 2 as t grows
        with pytest.raises(ValueError, match=r"^tau=2\.5 beyond the reachable "
                                             r"horizon 2$"):
            physical_time(MassSpec.exponential(1.0, 0.5), 2.5)

    def test_tau_beyond_tabulated_window_rejected(self):
        m = MassSpec.tabulated([0.0, 1.0, 2.0], [1.0, 2.0, 1.5])
        with pytest.raises(ValueError, match="tabulated window"):
            physical_time(m, 1.01 * rescaled_time(m, 2.0))

    @given(st.integers(0, 10 ** 6), st.floats(0.05, 4.0), st.floats(0.05, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_for_random_tabulated_mass(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        ts = np.linspace(0.0, 5.0, 17)
        ms = np.exp(rng.normal(scale=0.5, size=17))
        m = MassSpec.tabulated(ts, ms)
        lo, hi = sorted((t1, t2))
        if hi - lo > 1e-6:
            assert rescaled_time(m, hi) > rescaled_time(m, lo)


class TestTransformedFrequency:
    def test_unit_mass(self):
        f = FrequencySpec(1.7, 0.2)
        m = MassSpec.constant(1.0)
        t = 0.9
        assert transformed_frequency(m, f, t) == pytest.approx(float(f(t)))

    def test_exponential_mass_scales_frequency(self):
        m = MassSpec.exponential(1.0, 0.8)
        f = FrequencySpec(2.0)
        assert transformed_frequency(m, f, 1.5) == pytest.approx(
            2.0 * math.exp(0.8 * 1.5))

    def test_constants_multiply(self):
        assert transformed_frequency(MassSpec.constant(2.0),
                                     FrequencySpec(3.0), 0.3) == 6.0


class TestEnergyLevel:
    # the spectrum without drive and mass term: driven.energy_level at zero
    # drive
    def test_ground_state(self):
        assert driven_energy_level(0, DriveSpec.zero(), FrequencySpec(1.0),
                                   0.0) == 0.5

    def test_third_level(self):
        assert driven_energy_level(3, DriveSpec.zero(), FrequencySpec(2.0),
                                   1.1) == pytest.approx(7.0)

    def test_mass_independence_of_levels(self):
        # a pure mass profile leaves Omega and hence the spectrum untouched
        f = FrequencySpec(1.3)
        m = MassSpec.exponential(1.0, 0.6)
        for t in (0.0, 1.0, 2.5):
            ratio = transformed_frequency(m, f, t) / float(m(t))
            assert abs(driven_energy_level(2, DriveSpec.zero(), f, t)
                       - ratio * 2.5) < 1e-12

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            driven_energy_level(-1, DriveSpec.zero(), FrequencySpec(1.0), 0.0)


class TestHeisenbergCoefficients:
    def test_identity_at_t0(self):
        qp = heisenberg_coefficients(1.0, 1.0, 0.4, 0.0)
        np.testing.assert_allclose([[qp.c_qq, qp.c_qp], [qp.c_pq, qp.c_pp]],
                                   np.eye(2), atol=1e-14)

    def test_zero_rate_limit_matches_constant_mass_oscillator(self):
        m0, w0, t = 1.3, 0.9, 2.1
        qp = heisenberg_coefficients(m0, w0, 1e-9, t)
        assert abs(qp.c_qq - math.cos(w0 * t)) < 1e-8
        assert abs(qp.c_qp - math.sin(w0 * t) / (m0 * w0)) < 1e-8
        assert abs(qp.c_pq + m0 * w0 * math.sin(w0 * t)) < 1e-8
        assert abs(qp.c_pp - math.cos(w0 * t)) < 1e-8

    def test_symplectic_determinant(self):
        qp = heisenberg_coefficients(1.0, 1.0, 0.4, 2.0)
        assert abs(qp.symplectic_determinant() - 1.0) < 1e-12

    def test_overdamped_rejected(self):
        with pytest.raises(ValueError, match="overdamped"):
            heisenberg_coefficients(1.0, 0.4, 1.0, 1.0)

    @pytest.mark.parametrize("name, args", [
        ("m0", (math.nan, 1.0, 0.4)),
        ("rate", (1.0, 1.0, math.nan)),
        ("omega0", (1.0, math.inf, 0.4)),
        ("m0", (-math.inf, 1.0, 0.4)),
    ])
    def test_non_finite_parameter_refused_by_name(self, name, args):
        # m0 = nan once gave finite c_qq and c_pp beside NaN c_qp and c_pq
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            heisenberg_coefficients(*args, 1.0)

    def test_solves_damped_oscillator_equation(self):
        # q(t) obeys q'' + rate q' + w0^2 q = 0 for each column
        m0, w0, rate = 1.0, 1.2, 0.5
        h = 1e-5

        def col(t):
            qp = heisenberg_coefficients(m0, w0, rate, t)
            return np.array([qp.c_qq, qp.c_qp])

        t = 1.7
        dd = (col(t + h) - 2 * col(t) + col(t - h)) / h ** 2
        d1 = (col(t + h) - col(t - h)) / (2 * h)
        resid = dd + rate * d1 + w0 ** 2 * col(t)
        assert np.abs(resid).max() < 1e-5

    def test_momentum_is_mass_times_velocity(self):
        m0, w0, rate = 1.0, 1.1, 0.3
        h = 1e-6
        t = 1.9
        qp = heisenberg_coefficients(m0, w0, rate, t)
        dq = (heisenberg_coefficients(m0, w0, rate, t + h).c_qq
              - heisenberg_coefficients(m0, w0, rate, t - h).c_qq) / (2 * h)
        mass = m0 * math.exp(rate * t)
        assert abs(qp.c_pq - mass * dq) < 1e-6


def _constant_mass_evolver(mass, freq, n_trunc, tol=1e-9):
    q2 = position_operator(n_trunc).matrix @ position_operator(n_trunc).matrix
    p2 = momentum_operator(n_trunc).matrix @ momentum_operator(n_trunc).matrix

    def h_star(tau):
        t = physical_time(mass, tau)
        w = transformed_frequency(mass, freq, t)
        return 0.5 * p2 + 0.5 * w * w * q2

    def evolver(psi, tau):
        out = integrate_schrodinger(h_star, psi, tau, tol=tol)[-1]
        return FockState(out / np.linalg.norm(out), normalized=True)

    return evolver


class TestEvolveViaTimemap:
    def test_unit_mass_reduces_to_star_evolution(self):
        n = 24
        mass = MassSpec.constant(1.0)
        freq = FrequencySpec(1.0)
        psi0 = coherent_state(0.8, n)
        evolver = _constant_mass_evolver(mass, freq, n)
        out = evolve_via_timemap(psi0, mass, evolver, 1.3)
        direct = evolver(psi0, 1.3)
        assert fidelity(out, direct) > 1.0 - 1e-12

    def test_t0_returns_initial_state(self):
        n = 16
        mass = MassSpec.exponential(1.0, 0.3)
        psi0 = coherent_state(0.5, n)
        out = evolve_via_timemap(psi0, mass,
                                 lambda psi, tau: psi if tau == 0 else None,
                                 0.0)
        np.testing.assert_allclose(out.amplitudes, psi0.amplitudes)

    def test_exponential_mass_matches_direct_integration(self):
        # fidelity between the mapped and direct evolutions (theorem check)
        n = 40
        m0, w0, rate = 1.0, 1.0, 0.3
        mass = MassSpec.exponential(m0, rate)
        freq = FrequencySpec(w0)
        psi0 = coherent_state(1.0, n)
        q2 = position_operator(n).matrix @ position_operator(n).matrix
        p2 = momentum_operator(n).matrix @ momentum_operator(n).matrix

        def h_direct(t):
            m = m0 * math.exp(rate * t)
            return p2 / (2 * m) + 0.5 * m * w0 ** 2 * q2

        t_end = 3.0
        direct = integrate_schrodinger(h_direct, psi0, t_end, tol=1e-9)[-1]
        direct = FockState(direct / np.linalg.norm(direct), normalized=True)
        mapped = evolve_via_timemap(
            psi0, mass, _constant_mass_evolver(mass, freq, n), t_end)
        assert fidelity(mapped, direct) >= 1.0 - 1e-8


class TestSymplecticProperty:
    def test_determinant_one_at_100_random_times(self):
        rng = np.random.default_rng(20240817)
        m0, w0, rate = 1.0, 1.0, 0.4
        for t in rng.uniform(0.0, 10.0, size=100):
            qp = heisenberg_coefficients(m0, w0, rate, float(t))
            assert abs(qp.symplectic_determinant() - 1.0) < 1e-10

    @given(st.floats(0.2, 2.0), st.floats(0.0, 0.9), st.floats(0.0, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_determinant_one_property(self, w0, rate_frac, t):
        rate = rate_frac * 2.0 * w0 * 0.99
        qp = heisenberg_coefficients(1.0, w0, rate, t)
        assert abs(qp.symplectic_determinant() - 1.0) < 1e-9
