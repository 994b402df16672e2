"""Upwind finite-volume cross-check solver."""

import numpy as np
import pytest

from reflow.fv import CflError, FvState, fv_solve, fv_step
from reflow.laws import reciprocal, tabulated
from reflow.signals import ControlSignal, DensityProfile
from reflow.transport import simulate

KNOTS = np.linspace(0.0, 8.0, 5)  # a 5-knot table of the reciprocal law


class TestSingleStep:
    def test_hand_computed_update(self):
        # two cells, rho = [1, 3], W = 2, lam = 1/3, dt = 0.3, dx = 0.5
        # flux = [u, 1/3, 1] -> rho_new = rho - (dt/dx) * diff(flux)
        state = FvState(t=0.0, cells=np.array([1.0, 3.0]))
        new = fv_step(state, reciprocal(), influx=0.5, dt=0.3)
        assert new.t == pytest.approx(0.3)
        assert new.cells[0] == pytest.approx(1.0 - 0.6 * (1.0 / 3.0 - 0.5))
        assert new.cells[1] == pytest.approx(3.0 - 0.6 * (1.0 - 1.0 / 3.0))

    def test_cfl_violation_raises_with_required_dt(self):
        state = FvState(t=0.0, cells=np.zeros(10))  # lam = 1, dx = 0.1
        with pytest.raises(CflError) as e:
            fv_step(state, reciprocal(), influx=0.0, dt=0.2)
        assert e.value.required_dt == pytest.approx(0.09)

    def test_discrete_mass_balance_is_exact(self):
        rng = np.random.default_rng(2)
        state = FvState(t=0.0, cells=rng.uniform(0.0, 2.0, 50))
        law = reciprocal()
        mass = state.total_mass
        for k in range(40):
            lam = law(state.total_mass)
            out = lam * state.cells[-1]
            uin = 0.3 + 0.1 * np.sin(k)
            state = fv_step(state, law, uin, dt=0.01)
            mass += 0.01 * (uin - out)
        assert state.total_mass == pytest.approx(mass, abs=1e-13)


class TestTimeLoop:
    def test_equilibrium_is_exactly_invariant(self):
        c = 1.7
        u = ControlSignal.constant(c / (1.0 + c), 2.0)
        state, _, outflux = fv_solve(DensityProfile.constant(c), reciprocal(),
                                     u, 2.0, n_cells=64)
        assert np.max(np.abs(state.cells - c)) <= 1e-12
        assert np.max(np.abs(outflux - c / (1.0 + c))) <= 1e-12

    def test_cell_averages_initialized_exactly(self):
        rho0 = DensityProfile([0.0, 0.35, 1.0], [2.0, 0.5])
        state = FvState.from_profile(rho0, 10)
        # cell [0.3, 0.4) straddles the jump: average = (0.05*2 + 0.05*0.5)/0.1
        assert state.cells[3] == pytest.approx(1.25)
        assert state.total_mass == pytest.approx(rho0.total_mass, abs=1e-14)

    def test_final_mass_approaches_characteristic_solution(self):
        u = ControlSignal(np.array([0.0, 0.6, 1.5]), np.array([0.9, 0.3]))
        rho0 = DensityProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.4]))
        traj = simulate(rho0, reciprocal(), 1.5, u=u)
        target = traj.total_mass(1.5)
        errs = []
        for n in (100, 400):
            state, _, _ = fv_solve(rho0, reciprocal(), u, 1.5, n_cells=n)
            errs.append(abs(state.total_mass - target))
        assert errs[1] < errs[0]
        assert errs[1] <= 5e-3

    def test_tabulated_law_agrees_with_fv(self):
        # a table of 1/(1+W) must not pass for a constant law: with a zero
        # slope bound the solver takes the exact-linear shortcut and ends at
        # W(2) = 0.8, far from the oracle's 1.0389
        g = np.linspace(0.0, 8.0, 33)
        law = tabulated(g, 1.0 / (1.0 + g))
        u = ControlSignal(np.array([0.0, 1.0, 2.0]), np.array([0.8, 0.2]))
        rho0 = DensityProfile(np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.5]))
        traj = simulate(rho0, law, 2.0, u=u)
        state, _, _ = fv_solve(rho0, law, u, 2.0, n_cells=4000)
        assert abs(traj.total_mass(2.0) - state.total_mass) <= 1e-3

    @pytest.mark.parametrize("law", [reciprocal(), tabulated(KNOTS, 1.0 / (1.0 + KNOTS))])
    def test_solve_is_an_explicit_step_march(self, law):
        # fv_solve reuses two cell buffers and picks each step's length; the
        # march itself must stay the plain one-step-at-a-time loop, bit for bit
        u = ControlSignal(np.array([0.0, 0.37, 0.8, 1.2]), np.array([0.9, 0.2, 0.6]))
        rho0 = DensityProfile(np.array([0.0, 0.45, 1.0]), np.array([1.3, 0.6]))
        state, times, outflux = fv_solve(rho0, law, u, 1.2, n_cells=200)
        march = FvState.from_profile(rho0, 200)
        expected_times, expected_outflux = [0.0], [law(march.total_mass) * march.cells[-1]]
        for k, dt in enumerate(np.diff(times)):
            uin = u.integrate(times[k], times[k + 1]) / dt
            march = fv_step(march, law, uin, dt)
            expected_times.append(march.t)
            expected_outflux.append(law(march.total_mass) * march.cells[-1])
        assert np.array_equal(state.cells, march.cells)
        assert np.array_equal(times, expected_times)
        assert np.array_equal(outflux, expected_outflux)

    @pytest.mark.parametrize("law", [reciprocal(), tabulated(KNOTS, 1.0 / (1.0 + KNOTS))])
    def test_solve_asks_the_law_once_per_step(self, law):
        # once per step for the step length, the outflux and the update, and
        # once more for the final outflux
        calls = []

        def counted(W):
            calls.append(W)
            return law(W)

        u = ControlSignal(np.array([0.0, 0.37, 0.8, 1.2]), np.array([0.9, 0.2, 0.6]))
        rho0 = DensityProfile(np.array([0.0, 0.45, 1.0]), np.array([1.3, 0.6]))
        _, times, _ = fv_solve(rho0, counted, u, 1.2, n_cells=200)
        assert len(calls) == times.size

    @pytest.mark.parametrize("law", [reciprocal(), tabulated(KNOTS, 1.0 / (1.0 + KNOTS))])
    def test_given_speed_is_the_law_at_the_mass(self, law):
        rng = np.random.default_rng(5)
        state = FvState(t=0.25, cells=rng.uniform(0.0, 2.0, 64))
        dt = 0.8 * state.dx / law(state.total_mass)
        asked = fv_step(state, law, 0.4, dt)
        given = fv_step(state, law, 0.4, dt, speed=law(state.total_mass))
        assert given.t == asked.t
        assert np.array_equal(given.cells, asked.cells)


def _march_masses(rho0, law, u, times, n_cells):
    """Total mass before each step of fv_solve's march, replayed with fv_step."""
    state, masses = FvState.from_profile(rho0, n_cells), []
    for k, dt in enumerate(np.diff(times)):
        masses.append(state.total_mass)
        state = fv_step(state, law, u.integrate(times[k], times[k + 1]) / dt, dt)
    return np.array(masses)


class TestAdaptiveMarch:
    U = ControlSignal(np.array([0.0, 0.37, 0.8, 1.2]), np.array([0.9, 0.2, 0.6]))
    RHO0 = DensityProfile(np.array([0.0, 0.45, 1.0]), np.array([1.3, 0.6]))
    LAWS = [reciprocal(), tabulated(KNOTS, 1.0 / (1.0 + KNOTS))]

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("law", LAWS)
    def test_every_step_but_the_last_is_at_the_cfl_limit(self, law, n):
        _, times, _ = fv_solve(self.RHO0, law, self.U, 1.2, n_cells=n)
        courant = law(_march_masses(self.RHO0, law, self.U, times, n)) * np.diff(times) * n
        assert np.all(np.abs(courant[:-1] - 0.9) <= 0.9e-12)
        assert 0.0 < courant[-1] <= 0.9 * (1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 7, 200])
    @pytest.mark.parametrize("law", LAWS)
    def test_march_ends_exactly_at_T(self, law, n):
        state, times, outflux = fv_solve(self.RHO0, law, self.U, 1.2, n_cells=n)
        assert times[-1] == 1.2 and state.t == 1.2
        assert times[0] == 0.0 and np.all(np.diff(times) > 0)
        assert outflux.shape == times.shape

    @pytest.mark.parametrize("law", LAWS)
    def test_takes_no_more_steps_than_the_uniform_march(self, law):
        for n in (1, 50, 1000):
            _, times, _ = fv_solve(self.RHO0, law, self.U, 1.2, n_cells=n)
            assert times.size - 1 <= np.ceil(1.2 * n * law(0.0) / 0.9) + 1

    @pytest.mark.parametrize("law", LAWS)
    def test_mass_balance_over_the_steps(self, law):
        state, times, outflux = fv_solve(self.RHO0, law, self.U, 1.2, n_cells=300)
        balance = (self.RHO0.total_mass + self.U.cumulative(1.2)
                   - np.sum(np.diff(times) * outflux[:-1]))
        assert abs(state.cells.sum() / 300 - balance) <= 1e-13

    def test_a_long_march_rounds_its_steps_down_to_the_limit(self):
        # past about 10^4 steps, t + dt can round up by more than 1e-12 of dt,
        # which fv_step would reject as a CFL violation
        T = 200.0
        u = ControlSignal.from_function(lambda t: 0.5 + 0.4 * np.sin(t), T, 64)
        rho0 = DensityProfile.from_function(lambda x: 1.0 + 0.5 * np.cos(3 * x), 64)
        _, times, _ = fv_solve(rho0, reciprocal(), u, T, n_cells=100)
        masses = _march_masses(rho0, reciprocal(), u, times, 100)
        courant = reciprocal()(masses) * np.diff(times) * 100
        assert times.size > 10_000 and times[-1] == T
        assert np.all(np.abs(courant[:-1] - 0.9) <= 0.9e-11)
        assert np.all(courant <= 0.9 * (1.0 + 1e-14))

    def test_a_horizon_below_one_step_is_one_step(self):
        state, times, _ = fv_solve(self.RHO0, reciprocal(), self.U, 1e-4, n_cells=10)
        assert np.array_equal(times, [0.0, 1e-4]) and state.t == 1e-4


class TestSolveValidation:
    RHO0 = DensityProfile.constant(1.0)

    def test_rejects_a_control_shorter_than_the_horizon(self):
        # read as zero influx past t = 1, this used to return mass 0.416
        u = ControlSignal.constant(0.5, 1.0)
        with pytest.raises(ValueError, match="shorter than T"):
            fv_solve(self.RHO0, reciprocal(), u, 2.0, n_cells=50)

    @pytest.mark.parametrize("T", [np.inf, 0.0, -1.0, np.nan])
    def test_rejects_a_horizon_that_is_not_finite_and_positive(self, T):
        u = ControlSignal.constant(0.5, 3.0)
        with pytest.raises(ValueError, match="horizon"):
            fv_solve(self.RHO0, reciprocal(), u, T, n_cells=50)

    @pytest.mark.parametrize("n", [0, -3, 2.5, np.inf, True])
    def test_rejects_a_cell_count_that_is_not_a_whole_number(self, n):
        u = ControlSignal.constant(0.5, 1.0)
        with pytest.raises(ValueError, match="n_cells"):
            fv_solve(self.RHO0, reciprocal(), u, 1.0, n_cells=n)

    def test_accepts_a_whole_float_cell_count(self):
        u = ControlSignal.constant(0.5, 1.0)
        a, _, _ = fv_solve(self.RHO0, reciprocal(), u, 1.0, n_cells=20.0)
        b, _, _ = fv_solve(self.RHO0, reciprocal(), u, 1.0, n_cells=20)
        assert np.array_equal(a.cells, b.cells)
