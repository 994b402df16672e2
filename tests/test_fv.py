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
        # fv_solve batches the influx averages and the outflux series; the
        # march itself must stay the plain one-step-at-a-time loop, bit for bit
        u = ControlSignal(np.array([0.0, 0.37, 0.8, 1.2]), np.array([0.9, 0.2, 0.6]))
        rho0 = DensityProfile(np.array([0.0, 0.45, 1.0]), np.array([1.3, 0.6]))
        state, times, outflux = fv_solve(rho0, law, u, 1.2, n_cells=200)
        march = FvState.from_profile(rho0, 200)
        dt = times[1]
        expected_times, expected_outflux = [0.0], [law(march.total_mass) * march.cells[-1]]
        for k in range(times.size - 1):
            uin = u.integrate(k * dt, (k + 1) * dt) / dt
            march = fv_step(march, law, uin, dt)
            expected_times.append(march.t)
            expected_outflux.append(law(march.total_mass) * march.cells[-1])
        assert np.array_equal(state.cells, march.cells)
        assert np.array_equal(times, expected_times)
        assert np.array_equal(outflux, expected_outflux)
