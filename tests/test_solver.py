"""Petviashvili ground-state solver: step algebra, convergence, diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from mixlap.errors import DegenerateIterateError
from mixlap.params import KernelParams
from mixlap import solver as V
from mixlap import spectral as S

import gridcoords

P2 = KernelParams(2, 0.5)


@pytest.fixture(scope="module")
def ground_state():
    """Converged ground state on a small box, shared across the module."""
    grid = S.GridSpec(2, 15.0, 128)
    cfg = V.SolverConfig(p=3.0, tol_residual=1e-10)
    u, report = V.solve_ground_state(grid, P2, cfg)
    assert report.converged
    return grid, cfg, u, report


class TestConfig:
    def test_default_gamma(self):
        cfg = V.SolverConfig(p=3.0)
        assert cfg.gamma_stab == pytest.approx(1.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            V.SolverConfig(p=1.0)
        with pytest.raises(ValueError):
            V.SolverConfig(p=3.0, tol_residual=0.0)

    @pytest.mark.parametrize("perturb", [-0.5, math.nan, math.inf])
    def test_perturb_must_be_finite_and_nonnegative(self, perturb):
        with pytest.raises(ValueError, match="perturb"):
            V.SolverConfig(p=3.0, perturb=perturb)

    def test_subcriticality(self):
        V.SolverConfig(p=4.9).check_subcritical(3)
        with pytest.raises(ValueError):
            V.SolverConfig(p=5.0).check_subcritical(3)
        V.SolverConfig(p=7.0).check_subcritical(2)  # no upper bound in 2-D


class TestEnergyAndGradient:
    def test_zero_field(self):
        grid = S.GridSpec(2, 10.0, 32)
        cfg = V.SolverConfig(p=3.0)
        zero = S.RealField(grid, np.zeros(grid.shape))
        assert V.energy_plus(zero, P2, cfg) == 0.0
        assert np.abs(V.gradient_plus(zero, P2, cfg).data).max() == 0.0

    def test_nonpositive_field_energy(self):
        # u <= 0: the nonlinear term vanishes and the energy is quadratic
        grid = S.GridSpec(2, 10.0, 32)
        cfg = V.SolverConfig(p=3.0)
        u = S.RealField(grid, -np.exp(-gridcoords.radius(grid) ** 2))
        nm = S.norms(u, P2)
        assert V.energy_plus(u, P2, cfg) == pytest.approx(
            0.5 * nm["sobolev_s"] ** 2, rel=1e-12
        )
        assert V.energy_plus(u, P2, cfg) > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_directional_derivative(self, seed):
        grid = S.GridSpec(2, 10.0, 32)
        cfg = V.SolverConfig(p=3.0)
        rng = np.random.default_rng(seed)
        u = S.RealField(grid, rng.standard_normal(grid.shape))
        phi = S.RealField(grid, rng.standard_normal(grid.shape))
        g = V.gradient_plus(u, P2, cfg)
        pairing = grid.cell_volume * np.sum(g.data * phi.data)

        best = np.inf
        prev_err = None
        ratios = []
        for h in (1e-2, 5e-3, 2.5e-3):
            num = (
                V.energy_plus(S.RealField(grid, u.data + h * phi.data), P2, cfg)
                - V.energy_plus(S.RealField(grid, u.data - h * phi.data), P2, cfg)
            ) / (2.0 * h)
            err = abs(num - pairing) / abs(pairing)
            best = min(best, err)
            if prev_err is not None and prev_err > 1e-12:
                ratios.append(prev_err / err)
            prev_err = err
        assert best < 1e-5
        # halving the step divides the central-difference error by ~4
        assert any(r > 3.0 for r in ratios)


class TestPetviashviliStep:
    def test_fixed_point_property(self, ground_state):
        grid, cfg, u, _ = ground_state
        step = V.petviashvili_step(u, P2, cfg)
        assert step.m == pytest.approx(1.0, abs=1e-10)
        assert np.abs(step.u.data - u.data).max() < 1e-9

    def test_stabilizer_homogeneity(self, ground_state):
        grid, cfg, u, _ = ground_state
        m1 = V.petviashvili_step(u, P2, cfg).m
        m2 = V.petviashvili_step(S.RealField(grid, 2.0 * u.data), P2, cfg).m
        assert m2 / m1 == pytest.approx(2.0 ** (1.0 - cfg.p), rel=1e-10)

    def test_carried_quantities_match_a_fresh_step(self):
        # a step given the previous step's (u+)^p and numerator agrees with
        # one that computes them from u with the operator
        grid = S.GridSpec(2, 15.0, 64)
        cfg = V.SolverConfig(p=3.0)
        step = V.petviashvili_step(V.initial_field(grid, cfg), P2, cfg)
        for _ in range(5):
            fresh = V.petviashvili_step(step.u, P2, cfg)
            step = V.petviashvili_step(step.u, P2, cfg, step.up_p, step.num)
            assert step.m == pytest.approx(fresh.m, rel=1e-13)
            assert np.abs(step.u.data - fresh.u.data).max() <= 1e-13 * fresh.u.data.max()
            assert (np.abs(step.up_p.data - fresh.up_p.data).max()
                    <= 1e-13 * fresh.up_p.data.max())
            assert step.num == pytest.approx(fresh.num, rel=1e-13)
            assert step.residual == pytest.approx(fresh.residual, rel=1e-6, abs=1e-13)

    def test_degenerate_iterate(self):
        grid = S.GridSpec(2, 10.0, 32)
        cfg = V.SolverConfig(p=3.0)
        u = S.RealField(grid, -np.exp(-gridcoords.radius(grid) ** 2))
        with pytest.raises(DegenerateIterateError):
            V.petviashvili_step(u, P2, cfg)


class TestSolve:
    def test_convergence_and_identities(self, ground_state):
        grid, cfg, u, report = ground_state
        assert report.residual_linf < 1e-8
        assert u.data.min() > 0
        nm = S.norms(u, P2)
        assert report.nehari_gap < 1e-6 * nm["sobolev_s"] ** 2
        lp = grid.cell_volume * np.sum(np.maximum(u.data, 0.0) ** (cfg.p + 1))
        expected = (0.5 - 1.0 / (cfg.p + 1.0)) * lp
        assert report.energy == pytest.approx(expected, rel=1e-6)
        assert report.energy > 0

    def test_stabilizer_history_settles(self, ground_state):
        _, _, _, report = ground_state
        tail = report.stabilizer_history[-5:]
        assert all(abs(m - 1.0) < 1e-8 for m in tail)

    def test_amplitude_invariance(self, ground_state):
        grid, cfg, u, _ = ground_state
        u0 = V.initial_field(grid, cfg)
        u2, rep2 = V.solve_ground_state(
            grid, P2,
            V.SolverConfig(p=3.0, tol_residual=1e-10),
            u0=S.RealField(grid, 5.0 * u0.data),
        )
        assert rep2.converged
        assert np.abs(u2.data - u.data).max() / u.data.max() < 1e-6

    def test_translation_equivariance(self, ground_state):
        grid, cfg, u, _ = ground_state
        shift = (7, -4)
        u0 = V.initial_field(grid, cfg)
        shifted0 = S.RealField(grid, np.roll(u0.data, shift, axis=(0, 1)))
        u2, rep2 = V.solve_ground_state(
            grid, P2,
            V.SolverConfig(p=3.0, tol_residual=1e-10),
            u0=shifted0,
        )
        assert rep2.converged
        back = np.roll(u2.data, (-shift[0], -shift[1]), axis=(0, 1))
        assert np.abs(back - u.data).max() < 1e-8

    def test_symbol_cache_cleared_on_return(self, monkeypatch):
        # an even solve caches its own layout's symbol and, at the check, the
        # full box's: two entries in the one cache, and none after it returns
        sizes = []
        norms = V.norms

        def counting_norms(*args, **kwargs):
            out = norms(*args, **kwargs)
            sizes.append(S.grid_symbol.cache_info().currsize)
            return out

        monkeypatch.setattr(V, "norms", counting_norms)
        grid = S.GridSpec(2, 10.0, 32)
        V.solve_ground_state(grid, P2, V.SolverConfig(p=3.0, max_iter=2))
        assert sizes == [2]
        assert S.grid_symbol.cache_info().currsize == 0

    def test_non_convergence_reported(self):
        grid = S.GridSpec(2, 15.0, 128)
        cfg = V.SolverConfig(p=3.0, tol_residual=1e-14, max_iter=3)
        _, report = V.solve_ground_state(grid, P2, cfg)
        assert not report.converged
        assert report.iterations == 3


def shifted_start(grid, cfg, shift=(7, -4)):
    """The default start moved off the centre: not even, so solved on the full box."""
    return S.RealField(grid, np.roll(V.initial_field(grid, cfg).data, shift, axis=(0, 1)))


def count_transforms(monkeypatch, *names):
    """Count the calls of the named scipy.fft functions, and of spectral's
    dense DCT-I ``_dct1``, by name."""
    calls = dict.fromkeys(names, 0)

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in names:
        module = S if name == "_dct1" else S.fft
        monkeypatch.setattr(module, name, counted(module, name))
    return calls


def record_step_grids(monkeypatch):
    """The grid of every step's input, in order."""
    grids = []
    step_fn = V.petviashvili_step

    def recorded(u, *args, **kwargs):
        grids.append(u.grid)
        return step_fn(u, *args, **kwargs)

    monkeypatch.setattr(V, "petviashvili_step", recorded)
    return grids


class TestTransformBudget:
    """A step costs the resolvent's transform pair and no other transform."""

    def test_two_transforms_per_step(self, monkeypatch):
        calls = count_transforms(monkeypatch, "rfftn", "irfftn")
        grid = S.GridSpec(2, 15.0, 64)
        cfg = V.SolverConfig(p=3.0)
        u, report = V.solve_ground_state(grid, P2, cfg, u0=shifted_start(grid, cfg))
        assert report.converged
        # c = 5: apply_operator at the start (rfftn + irfftn), the one
        # gradient_plus confirming the stop (rfftn + irfftn), and the one
        # norms call that serves both the energy and the Nehari gap (rfftn)
        assert calls["rfftn"] + calls["irfftn"] == 2 * report.iterations + 5
        assert calls["irfftn"] == report.iterations + 2
        # the report's energy is energy_plus's arithmetic on the same norms
        assert report.energy == V.energy_plus(u, P2, cfg)

    def test_two_dct_transforms_per_even_step(self, monkeypatch):
        # N = 64 (33 points an axis) applies the DCT-I as dense products, one
        # _dct1 call each way; N = 256 (129 points) calls scipy.fft
        cfg = V.SolverConfig(p=3.0)
        for N, dense in ((64, True), (256, False)):
            calls = count_transforms(monkeypatch, "rfftn", "irfftn", "dctn", "idctn",
                                     "_dct1")
            grid = S.GridSpec(2, 15.0, N)
            u, report = V.solve_ground_state(grid, P2, cfg)
            assert report.converged
            # the even layout's pairs: apply_operator at the start and the
            # resolvent of every step; on the full box only the confirming
            # gradient_plus (rfftn + irfftn) and the report's norms (rfftn)
            pairs = calls["_dct1"] / 2 if dense else calls["dctn"]
            assert pairs == report.iterations + 1
            assert calls["dctn"] == calls["idctn"] == (0 if dense else pairs)
            assert calls["_dct1"] == (2 * pairs if dense else 0)
            assert calls["rfftn"] == 2 and calls["irfftn"] == 1
            assert u.grid == grid
            monkeypatch.undo()

    def test_identity_residual_matches_gradient(self, monkeypatch):
        grid = S.GridSpec(2, 15.0, 64)
        cfg = V.SolverConfig(p=3.0)
        seen = []
        step_fn = V.petviashvili_step

        def recorded(*args, **kwargs):
            step = step_fn(*args, **kwargs)
            # the next step overwrites up_p, so read its maximum now
            seen.append((step.u, step.residual, float(step.up_p.data.max())))
            return step

        monkeypatch.setattr(V, "petviashvili_step", recorded)
        _, report = V.solve_ground_state(grid, P2, cfg)
        assert report.converged
        assert len(seen) == report.iterations
        assert report.residual_history == [res for _, res, _ in seen]
        for u, res, up_max in seen:
            fft_res = np.abs(V.gradient_plus(u, P2, cfg).data).max()
            assert abs(res - fft_res) <= 1e-12 * up_max
        assert report.residual_history[-1] <= cfg.tol_residual

    def test_one_gradient_call_per_solve(self, monkeypatch):
        calls = []
        gradient = V.gradient_plus

        def counted(*args):
            calls.append(args)
            return gradient(*args)

        monkeypatch.setattr(V, "gradient_plus", counted)
        grid = S.GridSpec(2, 15.0, 64)
        for cfg in (V.SolverConfig(p=3.0), V.SolverConfig(p=3.0, max_iter=3)):
            calls.clear()
            _, report = V.solve_ground_state(grid, P2, cfg)
            assert len(calls) == 1
        assert not report.converged

    def test_failed_check_keeps_iterating(self, monkeypatch):
        # the first FFT check is made to fail: the loop goes on, restarting
        # the carried quantities from u, and stops at the next check
        grid = S.GridSpec(2, 15.0, 64)
        cfg = V.SolverConfig(p=3.0)
        _, plain = V.solve_ground_state(grid, P2, cfg)
        calls = []
        gradient = V.gradient_plus

        def failing_once(u, *args):
            calls.append(u)
            if len(calls) == 1:
                return S.RealField(u.grid, np.ones(u.grid.shape))
            return gradient(u, *args)

        monkeypatch.setattr(V, "gradient_plus", failing_once)
        _, report = V.solve_ground_state(grid, P2, cfg)
        assert report.converged
        assert len(calls) == 2
        assert report.iterations == plain.iterations + 1
        assert report.residual_linf <= cfg.tol_residual

    def test_fixture_iterations_and_residual(self, ground_state):
        # the values of the Anderson-mixed solve (the plain iteration took 60
        # steps); the residual is a difference of O(10) values, so roundoff
        # moves it by ~1e-14
        _, _, _, report = ground_state
        assert report.iterations == 25
        assert report.residual_linf == pytest.approx(6.443556799240469e-11, abs=1e-12)


def plain_solve(grid, params, cfg):
    """The plain Petviashvili iteration under the solver's joint stop.

    The oracle of the mixed solve: repeated ``petviashvili_step`` calls, each
    on the image of the last.  Returns (field, steps).
    """
    u, up_p, num = V.initial_field(grid, cfg), None, None
    try:
        for it in range(1, cfg.max_iter + 1):
            u, m_k, residual, up_p, num = V.petviashvili_step(u, params, cfg, up_p, num)
            if abs(m_k - 1.0) < V._STABILIZER_TOL and residual <= cfg.tol_residual:
                return u, it
    finally:
        S.grid_symbol.cache_clear()
    raise AssertionError("the plain iteration did not converge")


class TestAndersonMixing:
    """Depth-1 Anderson mixing around the Petviashvili step."""

    @pytest.mark.parametrize("case", [
        (2, 0.5, 3.0, 15.0, 128),  # the ground_state fixture
        (3, 0.5, 2.0, 15.0, 32),
    ], ids=["fixture-2d", "3d-32"])
    def test_fewer_than_half_the_plain_steps(self, case):
        n, s, p, L, N = case
        grid, params, cfg = S.GridSpec(n, L, N), KernelParams(n, s), V.SolverConfig(p=p)
        oracle, plain_steps = plain_solve(grid, params, cfg)
        u, report = V.solve_ground_state(grid, params, cfg)
        assert report.converged
        assert report.mixing_fallbacks == 0
        assert 2 * report.iterations < plain_steps
        assert np.abs(u.data - oracle.data).max() <= 1e-9 * oracle.data.max()
        assert len(report.mixing_history) == report.iterations
        assert report.mixing_history[:2] == [0.0, 0.0]  # the start, then a plain image
        assert all(theta != 0.0 for theta in report.mixing_history[2:])

    def test_safeguard_falls_back_to_the_plain_step(self, ground_state, monkeypatch):
        # the (x+)^p of the second mixed input is zeroed, so its stabilizer
        # denominator <x, (x+)^p> is 0: the solve takes the plain step there,
        # clears the history and still converges to the same field
        grid, cfg, u, report = ground_state
        power = V.positive_part_power
        writes = 0

        def zeroing(f, p, out=None):
            nonlocal writes
            result = power(f, p, out=out)
            if out is not None:  # the solve writes each mixed input's (x+)^p
                writes += 1
                if writes == 2:
                    out[...] = 0.0
            return result

        monkeypatch.setattr(V, "positive_part_power", zeroing)
        u2, rep2 = V.solve_ground_state(grid, P2, cfg)
        assert rep2.converged
        assert rep2.mixing_fallbacks == 1
        # the start, the plain image after step 1, and the plain image that
        # replaced the rejected input of step 4; every other input is mixed
        unmixed = [k for k, theta in enumerate(rep2.mixing_history) if theta == 0.0]
        assert unmixed == [0, 1, 3]
        assert np.abs(u2.data - u.data).max() <= 1e-9 * u.data.max()

    def test_traced_memory_of_a_3d_solve(self):
        # the history adds two grid arrays (2 MiB each at 64^3) to the plain
        # solve's peak of about 11.4 MiB
        grid = S.GridSpec(3, 15.0, 64)
        params, cfg = KernelParams(3, 0.5), V.SolverConfig(p=2.0)
        tracemalloc.start()
        try:
            _, report = V.solve_ground_state(grid, params, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.converged
        assert peak <= 16 * 2 ** 20


class TestEvenLayout:
    """An even start is solved on the DCT-I even layout."""

    def test_default_start_takes_the_even_path(self, monkeypatch):
        # at L = 7.3 the spacing is no dyadic fraction, so a bump built from
        # -L + k h would miss evenness by roundoff
        grid = S.GridSpec(2, 7.3, 128)
        cfg = V.SolverConfig(p=3.0)
        assert S.reduce_even(V.initial_field(grid, cfg)) is not None
        grids = record_step_grids(monkeypatch)
        u, report = V.solve_ground_state(grid, P2, cfg)
        assert report.converged
        assert len(grids) == report.iterations
        assert all(isinstance(g, S.EvenGrid) for g in grids)
        assert u.grid == grid

    def test_perturbed_and_shifted_starts_take_the_full_box(self, monkeypatch):
        grid = S.GridSpec(2, 15.0, 64)
        grids = record_step_grids(monkeypatch)
        cfg = V.SolverConfig(p=3.0, max_iter=3)
        V.solve_ground_state(grid, P2, V.SolverConfig(p=3.0, perturb=0.05, seed=3,
                                                      max_iter=3))
        V.solve_ground_state(grid, P2, cfg, u0=shifted_start(grid, cfg))
        assert grids == [grid] * 6

    @pytest.mark.parametrize("case", [
        (2, 0.5, 3.0, 15.0, 64),
        (3, 0.5, 2.0, 15.0, 32),
    ], ids=["2d-64", "3d-32"])
    def test_matches_the_full_box_plain_oracle(self, case):
        # at the default tolerance the plain and mixed iterations stop ~5e-12
        # of max apart; at 1e-12 they agree to ~4e-14
        n, s, p, L, N = case
        grid, params = S.GridSpec(n, L, N), KernelParams(n, s)
        cfg = V.SolverConfig(p=p, tol_residual=1e-12)
        oracle, _ = plain_solve(grid, params, cfg)
        u, report = V.solve_ground_state(grid, params, cfg)
        assert report.converged
        assert np.abs(u.data - oracle.data).max() <= 1e-12 * oracle.data.max()


class TestMountainPass:
    def test_stationary_point_at_one(self, ground_state):
        grid, cfg, u, _ = ground_state
        prof = V.mountain_pass_profile(u, P2, cfg)
        assert prof.t_star == pytest.approx(1.0, abs=1e-6)
        assert abs(prof.t_argmax - 1.0) < 2.0 / 199  # grid resolution of the fiber

    def test_geometry(self, ground_state):
        grid, cfg, u, _ = ground_state
        prof = V.mountain_pass_profile(u, P2, cfg)
        # positive near zero, negative past the returned witness scale
        assert prof.energies[0] > 0
        norm_sq = S.norms(u, P2)["sobolev_s"] ** 2
        lp = grid.cell_volume * np.sum(np.maximum(u.data, 0.0) ** (cfg.p + 1))
        T = prof.t_negative
        assert 0.5 * T ** 2 * norm_sq - T ** (cfg.p + 1) * lp / (cfg.p + 1) < 0

    def test_nonpositive_rejected(self):
        grid = S.GridSpec(2, 10.0, 32)
        cfg = V.SolverConfig(p=3.0)
        u = S.RealField(grid, -np.ones(grid.shape))
        with pytest.raises(DegenerateIterateError):
            V.mountain_pass_profile(u, P2, cfg)
