"""Acceptance suite: the eleven quantitative criteria, one test each.

Each test prints a single summary line of the form

    [criterion N] name: PASS  (statistic vs threshold)

before asserting, so the suite output doubles as the verification report.
"""

import time

import numpy as np
import pytest

from mixlap.params import KernelParams, QuadratureSpec
from mixlap import analysis as A
from mixlap import kernels as K
from mixlap import mc
from mixlap import solver as V
from mixlap import spectral as S

P2 = KernelParams(2, 0.5)


@pytest.fixture(scope="session")
def ground_state_fixture():
    """The regression fixture: n=2, s=0.5, p=3, L=20, N=256."""
    grid = S.GridSpec(2, 20.0, 256)
    cfg = V.SolverConfig(p=3.0, tol_residual=1e-10, max_iter=5000)
    u, report = V.solve_ground_state(grid, P2, cfg)
    return grid, cfg, u, report


def report_line(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num}] {name}: {status}  ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_gaussian_oracle():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(10)
    for n in (1, 2, 3):
        for t2 in (0.5, 1.0, 2.0):
            params = KernelParams(n, 0.5)
            exact_c = (np.pi / t2) ** (n / 2.0)
            # keep the target within 8 decades of the peak so a relative
            # comparison is meaningful against the absolute quadrature floor
            x_hi = np.sqrt(18.0 * t2) / np.pi
            for x in rng.uniform(0.05, x_hi, 20):
                got = K.heat_kernel_two_scale(x, 0.0, t2, params)
                exact = exact_c * np.exp(-np.pi ** 2 * x * x / t2)
                worst = max(worst, abs(got - exact) / exact)
    elapsed = time.time() - t0
    report_line(
        1, "gaussian oracle", worst < 1e-6 and elapsed < 10.0,
        f"max rel err {worst:.2e} vs 1e-6, {elapsed:.1f}s vs 10s",
    )


def test_criterion_02_poisson_oracle():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(11)
    params = KernelParams(1, 0.5)
    for _ in range(20):
        x = rng.uniform(0.0, 3.0)
        t1 = rng.uniform(0.2, 3.0)
        got = K.heat_kernel_two_scale(x, t1, 0.0, params)
        exact = 2.0 * t1 / (t1 ** 2 + 4.0 * np.pi ** 2 * x ** 2)
        worst = max(worst, abs(got - exact) / exact)
    elapsed = time.time() - t0
    report_line(
        2, "poisson oracle", worst < 1e-6 and elapsed < 10.0,
        f"max rel err {worst:.2e} vs 1e-6, {elapsed:.1f}s vs 10s",
    )


def test_criterion_03_asymptotic_constant():
    # the classical constant alpha(n, s) describes the tail in the
    # unitary-frequency radius 2 pi |x|; in this module's coordinates the
    # compensated kernel approaches alpha / (2 pi)^{n+2s}
    t0 = time.time()
    worst = 0.0
    x = 100.0
    for n, s in ((2, 0.5), (3, 0.25), (3, 0.75)):
        params = KernelParams(n, s)
        tc = K.heat_tail_constant(params)
        pw = n + 2.0 * s
        for eta in (0.1, 0.5, 0.9):
            lim = x ** pw * K.heat_kernel_two_scale(x, 1.0, eta, params)
            worst = max(worst, abs(lim - tc) / tc)
            lin = x ** pw * K.heat_kernel_two_scale(x, eta, 1.0, params)
            worst = max(worst, abs(lin - eta * tc) / (eta * tc))
    elapsed = time.time() - t0
    report_line(
        3, "asymptotic tail constant", worst < 0.05 and elapsed < 120.0,
        f"max rel err {worst:.3f} vs 0.05, {elapsed:.1f}s vs 120s",
    )


def test_criterion_04_scaling_identities():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.uniform(0.05, 2.0)
        t = rng.uniform(0.1, 10.0)
        direct = K.heat_kernel(x, t, P2)
        for branch in ("2s", "2"):
            other = K.heat_kernel_rescaled(x, t, P2, branch=branch)
            worst = max(worst, abs(other - direct) / abs(direct))
    elapsed = time.time() - t0
    report_line(
        4, "scaling identities", worst < 1e-6 and elapsed < 60.0,
        f"max rel err {worst:.2e} vs 1e-6, {elapsed:.1f}s vs 60s",
    )


def test_criterion_05_bessel_decay():
    t0 = time.time()
    h = 1e-2
    details = []
    ok = True
    for n, s in ((2, 0.5), (3, 0.5)):
        params = KernelParams(n, s)
        pw = n + 2.0 * s
        rr = np.geomspace(5.0, 50.0, 25)
        vals = np.array([K.bessel_kernel(r, params) for r in rr])
        plus = np.array([K.bessel_kernel(r + h, params) for r in rr])
        minus = np.array([K.bessel_kernel(r - h, params) for r in rr])
        d1 = (plus - minus) / (2.0 * h)
        d2 = (plus - 2.0 * vals + minus) / h ** 2
        s0 = np.polyfit(np.log(rr), np.log(vals), 1)[0]
        s1 = np.polyfit(np.log(rr), np.log(np.abs(d1)), 1)[0]
        s2 = np.polyfit(np.log(rr), np.log(np.abs(d2)), 1)[0]
        ok &= abs(s0 + pw) < 0.05 and abs(s1 + pw + 1) < 0.1 and abs(s2 + pw + 2) < 0.15
        details.append(f"(n={n},s={s}): {s0:.3f}/{s1:.3f}/{s2:.3f}")
    # near-origin lower bound for n = 3: slope -(n-2)
    rr = np.geomspace(1e-3, 1e-2, 10)
    p3 = KernelParams(3, 0.5)
    near = np.polyfit(np.log(rr), np.log([K.bessel_kernel(r, p3) for r in rr]), 1)[0]
    ok &= abs(near + 1.0) < 0.1
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    report_line(
        5, "bessel kernel decay slopes", ok,
        "; ".join(details) + f"; near-origin {near:.3f} vs -1; {elapsed:.1f}s vs 120s",
    )


def test_criterion_06_plancherel():
    t0 = time.time()
    worst = max(abs(spatial - frequency) / abs(frequency)
                for spatial, frequency in K.plancherel_pairing(P2, (0.5, 1.0, 2.0)))
    elapsed = time.time() - t0
    report_line(
        6, "plancherel identity", worst < 1e-6 and elapsed < 30.0,
        f"max rel err {worst:.2e} vs 1e-6, {elapsed:.1f}s vs 30s",
    )


def test_criterion_07_multiplier_integrability():
    from mixlap.inversion import sphere_surface_area

    t0 = time.time()

    def l1_mass(rmax):
        rr = np.geomspace(1e-3, rmax, 120)
        vals = np.array([abs(K.resolvent_multiplier_kernel(r, P2)) for r in rr])
        return sphere_surface_area(2) * np.trapezoid(vals * rr, rr)

    base, doubled = l1_mass(25.0), l1_mass(50.0)
    growth = (doubled - base) / base
    elapsed = time.time() - t0
    report_line(
        7, "resolvent multiplier integrability",
        growth < 0.01 and elapsed < 60.0,
        f"tail growth {growth:.2e} vs 0.01 on range doubling, {elapsed:.1f}s vs 60s",
    )


def test_criterion_08_ground_state_suite(ground_state_fixture):
    t0 = time.time()
    grid, cfg, u, report = ground_state_fixture

    checks = {}
    checks["residual"] = (report.residual_linf, report.residual_linf < 1e-8)
    min_u = float(u.data.min())
    checks["positivity"] = (min_u, min_u > 0.0)

    norm_sq = S.norms(u, P2)["sobolev_s"] ** 2
    nehari_rel = report.nehari_gap / norm_sq
    checks["nehari"] = (nehari_rel, nehari_rel < 1e-6)

    prof_fiber = V.mountain_pass_profile(u, P2, cfg)
    checks["t_star"] = (prof_fiber.t_star, abs(prof_fiber.t_star - 1.0) < 1e-4)

    lp = grid.cell_volume * np.sum(np.maximum(u.data, 0.0) ** (cfg.p + 1.0))
    target = (0.5 - 1.0 / (cfg.p + 1.0)) * lp
    energy_rel = abs(report.energy - target) / abs(target)
    checks["energy identity"] = (energy_rel, energy_rel < 1e-6)

    # audited inside L/3: beyond that radius the periodic images of the
    # |x|^{-(n+2s)} tail dominate the deviation
    dev = A.symmetry_deviation(u, r_max=grid.L / 3.0)
    checks["symmetry"] = (dev, dev < 1e-6)

    prof = A.radial_average(u, params=P2)
    fit = A.decay_fit(prof, (5.0, grid.L / 2.5), params=P2)
    checks["decay slope"] = (fit.slope, abs(fit.slope + 3.0) < 0.3)

    elapsed = time.time() - t0
    ok = all(flag for _, flag in checks.values()) and elapsed < 300.0
    detail = ", ".join(f"{k} {v:.3g}" for k, (v, _) in checks.items())
    report_line(
        8, "ground-state suite (n=2, s=0.5, p=3, L=20, N=256)", ok,
        detail + f", {elapsed:.1f}s vs 300s",
    )


def test_criterion_09_gradient_check():
    t0 = time.time()
    grid = S.GridSpec(2, 10.0, 64)
    cfg = V.SolverConfig(p=3.0)
    worst = 0.0
    second_order = True
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        u = S.RealField(grid, rng.standard_normal(grid.shape))
        phi = S.RealField(grid, rng.standard_normal(grid.shape))
        pairing = grid.cell_volume * np.sum(
            V.gradient_plus(u, P2, cfg).data * phi.data
        )
        errs = []
        for h in (2e-2, 1e-2, 5e-3):
            num = (
                V.energy_plus(S.RealField(grid, u.data + h * phi.data), P2, cfg)
                - V.energy_plus(S.RealField(grid, u.data - h * phi.data), P2, cfg)
            ) / (2.0 * h)
            errs.append(abs(num - pairing) / abs(pairing))
        worst = max(worst, min(errs))
        second_order &= errs[0] / errs[2] > 6.0  # ~16 expected for O(h^2)
    elapsed = time.time() - t0
    report_line(
        9, "energy gradient consistency",
        worst < 1e-5 and second_order and elapsed < 60.0,
        f"max rel err {worst:.2e} vs 1e-5, second-order {second_order}, "
        f"{elapsed:.1f}s vs 60s",
    )


def test_criterion_10_monte_carlo():
    t0 = time.time()
    batch = mc.sample_mixed(1.0, P2, 10 ** 6, seed=2024)
    edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))
    dens = mc.compare_density(batch, edges)
    rng = np.random.default_rng(7)
    xis = rng.uniform(-1.0, 1.0, (5, 2))
    char = mc.validate_char_function(batch, xis)
    elapsed = time.time() - t0
    worst_shell = max(s["sigmas"] for s in dens["shells"])
    worst_freq = max(r["sigmas"] for r in char["frequencies"])
    report_line(
        10, "monte-carlo cross-validation",
        dens["pass"] and char["pass"] and elapsed < 180.0,
        f"worst shell {worst_shell:.2f} sigma, worst frequency {worst_freq:.2f} "
        f"sigma vs 3, {elapsed:.1f}s vs 180s",
    )


def test_criterion_11_barriers():
    t0 = time.time()
    radii = np.geomspace(2.0, 50.0, 25)
    pw = P2.n + 2.0 * P2.s
    sub = A.barrier_subsolution(P2, radii=radii)
    sup = A.barrier_supersolution(P2, radii=radii)
    c1 = float((sub.values * sub.radii ** pw).min())
    c2 = float((sup.values * sup.radii ** pw).max())
    fine = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-14, max_zeros=800)
    sub_f = A.barrier_subsolution(P2, fine, radii=radii)
    sup_f = A.barrier_supersolution(P2, fine, radii=radii)
    c1_f = float((sub_f.values * sub_f.radii ** pw).min())
    c2_f = float((sup_f.values * sup_f.radii ** pw).max())
    stable = abs(c1_f - c1) / c1 < 0.05 and abs(c2_f - c2) / c2 < 0.05
    elapsed = time.time() - t0
    report_line(
        11, "barrier constructions",
        c1 > 0 and np.isfinite(c2) and stable and elapsed < 120.0,
        f"c1 {c1:.4f} > 0, c2 {c2:.4f} finite, refinement drift "
        f"{abs(c1_f - c1) / c1:.2e}/{abs(c2_f - c2) / c2:.2e} vs 0.05, "
        f"{elapsed:.1f}s vs 120s",
    )
