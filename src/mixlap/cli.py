"""Command-line front end.

Subcommands: kernel-tab, kernel-verify, solve, analyze, mc-validate,
asymptotics.  Every run writes a manifest JSON recording the command, the
fully resolved configuration, library versions, wall time and the pass/fail
summary.  Exit codes: 0 all checks passed, 1 a verification failed,
2 usage/config error, 3 numerical non-convergence.

Defaults may be supplied through a ``key = value`` config file (``#``
comments allowed) named with ``--config``; explicit command-line flags win
over file values.
"""

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np
from scipy import fft

from . import __version__
from . import analysis, kernels, mc, solver, spectral
from .errors import AccuracyError, MixlapError
from .fileio import atomic_write
from .params import KernelParams, QuadratureSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


def _merge_config(args, parser):
    """Fill argparse defaults from the config file; flags win."""
    if not getattr(args, "config", None):
        return args
    file_values = _parse_config_file(args.config)
    for key, raw in file_values.items():
        if not hasattr(args, key):
            raise ValueError(f"unknown config key {key!r}")
        if getattr(args, key) is None:  # not set on the command line
            setattr(args, key, raw)
    return args


def _floats(text):
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


def _resolve(args, name, cast, default=None, required=False):
    val = getattr(args, name, None)
    if val is None:
        if required:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return default
    return cast(val)


def _quad_from(args):
    return QuadratureSpec(
        rel_tol=_resolve(args, "rel_tol", float, 1e-8),
        abs_tol=_resolve(args, "abs_tol", float, 1e-12),
        max_zeros=_resolve(args, "max_zeros", int, 400),
    )


def _params_from(args):
    return KernelParams(
        n=_resolve(args, "n", int, required=True),
        s=_resolve(args, "s", float, required=True),
    )


def _write_manifest(outdir, command, config, passed, t_start):
    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "mixlap": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "wall_time_s": time.time() - t_start,
        "pass": bool(passed),
    }
    atomic_write(os.path.join(outdir, "manifest.json"), json.dumps(manifest, indent=2))
    return manifest


def _fft_workers(args):
    """Context setting the worker threads of scipy.fft (the spectral FFTs)."""
    threads = _resolve(args, "threads", int, None)
    if threads is None:
        return contextlib.nullcontext()
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")
    return fft.set_workers(threads)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (exit_code, resolved_config)


def _cmd_kernel_tab(args):
    params = _params_from(args)
    quad = _quad_from(args)
    label = _resolve(args, "kernel", str, "bessel")
    radii = np.array(_floats(_resolve(args, "radii", str, required=True)))
    extra = {}
    for key in ("t", "t1", "t2", "a"):
        val = _resolve(args, key, float, None)
        if val is not None:
            extra[key] = val
    prof = kernels.tabulate_kernel(label, radii, params, quad, **extra)
    outdir = _resolve(args, "output_dir", str, ".")
    os.makedirs(outdir, exist_ok=True)
    prof.write_csv(os.path.join(outdir, f"{label}.csv"), quad=quad)
    config = {"kernel": label, "n": params.n, "s": params.s,
              "radii": radii.tolist(), **extra}
    return EXIT_OK, config, True


def _cmd_kernel_verify(args):
    params = _params_from(args)
    quad = _quad_from(args)
    outdir = _resolve(args, "output_dir", str, ".")
    os.makedirs(outdir, exist_ok=True)
    records = []

    rng = np.random.default_rng(_resolve(args, "seed", int, 0))
    errs = []
    for _ in range(10):
        x, t = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
        direct = kernels.heat_kernel(x, t, params, quad)
        for branch in ("2s", "2"):
            errs.append(
                abs(kernels.heat_kernel_rescaled(x, t, params, quad, branch) - direct)
                / abs(direct)
            )
    records.append(analysis.check_report(
        "scaling-identities", max(errs), 1e-6, max(errs) < 1e-6))

    mass_errs = [abs(kernels.heat_kernel_mass(t, params, quad) - 1.0)
                 for t in (0.5, 1.0, 2.0)]
    records.append(analysis.check_report(
        "heat-kernel-mass", max(mass_errs), 1e-4, max(mass_errs) < 1e-4))

    cross = []
    for r in np.geomspace(0.3, 10.0, 5):
        a = kernels.bessel_kernel(r, params, quad)
        b = kernels.bessel_kernel_time_integral(r, params, quad)
        cross.append(abs(a - b) / abs(a))
    records.append(analysis.check_report(
        "bessel-time-integral", max(cross), 1e-6, max(cross) < 1e-6))

    pl_errs = [abs(sp - fr) / abs(fr)
               for sp, fr in kernels.plancherel_pairing(params, (0.5, 1.0, 2.0), quad)]
    records.append(analysis.check_report(
        "plancherel", max(pl_errs), 1e-6, max(pl_errs) < 1e-6))

    radii = np.geomspace(0.2, 50.0, 60)
    prof = kernels.tabulate_kernel("bessel", radii, params, quad)
    mono = prof.is_nonneg_nonincreasing()
    records.append(analysis.check_report(
        "positivity-monotonicity", float(prof.values.min()), 0.0, mono))
    fit = analysis.decay_fit(prof, (5.0, 50.0), params=params)
    records.append(analysis.check_report(
        "bessel-decay-slope", fit.slope, fit.expected_slope,
        abs(fit.slope - fit.expected_slope) < 0.05, window=fit.window))

    analysis.write_report(os.path.join(outdir, "kernel-verify.json"), records)
    passed = all(rec["pass"] for rec in records)
    config = {"n": params.n, "s": params.s}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


def _cmd_solve(args):
    params = _params_from(args)
    grid = spectral.GridSpec(
        n=params.n,
        L=_resolve(args, "L", float, 20.0),
        N=_resolve(args, "N", int, 256),
    )
    cfg = solver.SolverConfig(
        p=_resolve(args, "p", float, required=True),
        tol_residual=_resolve(args, "tol_residual", float, 1e-10),
        max_iter=_resolve(args, "max_iter", int, 5000),
        seed=_resolve(args, "seed", int, 0),
        perturb=_resolve(args, "perturb", float, 0.0),
    )
    outdir = _resolve(args, "output_dir", str, ".")
    os.makedirs(outdir, exist_ok=True)
    u, report = solver.solve_ground_state(grid, params, cfg)
    spectral.write_field(os.path.join(outdir, "ground_state.bin"), u)
    atomic_write(os.path.join(outdir, "solve-report.json"),
                 json.dumps(report.to_dict(), indent=2))
    config = {"n": params.n, "s": params.s, "p": cfg.p, "L": grid.L, "N": grid.N,
              "tol_residual": cfg.tol_residual, "max_iter": cfg.max_iter,
              "seed": cfg.seed}
    code = EXIT_OK if report.converged else EXIT_NO_CONVERGENCE
    return code, config, report.converged


def _cmd_analyze(args):
    params = _params_from(args)
    quad = _quad_from(args)
    field_path = _resolve(args, "field", str, required=True)
    outdir = _resolve(args, "output_dir", str, ".")
    u = spectral.read_field(field_path)
    grid = u.grid
    records = []

    min_u = float(u.data.min())
    records.append(analysis.check_report("positivity", min_u, 0.0, min_u > 0))

    # periodization images break symmetry near the box boundary; audit
    # inside a guard radius where the field dominates its images
    sym_guard = grid.L / 3.0
    dev = analysis.symmetry_deviation(u, r_max=sym_guard)
    records.append(analysis.check_report(
        "radial-symmetry", dev, 1e-6, dev < 1e-6, window=(0.0, sym_guard)))
    guard = grid.L / 2.5

    prof = analysis.radial_average(u, params=params)
    # keep at least a 3-unit fit window on small boxes
    fit_lo = max(2.0, min(5.0, guard - 3.0))
    fit = analysis.decay_fit(prof, (fit_lo, guard), params=params)
    tol = 0.1 * abs(fit.expected_slope)
    records.append(analysis.check_report(
        "decay-slope", fit.slope, fit.expected_slope,
        abs(fit.slope - fit.expected_slope) < tol, window=fit.window,
        c_lower=fit.c_lower, c_upper=fit.c_upper))

    sub = analysis.barrier_subsolution(params, quad)
    sup = analysis.barrier_supersolution(params, quad)
    power = params.n + 2.0 * params.s
    c1 = float((sub.values * sub.radii ** power).min())
    c2 = float((sup.values * sup.radii ** power).max())
    records.append(analysis.check_report("barrier-subsolution", c1, 0.0, c1 > 0))
    records.append(analysis.check_report(
        "barrier-supersolution", c2, None, np.isfinite(c2)))

    os.makedirs(outdir, exist_ok=True)
    prof.write_csv(os.path.join(outdir, "radial-profile.csv"))
    analysis.write_report(os.path.join(outdir, "analyze.json"), records)
    passed = all(rec["pass"] for rec in records)
    config = {"n": params.n, "s": params.s, "field": field_path}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


def _cmd_mc_validate(args):
    params = _params_from(args)
    quad = _quad_from(args)
    t = _resolve(args, "t", float, 1.0)
    count = _resolve(args, "count", int, 10 ** 6)
    seed = _resolve(args, "seed", int, 0)
    outdir = _resolve(args, "output_dir", str, ".")
    batch = mc.sample_mixed(t, params, count, seed)

    rng = np.random.default_rng(seed + 1)
    xis = rng.uniform(-1.0, 1.0, (5, params.n))
    char_rep = mc.validate_char_function(batch, xis)
    edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))
    dens_rep = mc.compare_density(batch, edges, quad)
    os.makedirs(outdir, exist_ok=True)
    mc.write_report(os.path.join(outdir, "mc-char.json"), char_rep)
    mc.write_report(os.path.join(outdir, "mc-density.json"), dens_rep)
    passed = char_rep["pass"] and dens_rep["pass"]
    config = {"n": params.n, "s": params.s, "t": t, "count": count, "seed": seed}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


def _cmd_asymptotics(args):
    params = _params_from(args)
    quad = _quad_from(args)
    radii = _floats(_resolve(args, "radii", str, "20,50,100"))
    etas = _floats(_resolve(args, "eta", str, "0.1,0.5,0.9"))
    outdir = _resolve(args, "output_dir", str, ".")
    alpha = kernels.heat_tail_constant(params)
    power = params.n + 2.0 * params.s
    rows = []
    worst = 0.0
    for eta in etas:
        for x in radii:
            val = float(
                x ** power * kernels.heat_kernel_two_scale(x, 1.0, eta, params, quad)
            )
            rel = abs(val - alpha) / alpha
            rows.append({"eta": eta, "radius": x, "compensated": val,
                         "tail_constant": alpha, "rel_err": rel})
            if x == max(radii):
                worst = max(worst, rel)
    passed = bool(worst < 0.05)
    report = {"check": "asymptotic-constant", "tail_constant": alpha,
              "rows": rows, "rel_err_at_largest_radius": worst,
              "threshold": 0.05, "pass": passed}
    atomic_write(os.path.join(outdir, "asymptotics.json"), json.dumps(report, indent=2))
    config = {"n": params.n, "s": params.s, "radii": radii, "eta": etas}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


_COMMANDS = {
    "kernel-tab": _cmd_kernel_tab,
    "kernel-verify": _cmd_kernel_verify,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "mc-validate": _cmd_mc_validate,
    "asymptotics": _cmd_asymptotics,
}


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process.

    Safe to share: ``parse_args`` returns a fresh namespace on every call and
    leaves the parser unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="mixlap",
        description="Kernels, ground states and verification suites for the "
        "mixed operator -Laplacian + (-Laplacian)^s.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", help="space dimension")
        p.add_argument("--s", help="fractional order in (0, 1)")
        p.add_argument("--config", help="key = value config file; flags win")
        p.add_argument("--output-dir", dest="output_dir", help="artifact directory")
        p.add_argument("--rel-tol", dest="rel_tol", help="quadrature relative tolerance")
        p.add_argument("--abs-tol", dest="abs_tol", help="quadrature absolute tolerance")
        p.add_argument("--max-zeros", dest="max_zeros", help="Bessel-zero partition cap")
        p.add_argument("--threads", help="worker threads of the spectral FFTs")
        p.add_argument("--seed", help="RNG seed where applicable")

    p = sub.add_parser("kernel-tab", help="tabulate a kernel profile to CSV")
    common(p)
    p.add_argument("--kernel", help="heat | heat-two-scale | bessel | "
                   "bessel-shifted | resolvent-multiplier")
    p.add_argument("--radii", help="comma-separated radii")
    p.add_argument("--t", help="time (heat)")
    p.add_argument("--t1", help="fractional-scale weight (heat-two-scale)")
    p.add_argument("--t2", help="classical-scale weight (heat-two-scale)")
    p.add_argument("--a", help="shift (bessel-shifted)")

    p = sub.add_parser("kernel-verify", help="run the kernel verification suite")
    common(p)

    p = sub.add_parser("solve", help="compute the ground state on a periodic box")
    common(p)
    p.add_argument("--p", help="nonlinearity exponent")
    p.add_argument("--L", help="box half-width")
    p.add_argument("--N", help="grid points per axis (power of two)")
    p.add_argument("--tol-residual", dest="tol_residual", help="residual tolerance")
    p.add_argument("--max-iter", dest="max_iter", help="iteration cap")
    p.add_argument("--perturb", help="relative amplitude of seeded init noise")

    p = sub.add_parser("analyze", help="qualitative checks on a solved field")
    common(p)
    p.add_argument("--field", help="path to a RealField binary")

    p = sub.add_parser("mc-validate", help="Monte-Carlo heat-kernel cross-validation")
    common(p)
    p.add_argument("--t", help="time of the sampled marginal")
    p.add_argument("--count", help="number of samples")

    p = sub.add_parser("asymptotics", help="verify the kernel tail constant")
    common(p)
    p.add_argument("--radii", help="comma-separated radii |x| (literal radius)")
    p.add_argument("--eta", help="comma-separated classical-scale weights")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    t_start = time.time()
    try:
        args = _merge_config(args, parser)
        with _fft_workers(args):
            code, config, passed = _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MixlapError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    outdir = _resolve(args, "output_dir", str, ".")
    _write_manifest(outdir, args.command, config, passed, t_start)
    status = "PASS" if passed else "FAIL"
    print(f"{args.command}: {status} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
