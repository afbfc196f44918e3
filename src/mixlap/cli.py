"""Command-line front end.

Subcommands: kernel-tab, kernel-verify, solve, analyze, mc-validate,
asymptotics.  Every run writes a manifest JSON recording the command, the
fully resolved configuration, library versions, wall time and the pass/fail
summary; mc-validate's adds its stage timings (``stages``).  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage/config error,
3 numerical non-convergence.

Arguments may also be read from a file: ``mixlap solve @run.args --N 128``
reads ``run.args``, one argument per line (``--n=2``; blank lines are
skipped), in its place.  Position
decides precedence: an argument after the file wins over the file's value,
one before it loses.  Any argument that starts with ``@`` is read as a file.
"""

import argparse
import functools
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from . import analysis, kernels, mc, solver, spectral
from .errors import AccuracyError, MixlapError
from .fileio import write_json
from .params import KernelParams, QuadratureSpec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ValueError on a usage error, not SystemExit,
    and skips the blank lines of an argument file."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def convert_arg_line_to_args(self, arg_line):
        return [arg_line] if arg_line.strip() else []


def _parse(argv):
    """Parse argv once, with its command's parser.

    The top-level parser runs only for --help, --version and a missing or
    unknown command.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:  # worded as the top-level parser words it
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _floats(text):
    """A comma-separated list of finite numbers; an empty list is a usage error."""
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values or not all(map(math.isfinite, values)):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return values


def _given(args, *names):
    """The options among ``names`` given on the command line or in a file."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name) is not None}


def _quad_from(args):
    return QuadratureSpec(**_given(args, "rel_tol", "abs_tol", "max_zeros"))


def _write_manifest(outdir, command, config, passed, t_start, stages=None):
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
    if stages is not None:
        manifest["stages"] = stages
    write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (exit code, resolved config, pass),
# and mc-validate also its stage timings


def _cmd_kernel_tab(args):
    params = KernelParams(args.n, args.s)
    quad = _quad_from(args)
    label = args.kernel
    radii = np.array(args.radii)
    extra = _given(args, "t", "t1", "t2", "a")
    prof = kernels.tabulate_kernel(label, radii, params, quad, **extra)
    prof.write_csv(os.path.join(args.output_dir, f"{label}.csv"), quad=quad)
    config = {"kernel": label, "n": params.n, "s": params.s,
              "radii": radii.tolist(), **extra, **asdict(quad)}
    return EXIT_OK, config, True


def _cmd_kernel_verify(args):
    params = KernelParams(args.n, args.s)
    quad = _quad_from(args)
    outdir = args.output_dir
    records = []

    rng = np.random.default_rng(args.seed)
    errs = []
    for _ in range(10):
        x, t = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
        direct = kernels.heat_kernel(x, t, params, quad)
        for branch in ("2s", "2"):
            errs.append(
                abs(kernels.heat_kernel_rescaled(x, t, params, quad, branch=branch) - direct)
                / abs(direct)
            )
    records.append(analysis.check_report(
        "scaling-identities", max(errs), 1e-6, max(errs) < 1e-6))

    mass_errs = [abs(kernels.heat_kernel_mass(t, params, quad) - 1.0)
                 for t in (0.5, 1.0, 2.0)]
    records.append(analysis.check_report(
        "heat-kernel-mass", max(mass_errs), 1e-4, max(mass_errs) < 1e-4))

    try:
        cross = []
        for r in np.geomspace(0.3, 10.0, 5):
            a = kernels.bessel_kernel(r, params, quad)
            b = kernels.bessel_kernel_time_integral(r, params, quad)
            cross.append(abs(a - b) / abs(a))
    except AccuracyError as exc:
        # a check that cannot run fails its own record, not the command
        records.append(analysis.check_report(
            "bessel-time-integral", None, 1e-6, False, detail=str(exc)))
    else:
        records.append(analysis.check_report(
            "bessel-time-integral", max(cross), 1e-6, max(cross) < 1e-6))

    pl_errs = [abs(sp - fr) / abs(fr)
               for sp, fr in kernels.plancherel_pairing(params, (0.5, 1.0, 2.0), quad)]
    records.append(analysis.check_report(
        "plancherel", max(pl_errs), 1e-6, max(pl_errs) < 1e-6))

    # two points in each lower-bound regime of the two-sided heat bounds:
    # 1 < t = x^s < x^{2s} for x > 1, and x^2 < t = x^{1+s} < x^{2s} < 1 for x < 1
    bound_points = ([(x, x ** params.s) for x in (2.0, 4.0)]
                    + [(x, x ** (1.0 + params.s)) for x in (0.5, 0.8)])
    records.append(kernels.heat_bound_check(bound_points, params, quad))

    radii = np.geomspace(0.2, 50.0, 60)
    prof = kernels.tabulate_kernel("bessel", radii, params, quad)
    mono = prof.is_nonneg_nonincreasing()
    records.append(analysis.check_report(
        "positivity-monotonicity", float(prof.values.min()), 0.0, mono))
    fit = analysis.decay_fit(prof, (5.0, 50.0), params=params)
    records.append(analysis.check_report(
        "bessel-decay-slope", fit.slope, fit.expected_slope,
        abs(fit.slope - fit.expected_slope) < 0.05, window=fit.window))

    write_json(os.path.join(outdir, "kernel-verify.json"), records)
    passed = all(rec["pass"] for rec in records)
    config = {"n": params.n, "s": params.s, "seed": args.seed, **asdict(quad)}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


def _cmd_solve(args):
    params = KernelParams(args.n, args.s)
    grid = spectral.GridSpec(n=params.n, L=args.L, N=args.N)
    cfg = solver.SolverConfig(
        p=args.p, **_given(args, "tol_residual", "max_iter", "seed", "perturb"))
    outdir = args.output_dir
    u, report = solver.solve_ground_state(grid, params, cfg)
    spectral.write_field(os.path.join(outdir, "ground_state.bin"), u,
                         s=params.s, p=cfg.p)
    write_json(os.path.join(outdir, "solve-report.json"), asdict(report))
    config = {"n": params.n, "s": params.s, "p": cfg.p, "L": grid.L, "N": grid.N,
              "tol_residual": cfg.tol_residual, "max_iter": cfg.max_iter,
              "seed": cfg.seed, "perturb": cfg.perturb}
    code = EXIT_OK if report.converged else EXIT_NO_CONVERGENCE
    return code, config, report.converged


def _cmd_analyze(args):
    quad = _quad_from(args)
    field_path = args.field
    outdir = args.output_dir
    header = spectral.read_header(field_path, "s", "p")
    u = spectral.read_field(field_path)
    grid = u.grid
    params = KernelParams(grid.n, header["s"])
    cfg = solver.SolverConfig(p=header["p"])
    records = []

    min_u = float(u.data.min())
    records.append(analysis.check_report("positivity", min_u, 0.0, min_u > 0))

    # the field's own equation, max |(1 + L)u - (u+)^p|: a converged solve
    # reads at most its tol_residual (1e-10 by default)
    res = float(np.abs(solver.gradient_plus(u, params, cfg).data).max())
    records.append(analysis.check_report("field-residual", res, 1e-8, res < 1e-8))

    # periodization images break symmetry near the box boundary; audit
    # inside a guard radius where the field dominates its images
    sym_guard = grid.L / 3.0
    try:
        dev = analysis.symmetry_deviation(u, r_max=sym_guard)
    except ValueError as exc:
        records.append(analysis.check_report(
            "radial-symmetry", None, 1e-6, False, window=(0.0, sym_guard),
            detail=str(exc)))
    else:
        records.append(analysis.check_report(
            "radial-symmetry", dev, 1e-6, dev < 1e-6, window=(0.0, sym_guard)))
    guard = grid.L / 2.5

    prof = analysis.radial_average(u, params=params)
    # keep at least a 3-unit fit window on small boxes
    fit_lo = max(2.0, min(5.0, guard - 3.0))
    try:
        fit = analysis.decay_fit(prof, (fit_lo, guard), params=params)
    except (ValueError, MixlapError) as exc:
        # a fit that cannot run fails its own record, not the command
        records.append(analysis.check_report(
            "decay-slope", None, -(params.n + 2.0 * params.s), False,
            window=(fit_lo, guard), detail=str(exc)))
    else:
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

    prof.write_csv(os.path.join(outdir, "radial-profile.csv"))
    write_json(os.path.join(outdir, "analyze.json"), records)
    passed = all(rec["pass"] for rec in records)
    config = {"n": params.n, "s": params.s, "field": field_path, **asdict(quad)}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


def _cmd_mc_validate(args):
    params = KernelParams(args.n, args.s)
    quad = _quad_from(args)
    t, count, seed, outdir = args.t, args.count, args.seed, args.output_dir
    rng = np.random.default_rng(seed + 1)
    xis = rng.uniform(-1.0, 1.0, (5, params.n))
    edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))
    char_rep, dens_rep, timings = mc.stream_checks(t, params, count, seed, xis, edges,
                                                   quad)
    write_json(os.path.join(outdir, "mc-char.json"), char_rep)
    write_json(os.path.join(outdir, "mc-density.json"), dens_rep)
    passed = char_rep["pass"] and dens_rep["pass"]
    config = {"n": params.n, "s": params.s, "t": t, "count": count, "seed": seed,
              "workers": mc.worker_count(), **asdict(quad)}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed, timings


def _cmd_asymptotics(args):
    params = KernelParams(args.n, args.s)
    quad = _quad_from(args)
    radii, etas, outdir = args.radii, args.eta, args.output_dir
    alpha = kernels.heat_tail_constant(params)
    power = params.n + 2.0 * params.s
    rows = []
    worst = 0.0
    for eta in etas:
        values = kernels.heat_kernel_two_scale(np.array(radii), 1.0, eta, params, quad)
        for x, value in zip(radii, values.tolist()):
            val = x ** power * value
            rel = abs(val - alpha) / alpha
            rows.append({"eta": eta, "radius": x, "compensated": val,
                         "tail_constant": alpha, "rel_err": rel})
            if x == max(radii):
                worst = max(worst, rel)
    passed = bool(worst < 0.05)
    report = {"check": "asymptotic-constant", "tail_constant": alpha,
              "rows": rows, "rel_err_at_largest_radius": worst,
              "threshold": 0.05, "pass": passed}
    write_json(os.path.join(outdir, "asymptotics.json"), report)
    config = {"n": params.n, "s": params.s, "radii": radii, "eta": etas,
              **asdict(quad)}
    return (EXIT_OK if passed else EXIT_CHECK_FAILED), config, passed


@functools.lru_cache(maxsize=1)
def build_parser():
    """The argument parser, built once per process.

    Safe to share: ``parse_args`` returns a fresh namespace on every call and
    leaves the parser unchanged.  Each subcommand declares only the options it
    reads, and ``parser.commands`` maps its name to its parser.
    """
    parser = _Parser(
        prog="mixlap",
        description="Kernels, ground states and verification suites for the "
        "mixed operator -Laplacian + (-Laplacian)^s.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, run, help, quadrature=True, params=True):
        parser.commands[name] = p = sub.add_parser(name, help=help,
                                                   fromfile_prefix_chars="@")
        p.set_defaults(run=run)
        if params:  # analyze reads n and s from the field's header
            p.add_argument("--n", type=int, required=True, help="space dimension")
            p.add_argument("--s", type=float, required=True,
                           help="fractional order in (0, 1)")
        p.add_argument("--output-dir", default=".", help="artifact directory")
        if quadrature:  # no defaults: unset options keep QuadratureSpec's
            p.add_argument("--rel-tol", type=float,
                           help="quadrature relative tolerance")
            p.add_argument("--abs-tol", type=float,
                           help="quadrature absolute tolerance")
            p.add_argument("--max-zeros", type=int, help="Bessel-zero partition cap")
        return p

    p = command("kernel-tab", _cmd_kernel_tab, "tabulate a kernel profile to CSV")
    p.add_argument("--kernel", default="bessel", help="heat | heat-two-scale | "
                   "bessel | bessel-shifted | resolvent-multiplier")
    p.add_argument("--radii", type=_floats, required=True,
                   help="comma-separated radii")
    p.add_argument("--t", type=float, help="time (heat)")
    p.add_argument("--t1", type=float, help="fractional-scale weight (heat-two-scale)")
    p.add_argument("--t2", type=float, help="classical-scale weight (heat-two-scale)")
    p.add_argument("--a", type=float, help="shift (bessel-shifted)")

    p = command("kernel-verify", _cmd_kernel_verify, "run the kernel verification suite")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled (x, t)")

    p = command("solve", _cmd_solve, "compute the ground state on a periodic box",
                quadrature=False)
    p.add_argument("--p", type=float, required=True, help="nonlinearity exponent")
    p.add_argument("--L", type=float, default=20.0, help="box half-width")
    p.add_argument("--N", type=int, default=256,
                   help="grid points per axis (power of two)")
    # no defaults: unset solver options keep SolverConfig's
    p.add_argument("--tol-residual", type=float, help="residual tolerance")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.add_argument("--seed", type=int, help="seed of the init noise")
    p.add_argument("--perturb", type=float,
                   help="relative amplitude of seeded init noise")

    p = command("analyze", _cmd_analyze, "qualitative checks on a solved field",
                params=False)
    p.add_argument("--field", required=True, help="path to a RealField binary")

    p = command("mc-validate", _cmd_mc_validate,
                "Monte-Carlo heat-kernel cross-validation")
    p.add_argument("--t", type=float, default=1.0, help="time of the sampled marginal")
    p.add_argument("--count", type=int, default=10 ** 6, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="sampler seed")

    p = command("asymptotics", _cmd_asymptotics, "verify the kernel tail constant")
    p.add_argument("--radii", type=_floats, default="20,50,100",
                   help="comma-separated radii |x| (literal radius)")
    p.add_argument("--eta", type=_floats, default="0.1,0.5,0.9",
                   help="comma-separated classical-scale weights")

    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    t_start = time.time()
    try:
        args = _parse(argv)
        code, config, passed, *stages = args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AccuracyError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MixlapError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _write_manifest(args.output_dir, args.command, config, passed, t_start, *stages)
    status = "PASS" if passed else "FAIL"
    print(f"{args.command}: {status} (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
