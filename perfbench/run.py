#!/usr/bin/env python3
"""Benchmark of the mixlap CLI: three workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload tabulate-cold --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: one process calls
``mixlap.cli.main(argv)`` in-process, one command after the other, and
repeats the workload's pass (its fixed list of operations) until
``--seconds`` have gone by.  Every pass of a run uses the same inputs,
generated from ``--seed``; the program sees only those inputs (radii,
seeds).

  tabulate-cold  kernel-tab on three kernels, six (n, s) pairs and three
                 radius bands, each call on an empty cache; closed-form
                 heat-two-scale calls; asymptotics at the acceptance set.
  ground-state   solve in 2-D (three s) and 3-D, each followed by the field
                 audit analyze performs, without its barriers.
  mc-validate    mc-validate at (2, 0.5) and (3, 0.25), 10^6 samples each.

Every operation's output is checked against the repository's own oracles;
a failed check or a nonzero exit code fails the operation.  Failures the code
is known to produce (``KNOWN_FAILURES``) are expected, like an xfail: the
detail line counts them in ``fail_frac`` and lists them, while ``failed`` and
``correct`` on the result line count only the failures outside that list.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

  setup_s      median of several set-ups, each a fresh interpreter that
               imports ``mixlap.cli`` and makes the inputs, each timed over
               the reference computation run just before it and given in
               seconds at the speed where that takes SETUP_REF_S;
  wall_ref     the median pass time in units of a fixed reference
               computation: the time of each stretch of operations is
               divided by the reference timed just before and after it, at
               every pass start and then every REF_INTERVAL seconds, and a
               pass's quotients are summed.  On a shared 2-core VM (Python
               3.11, numpy 2.4) the CPU ran up to 60% slower for minutes at a
               time, and raw pass times spread by a third across runs; the
               ratio cancels most of that.  Raw times are in the detail;
  peak_rss_mb  peak resident set of the measuring process.

With ``--trace 1`` the same loop runs with spans around every public
function of the package (see ``spans.py``) and the last line carries the
per-layer metrics.  The line before it holds the detail: each workload's own
end-to-end numbers (medians over operations or passes), failures, machine and
working-set facts.  ``report.py`` runs the benchmark and prints all of it.
"""

import os
import sys

# single-threaded BLAS/OpenMP; must precede the first numpy import, which is
# also why the CLI's --threads (set after import) is not used
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ["tabulate-cold", "ground-state", "mc-validate"]
SETUP_REPEATS = 5
# Typical seconds of reference() without its 3-D grid on the 2-vCPU VM the
# benchmark was defined on.  Raw set-up medians moved by 26% between two sets
# of the same code as the machine's speed drifted; the reference moved with it.
SETUP_REF_S = 0.16
# The machine's speed drifts within seconds, so the reference computation is
# rerun between operations once this many seconds have gone by: before nearly
# every solve and mc-validate call, every ~10 kernel-tab calls.  On a shared
# 2-vCPU VM, reading it only at pass boundaries gave ground-state a wall_ref
# spread of .116 against .085 (mean of three paired batches of 6-10 seeds).
REF_INTERVAL = 0.5

# tabulate-cold: 3 kernels x 6 pairs x 3 bands = 54 kernel-tab calls a pass
TAB_KERNELS = ["heat", "bessel", "resolvent-multiplier"]
TAB_PAIRS = [(1, 0.5), (2, 0.1), (2, 0.5), (2, 0.9), (3, 0.25), (3, 0.75)]
TAB_BANDS = [(0.01, 0.1), (0.1, 10.0), (10.0, 100.0)]
TAB_RADII_PER_CALL = 3
ACCEPTANCE_PAIRS = [(2, 0.5), (3, 0.25), (3, 0.75)]
CLOSED_FORM_TOL = 1e-6
TAIL_TOL = 0.05

# ground-state: (n, s, p, L, N)
SOLVES_2D = [(2, s, 3, 20, 256) for s in (0.25, 0.5, 0.75)]
SOLVE_3D = (3, 0.5, 2, 15, 64)
RESIDUAL_TOL = 1e-8
IDENTITY_TOL = 1e-6
SYMMETRY_TOL = 1e-6

# mc-validate
MC_PAIRS = [(2, 0.5), (3, 0.25)]
MC_COUNT = 10 ** 6
MC_SIGMAS = 3.0

# Failures the code at the time this benchmark was written is known to
# produce.  They count in the detail's ``fail_frac``; ``failed`` and ``correct``
# count only failures outside this list, so that a run's ``failed`` does not
# scale with how many passes fit in it.
KNOWN_FAILURES = {
    "audit-n3-s0.5-decay": "decay_fit finds 7 shells (< 8) in analyze's window on "
                           "the 3-D N=64 field and raises",
    "audit-n3-s0.5-symmetry": "symmetry deviation of the 3-D N=64 field is ~1.5e-6, "
                              "above the 1e-6 bound",
    "audit-n2-s0.25-decay": "2-D decay slope -2.15 against -2.5 in analyze's window "
                            "(5, 8): 14% off, tolerance 10%",
    "audit-n2-s0.75-decay": "2-D decay slope -3.86 against -3.5 in analyze's window "
                            "(5, 8): 10.3% off, tolerance 10%",
    "mc-3sigma": "mc-validate fails a call when any of its 15 statistics is past "
                 "3 sigma, which an exact sampler does in ~4% of calls; such a call "
                 "is an expected failure unless each of its MC_RETESTS re-runs on "
                 "fresh seeds fails as well",
}

# A call that fails its 3-sigma check is re-run on this many fresh seeds and
# counts as a real failure only if every re-run fails too.  An exact sampler
# then fails a call at ~0.04^3, under 1e-4, so the gate does not fire by chance
# over many runs; a bias large enough to show at 10^6 samples fails them all.
MC_RETESTS = 2


# ---------------------------------------------------------------------------
# inputs and set-up


def make_inputs(workload, seed):
    """All inputs of a run, from the workload seed alone."""
    rng = random.Random(f"{workload}:{seed}")

    def radii(lo, hi, k):
        step = math.log(hi / lo) / k  # one jittered point per geometric cell
        return [lo * math.exp(step * (i + rng.random())) for i in range(k)]

    if workload == "tabulate-cold":
        tab = [{"kernel": kernel, "n": n, "s": s,
                "radii": radii(lo, hi, TAB_RADII_PER_CALL)}
               for kernel in TAB_KERNELS for n, s in TAB_PAIRS for lo, hi in TAB_BANDS]
        rng.shuffle(tab)
        gauss = []
        for n in (1, 2, 3):
            t2 = rng.uniform(0.5, 2.0)
            # keep values within 8 decades of the peak, as the acceptance test does
            gauss.append({"n": n, "t2": t2,
                          "radii": radii(0.05, math.sqrt(18.0 * t2) / math.pi, 4)})
        poisson = [{"t1": rng.uniform(0.2, 3.0), "radii": radii(0.05, 3.0, 4)}
                   for _ in range(2)]
        return {"tab": tab, "gauss": gauss, "poisson": poisson}
    if workload == "ground-state":
        order = list(range(len(SOLVES_2D)))
        rng.shuffle(order)
        return {"order_2d": order}
    if workload == "mc-validate":
        return {"mc_seeds": [rng.randrange(2 ** 31) for _ in MC_PAIRS]}
    raise ValueError(workload)


def setup_into(workload, seed, path):
    """One set-up: import the CLI and write the run's inputs to ``path``."""
    import mixlap.cli  # noqa: F401  (the import is part of what set-up pays)

    with open(path, "w") as fh:
        json.dump(make_inputs(workload, seed), fh)


def timed_setups(args, rundir):
    """Median set-up time of SETUP_REPEATS fresh processes, and the inputs."""
    times = []
    path = os.path.join(rundir, "inputs.json")
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--setup-into", path]
        ref = reference()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=170)
        times.append((time.perf_counter() - t0) / ref * SETUP_REF_S)
    with open(path) as fh:
        return statistics.median(times), json.load(fh)


# ---------------------------------------------------------------------------
# operations: each returns an OpResult; only the program's calls are timed


class OpResult:
    def __init__(self, kind, seconds, ops=1, failures=(), **extra):
        self.kind = kind
        self.seconds = seconds
        self.ops = ops
        self.failures = list(failures)  # (reason, message)
        self.extra = extra


class Runner:
    def __init__(self, rundir, tracer):
        self.rundir = rundir
        self.tracer = tracer
        self.counter = 0

    def fresh_dir(self, tag):
        self.counter += 1
        path = os.path.join(self.rundir, "ops", f"{self.counter:06d}-{tag}")
        os.makedirs(path)
        return path

    def cli(self, argv, cache):
        """Time one CLI call; returns (seconds, exit code, message)."""
        from mixlap import cli

        os.environ["MIXLAP_CACHE_DIR"] = cache
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
        out, err = io.StringIO(), io.StringIO()  # keep the status line off stdout
        t0 = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # an uncaught error is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, code, err.getvalue().strip()

    def checking(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


def _exit_failure(argv, code, err):
    return ("exit", f"{' '.join(argv[:5])}: exit {code} {err}")


def read_profile(path):
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    return [float(r) for r, _ in rows], [float(v) for _, v in rows]


def gaussian(n, t2, x):
    """H(x, 0, t2): the transform of exp(-t2 r^2)."""
    return (math.pi / t2) ** (n / 2) * math.exp(-math.pi ** 2 * x * x / t2)


def poisson(t1, x):
    """H(x, t1, 0) for n = 1, s = 1/2: the transform of exp(-t1 r)."""
    return 2 * t1 / (t1 ** 2 + 4 * math.pi ** 2 * x * x)


def tail_constant(n, s):
    """lim |x|^{n+2s} H(x, 1, eta), from the Gamma-function formula."""
    alpha = (2.0 ** (n + 2 * s) * math.pi ** (n / 2 - 1) * s * math.sin(math.pi * s)
             * math.gamma(n / 2 + s) * math.gamma(s))
    return alpha / (2 * math.pi) ** (n + 2 * s)


def op_kernel_tab(run, kernel, n, s, radii, kind, extra=(), expect=None):
    out = run.fresh_dir("tab")
    argv = ["kernel-tab", "--n", str(n), "--s", str(s), "--kernel", kernel,
            "--radii", ",".join(map(repr, radii)), "--output-dir", out, *extra]
    secs, code, err = run.cli(argv, os.path.join(out, "cache"))  # a new, empty cache
    fails = []
    with run.checking():
        if code != 0:
            fails.append(_exit_failure(argv, code, err))
        else:
            got_r, got_v = read_profile(os.path.join(out, f"{kernel}.csv"))
            if got_r != radii:
                fails.append(("output", f"{kernel} radii differ from the request"))
            elif not all(math.isfinite(v) for v in got_v):
                fails.append(("output", f"{kernel} n={n} s={s}: nonfinite value"))
            elif kernel in ("heat", "bessel") and (
                    min(got_v) < 0 or any(b > a for a, b in zip(got_v, got_v[1:]))):
                fails.append(("profile", f"{kernel} n={n} s={s}: negative or "
                                         f"increasing on {radii}"))
            elif expect is not None:
                worst = max(abs(v - e) / e for v, e in zip(got_v, map(expect, got_r)))
                if worst >= CLOSED_FORM_TOL:
                    fails.append(("closed-form", f"{kernel} n={n}: rel err {worst:.2e}"))
        shutil.rmtree(out)
    return OpResult(kind, secs, failures=fails, values=len(radii))


def op_asymptotics(run, n, s):
    out = run.fresh_dir("asym")
    argv = ["asymptotics", "--n", str(n), "--s", str(s), "--output-dir", out]
    secs, code, err = run.cli(argv, os.path.join(out, "cache"))
    fails = []
    with run.checking():
        if code != 0:
            fails.append(_exit_failure(argv, code, err))
        else:
            with open(os.path.join(out, "asymptotics.json")) as fh:
                rows = json.load(fh)["rows"]
            far = max(row["radius"] for row in rows)
            tc = tail_constant(n, s)
            worst = max(abs(row["compensated"] - tc) / tc
                        for row in rows if row["radius"] == far)
            if worst >= TAIL_TOL:
                fails.append(("tail", f"n={n} s={s}: tail rel err {worst:.3f}"))
        shutil.rmtree(out)
    return OpResult("asymptotics", secs, failures=fails)


def op_solve(run, n, s, p, L, N):
    import numpy as np

    out = run.fresh_dir("solve")
    argv = ["solve", "--n", str(n), "--s", str(s), "--p", str(p), "--L", str(L),
            "--N", str(N), "--output-dir", out]
    secs, code, err = run.cli(argv, os.path.join(out, "cache"))
    fails = []
    iterations = 0
    with run.checking():
        if code != 0:
            fails.append(_exit_failure(argv, code, err))
        else:
            with open(os.path.join(out, "solve-report.json")) as fh:
                rep = json.load(fh)
            iterations = rep["iterations"]
            u = np.fromfile(os.path.join(out, "ground_state.bin"), dtype="<f8")
            lp = (2.0 * L / N) ** n * float(np.sum(np.maximum(u, 0.0) ** (p + 1.0)))
            target = (0.5 - 1.0 / (p + 1.0)) * lp
            if rep["residual_linf"] >= RESIDUAL_TOL:
                fails.append(("solver", f"n={n} s={s}: residual {rep['residual_linf']:.2e}"))
            if rep["nehari_gap"] / lp >= IDENTITY_TOL:
                fails.append(("solver", f"n={n} s={s}: Nehari gap "
                                        f"{rep['nehari_gap'] / lp:.2e}"))
            if abs(rep["energy"] - target) / abs(target) >= IDENTITY_TOL:
                fails.append(("solver", f"n={n} s={s}: energy identity off"))
    return out, OpResult(f"solve.n{n}", secs, failures=fails, iterations=iterations)


def op_audit(run, n, s, field_dir):
    """The field audit of ``mixlap analyze`` without barriers; three checks."""
    from mixlap import analysis, spectral
    from mixlap.errors import MixlapError
    from mixlap.params import KernelParams

    params = KernelParams(n, s)
    t0 = time.perf_counter()
    u = spectral.read_field(os.path.join(field_dir, "ground_state.bin"))
    L = u.grid.L
    min_u = float(u.data.min())
    dev = analysis.symmetry_deviation(u, r_max=L / 3.0)
    guard = L / 2.5
    prof = analysis.radial_average(u, params=params)
    try:
        fit = analysis.decay_fit(prof, (max(2.0, min(5.0, guard - 3.0)), guard),
                                 params=params)
        rel = abs(fit.slope - fit.expected_slope) / abs(fit.expected_slope)
        decay = (rel < 0.1, f"slope {fit.slope:.3f} vs {fit.expected_slope}")
    except (ValueError, MixlapError) as exc:
        decay = (False, str(exc))
    secs = time.perf_counter() - t0
    shutil.rmtree(field_dir)
    checks = {"positivity": (min_u > 0, f"min {min_u:.3g}"),
              "symmetry": (dev < SYMMETRY_TOL, f"deviation {dev:.3g}"),
              "decay": decay}
    fails = [(f"audit-n{n}-s{s}-{name}", f"n={n} s={s} {name}: {info}")
             for name, (ok, info) in checks.items() if not ok]
    return OpResult("audit", secs, ops=len(checks), failures=fails)


def mc_call(run, n, s, seed):
    """One timed mc-validate call: (seconds, exit code, message, worst sigmas)."""
    out = run.fresh_dir("mc")
    argv = ["mc-validate", "--n", str(n), "--s", str(s), "--t", "1",
            "--count", str(MC_COUNT), "--seed", str(seed), "--output-dir", out]
    secs, code, err = run.cli(argv, os.path.join(out, "cache"))
    with run.checking():
        sigmas = []
        for name, rows in (("mc-char.json", "frequencies"), ("mc-density.json", "shells")):
            path = os.path.join(out, name)
            if os.path.exists(path):
                with open(path) as fh:
                    sigmas += [row["sigmas"] for row in json.load(fh)[rows]]
        shutil.rmtree(out)
    return secs, code, err, max(sigmas, default=math.inf)


@functools.lru_cache(maxsize=None)
def mc_retests_fail(run, n, s, seed):
    """Whether all MC_RETESTS re-runs, on seeds drawn from ``seed``, fail too."""
    rng = random.Random(f"mc-retest:{n}:{s}:{seed}")
    with run.checking():
        return all(mc_call(run, n, s, rng.randrange(2 ** 31))[1] != 0
                   for _ in range(MC_RETESTS))


def op_mc(run, n, s, seed):
    secs, code, err, worst = mc_call(run, n, s, seed)
    fails = []
    if code != 0 or worst > MC_SIGMAS:
        # exit 1 with a statistic past 3 sigma is mc-validate's own verdict
        known = (code == 1 and MC_SIGMAS < worst < math.inf
                 and not mc_retests_fail(run, n, s, seed))
        reason = "mc-3sigma" if known else "mc"
        fails.append((reason, f"mc-validate n={n} s={s} seed={seed}: exit {code}, "
                              f"worst {worst:.2f} sigma {err}"))
    return OpResult("mc", secs, failures=fails, samples=MC_COUNT)


def make_pass(workload, run, inputs):
    """The workload's pass: callables that each return a list of OpResults."""
    if workload == "tabulate-cold":
        ops = [lambda c=c: [op_kernel_tab(
            run, c["kernel"], c["n"], c["s"], c["radii"], "tab",
            extra=["--t", "1"] if c["kernel"] == "heat" else [])]
            for c in inputs["tab"]]
        ops += [lambda g=g: [op_kernel_tab(
            run, "heat-two-scale", g["n"], 0.5, g["radii"], "closed-form",
            extra=["--t1", "0", "--t2", repr(g["t2"])],
            expect=functools.partial(gaussian, g["n"], g["t2"]))]
            for g in inputs["gauss"]]
        ops += [lambda q=q: [op_kernel_tab(
            run, "heat-two-scale", 1, 0.5, q["radii"], "closed-form",
            extra=["--t1", repr(q["t1"]), "--t2", "0"],
            expect=functools.partial(poisson, q["t1"]))]
            for q in inputs["poisson"]]
        ops += [lambda n=n, s=s: [op_asymptotics(run, n, s)] for n, s in ACCEPTANCE_PAIRS]
        return ops
    if workload == "ground-state":
        def solve_and_audit(spec):
            out, res = op_solve(run, *spec)
            if not os.path.exists(os.path.join(out, "ground_state.bin")):
                return [res, OpResult("audit", 0.0, ops=3, failures=[
                    ("audit", f"n={spec[0]} s={spec[1]}: no field to audit")] * 3)]
            return [res, op_audit(run, spec[0], spec[1], out)]
        solves = [SOLVES_2D[i] for i in inputs["order_2d"]] + [SOLVE_3D]
        return [lambda spec=spec: solve_and_audit(spec) for spec in solves]
    if workload == "mc-validate":
        return [lambda n=n, s=s, seed=seed: [op_mc(run, n, s, seed)]
                for (n, s), seed in zip(MC_PAIRS, inputs["mc_seeds"])]
    raise ValueError(workload)


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def reference(grid3d=False):
    """Seconds taken by fixed work outside mixlap: a gauge of the machine's speed.

    It mixes the kinds of work the workloads do: interpreted Python, many
    small numpy and scipy.special calls, and FFTs of a 256 x 256 grid.  With
    ``grid3d`` (ground-state) it adds FFTs of the solver's 64^3 grid:
    slowdowns of the machine hit the FFT-bound solves harder than the rest of
    the mix, and without them the ratio spread twice as wide.
    """
    import numpy as np
    from scipy import special

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    x = np.linspace(0.1, 50.0, 2400)
    for k in range(40):
        special.jv(0.5 + 0.01 * k, x)
        for lo in range(60):
            np.linspace(lo, lo + 1.0, 5)
    rng = np.random.default_rng(0)
    grids = [((256, 256), 10)] + ([((64, 64, 64), 8)] if grid3d else [])
    for shape, repeats in grids:
        grid = rng.standard_normal(shape)
        for _ in range(repeats):
            np.fft.ifftn(np.fft.fftn(grid))
    return time.perf_counter() - t0


def detail_metrics(workload, passes, refs):
    """The workload's own end-to-end numbers, with their sample counts."""
    flat = [r for p in passes for r in p]
    out = {}

    def put(name, values, unit, agg=statistics.median):
        out[name] = {"value": agg(values), "unit": unit, "n": len(values)}

    def per_pass(kind, field=None):
        return [sum(r.extra[field] if field else r.seconds for r in p if r.kind == kind)
                for p in passes]

    if workload == "tabulate-cold":
        tab_ms = [r.seconds * 1e3 for r in flat if r.kind == "tab"]
        put("tab_ms_p50", tab_ms, "ms")
        put("tab_ms_p90", tab_ms, "ms", lambda v: quantile(v, 90))
        put("kernel_values_per_s", [v / t for v, t in zip(per_pass("tab", "values"),
                                                          per_pass("tab"))], "1/s")
    elif workload == "ground-state":
        put("solve_s.n2", per_pass("solve.n2"), "s")
        put("solve_s.n3", per_pass("solve.n3"), "s")
        put("audit_s", per_pass("audit"), "s")
        put("iterations", [a + b for a, b in zip(per_pass("solve.n2", "iterations"),
                                                 per_pass("solve.n3", "iterations"))],
            "count")
    elif workload == "mc-validate":
        put("samples_per_s", [v / t for v, t in zip(per_pass("mc", "samples"),
                                                    per_pass("mc"))], "1/s")
    put("pass_s", [sum(r.seconds for r in p) for p in passes], "s")
    put("ref_s", refs, "s")
    attempted = sum(r.ops for r in flat)
    failed = sum(len(r.failures) for r in flat)
    out["fail_frac"] = {"value": failed / attempted, "unit": "frac", "n": attempted}
    return out


def machine_facts():
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        info = {}
        for key in ("level", "type", "size", "shared_cpu_list"):
            try:
                with open(os.path.join(base, idx, key)) as fh:
                    info[key] = fh.read().strip()
            except OSError:
                break
        else:
            if info["type"] != "Instruction":
                caches[f"L{info['level']}"] = {"size": info["size"],
                                               "shared_cpu_list": info["shared_cpu_list"]}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "caches": caches,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def working_set(workload):
    """Array sizes the workload touches, to read against the cache sizes."""
    mib = 1024.0 ** 2
    out = {}
    if workload == "ground-state":
        for n, _, _, _, N in [SOLVES_2D[0], SOLVE_3D]:
            out[f"spectral.n{n}.N{N}"] = {"points": N ** n, "real_mib": N ** n * 8 / mib,
                                          "complex_mib": N ** n * 16 / mib}
    if workload == "mc-validate":
        for n, _ in MC_PAIRS:
            out[f"mc.samples.n{n}"] = {"float64_mib": MC_COUNT * n * 8 / mib}
    return out


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mixlap", "cli.py")):
        print(f"error: no mixlap sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_into:
        setup_into(args.workload, args.seed, args.setup_into)
        return 0

    rundir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        return measure(args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def measure(args, rundir):
    setup_s, inputs = timed_setups(args, rundir)
    import mixlap.cli  # noqa: F401

    if not os.path.abspath(sys.modules["mixlap"].__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported mixlap from outside {SRC}")

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = Runner(rundir, tracer)
    ops = make_pass(args.workload, run, inputs)
    grid3d = args.workload == "ground-state"
    passes = []
    refs = []
    segments = []  # [pass index, seconds of its ops] between two reference readings
    t_start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - t_start < args.seconds:
            passes.append([])
            for i, op in enumerate(ops):
                if i == 0 or time.perf_counter() - t_ref >= REF_INTERVAL:
                    with run.checking():
                        refs.append(reference(grid3d))
                    t_ref = time.perf_counter()
                    segments.append([len(passes) - 1, 0.0])
                results = op()
                passes[-1] += results
                segments[-1][1] += sum(r.seconds for r in results)
        with run.checking():
            refs.append(reference(grid3d))
    finally:
        if tracer:
            tracer.uninstall()

    flat = [r for p in passes for r in p]
    failures = [f for r in flat for f in r.failures]
    unexpected = [f for f in failures if f[0] not in KNOWN_FAILURES]
    pass_ref = [0.0] * len(passes)
    for (k, secs), before, after in zip(segments, refs, refs[1:]):
        pass_ref[k] += secs / ((before + after) / 2)
    wall_ref = statistics.median(pass_ref)
    if tracer:
        metrics = tracer.metrics(len(passes))
        metrics["trace.wall_ref"] = {"value": wall_ref, "unit": "ref"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "seconds": time.perf_counter() - t_start,
        "metrics": detail_metrics(args.workload, passes, refs),
        "failures": sorted({f"{reason}: {msg}" for reason, msg in failures}),
        "known_failures": {k: v for k, v in KNOWN_FAILURES.items()
                           if any(f[0] == k for f in failures)},
        "machine": machine_facts(),
        "working_set": working_set(args.workload),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not unexpected, "attempted": sum(r.ops for r in flat),
                      "failed": len(unexpected), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
