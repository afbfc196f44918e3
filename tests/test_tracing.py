"""The benchmark's span tracer still finds and wraps every name it traces.

A traced benchmark run installs ``perfbench.spans.Tracer``, which looks up
each traced function on every module that holds it, and then reads its
metrics; a renamed function or a dropped by-name import fails there.
"""

import os
import sys
import threading

import numpy as np

from mixlap import cli, kernels, mc, solver, spectral
from mixlap.params import KernelParams

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import spans  # noqa: E402


def test_traced_kernel_value_nests_bessel_in_inversion():
    tracer = spans.Tracer()
    tracer.install()
    try:
        kernels.bessel_kernel(1.0, KernelParams(2, 0.5))
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    bessel = [sp for sp in tracer.spans if sp.name == "special.bessel_j"]
    assert bessel
    for sp in bessel:
        assert sp.parent.name == "inversion.radial_inverse_fourier"
        assert spans._inside(sp, "kernels.bessel_kernel")
    assert metrics["special.bessel_j.points"]["value"] > 0
    assert metrics["kernels.bessel_kernel.calls"]["value"] == 1
    assert metrics["inversion.radial_inverse_fourier.calls"]["value"] == 1


def test_traced_monte_carlo_checks():
    count = 20_000
    edges = np.concatenate(([0.05], np.linspace(0.2, 2.0, 10)))  # mc-validate's 11 edges
    tracer = spans.Tracer()
    tracer.install()
    try:
        batch = mc.sample_mixed(1.0, KernelParams(2, 0.5), count, 3)
        mc.validate_char_function(batch, np.array([[0.3, 0.1], [-0.5, 0.7]]))
        mc.compare_density(batch, edges)
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    (sample,) = [sp for sp in tracer.spans if sp.name == "mc.sample_mixed"]
    assert sample.attrs["samples"] == count
    # 10 shells of 8 Gauss nodes, all in one heat_kernel call seen through
    # mc's own name
    assert metrics["mc.compare_density.heat_kernel_calls"]["value"] == 1
    assert metrics["mc.sample_mixed.samples_per_s"]["value"] > 0
    assert metrics["mc.validate_char_function.ms"]["value"] > 0


def test_traced_mc_validate_keeps_traced_calls_on_the_calling_thread(tmp_path):
    # the tracer keeps one span stack: a traced call on a pool worker would
    # nest under whatever the calling thread has open, or unbalance the stack
    argv = ["mc-validate", "--n", "2", "--s", "0.5", "--count", "20000", "--seed", "4",
            "--output-dir", str(tmp_path)]
    tracer = spans.Tracer()
    threads = set()
    span = tracer.span

    def span_on_thread(name, **attrs):
        threads.add(threading.get_ident())
        return span(name, **attrs)

    tracer.span = span_on_thread
    tracer.install()
    try:
        with tracer.span("cli.mc-validate"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
    assert code == 0
    assert threads == {threading.get_ident()}
    # 10 shells of 8 Gauss nodes in one call, on the calling thread while the
    # workers draw the sub-batches
    assert sum(sp.name == "kernels.heat_kernel" for sp in tracer.spans) == 1
    for sp in tracer.spans:
        if sp.parent is not None:
            assert sp.parent.start <= sp.start <= sp.end <= sp.parent.end, sp.name
    assert tracer.stack == []


def traced_solve(shift=None):
    """A traced 2-D solve from the default start, moved by ``shift`` if given.

    Returns (report, metrics).  The default start is even, so unmoved it is
    solved on the even layout.
    """
    grid = spectral.GridSpec(2, 15.0, 64)
    cfg = solver.SolverConfig(p=3.0)
    u0 = None
    if shift is not None:
        u0 = spectral.RealField(
            grid, np.roll(solver.initial_field(grid, cfg).data, shift, axis=(0, 1)))
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, report = solver.solve_ground_state(grid, KernelParams(2, 0.5), cfg, u0=u0)
        metrics = tracer.metrics(1)
    finally:
        tracer.uninstall()
    assert report.converged
    return report, metrics


def test_traced_solve_steps_through_the_solver_global():
    # per-step metrics read 0 unless every step goes through the
    # solver.petviashvili_step global that the tracer wraps.  The tracer
    # counts rfftn-family calls only, so the bytes are read on a shifted
    # start, which the solve runs on the full box
    report, metrics = traced_solve(shift=(7, -4))
    assert metrics["solver.petviashvili_step.calls"]["value"] == report.iterations
    assert metrics["spectral.bytes_per_step.computed"]["value"] > 0
    assert metrics["solver.gradient_plus.calls"]["value"] == 1


def test_traced_even_solve_steps_through_the_solver_global():
    report, metrics = traced_solve()
    assert metrics["solver.petviashvili_step.calls"]["value"] == report.iterations
    assert metrics["solver.gradient_plus.calls"]["value"] == 1
