"""The benchmark's span tracer still finds and wraps every name it traces.

A traced benchmark run installs ``perfbench.spans.Tracer``, which looks up
each traced function on every module that holds it, and then reads its
metrics; a renamed function or a dropped by-name import fails there.
"""

import os
import sys

from mixlap import kernels
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
