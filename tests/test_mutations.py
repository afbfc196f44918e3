"""Planted defects that ``mixlap analyze`` and ``kernel-verify`` must catch with exit 1.

The field tests write a converged ground state with one defect planted in
the field or its header and run ``analyze`` on it; the kernel tests plant a
defect in ``kernels`` and run ``kernel-verify`` in process.  A verdict that
no planted defect can trip checks nothing.
"""

import json

import pytest

from mixlap import kernels, spectral
from mixlap.cli import main


@pytest.fixture(scope="module")
def ground_state(tmp_path_factory):
    out = tmp_path_factory.mktemp("solve")
    assert main(["solve", "--n", "2", "--s", "0.5", "--p", "3", "--L", "15",
                 "--N", "128", "--output-dir", str(out)]) == 0
    path = out / "ground_state.bin"
    return spectral.read_field(path), spectral.read_header(path, "s", "p")


@pytest.mark.parametrize("plant", [
    lambda u, header: (spectral.RealField(u.grid, 2.0 * u.data), header),
    lambda u, header: (u, dict(header, s=header["s"] + 0.1)),
], ids=["field-scaled-by-2", "header-s-off-by-0.1"])
def test_planted_defect_fails_the_field_residual(ground_state, tmp_path, plant):
    field, header = plant(*ground_state)
    path = tmp_path / "u.bin"
    spectral.write_field(path, field, s=header["s"], p=header["p"])
    out = tmp_path / "an"
    assert main(["analyze", "--field", str(path), "--output-dir", str(out)]) == 1
    with open(out / "analyze.json") as fh:
        records = {rec["check"]: rec for rec in json.load(fh)}
    assert not records["field-residual"]["pass"]


def heat_scaled_by_1_1(monkeypatch):
    heat_kernel = kernels.heat_kernel
    monkeypatch.setattr(kernels, "heat_kernel", lambda *args: 1.1 * heat_kernel(*args))


def symbol_power_2_1_s(monkeypatch):
    # k^2 + k^{2.1 s} in place of k^2 + k^{2s}, wherever kernels reads the symbol
    monkeypatch.setattr(kernels, "operator_symbol", lambda k_sq, s: k_sq + k_sq ** (1.05 * s))


# heat-kernel-two-sided-bounds passes any positive, finite heat kernel, so it
# is not among the records the heat plant must fail
@pytest.mark.parametrize("plant, failing", [
    (heat_scaled_by_1_1, ["scaling-identities", "heat-kernel-mass", "bessel-time-integral"]),
    (symbol_power_2_1_s, ["bessel-time-integral", "bessel-decay-slope"]),
], ids=["heat-kernel-scaled-by-1.1", "symbol-2s-to-2.1s"])
def test_planted_kernel_defect_fails_kernel_verify(tmp_path, monkeypatch, plant, failing):
    plant(monkeypatch)
    out = tmp_path / "kv"
    assert main(["kernel-verify", "--n", "2", "--s", "0.5", "--output-dir", str(out)]) == 1
    with open(out / "kernel-verify.json") as fh:
        records = {rec["check"]: rec for rec in json.load(fh)}
    assert [check for check in failing if records[check]["pass"]] == []
