"""Planted defects that ``mixlap analyze`` must catch with exit 1.

Each test writes a converged ground state with one defect planted in the
field or its header and runs ``analyze`` on it.  A verdict that no planted
defect can trip checks nothing.
"""

import json

import pytest

from mixlap import spectral
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
