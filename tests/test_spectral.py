"""Periodic-box discretization: multipliers, norms, serialization."""

import numpy as np
import pytest

from mixlap.errors import FieldFormatError, GridMismatchError
from mixlap.params import KernelParams
from mixlap import spectral as S

P2 = KernelParams(2, 0.5)
GRID = S.GridSpec(2, 10.0, 64)
# the operator and norm tests run on a 2-D and a 3-D grid
GRIDS = [GRID, S.GridSpec(3, 10.0, 32)]


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return S.RealField(grid, rng.standard_normal(grid.shape))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            S.GridSpec(1, 10.0, 64)   # n = 1 not supported by the solver layer
        with pytest.raises(ValueError):
            S.GridSpec(2, -1.0, 64)
        with pytest.raises(ValueError):
            S.GridSpec(2, 10.0, 8)    # below minimum
        with pytest.raises(ValueError):
            S.GridSpec(2, 10.0, 48)   # not a power of two

    def test_geometry(self):
        assert GRID.spacing == pytest.approx(20.0 / 64)
        ax = GRID.axis()
        assert ax[0] == pytest.approx(-10.0)
        assert len(ax) == 64
        assert GRID.cell_volume == pytest.approx(GRID.spacing ** 2)

    def test_field_shape_enforced(self):
        with pytest.raises(GridMismatchError):
            S.RealField(GRID, np.zeros((64, 32)))

    def test_field_finite_enforced(self):
        data = np.zeros(GRID.shape)
        data[0, 0] = np.inf
        with pytest.raises(ValueError):
            S.RealField(GRID, data)


class TestOperators:
    def test_harmonic_eigenvalue(self):
        for grid in GRIDS:
            X = grid.meshgrid()[0]
            xi = 3.0 / (2.0 * grid.L)
            f = S.RealField(grid, np.cos(2.0 * np.pi * xi * X))
            w_sq = (2.0 * np.pi * xi) ** 2
            lam = w_sq + w_sq ** P2.s
            out = S.apply_operator(f, P2)
            assert np.abs(out.data - lam * f.data).max() / lam < 1e-12, grid
            out_id = S.apply_operator(f, P2, include_identity=True)
            assert np.abs(out_id.data - (lam + 1) * f.data).max() / lam < 1e-12, grid

    def test_symbol_midpoint_value(self):
        assert S.operator_symbol(1.0, 0.5) == pytest.approx(2.0)

    def test_linearity(self):
        f, g = random_field(GRID, 1), random_field(GRID, 2)
        both = S.apply_operator(S.RealField(GRID, f.data + g.data), P2)
        sep = S.apply_operator(f, P2).data + S.apply_operator(g, P2).data
        assert np.abs(both.data - sep).max() < 1e-10

    def test_resolvent_inverts(self):
        for grid in GRIDS:
            f = random_field(grid, 3)
            back = S.apply_operator(S.apply_resolvent(f, P2), P2, include_identity=True)
            assert np.abs(back.data - f.data).max() / np.abs(f.data).max() < 1e-10, grid

    def test_resolvent_zero_mode(self):
        f = S.RealField(GRID, np.ones(GRID.shape))
        out = S.apply_resolvent(f, P2)
        assert np.abs(out.data - 1.0).max() < 1e-12

    def test_translation_equivariance(self):
        f = random_field(GRID, 4)
        shifted = S.RealField(GRID, np.roll(f.data, (5, -3), axis=(0, 1)))
        a = S.apply_operator(shifted, P2).data
        b = np.roll(S.apply_operator(f, P2).data, (5, -3), axis=(0, 1))
        assert np.abs(a - b).max() < 1e-10

    def test_resolvent_matches_quadrature_kernel(self):
        # spike response versus the kernels-module Green function: the
        # spectral resolvent uses the angular wavenumber w = 2 pi xi, so
        # G(x) = (2 pi)^{-n} K(x / (2 pi))
        from mixlap import kernels as K

        grid = S.GridSpec(2, 20.0, 256)
        spike = np.zeros(grid.shape)
        spike[0, 0] = 1.0 / grid.cell_volume
        G = S.apply_resolvent(S.RealField(grid, spike), P2)
        r = grid.radius(center=(-grid.L, -grid.L))
        for target in (0.5, 1.0, 2.0, 5.0):
            idx = np.unravel_index(np.argmin(np.abs(r - target)), r.shape)
            pred = (2 * np.pi) ** -2 * K.bessel_kernel(r[idx] / (2 * np.pi), P2)
            assert G.data[idx] == pytest.approx(pred, rel=0.02)


class TestNorms:
    def test_zero_field(self):
        nm = S.norms(S.RealField(GRID, np.zeros(GRID.shape)), P2, p=3)
        assert all(v == 0.0 for v in nm.values())

    def test_parseval(self):
        for grid in GRIDS:
            f = random_field(grid, 6)
            nm = S.norms(f, P2)
            direct = grid.cell_volume * np.sum(f.data ** 2)
            assert nm["l2"] ** 2 == pytest.approx(direct, rel=1e-12), grid

    def test_single_harmonic_closed_form(self):
        X, _ = GRID.meshgrid()
        xi = 2.0 / (2.0 * GRID.L)
        A = 1.7
        f = S.RealField(GRID, A * np.cos(2.0 * np.pi * xi * X))
        nm = S.norms(f, P2)
        vol = (2.0 * GRID.L) ** 2
        w_sq = (2.0 * np.pi * xi) ** 2
        # two modes of amplitude A/2 each
        assert nm["l2"] ** 2 == pytest.approx(vol * A ** 2 / 2.0, rel=1e-12)
        assert nm["h1_seminorm"] ** 2 == pytest.approx(
            vol * A ** 2 / 2.0 * w_sq, rel=1e-12
        )
        assert nm["hs_seminorm"] ** 2 == pytest.approx(
            vol * A ** 2 / 2.0 * w_sq ** P2.s, rel=1e-12
        )

    def test_sobolev_composition(self):
        for grid in GRIDS:
            nm = S.norms(random_field(grid, 7), P2)
            assert nm["sobolev_s"] ** 2 == pytest.approx(
                nm["l2"] ** 2 + nm["h1_seminorm"] ** 2 + nm["hs_seminorm"] ** 2,
                rel=1e-12,
            ), grid

    def test_symbol_domination(self):
        # w^{2s} <= 1 + w^2 pointwise, hence hs^2 <= l2^2 + h1^2
        for seed in range(5):
            nm = S.norms(random_field(GRID, seed), P2)
            assert nm["hs_seminorm"] ** 2 <= nm["l2"] ** 2 + nm["h1_seminorm"] ** 2

    def test_lp_requires_p_ge_1(self):
        with pytest.raises(ValueError):
            S.norms(random_field(GRID), P2, p=0.5)

class TestFullLayoutOracle:
    """The half-spectrum transforms against complex FFTs on the full layout."""

    @staticmethod
    def full_layout(f, s):
        grid = f.grid
        w = 2.0 * np.pi * np.fft.fftfreq(grid.N, d=grid.spacing)
        w_sq = sum(wa ** 2 for wa in np.ix_(*([w] * grid.n)))
        m = w_sq + w_sq ** s
        c = np.fft.fftn(f.data)
        power = np.abs(c / grid.N ** grid.n) ** 2
        vol = (2.0 * grid.L) ** grid.n
        l2, h1, hs = (vol * np.sum(weight * power) for weight in (1.0, w_sq, w_sq ** s))
        return {
            "operator": np.fft.ifftn(m * c).real,
            "resolvent": np.fft.ifftn(c / (1.0 + m)).real,
            "l2": np.sqrt(l2),
            "h1_seminorm": np.sqrt(h1),
            "hs_seminorm": np.sqrt(hs),
            "sobolev_s": np.sqrt(l2 + h1 + hs),
        }

    @pytest.mark.parametrize("grid", GRIDS, ids=["n2", "n3"])
    @pytest.mark.parametrize("s", [0.25, 0.75])
    def test_matches_full_layout(self, grid, s):
        params = KernelParams(grid.n, s)
        # a random field plus a strong checkerboard: the Nyquist mode of every axis
        checker = sum(np.indices(grid.shape)) % 2 * 2.0 - 1.0
        f = S.RealField(grid, random_field(grid, 13).data + 3.0 * checker)
        ref = self.full_layout(f, s)
        for name, out in (("operator", S.apply_operator(f, params)),
                          ("resolvent", S.apply_resolvent(f, params))):
            scale = np.abs(ref[name]).max()
            assert np.abs(out.data - ref[name]).max() / scale < 1e-12, name
        nm = S.norms(f, params)
        for key in ("l2", "h1_seminorm", "hs_seminorm", "sobolev_s"):
            assert nm[key] == pytest.approx(ref[key], rel=1e-12), key


class TestNonlinearity:
    def test_pointwise_power(self):
        f = random_field(GRID, 9)
        out = S.positive_part_power(f, 3)
        assert np.array_equal(out.data, np.maximum(f.data, 0.0) ** 3)

class TestSerialization:
    def test_binary_round_trip(self, tmp_path):
        f = random_field(GRID, 10)
        path = tmp_path / "field.bin"
        S.write_field(path, f)
        back = S.read_field(path)
        assert back.grid == GRID
        assert np.array_equal(back.data, f.data)

    def test_header_contents(self, tmp_path):
        import json

        f = random_field(GRID, 11)
        path = tmp_path / "field.bin"
        S.write_field(path, f)
        header = json.loads((tmp_path / "field.bin.json").read_text())
        assert header == {"n": 2, "L": 10.0, "N": 64}

    def test_files_get_the_umask_mode(self, tmp_path):
        import os

        umask = os.umask(0)
        os.umask(umask)
        path = tmp_path / "field.bin"
        S.write_field(path, random_field(GRID, 15))
        for p in (path, tmp_path / "field.bin.json"):
            assert p.stat().st_mode & 0o777 == 0o666 & ~umask
        assert sorted(x.name for x in tmp_path.iterdir()) == ["field.bin", "field.bin.json"]

    @pytest.mark.parametrize("nbytes", [-8, 8])
    def test_size_mismatch_rejected(self, tmp_path, nbytes):
        path = tmp_path / "field.bin"
        S.write_field(path, random_field(GRID, 14))
        raw = path.read_bytes()
        path.write_bytes(raw[:nbytes] if nbytes < 0 else raw + bytes(nbytes))
        with pytest.raises(FieldFormatError, match="bytes"):
            S.read_field(path)
