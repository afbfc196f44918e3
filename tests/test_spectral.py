"""Periodic-box discretization: multipliers, norms, serialization."""

import numpy as np
import pytest

from mixlap.errors import FieldFormatError, GridMismatchError
from mixlap.inversion import radial_inverse_fourier
from mixlap.params import KernelParams, operator_symbol
from mixlap import spectral as S

import gridcoords

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
        assert GRID.shape == (64, 64)
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
            X = gridcoords.meshgrid(grid)[0]
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
        r = gridcoords.radius(grid, (-grid.L, -grid.L))
        for target in (0.5, 1.0, 2.0, 5.0):
            idx = np.unravel_index(np.argmin(np.abs(r - target)), r.shape)
            pred = (2 * np.pi) ** -2 * K.bessel_kernel(r[idx] / (2 * np.pi), P2)
            assert G.data[idx] == pytest.approx(pred, rel=0.02)


class TestFrequencyUnits:
    """The box resolvent against the quadrature transform of the same symbol.

    phi = exp(-pi |x|^2) transforms to exp(-pi |xi|^2), so (1 + operator)^{-1}
    phi is the inverse transform of exp(-pi k^2) / (1 + operator_symbol(w^2))
    at w = 2 pi k.  The box differs from it by its periodic images, which
    decay like L^{-(n+2s)}: the bound is c_n L^{-(n+2s)}, about 1.4-3x the
    measured error at L = 20, and doubling L at fixed spacing must cut the
    error by at least 0.8 * 2^{n+2s}.  Without the 2 pi the error is 0.79.
    """

    C_N = {2: 8.0, 3: 80.0}
    N_AT_L10 = {2: 128, 3: 64}

    @staticmethod
    def worst_relative_error(n, s, L, N):
        grid = S.GridSpec(n, L, N)
        phi = S.RealField(grid, np.exp(-np.pi * gridcoords.radius(grid) ** 2))
        u = S.apply_resolvent(phi, KernelParams(n, s)).data

        def symbol(k):
            w = 2.0 * np.pi * k
            return np.exp(-np.pi * k * k) / (1.0 + operator_symbol(w * w, s))

        errs = []
        for j in (0, 4, 8):  # |x| = 0, 4h and 8h along the first axis
            ref = radial_inverse_fourier(symbol, j * grid.spacing, n, envelope_scale=1.0)
            errs.append(abs(u[(N // 2 + j,) + (N // 2,) * (n - 1)] - ref) / ref)
        return max(errs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_box_resolvent_matches_radial_transform(self, n, s):
        N = self.N_AT_L10[n]
        err_10 = self.worst_relative_error(n, s, 10.0, N)
        err_20 = self.worst_relative_error(n, s, 20.0, 2 * N)
        assert err_20 < self.C_N[n] * 20.0 ** -(n + 2.0 * s)
        assert err_10 / err_20 >= 0.8 * 2.0 ** (n + 2.0 * s)


class TestNorms:
    def test_zero_field(self):
        nm = S.norms(S.RealField(GRID, np.zeros(GRID.shape)), P2)
        assert all(v == 0.0 for v in nm.values())

    def test_parseval(self):
        for grid in GRIDS:
            f = random_field(grid, 6)
            nm = S.norms(f, P2)
            direct = grid.cell_volume * np.sum(f.data ** 2)
            assert nm["l2"] ** 2 == pytest.approx(direct, rel=1e-12), grid

    def test_single_harmonic_closed_form(self):
        X, _ = gridcoords.meshgrid(GRID)
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


class TestEvenLayout:
    """The DCT-I even layout against the full box on mirrored even fields."""

    @staticmethod
    def mirrored(grid, seed):
        """A random even-layout field and its full-box mirror."""
        even = S.EvenGrid(grid.n, grid.L, grid.N)
        half = S.RealField(even, np.random.default_rng(seed).standard_normal(even.shape))
        return half, S.expand_even(half)

    @pytest.mark.parametrize("grid", GRIDS, ids=["n2", "n3"])
    def test_transforms_and_dot_match_the_full_box(self, grid):
        half, full = self.mirrored(grid, 16)
        other, other_full = self.mirrored(grid, 17)
        assert full.grid == grid
        for name, apply in (
                ("resolvent", lambda f: S.apply_resolvent(f, P2)),
                ("operator", lambda f: S.apply_operator(f, P2)),
                ("identity+operator",
                 lambda f: S.apply_operator(f, P2, include_identity=True))):
            ref = apply(full).data
            got = S.expand_even(apply(half)).data
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), name
        ref = grid.dot(full.data, other_full.data)
        assert half.grid.dot(half.data, other.data) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("N", [16, 64])
    def test_symbol_is_the_full_symbol_restricted(self, n, s, N):
        # DCT-I coefficient k of an axis is DFT mode k: the even record is the
        # full one at modes 0..N/2 of every axis, bitwise
        grid = S.GridSpec(n, 10.0, N)
        full = S.grid_symbol(grid, s)
        even = S.grid_symbol(S.EvenGrid(n, 10.0, N), s)
        head = (slice(0, N // 2 + 1),) * n
        for name in ("w_sq", "resolvent"):
            assert np.array_equal(getattr(even, name), getattr(full, name)[head]), name

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("N", [16, 32, 64, 128])
    def test_dense_dct_matches_scipy(self, n, N):
        # 9 to 65 points an axis: the record's matrix applies the DCT-I pair
        dct = S.grid_symbol(S.EvenGrid(n, 10.0, N), 0.5).dct
        x = np.random.default_rng(N + n).standard_normal((N // 2 + 1,) * n)
        ref = S.fft.dctn(x, type=1)
        got = S._dct1(x, dct)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        ref = S.fft.idctn(x, type=1)
        got = S._dct1(x, dct / N)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n, N, dense", [(2, 64, True), (3, 64, True), (2, 256, False)])
    def test_transform_path_follows_the_axis_length(self, monkeypatch, n, N, dense):
        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(original)
                return original(*args, **kwargs)
            return wrapper

        for name in ("dctn", "idctn"):
            monkeypatch.setattr(S.fft, name, counted(getattr(S.fft, name)))
        half, full = self.mirrored(S.GridSpec(n, 10.0, N), 19)
        sym = S.grid_symbol(half.grid, P2.s)
        assert (sym.dct is not None) == dense
        if dense:
            assert not sym.dct.flags.writeable
        out = S.apply_resolvent(half, P2)
        assert len(calls) == (0 if dense else 2)
        ref = S.apply_resolvent(full, P2).data
        got = S.expand_even(out).data
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [2, 3])
    def test_coordinates_have_the_even_shape(self, n):
        # the even layout's point j is x_j = j h, full index N/2 + j
        grid = S.EvenGrid(n, 10.0, 16)
        half = gridcoords.radius(grid)
        assert half.shape == grid.shape
        got = S.expand_even(S.RealField(grid, half)).data
        np.testing.assert_allclose(got, gridcoords.radius(grid.full), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("grid", GRIDS, ids=["n2", "n3"])
    def test_reduce_and_expand_are_inverse_on_even_fields(self, grid):
        half, full = self.mirrored(grid, 18)
        back = S.reduce_even(full)
        assert back.grid == half.grid
        assert np.array_equal(back.data, half.data)
        assert np.array_equal(S.expand_even(back).data, full.data)
        # a shifted field is not even about the centre
        shifted = S.RealField(grid, np.roll(full.data, (7, -4), axis=(0, 1)))
        assert S.reduce_even(shifted) is None


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

    def test_extra_header_keys(self, tmp_path):
        f = random_field(GRID, 12)
        path = tmp_path / "field.bin"
        S.write_field(path, f, s=0.5, p=3.0)
        assert S.read_header(path, "s", "p") == {
            "n": 2, "L": 10.0, "N": 64, "s": 0.5, "p": 3.0}
        assert np.array_equal(S.read_field(path).data, f.data)
        with pytest.raises(FieldFormatError, match="has no q"):
            S.read_header(path, "s", "q")

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
