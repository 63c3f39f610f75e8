"""Multiplier operator, dyadic slices, and the transform-side bounds."""

import warnings

import numpy as np
import pytest

from hankellab import multiplier, sobolev
from hankellab.dyadic import make_partition
from hankellab.grid import Grid, norm
from hankellab.heat import HeatKernelEval, heat_apply
from hankellab.multiplier import (_symbol_values, apply_multiplier,
                                  dyadic_symbol_values)
from hankellab.specfun import MultiIndex
from hankellab.verify import _h1_orbits, default_atom_family
from hankellab.symbols import (FAMILIES, Symbol, bump_symbol, constant_symbol,
                               heat_symbol, parse_symbol)

import paper_checks
from conftest import gaussian_bump
from paper_checks import (global_sobolev_norm, resolvable_j_band,
                          weighted_transform_bound_check)


class TestApplyMultiplier:
    def test_identity_symbol(self, plan_half):
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        g = apply_multiplier(plan_half, _symbol_values(
            plan_half.dual_grid, constant_symbol(1, 1.0)), f)
        assert norm(g - f, 2.0) <= 1e-8 * norm(f, 2.0)

    def test_heat_symbol_matches_kernel_route(self, plan_half):
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        hk = HeatKernelEval(MultiIndex((0.5,)))
        spectral = apply_multiplier(plan_half, _symbol_values(
            plan_half.dual_grid, heat_symbol(1, 0.5)), f)
        kernel = heat_apply(hk, 0.5, f)
        x = plan_half.grid.axes[0].nodes
        dev = np.max(np.abs((spectral.values - kernel.values)[x < 10.0]))
        assert dev <= 1e-6 * norm(f, np.inf)

    def test_array_symbol_and_shape_guard(self, plan_half):
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        ones = np.ones(plan_half.dual_grid.shape)
        g = apply_multiplier(plan_half, ones, f)
        assert norm(g - f, 2.0) <= 1e-8 * norm(f, 2.0)
        with pytest.raises(ValueError):
            apply_multiplier(plan_half, np.ones(7), f)

    def test_l2_contraction_for_unimodular(self, plan_half):
        from hankellab.symbols import laplace_type_symbol

        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        g = apply_multiplier(plan_half, _symbol_values(plan_half.dual_grid, m),
                             f)
        assert norm(g, 2.0) <= m.sup_norm * norm(f, 2.0) * (1 + 1e-8)


def _dual_grid(d):
    """A dual grid of 160 nodes per axis at d = 1, 2 and of 16 of them at
    d = 3, on which u = lambda^2 runs from near 0 to 576."""
    grid = Grid.build(MultiIndex((0.5, 1.3, -0.2)[:d]), R=24.0, n=16)
    return grid if d < 3 else grid.restrict([np.arange(0, 160, 10)] * 3)


class TestSymbolValues:
    @pytest.mark.parametrize("block", [None, 100], ids=["default", "100"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocks_match_one_call_bit_for_bit(self, d, block, tmp_path,
                                               monkeypatch):
        # with blocks of 100 nodes the dual grid takes 2 blocks at d = 1,
        # 80 at d = 2 and 16 at d = 3
        if block is not None:
            monkeypatch.setattr(multiplier, "SYMBOL_BLOCK", block)
        # the potential table on a 32^d box: the default 512^3 one would
        # hold 13 GB at d = 3
        monkeypatch.setattr(sobolev, "BOX_SAMPLES", 32)
        path = tmp_path / "table.csv"
        rng = np.random.default_rng(d)
        axes = [np.linspace(0.0, 600.0, 6 + k) for k in range(d)]
        nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        rows = np.concatenate([nodes.reshape(-1, d),
                               rng.standard_normal((nodes[..., 0].size, 2))],
                              axis=1)
        np.savetxt(path, rows, delimiter=",", header="u,re,im")
        specs = {"laplace_type": ["laplace_type{phi=const}",
                                  "laplace_type{phi=imag_power:gamma=1}"],
                 "bump": ["bump"], "oscillatory": ["oscillatory{k=4}"],
                 "potential": ["potential{s=1,h=bump}"],
                 "divergent": ["divergent"], "heat": ["heat{t=0.01}"],
                 "const": ["const{value=2}"],
                 "tabulated": [f"tabulated{{path={path}}}"]}
        assert set(specs) == set(FAMILIES)
        dual = _dual_grid(d)
        for spec in sum(specs.values(), []):
            m = parse_symbol(spec, d)
            got = _symbol_values(dual, m)
            want = m(dual.squared_mesh())
            assert (got.dtype, got.shape) == (want.dtype, want.shape), spec
            assert got.tobytes() == want.tobytes(), spec

    def test_sup_norm_is_checked_in_every_block(self, monkeypatch):
        # the symbol exceeds its sup norm on the last rows only
        monkeypatch.setattr(multiplier, "SYMBOL_BLOCK", 100)
        dual = _dual_grid(2)
        top = dual.axes[0].nodes[-1] ** 2
        m = Symbol(lambda u: np.where(u[..., 0] >= top, 2.0, 1.0) + 0j, 2,
                   1.0, "over-at-the-top")
        with pytest.raises(RuntimeError, match="exceeds its recorded sup"):
            _symbol_values(dual, m)


class TestDilatedSampling:
    def test_matches_the_grid_at_the_atom_scale(self, tmp_path):
        # m(lambda / r) and psi_j(lambda^2 / r^2) on the H^1 dual grids at
        # every default atom radius, against sampling on the grid at scale
        # Lambda / r (r = 1 is TestSymbolValues' and TestDyadicPieces'
        # bit-for-bit case).  That grid's nodes are the dual nodes over r up
        # to round-off, so the values agree within 1e-14 of the grid's sup,
        # the term |m| / u aside: the condition number 1/u of divergent's
        # phase e^{i/u}, which amplifies the nodes' round-off near u = 0
        path = tmp_path / "table.csv"
        rng = np.random.default_rng(0)
        u = np.linspace(0.0, 600.0, 6)
        np.savetxt(path, np.column_stack([u, rng.standard_normal((6, 2))]),
                   delimiter=",", header="u,re,im")
        specs = {"laplace_type": "laplace_type{phi=imag_power:gamma=1}",
                 "bump": "bump", "oscillatory": "oscillatory{k=4}",
                 "potential": "potential{s=1,h=bump}",
                 "divergent": "divergent", "heat": "heat{t=1}",
                 "const": "const{value=2}",
                 "tabulated": f"tabulated{{path={path}}}"}
        assert set(specs) == set(FAMILIES)
        alpha = MultiIndex((0.5,))
        atoms = default_atom_family()
        radii = sorted({r for _, r in atoms})
        duals = {dual for _, axes in _h1_orbits(atoms).values()
                 for _, dual in axes.values()}
        psi = make_partition("squared")
        for spec in specs.values():
            m = parse_symbol(spec, 1)
            for Lam, n in duals:
                dual = Grid.build(alpha, Lam, n)
                for r in radii:
                    scaled = Grid.build(alpha, Lam / r, n)
                    np.testing.assert_allclose(dual.axes[0].nodes / r,
                                               scaled.axes[0].nodes,
                                               rtol=1e-15, atol=0.0)
                    u = scaled.squared_mesh()[:, 0]
                    got, want = (_symbol_values(dual, m, r),
                                 _symbol_values(scaled, m))
                    top = np.max(np.abs(want))
                    assert np.all(np.abs(got - want)
                                  <= 1e-14 * (top + np.abs(want) / u)), spec
                    jc = int(round(-2.0 * np.log2(r)))
                    for j in range(jc - 8, jc + 9):
                        mj = dyadic_symbol_values(dual, got, psi, j, r)
                        want_j = dyadic_symbol_values(scaled, want, psi, j)
                        assert np.all(np.abs(mj - want_j) <= 1e-14 * (
                            top + np.abs(want_j) / u)), (spec, j)


class TestDyadicPieces:
    def test_pieces_sum_to_symbol(self, plan_half):
        # on the dual nodes whose squared radius lies in the fully covered
        # annulus [2^-14, 2^6]
        psi = make_partition("plain")
        mv = _symbol_values(plan_half.dual_grid, constant_symbol(1, 1.0))
        total = sum(dyadic_symbol_values(plan_half.dual_grid, mv, psi, j)
                    for j in range(-14, 7))
        lam2 = plan_half.dual_grid.axes[0].nodes ** 2
        covered = (lam2 >= 2.0**-14) & (lam2 <= 2.0**6)
        assert covered.any()
        res = np.abs(total - mv)[covered]
        assert np.max(res) < 1e-12

    def test_resolvable_band_respects_truncation(self, plan_half):
        band = resolvable_j_band(plan_half)
        lam_max = plan_half.dual_grid.axes[0].R
        assert band, "band must not be empty"
        assert 2.0 ** ((max(band) + 1) / 2.0) <= lam_max

    def test_piece_values_localized_on_dual(self, plan_half):
        psi = make_partition("plain")
        mv = _symbol_values(plan_half.dual_grid, constant_symbol(1, 1.0))
        vals = dyadic_symbol_values(plan_half.dual_grid, mv, psi, 2)
        lam = plan_half.dual_grid.axes[0].nodes
        # support of psi(2^{-2} lambda^2): lambda^2 in [2, 16]
        assert np.all(vals[(lam**2 < 2.0) | (lam**2 > 16.0)] == 0.0)

    @pytest.mark.parametrize("variant", ["plain", "squared"])
    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_slice_is_piece_times_symbol(self, variant, plan_name, request):
        plan = request.getfixturevalue(plan_name)
        psi = make_partition(variant)
        m = bump_symbol(plan.grid.d)
        u = plan.dual_grid.squared_mesh()
        mv = _symbol_values(plan.dual_grid, m)
        for j in (-2, 0, 3):
            piece = psi.piece(j, u)
            assert piece.any()
            assert np.array_equal(
                dyadic_symbol_values(plan.dual_grid, mv, psi, j), piece * mv)
            # the bump at the rescaled radius 2^{-j} |u|
            bump = psi.radial(2.0**-j * np.sqrt(np.sum(u * u, axis=-1)))
            want = bump**2 if variant == "squared" else bump
            np.testing.assert_allclose(piece, want, rtol=1e-14, atol=0.0)


class TestGlobalSobolevNorm:
    def test_matches_windowless_l2_for_beta0(self):
        n = bump_symbol(1)
        got = global_sobolev_norm(n, 0.0)
        import mpmath

        psi = make_partition("plain")
        want = float(mpmath.sqrt(2 * mpmath.quad(
            lambda r: float(psi.radial(np.array([float(r)]))[0]) ** 2,
            [0.5, 2.0])))
        assert got == pytest.approx(want, rel=1e-6)


class TestTransformBounds:
    def test_only_spectral_tail_warnings_are_dropped(self, monkeypatch):
        sobolev_norm = paper_checks.global_sobolev_norm

        def noisy_norm(n, beta):
            warnings.warn("not a tail warning", RuntimeWarning)
            return sobolev_norm(n, beta)

        monkeypatch.setattr(paper_checks, "global_sobolev_norm", noisy_norm)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            weighted_transform_bound_check(0.5, "2.1")
        # one per member of the family, k = 0, 1, 2, 4, 8, 16, 24, 32
        assert [w.category for w in escaped] == [RuntimeWarning] * 8

    def test_lemma22_needs_large_alpha(self):
        with pytest.raises(ValueError):
            weighted_transform_bound_check(0.0, lemma="2.2")

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError):
            weighted_transform_bound_check(0.5, lemma="3.9")
