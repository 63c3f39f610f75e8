"""Experiment harness: atoms, probes, adapted plans, resolution comparison."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hankellab import cli, transform, verify
from hankellab.dyadic import make_partition
from hankellab.grid import Grid, GridFunction, integrate, norm
from hankellab.heat import TimeGrid, _maximal_field
from hankellab.multiplier import _symbol_values, apply_multiplier
from hankellab.report import EstimateReport, FAIL, INCONCLUSIVE, PASS
from hankellab.specfun import MultiIndex
from hankellab.symbols import (Symbol, bump_symbol, constant_symbol,
                               laplace_type_symbol, parse_symbol, table_symbol)
from hankellab.transform import ResolutionWarning, TransformPlan
from hankellab.verify import (Atom, BATTERY_SIZE, CZ_J_MARGIN, N_DUAL, N_MAX,
                              N_MIN, SYMBOL_RANK_RTOL, WEAK11_CENTERS,
                              WEAK11_LEVELS, _adapted_n, _cz_band, _cz_dual,
                              _cz_piece, _h1_orbits,
                              adapted_plan, battery_norms,
                              check_atom, compare_resolutions,
                              cz_hormander_check, default_atom_family,
                              default_cz_pairs, lp_norm_probe, make_atom,
                              make_battery, weak11_probe)

from conftest import gaussian_bump
from paper_checks import association_check, battery_functions


class TestAtoms:
    def test_atom_satisfies_all_three_conditions(self):
        grid = Grid.build(MultiIndex((0.5,)), R=12.0, n=768)
        atom = make_atom(grid, [4.0], 1.0)
        assert check_atom(atom)

    def test_atom_mean_zero(self):
        grid = Grid.build(MultiIndex((0.5,)), R=12.0, n=768)
        atom = make_atom(grid, [4.0], 1.0)
        sup = norm(atom.values, np.inf)
        assert abs(complex(integrate(atom.values)).real) <= \
            1e-10 * sup * atom.ball_measure

    def test_atom_sup_bound(self):
        grid = Grid.build(MultiIndex((0.5,)), R=12.0, n=768)
        atom = make_atom(grid, [4.0], 1.0)
        assert norm(atom.values, np.inf) <= (1 + 1e-12) / atom.ball_measure

    def test_broken_atom_rejected(self):
        grid = Grid.build(MultiIndex((0.5,)), R=12.0, n=768)
        atom = make_atom(grid, [4.0], 1.0)
        # shift the values so the mean is visibly nonzero
        bad = Atom(GridFunction(grid, atom.values.values + 1e-3),
                   atom.center, atom.radius, atom.ball_measure)
        with pytest.raises(ValueError):
            check_atom(bad)

    def test_unresolvable_radius_rejected(self):
        grid = Grid.build(MultiIndex((0.5,)), R=12.0, n=128)
        with pytest.raises(ValueError):
            make_atom(grid, [6.0], 1e-7)

    def test_default_family_is_covariant(self):
        fam = default_atom_family()
        assert len(fam) == 24
        ratios = sorted({y0 / r for y0, r in fam})
        assert ratios == pytest.approx([1.2, 5.0, 20.0])


class TestAdaptedPlans:
    def test_node_budget_clipped(self):
        grid = Grid.build(MultiIndex((0.5,)), 10.0, _adapted_n(10.0, 2.0))
        assert grid.axes[0].n >= N_MIN
        grid2 = Grid.build(MultiIndex((0.5,)), 1000.0,
                           _adapted_n(1000.0, 50.0))
        assert grid2.axes[0].n <= N_MAX + 16  # panel rounding slack

    def test_node_selections_keep_the_full_plans_entries(self):
        alpha = MultiIndex((1.3,))
        grid = Grid.build(alpha, 6.0, _adapted_n(6.0, 4.0))
        dual = Grid.build(alpha, 4.0, 48)
        full = adapted_plan(grid, dual)
        x, lam = full.grid.axes[0].nodes, full.dual_grid.axes[0].nodes
        keep_x, keep_dual = x > 2.0, np.flatnonzero(lam < 3.0)
        part = adapted_plan(grid.restrict([keep_x]),
                            dual.restrict([keep_dual]))
        assert part.grid.shape == (np.count_nonzero(keep_x),)
        assert part.dual_grid.shape == (keep_dual.size,)
        np.testing.assert_array_equal(
            part.fwd[0], full.fwd[0][np.ix_(keep_dual, keep_x)])
        only_x = adapted_plan(grid.restrict([keep_x]), dual)
        assert only_x.dual_grid == full.dual_grid

    def test_only_resolution_warnings_are_dropped(self, monkeypatch):
        # R * Lambda = 1000 over 512 dual nodes: ~3.2 points per wavelength
        alpha = MultiIndex((0.5,))
        grid = Grid.build(alpha, 100.0, _adapted_n(100.0, 10.0))
        dual = Grid.build(alpha, 10.0, N_DUAL)
        build = TransformPlan.build
        with pytest.warns(ResolutionWarning):
            build(grid, dual)

        def noisy_build(*args):
            warnings.warn("not a resolution warning", RuntimeWarning)
            return build(*args)

        monkeypatch.setattr(TransformPlan, "build", staticmethod(noisy_build))
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            adapted_plan(grid, dual)
        assert [w.category for w in escaped] == [RuntimeWarning]

    def test_sweeps_build_and_the_gate_judges_the_declared_axes(
            self, monkeypatch):
        # every grid the default sweeps build is one their declarations
        # (_cz_band, _h1_orbits) list, every declared axis is built, and
        # the CLI gate judges the R of exactly the declared axes; h1-check
        # builds its two declared pairs per centre ratio and no other grid
        alpha = MultiIndex((0.5,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        declared = {
            "cz-check": [ax for y, yp in default_cz_pairs()
                         for axes in _cz_band(y, yp).values() for ax in axes],
            "h1-check": [ax for _, decl in
                         _h1_orbits(default_atom_family()).values()
                         for axes in decl.values() for ax in axes]}
        built = {name: [] for name in declared}
        build = Grid.build
        for name, check in (("cz-check", cz_hormander_check),
                            ("h1-check", verify.h1_atom_check)):
            def recorded(alpha, R, n, _log=built[name]):
                _log.append((R, n))
                return build(alpha, R, n)

            monkeypatch.setattr(Grid, "build", staticmethod(recorded))
            check(alpha, m)
        monkeypatch.undo()
        assert len(built["h1-check"]) == 12
        for name, axes in declared.items():
            assert set(built[name]) == set(axes)
            judged = []
            monkeypatch.setattr(cli, "check_normal_floats",
                                lambda a, radii, what: judged.extend(radii))
            cli._check_config(cli.RunConfig(alpha=(0.5,)), [name])
            assert sorted(judged) == sorted(R for R, _ in axes)

    def test_default_pairs_span_decades(self):
        pairs = default_cz_pairs()
        seps = [float(np.linalg.norm(b - a)) for a, b in pairs]
        assert max(seps) / min(seps) > 100.0


class TestRestrictedSweeps:
    """The sweeps evaluate the kernel only where their sums read it, and
    their numbers match the full plans."""

    @staticmethod
    def _piece_axes(y, yp, j):
        # (R, n) of the (pair, j) piece's spatial axis and of its band's
        # dual axis, as _cz_band declares them
        r2 = 2.0 * float(np.linalg.norm(y - yp))
        R = float(max(y.max(), yp.max())
                  + max(40.0 * 2.0 ** (-j / 2.0), 4.0 * r2))
        Lam = 1.05 * 2.0 ** ((j + 1) / 2.0)
        return (R, _adapted_n(R, Lam)), (Lam, N_DUAL)

    @staticmethod
    def _piece_grids(alpha, y, yp, j):
        # the (pair, j) piece's full spatial grid and its band's dual grid
        return [Grid.build(alpha, *ax)
                for ax in TestRestrictedSweeps._piece_axes(y, yp, j)]

    def _full_plan_dj(self, alpha, m, psi, y, yp, j):
        # every kernel entry of the (pair, j) adapted plan, masked afterwards
        r2 = 2.0 * float(np.linalg.norm(y - yp))
        pl = adapted_plan(*self._piece_grids(alpha, y, yp, j))
        lam2 = pl.dual_grid.squared_mesh()
        mj = psi.piece(j, lam2) * m(lam2)
        row = (pl.inverse(mj * pl.e_dual(y))
               - pl.inverse(mj * pl.e_dual(yp)))
        sel = np.abs(pl.grid.axes[0].nodes - y[0]) > r2
        return float(np.sum(np.abs(row)[sel] * pl.grid.weight_tensor()[sel]))

    @staticmethod
    def _piece(alpha, m, y, yp, j):
        # the piece on its band's dual side, built here
        piece, dual = TestRestrictedSweeps._piece_axes(y, yp, j)
        band = _cz_dual(alpha, m, j, dual)
        return _cz_piece(alpha, band, y, yp, piece)

    @pytest.mark.parametrize("alpha_k", [0.5, 1.3])
    def test_cz_pieces_match_the_full_plan(self, alpha_k):
        alpha = MultiIndex((alpha_k,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        psi = make_partition("plain")
        pairs = default_cz_pairs()
        # the bottom, centre and top piece of three pairs
        for idx, offset in ((0, -CZ_J_MARGIN[0]), (4, 0),
                            (7, CZ_J_MARGIN[1])):
            y, yp = pairs[idx]
            r2 = 2.0 * np.linalg.norm(y - yp)
            jstar = int(np.ceil(-2.0 * np.log2(r2)))
            j = jstar + offset
            got = self._piece(alpha, m, y, yp, j)
            want = self._full_plan_dj(alpha, m, psi, y, yp, j)
            assert want > 0
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_cz_sweep_evaluates_a_third_of_the_full_kernel(self,
                                                            monkeypatch):
        # a full (pair, j) plan evaluates n_x * n_dual kernel entries, and
        # each of the two kernel rows n_dual entries of E_y
        alpha = MultiIndex((0.5,))
        full = 0
        for y, yp in default_cz_pairs():
            jstar = int(np.ceil(-2.0 * np.log2(2.0 * np.linalg.norm(y - yp))))
            for j in range(jstar - CZ_J_MARGIN[0], jstar + CZ_J_MARGIN[1] + 1):
                grid, dual = self._piece_grids(alpha, y, yp, j)
                full += grid.shape[0] * dual.shape[0] + 2 * dual.shape[0]
        seen = [0]
        e_kernel_axis = verify.e_kernel_axis

        def counted_kernel(alpha_k, u, out=None):
            seen[0] += np.size(u)
            return e_kernel_axis(alpha_k, u, out=out)

        monkeypatch.setattr(verify, "e_kernel_axis", counted_kernel)
        rep = cz_hormander_check(alpha,
                                 laplace_type_symbol(1, "imag_power",
                                                     gamma=1.0))
        assert rep.verdict == PASS
        assert 0 < seen[0] <= 0.35 * full

    def test_cz_check_builds_each_band_once(self, monkeypatch):
        # the dual side of band j depends on j alone: one dual grid and one
        # symbol sample per distinct j of the pairs' bands, one spatial grid
        # and one kernel evaluation per (pair, j) piece
        bands = [_cz_band(y, yp) for y, yp in default_cz_pairs()]
        lams = {j: dual[0] for band in bands for j, (_, dual) in band.items()}
        n_pieces = sum(len(band) for band in bands)
        built, sampled, kernels = [], [0], [0]
        build, symbol_values = Grid.build, verify._symbol_values
        e_kernel_axis = verify.e_kernel_axis

        def counted_build(alpha, R, n):
            built.append(R)
            return build(alpha, R=R, n=n)

        def counted_sample(*args):
            sampled[0] += 1
            return symbol_values(*args)

        def counted_kernel(alpha_k, u, out=None):
            kernels[0] += 1
            return e_kernel_axis(alpha_k, u, out=out)

        monkeypatch.setattr(Grid, "build", staticmethod(counted_build))
        monkeypatch.setattr(verify, "_symbol_values", counted_sample)
        monkeypatch.setattr(verify, "e_kernel_axis", counted_kernel)
        cz_hormander_check(MultiIndex((0.5,)),
                           laplace_type_symbol(1, "imag_power", gamma=1.0))
        assert len(lams) == 49 and n_pieces == 232
        assert sorted(R for R in built if R in lams.values()) == \
            sorted(lams.values())
        assert len(built) == len(lams) + n_pieces
        assert sampled[0] == len(lams)
        assert kernels[0] == n_pieces

    def test_cz_check_evaluates_each_piece_in_place(self, monkeypatch):
        # every piece's kernel overwrites its arguments in place, in an
        # array of the piece's own, not a view of a shared buffer
        alpha = MultiIndex((0.5,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        calls = []
        e_kernel_axis = verify.e_kernel_axis

        def recorded_kernel(alpha_k, u, out=None):
            calls.append((out is u, u.base is None))
            return e_kernel_axis(alpha_k, u, out=out)

        monkeypatch.setattr(verify, "e_kernel_axis", recorded_kernel)
        cz_hormander_check(alpha, m)
        assert calls == [(True, True)] * 232

    def test_cz_piece_builds_only_its_spatial_grid(self, monkeypatch):
        alpha = MultiIndex((0.5,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        y, yp = default_cz_pairs()[4]
        piece, dual = self._piece_axes(y, yp, 0)
        band = _cz_dual(alpha, m, 0, dual)
        built = []
        build = Grid.build

        def counted_build(*args, **kwargs):
            grid = build(*args, **kwargs)
            built.append(grid)
            return grid

        monkeypatch.setattr(Grid, "build", staticmethod(counted_build))
        _cz_piece(alpha, band, y, yp, piece)
        assert [(g.axes[0].R, g.axes[0].n) for g in built] == \
            [(piece[0], self._piece_grids(alpha, y, yp, 0)[0].axes[0].n)]

    def test_cz_piece_judges_its_full_axes_quietly(self, monkeypatch):
        # the piece is judged by the plan rule on its full spatial axis and
        # the band's full dual axis, and its ResolutionWarning is dropped
        # as adapted_plan drops a plan's
        alpha = MultiIndex((1.3,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        y, yp = default_cz_pairs()[2]
        piece, dual = self._piece_axes(y, yp, -3)
        band = _cz_dual(alpha, m, -3, dual)
        judged = []

        def coarse(grid, dual_grid):
            judged.append((grid.axes[0].n_full, dual_grid))
            warnings.warn("coarse", ResolutionWarning)

        monkeypatch.setattr(verify, "check_resolution", coarse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cz_piece(alpha, band, y, yp, piece)
        assert judged == [(self._piece_grids(alpha, y, yp, -3)[0].axes[0].n,
                           band[0])]
        assert got == self._piece(alpha, m, y, yp, -3)

    def test_empty_cz_piece_is_zero_and_quiet(self, monkeypatch):
        # the bump vanishes for lambda^2 > 2 and the j = 6 window lives on
        # 2^5 <= lambda^2 <= 2^7: m_j = 0 on every dual node, so the piece
        # builds no grid and evaluates no kernel
        def nothing(*a, **k):
            raise AssertionError("a grid built or a kernel evaluated")

        alpha = MultiIndex((0.5,))
        y, yp = default_cz_pairs()[len(default_cz_pairs()) // 2]
        piece, dual = self._piece_axes(y, yp, 6)
        band = _cz_dual(alpha, bump_symbol(1), 6, dual)
        monkeypatch.setattr(Grid, "build", staticmethod(nothing))
        monkeypatch.setattr(verify, "e_kernel_axis", nothing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _cz_piece(alpha, band, y, yp, piece)
        assert got == 0.0

    def test_warnings_of_the_pieces_are_counted(self, monkeypatch):
        def warning_piece(*args):
            warnings.warn("piece", RuntimeWarning)
            return 1.0

        monkeypatch.setattr(verify, "_cz_piece", warning_piece)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = cz_hormander_check(MultiIndex((0.5,)), bump_symbol(1))
        n_pieces = len(default_cz_pairs()) * (sum(CZ_J_MARGIN) + 1)
        assert rep.fitted_constants["n_resolution_warnings"] == n_pieces

    def test_zero_multiplier_passes_quietly(self):
        # every D_j is 0: a bounded, flat sweep, not a 0/0 band ratio
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            rep = cz_hormander_check(MultiIndex((0.5,)),
                                     constant_symbol(1, 0.0))
        assert not escaped, [str(w.message) for w in escaped]
        assert rep.verdict == PASS
        assert rep.fitted_constants["C_hormander"] == 0.0
        assert (rep.fitted_constants["band_ratio"],
                rep.fitted_constants["trend_slope"]) == (1.0, 0.0)

    def test_support_columns_give_the_full_forward(self):
        # an H^1 atom on its fine grid, sent to its coarse dual grid
        alpha, y0, r = MultiIndex((0.5,)), 1.25, 0.25
        grid = Grid.build(alpha, y0 + 24.0 * r,
                          _adapted_n(y0 + 24.0 * r, 40.0 / r))
        dual = Grid.build(alpha, 10.0 / r, 512)
        values = make_atom(grid, y0, r).values.values
        assert 0 < np.count_nonzero(values) < values.size / 4
        on = values != 0
        got = adapted_plan(grid.restrict([on]), dual).forward(values[on])
        want = TransformPlan.build(grid, dual).forward(values)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_h1_plans_warn_only_where_the_full_axes_are_coarse(
            self, monkeypatch):
        # one unit atom and one fine, one coarse and one transfer build per
        # centre ratio, 3 atoms and 9 builds in all; the H^1 dual axes
        # (n_dual 640 and 512) fall below 4 points per wavelength on the
        # fine and coarse plans, and the transfer plans, restricted to the
        # atom's support, are judged by their full axes and raise none
        build = TransformPlan.build
        caught = []
        atoms = [0]

        def recorded(grid, dual_grid=None):
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                plan = build(grid, dual_grid)
            caught.append([w.category for w in log])
            return plan

        def counted_atom(*args):
            atoms[0] += 1
            return make_atom(*args)

        monkeypatch.setattr(TransformPlan, "build", staticmethod(recorded))
        monkeypatch.setattr(verify, "make_atom", counted_atom)
        verify.h1_atom_check(MultiIndex((0.5,)),
                             laplace_type_symbol(1, "imag_power", gamma=1.0))
        warns = [transform.ResolutionWarning]
        assert len(caught) == 9 and atoms[0] == 3
        assert caught == [warns, warns, []] * 3

    @staticmethod
    def _per_atom_measurements(alpha, m, psi_squared, y0, r, profile):
        # one atom measured at its own scale: its own grid pairs and plans,
        # the atom built on them, m sampled on its dual grids and the time
        # window r^2 [1e-5, 1e5]; the report's (name, value) pairs in order
        # the node counts are the declared unit atom's, and the duals the
        # declared ones at the atom's scale, Lambda / r, built here
        tg = TimeGrid(r * r * np.geomspace(1e-5, 1e5, 80))
        F = y0 + 18.0 * r
        (_, axes), = _h1_orbits([(y0, r)]).values()
        (x_f, lam_f), (x_c, lam_c) = axes["fine"], axes["coarse"]
        grid_f = Grid.build(alpha, y0 + 24.0 * r, x_f[1])
        dual_f = Grid.build(alpha, lam_f[0] / r, lam_f[1])
        fine = adapted_plan(grid_f.restrict([grid_f.axes[0].nodes <= F]),
                            dual_f)
        grid_c = Grid.build(alpha, y0 + 240.0 * r, x_c[1])
        dual_c = Grid.build(alpha, lam_c[0] / r, lam_c[1])
        coarse = adapted_plan(grid_c.restrict([grid_c.axes[0].nodes > F]),
                              dual_c)
        atom = make_atom(fine.grid, y0, r).values.values
        on = atom != 0
        spec_f = fine.forward(atom)
        spec_c = adapted_plan(fine.grid.restrict([on]),
                              dual_c).forward(atom[on])
        lam2_f, lam2_c = dual_f.squared_mesh(), dual_c.squared_mesh()
        w_f, w_c = fine.grid.weight_tensor(), coarse.grid.weight_tensor()
        local_sel = np.abs(fine.grid.axes[0].nodes - y0) <= 2.0 * r

        def fine_sum(mvals, sel):
            field = _maximal_field(fine, mvals * spec_f, tg)
            return float(np.sum(field[sel] * w_f[sel]))

        def coarse_sum(mvals):
            return float(np.sum(_maximal_field(coarse, mvals * spec_c, tg)
                                * w_c))

        local = fine_sum(m(lam2_f), local_sel)
        far = fine_sum(m(lam2_f), ~local_sel) + coarse_sum(m(lam2_c))
        tag = f"r={r:.3g},y0={y0:.3g}"
        out = [(f"total@{tag}", local + far), (f"local@{tag}", local),
               (f"far@{tag}", far)]
        if profile:
            jc = int(round(-2.0 * np.log2(r)))
            for j in range(jc - 8, jc + 9):
                val = fine_sum(psi_squared.piece(j, lam2_f) * m(lam2_f),
                               ~local_sel)
                if 2.0 ** ((j + 1) / 2.0) <= 10.0 / r:
                    val += coarse_sum(psi_squared.piece(j, lam2_c)
                                      * m(lam2_c))
                out.append((f"far_j@r={r:.3g},j={j}", val))
        return out

    def test_h1_shared_plans_match_a_build_per_atom(self, monkeypatch):
        # three radii at centre ratios 1.2 and 5; the lower two are the
        # subfamily's per-j radii, so two profiles run at ratio 5.  heat{t=1}
        # has a scale of its own, so m sampled at lambda r, not lambda / r,
        # would show; the imaginary power is nearly dilation-invariant and
        # would not
        rs = sorted({r for _, r in default_atom_family()})
        family = [(c * r, r) for r in (rs[1], rs[4], rs[6])
                  for c in (1.2, 5.0)]
        monkeypatch.setattr(verify, "default_atom_family", lambda: family)
        builds, atoms = [0], [0]
        build = TransformPlan.build

        def counted_build(grid, dual_grid=None):
            builds[0] += 1
            return build(grid, dual_grid)

        def counted_atom(*args):
            atoms[0] += 1
            return make_atom(*args)

        monkeypatch.setattr(TransformPlan, "build",
                            staticmethod(counted_build))
        monkeypatch.setattr(verify, "make_atom", counted_atom)
        alpha, m = MultiIndex((0.5,)), parse_symbol("heat{t=1}", 1)
        psi = make_partition("squared")
        rep = verify.h1_atom_check(alpha, m)
        # fine, coarse and transfer plans and one atom per centre ratio
        assert (builds[0], atoms[0]) == (6, 2)
        monkeypatch.undo()
        want = []
        for y0, r in family:
            profile = round(y0 / r, 9) == 5.0 and r in (rs[1], rs[4])
            want += self._per_atom_measurements(alpha, m, psi, y0, r, profile)
        assert [k for k, _ in rep.measurements] == [k for k, _ in want]
        assert sum(k.startswith("far_j@") for k, _ in want) == 2 * 17
        got = np.array([v for _, v in rep.measurements])
        want = np.array([v for _, v in want])
        assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    def test_h1_fine_parts_match_the_full_plan(self, monkeypatch):
        # the unit atom's fine plan keeps the nodes x <= c + 18, which hold
        # the atom and every node the local and near sums read
        alpha = MultiIndex((0.5,))
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        family = default_atom_family()
        y0, r = family[0]
        c = round(y0 / r, 9)
        # a second radius for the per-j subfamily; neither atom sits at 5
        # radii, so no per-j profile runs
        monkeypatch.setattr(verify, "default_atom_family",
                            lambda: [family[0], family[5]])
        fields = []

        def recorded(plan, spec_vals, tg):
            out = _maximal_field(plan, spec_vals, tg)
            fields.append((plan.grid, out))
            return out

        monkeypatch.setattr(verify, "_maximal_field", recorded)
        verify.h1_atom_check(alpha, m)
        # the first field is the fine plan's, one column per radius of the
        # orbit, here the one radius at centre ratio c
        grid, field = fields[0]
        assert field.shape == grid.shape + (1,)
        field = field[:, 0]
        x, w = grid.axes[0].nodes, grid.weight_tensor()
        F = c + 18.0
        assert x.max() <= F
        local_sel = np.abs(x - c) <= 2.0
        got = (np.sum(field[local_sel] * w[local_sel]),
               np.sum(field[~local_sel] * w[~local_sel]))
        # oracle: the full fine plan of the unit atom, read on x <= F, with
        # m sampled at the atom's scale
        (_, axes), = _h1_orbits([(y0, r)]).values()
        x_f, lam_f = axes["fine"]
        assert x_f[0] == c + 24.0 and lam_f[0] == 40.0
        full = adapted_plan(Grid.build(alpha, *x_f), Grid.build(alpha, *lam_f))
        atom = make_atom(full.grid, c, 1.0).values.values
        scaled = Grid.build(alpha, lam_f[0] / r, lam_f[1])
        spec = m(scaled.squared_mesh()) * full.forward(atom)
        field = _maximal_field(full, spec,
                               TimeGrid(np.geomspace(1e-5, 1e5, 80)))
        x, w = full.grid.axes[0].nodes, full.grid.weight_tensor()
        assert x.max() > F
        local_sel = np.abs(x - c) <= 2.0
        near_sel = ~local_sel & (x <= F)
        want = (np.sum(field[local_sel] * w[local_sel]),
                np.sum(field[near_sel] * w[near_sel]))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

def _full_mesh_battery(plan, seed):
    """The battery as full value tensors, drawn as make_battery draws it:
    each function built on the whole mesh, Gaussian axis by axis, then the
    cosine modes on axis 0."""
    rng = np.random.default_rng(seed)
    grid = plan.grid
    Lam = min(ax.R for ax in plan.dual_grid.axes)
    R = min(ax.R for ax in grid.axes)
    mesh = grid.meshgrid()
    for _ in range(BATTERY_SIZE):
        width = float(np.exp(rng.uniform(np.log(8.0 / Lam), np.log(R / 8.0))))
        centers = rng.uniform(width, R / 2.0, size=grid.d)
        vals = np.ones(grid.shape)
        for k in range(grid.d):
            vals = vals * np.exp(-(((mesh[k] - centers[k]) / width) ** 2))
        for _ in range(rng.integers(0, 4)):
            om = rng.uniform(0.0, 0.4 * Lam)
            ph = rng.uniform(0.0, 2.0 * np.pi)
            vals = vals * (1.0 + 0.5 * np.cos(om * mesh[0] + ph))
        yield vals


@pytest.fixture(scope="module")
def plan_2d_small():
    """A d = 2 plan small enough for the dense route over many symbols:
    every other node of the 160 per axis."""
    grid = Grid.build(MultiIndex((0.5, 1.3)), R=10.0, n=16)
    return TransformPlan.build(grid.restrict([np.arange(0, 160, 2)] * 2))


def _random_symbol(dual_grid):
    """A full-rank complex symbol: independent normal values per node,
    tabulated on the squared nodes, so that it takes its value at each node
    exactly, whichever block of the grid it is sampled on."""
    rng = np.random.default_rng(5)
    z = (rng.standard_normal(dual_grid.shape)
         + 1j * rng.standard_normal(dual_grid.shape))
    return table_symbol([ax.nodes**2 for ax in dual_grid.axes], z,
                        float(np.abs(z).max()), "random")


@pytest.fixture(scope="module")
def dual_256():
    """The dual grid of a d = 2 lp-probe at n = 256: 256 nodes per axis."""
    return Grid.build(MultiIndex((0.5, 1.3)), R=24.0, n=256)


def _assert_per_spike_quantities(rep, plan, mv):
    """rep's weak-(1,1) quantities against one apply_multiplier per spike;
    the probe's batch rounds differently from one spike at a time."""
    grid = plan.grid
    mesh = np.stack(grid.meshgrid(), axis=-1)
    wts = grid.weight_tensor()
    width = 48.0 / plan.dual_grid.axes[0].R
    want = []
    for c in WEAK11_CENTERS:
        for h, tag in ((width, "base"), (width / 4.0, "sharp")):
            vals = np.exp(-np.sum(((mesh - c) / h) ** 2, axis=-1))
            f = GridFunction(grid, vals)
            f = GridFunction(grid, vals / norm(f, 1.0))
            g = np.abs(apply_multiplier(plan, mv, f).values)
            q = max(lam * float(np.sum(wts[g > lam])) for lam in
                    np.geomspace(1e-3, 0.9, WEAK11_LEVELS) * float(g.max()))
            want.append((f"q@c={c},{tag}", q))
    assert [name for name, _ in rep.measurements] == \
        [name for name, _ in want]
    assert [q for _, q in rep.measurements] == pytest.approx(
        [q for _, q in want], rel=1e-13, abs=0.0)


class TestProbes:
    def test_battery_is_deterministic(self, plan_half, plan_2d):
        for plan in (plan_half, plan_2d):
            a = make_battery(plan, seed=9)
            b = make_battery(plan, seed=9)
            assert [F.shape for F in a] == [(BATTERY_SIZE, ax.n)
                                           for ax in plan.grid.axes]
            for fa, fb in zip(a, b):
                assert np.array_equal(fa, fb)
            assert len(list(battery_functions(plan.grid, a))) == BATTERY_SIZE

    @staticmethod
    def _small_grid(alpha):
        # every fourth node: 40 per axis, not the full 160
        return Grid.build(MultiIndex(alpha), R=8.0, n=16).restrict(
            [np.arange(0, 160, 4)] * len(alpha))

    @pytest.mark.parametrize("alpha", [(0.5,), (0.5, 1.3), (0.5, 1.3, 0.0)])
    def test_factors_reproduce_the_full_mesh_battery(self, alpha):
        # pins the draw order: same widths, centres and modes per function
        grid = self._small_grid(alpha)
        plan = TransformPlan.build(grid)
        got = battery_functions(grid, make_battery(plan, seed=1001))
        for f, want in zip(got, _full_mesh_battery(plan, 1001),
                           strict=True):
            assert f.values.shape == grid.shape
            assert (np.max(np.abs(f.values - want))
                    <= 1e-15 * np.max(np.abs(want)))

    @pytest.mark.parametrize("alpha", [(0.5,), (0.5, 1.3), (0.5, 1.3, 0.0)])
    def test_battery_norms_come_from_the_factors(self, alpha):
        grid = self._small_grid(alpha)
        factors = make_battery(TransformPlan.build(grid), seed=1001)
        for p in (1.5, 2.0, 3.0):
            want = [norm(f, p) for f in battery_functions(grid, factors)]
            assert battery_norms(grid, factors, p) == pytest.approx(
                want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("spec", ["heat{t=1}", "bump", "divergent",
                                      "laplace_type{phi=imag_power:gamma=1.0}",
                                      "random"])
    def test_factored_route_matches_the_dense_route(self, plan_2d_small,
                                                    spec):
        plan = plan_2d_small
        m = (_random_symbol(plan.dual_grid) if spec == "random"
             else parse_symbol(spec, 2))
        mv = _symbol_values(plan.dual_grid, m)
        pairs = [(f, apply_multiplier(plan, mv, f)) for f in
                 battery_functions(plan.grid, make_battery(plan, seed=3))]
        for p in (1.5, 2.0, 3.0):
            rep = lp_norm_probe(plan, m, p, seed=3)
            ratios = [norm(tmf, p) / norm(f, p) for f, tmf in pairs]
            assert [name for name, _ in rep.measurements] == \
                [f"ratio@f{i}" for i in range(8)]
            got = [r for _, r in rep.measurements]
            assert got == pytest.approx(ratios[:8], rel=1e-12, abs=0.0)
            assert rep.fitted_constants["max_ratio"] == pytest.approx(
                max(ratios), rel=1e-12, abs=0.0)
            rank = rep.parameters["symbol_rank"]
            assert 1 <= rank <= plan.dual_grid.axes[0].n
            if spec == "heat{t=1}":
                assert rank == 1   # e^{-t lambda_1^2} e^{-t lambda_2^2}
            if spec == "random":
                assert rank == plan.dual_grid.axes[0].n

    @pytest.mark.parametrize("spec", ["heat{t=1}", "bump", "divergent",
                                      "laplace_type{phi=imag_power:gamma=1.0}",
                                      "random"])
    def test_batched_battery_matches_the_per_function_route(
            self, plan_half, spec, monkeypatch):
        # at d = 1 the battery is one batch: one forward and one inverse
        # contraction in all
        plan = plan_half
        m = (_random_symbol(plan.dual_grid) if spec == "random"
             else parse_symbol(spec, 1))
        mv = _symbol_values(plan.dual_grid, m)
        pairs = [(f, apply_multiplier(plan, mv, f)) for f in
                 battery_functions(plan.grid, make_battery(plan, seed=3))]
        calls = []
        contract = transform._contract

        def counted(mats, values):
            calls.append(np.shape(values))
            return contract(mats, values)

        monkeypatch.setattr(transform, "_contract", counted)
        for p in (1.5, 2.0, 3.0):
            calls.clear()
            rep = lp_norm_probe(plan, m, p, seed=3)
            assert calls == [(plan.grid.axes[0].n, BATTERY_SIZE)] * 2
            ratios = [norm(tmf, p) / norm(f, p) for f, tmf in pairs]
            assert [name for name, _ in rep.measurements] == \
                [f"ratio@f{i}" for i in range(8)]
            got = [r for _, r in rep.measurements]
            assert got == pytest.approx(ratios[:8], rel=1e-12, abs=0.0)
            assert rep.fitted_constants["max_ratio"] == pytest.approx(
                max(ratios), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_probe_holds_one_battery_function_at_a_time(self, plan_2d_small,
                                                        p):
        # the battery held as full tensors would be 64 of these; the symbol
        # values, the SVD factors and the one image formed (p = 3) or the
        # Gram matrices (p = 2) stay below 24
        tensor_bytes = np.prod(plan_2d_small.grid.shape) * 8
        m = laplace_type_symbol(2, "imag_power", gamma=1.0)
        tracemalloc.start()
        try:
            lp_norm_probe(plan_2d_small, m, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * tensor_bytes

    def test_l2_probe_forms_no_image(self, plan_2d_small, monkeypatch):
        # at p = 2 the d = 2 norms come from Gram matrices, at every other
        # p from grid.norm of each image
        calls = []

        def counted(f, p=2.0, weight=None):
            calls.append(f.grid.d)
            return norm(f, p, weight)

        monkeypatch.setattr(verify, "norm", counted)
        m = laplace_type_symbol(2, "imag_power", gamma=1.0)
        for p, want in ((2.0, 0), (3.0, BATTERY_SIZE)):
            calls.clear()
            assert lp_norm_probe(plan_2d_small, m, p).verdict == PASS
            # ||f||_p is the product of its factors' one-axis norms
            assert calls.count(1) == 2 * BATTERY_SIZE
            assert calls.count(2) == want

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_zero_symbol_reads_zero_at_d_2(self, plan_2d_small, p):
        # rank 0: no factor columns, a zero image, ratio 0
        rep = lp_norm_probe(plan_2d_small, parse_symbol("const{value=0}", 2),
                            p)
        assert rep.parameters["symbol_rank"] == 0
        assert rep.fitted_constants["max_ratio"] == 0.0
        assert [r for _, r in rep.measurements] == [0.0] * 8
        assert rep.verdict == PASS

    def test_gram_norms_match_the_images_at_the_largest_alpha(self):
        # (56.35, 56.35) is about the largest alpha the gate admits at
        # d = 2, n = 512, R = 24: there the weights reach 1e154 per axis,
        # and P and Q reach 1e50 on the nodes of small weight
        alpha = (56.35, 56.35)
        cli._check_config(cli.RunConfig(alpha=alpha, dims=2, n=512),
                          ["lp-probe"])
        with pytest.raises(ValueError, match="weight tensor"):
            cli._check_config(cli.RunConfig(alpha=(56.36, 56.36), dims=2,
                                            n=512), ["lp-probe"])
        plan = TransformPlan.build(Grid.build(MultiIndex(alpha), R=24.0,
                                              n=512))
        m = laplace_type_symbol(2, "imag_power", gamma=1.0)
        spec = plan.forward_factors([F.T for F in make_battery(plan)])
        mv = _symbol_values(plan.dual_grid, m)
        for pair in verify._factored_pairs(plan, mv, spec)[1]:
            gram, = verify._gram_norms(plan.grid, [pair])
            image, = verify._image_norms(plan.grid, [pair], 2.0)
            assert 0.0 < image < np.inf
            assert gram == pytest.approx(image, rel=1e-12, abs=0.0)

    def test_d3_probe_forms_no_function(self, monkeypatch):
        # the battery's spectrum comes from its factors: no dense forward
        # of a formed f, which apply_multiplier would take per function
        calls = []
        forward = TransformPlan.forward

        def counted(plan, values):
            calls.append(np.shape(values))
            return forward(plan, values)

        monkeypatch.setattr(TransformPlan, "forward", counted)
        plan = TransformPlan.build(self._small_grid((0.5, 1.3, 0.0)))
        m = laplace_type_symbol(3, "imag_power", gamma=1.0)
        assert lp_norm_probe(plan, m, 2.0).verdict == PASS
        assert calls == []

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_a_nan_norm_fails_the_probe(self, plan_half, p, monkeypatch):
        # one battery function's norm reads NaN; a running max(0.0, nan)
        # would keep 0.0 and the probe PASS
        calls = []

        def nan_once(f, *args):
            calls.append(f)
            return np.nan if len(calls) == 3 else norm(f, *args)

        monkeypatch.setattr(verify, "norm", nan_once)
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        rep = lp_norm_probe(plan_half, m, p)
        assert np.isnan(rep.fitted_constants["max_ratio"])
        assert rep.verdict == FAIL

    def test_lp_probe_respects_plancherel_budget(self, plan_half):
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        rep = lp_norm_probe(plan_half, m, 2.0)
        assert rep.verdict == PASS
        assert rep.fitted_constants["max_ratio"] <= m.sup_norm * (1 + 1e-6)

    def test_lp_probe_rejects_bad_p(self, plan_half):
        with pytest.raises(ValueError):
            lp_norm_probe(plan_half, constant_symbol(1, 1.0), 1.0)

    def test_probes_evaluate_the_symbol_once(self, plan_half):
        base = laplace_type_symbol(1, "imag_power", gamma=1.0)
        calls = []

        def fn(u):
            calls.append(1)
            return base.fn(u)

        m = Symbol(fn, 1, base.sup_norm, "counted")
        rep = lp_norm_probe(plan_half, m, 3.0)
        assert len(calls) == 1
        # ||f||_3 as the probe takes it, from the factors
        mv = _symbol_values(plan_half.dual_grid, base)
        factors = make_battery(plan_half)
        grid = plan_half.grid
        ratios = [norm(apply_multiplier(plan_half, mv, f), 3.0) / fnorm
                  for f, fnorm in zip(battery_functions(grid, factors),
                                      battery_norms(grid, factors, 3.0))]
        # the probe takes the battery as one batch, whose contraction
        # rounds differently from one function at a time
        assert [name for name, _ in rep.measurements] == \
            [f"ratio@f{i}" for i in range(8)]
        assert [r for _, r in rep.measurements] == pytest.approx(
            ratios[:8], rel=1e-14, abs=0.0)
        assert rep.fitted_constants["max_ratio"] == pytest.approx(
            max(ratios), rel=1e-14, abs=0.0)

        calls.clear()
        rep = weak11_probe(plan_half, m)
        assert len(calls) == 1
        _assert_per_spike_quantities(rep, plan_half, mv)

    @pytest.mark.parametrize("spec", ["heat{t=1}", "bump", "divergent",
                                      "laplace_type{phi=imag_power:gamma=1.0}",
                                      "random"])
    def test_weak11_spikes_are_one_batch(self, plan_half, spec, monkeypatch):
        # the 10 spikes take one forward and one inverse contraction, and
        # their quantities are those of one apply_multiplier per spike
        plan = plan_half
        m = (_random_symbol(plan.dual_grid) if spec == "random"
             else parse_symbol(spec, 1))
        calls = []
        contract = transform._contract

        def counted(mats, values):
            calls.append(np.shape(values))
            return contract(mats, values)

        monkeypatch.setattr(transform, "_contract", counted)
        rep = weak11_probe(plan, m)
        assert calls == [(plan.grid.axes[0].n, 2 * len(WEAK11_CENTERS))] * 2
        _assert_per_spike_quantities(rep, plan,
                                     _symbol_values(plan.dual_grid, m))

    def test_weak11_probe_stable_for_identity(self, plan_half):
        rep = weak11_probe(plan_half, constant_symbol(1, 1.0))
        assert rep.verdict == PASS


class TestKeptTriplets:
    # at 256 nodes per axis a sketch of at most 64 columns keeps these
    # symbols' ranks; the imaginary power keeps 64, divergent 131 and the
    # random symbol all 256, so for them 2k reaches n and the SVD of the
    # symbol matrix is taken
    SKETCHED = ["heat{t=1}", "bump", "const{value=0}"]
    FULL = ["laplace_type{phi=imag_power:gamma=1.0}", "divergent", "random"]

    @pytest.mark.parametrize("spec", SKETCHED + FULL)
    def test_rank_and_triplets_match_the_full_svd(self, dual_256, spec,
                                                  monkeypatch):
        M = _symbol_values(dual_256, _random_symbol(dual_256)
                           if spec == "random" else parse_symbol(spec, 2))
        n = dual_256.axes[0].n
        s_full = np.linalg.svd(M, compute_uv=False)
        want = int(np.count_nonzero(s_full > SYMBOL_RANK_RTOL * s_full[0]))
        assert want == {"heat{t=1}": 1, "const{value=0}": 0,
                        "random": n}.get(spec, want)
        calls, residuals = [], []
        svd, residual = np.linalg.svd, verify._residual

        def recorded_svd(a, *args, **kwargs):
            calls.append((a.shape, kwargs.get("compute_uv", True)))
            return svd(a, *args, **kwargs)

        def recorded_residual(M, Q, B):
            residuals.append((Q, residual(M, Q, B)))
            return residuals[-1][1]

        monkeypatch.setattr(np.linalg, "svd", recorded_svd)
        monkeypatch.setattr(verify, "_residual", recorded_residual)
        U, s, Vh = verify._kept_triplets(M)
        monkeypatch.undo()
        assert s.size == want
        square = [uv for shape, uv in calls if shape == (n, n)]
        if spec in self.FULL:
            assert square == [True]
        else:
            # no n x n SVD that computes singular vectors; the sketch taken
            # is the last whose residual was judged, and its residual,
            # taken densely, is within the bound
            assert True not in square
            Q, value = residuals[-1]
            dense = np.linalg.norm(M - Q @ (Q.conj().T @ M))
            assert value == pytest.approx(dense, rel=1e-6, abs=1e-30)
            assert dense <= SYMBOL_RANK_RTOL * s_full[0]
        assert np.abs(s - s_full[:want]).max(initial=0.0) \
            <= SYMBOL_RANK_RTOL * s_full[0]
        for W in (U, Vh.conj().T):
            assert np.abs(W.conj().T @ W - np.eye(want)).max(initial=0.0) \
                <= 1e-12
        # the residual and the dropped singular values of the sketch, each
        # at most SYMBOL_RANK_RTOL s_1 in the spectral norm
        assert np.linalg.norm(M - (U * s) @ Vh, 2) \
            <= 2 * SYMBOL_RANK_RTOL * s_full[0]


class TestAssociation:
    def test_spectral_route_matches_kernel_integral(self, plan_half):
        m = laplace_type_symbol(1, "imag_power", gamma=1.0)
        f = gaussian_bump(plan_half.grid, 3.0, 0.5)
        rep = association_check(plan_half, m, f, x_samples=[[8.0], [11.0]])
        assert rep.verdict == PASS


class TestCompareResolutions:
    def _rep(self, c, verdict=PASS):
        r = EstimateReport(name="demo")
        r.fitted_constants["C"] = c
        r.verdict = verdict
        return r

    def test_small_drift_keeps_verdict(self):
        merged = compare_resolutions(self._rep(1.00), self._rep(1.05))
        assert merged.verdict == PASS

    def test_large_drift_downgrades(self):
        merged = compare_resolutions(self._rep(1.0), self._rep(2.0))
        assert merged.verdict == INCONCLUSIVE

    def test_verdict_disagreement_downgrades(self):
        merged = compare_resolutions(self._rep(1.0), self._rep(1.0, FAIL))
        assert merged.verdict == INCONCLUSIVE

    @staticmethod
    def _sweep(slope, c_name="C_hormander", c=1.0):
        r = EstimateReport(name="sweep", parameters={"slope_tol": 0.05,
                                                     "ratio_tol": 5.0})
        r.fitted_constants.update({"trend_slope": slope, c_name: c,
                                   "band_ratio": 1.0})
        r.verdict = PASS
        return r

    def test_slope_drift_is_judged_against_slope_tol(self):
        # the CZ trend_slope between N_MIN 256 and 2048: 2.2x in relative
        # terms, 0.6% of the slope tolerance its verdict is judged by
        merged = compare_resolutions(self._sweep(2.6e-4), self._sweep(5.8e-4))
        assert merged.verdict == PASS

    def test_round_off_slope_keeps_the_verdict(self):
        # the H^1 trend_slope of an exactly flat sweep changes sign
        merged = compare_resolutions(self._sweep(1.8e-15),
                                     self._sweep(-1.8e-15))
        assert merged.verdict == PASS
        # without the report's tolerance the absolute floor absorbs it
        bare = [self._rep(1.8e-15), self._rep(-1.8e-15)]
        assert compare_resolutions(*bare).verdict == PASS

    @pytest.mark.parametrize("a,b", [(1.0, np.nan), (np.nan, np.nan)])
    def test_nan_constant_is_inconclusive(self, a, b):
        # a running max(0.0, nan) would keep 0.0 and the verdict
        merged = compare_resolutions(self._rep(a), self._rep(b))
        assert np.isnan(merged.fitted_constants["max_drift"])
        assert merged.verdict == INCONCLUSIVE

    def test_constant_drift_still_downgrades(self):
        # C_atom at the pre-refinement H^1 dual sizes against refined ones
        merged = compare_resolutions(self._sweep(0.0, "C_atom", 25.22),
                                     self._sweep(0.0, "C_atom", 0.66))
        assert merged.verdict == INCONCLUSIVE
