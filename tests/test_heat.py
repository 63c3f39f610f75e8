"""Heat kernel: normalization, symmetry, semigroup law, bounds, maximal op."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankellab import cli, heat
from hankellab.dyadic import make_partition
from hankellab.grid import AxisGrid, Grid, GridFunction, norm
from hankellab.heat import (GAUSSIAN_DECAY, HEAT_NORMALIZATION, ROW_GRANULE,
                            HeatKernelEval, TimeGrid, _axis_kernel,
                            _local_ball_measure, _maximal_field,
                            axis_heat_matrix, gaussian_bound_check,
                            heat_apply, heat_kernel)
from hankellab.report import FAIL, PASS, EstimateReport
from hankellab.specfun import MultiIndex, inorm_scaled
from hankellab.transform import hankel_transform, inverse_hankel

from conftest import gaussian_bump
from paper_checks import heat_lipschitz_check, maximal_function


@pytest.fixture(scope="module")
def hk_half():
    return HeatKernelEval(MultiIndex((0.5,)))


@pytest.fixture(scope="module")
def grid16():
    return Grid.build(MultiIndex((0.5,)), R=16.0, n=768)


class TestNormalization:
    def test_analytic_candidate_is_half(self):
        # c_k solved from mass 1 at t = 1, y = 1 agrees with the closed form
        # 1/2 that the kernel uses, and the solved c_k keeps mass 1 at other
        # poles; T_1(., y) is a unit-width bump, so R = 16 is ample
        assert HEAT_NORMALIZATION == 0.5
        for a in (-0.4, 0.0, 0.5, 1.3, 3.0):
            ax = AxisGrid.build(a, R=16.0, n=768)

            def unnormalized(y):
                return _axis_kernel(a, 1.0, ax.nodes, y) / HEAT_NORMALIZATION

            c = 1.0 / float(np.sum(unnormalized(1.0) * ax.quad_weights))
            assert c == pytest.approx(0.5, abs=1e-12)
            for y in (0.3, 0.8, 1.7, 2.9, 4.4):
                mass = float(np.sum(c * unnormalized(y) * ax.quad_weights))
                assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("a", [-0.25, 0.0, 1.0, 2.0])
    def test_mass_one_at_sample_centers(self, a, grid16=None):
        hk = HeatKernelEval(MultiIndex((a,)))
        g = Grid.build(MultiIndex((a,)), R=24.0, n=768)
        x = g.axes[0].nodes
        for y in (0.2, 0.7, 1.3, 2.5, 4.0, 6.5):
            for t in (0.25, 1.0, 2.0):
                mass = float(np.sum(
                    heat_kernel(hk, t, x[:, None], np.array([y])) *
                    g.axes[0].quad_weights))
                assert mass == pytest.approx(1.0, abs=1e-7)

    def test_alpha_given_as_numbers(self, hk_half):
        assert HeatKernelEval(0.5).alpha == hk_half.alpha
        assert HeatKernelEval((0.5, 1.5)).alpha == MultiIndex((0.5, 1.5))

    def test_timezero_rejected(self, hk_half):
        with pytest.raises(ValueError):
            heat_kernel(hk_half, 0.0, np.array([1.0]), np.array([1.0]))


class TestKernelStructure:
    def test_symmetry_in_x_y(self, hk_half):
        for t in (0.3, 1.7):
            a = float(heat_kernel(hk_half, t, np.array([1.2]), np.array([3.4])))
            b = float(heat_kernel(hk_half, t, np.array([3.4]), np.array([1.2])))
            assert a == pytest.approx(b, rel=1e-13)

    def test_positivity(self, hk_half):
        rng = np.random.default_rng(3)
        for _ in range(200):
            t = float(np.exp(rng.uniform(-4, 4)))
            x = rng.uniform(0.01, 10.0, 1)
            y = rng.uniform(0.01, 10.0, 1)
            assert float(heat_kernel(hk_half, t, x, y)) > 0.0

    def test_product_over_axes(self):
        hk2 = HeatKernelEval(MultiIndex((0.5, 1.5)))
        hka = HeatKernelEval(MultiIndex((0.5,)))
        hkb = HeatKernelEval(MultiIndex((1.5,)))
        x, y = np.array([1.0, 2.0]), np.array([0.7, 2.5])
        got = float(heat_kernel(hk2, 0.8, x, y))
        want = (float(heat_kernel(hka, 0.8, x[:1], y[:1])) *
                float(heat_kernel(hkb, 0.8, x[1:], y[1:])))
        assert got == pytest.approx(want, rel=1e-12)

    def test_no_overflow_small_time(self, hk_half):
        v = float(heat_kernel(hk_half, 1e-8, np.array([5.0]), np.array([5.0])))
        assert np.isfinite(v) and v > 0


def _axis_kernel_formula(alpha_k, t, x, y):
    """The one-axis kernel as one expression of new arrays: the reference
    that the in-place evaluation must reproduce bit for bit."""
    nu = alpha_k - 0.5
    return (HEAT_NORMALIZATION / t * (2.0 * t) ** (-nu)
            * np.exp(-((x - y) ** 2) / (4.0 * t))
            * inorm_scaled(nu, x * y / (2.0 * t)))


class TestAxisHeatMatrix:
    @pytest.mark.parametrize("rows", [slice(None), slice(5, 300)],
                             ids=["all-rows", "row-slice"])
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("a", [-0.3, 0.5, 1.3])
    def test_matches_the_kernel_formula_bit_for_bit(self, a, t, rows):
        ax = AxisGrid.build(a, R=24.0, n=512)
        got = axis_heat_matrix(a, t, ax, rows)
        want = (_axis_kernel_formula(a, t, ax.nodes[rows, None],
                                     ax.nodes[None, :])
                * ax.quad_weights[None, :])
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", [-0.3, 0.5, 1.3])
    def test_kernel_broadcasts_scalars_and_vectors(self, a):
        x = AxisGrid.build(a, R=24.0, n=512).nodes
        for args in ((1.3, 2.1), (x, 2.1), (0.7, x), (x[:, None], x[::7])):
            got = _axis_kernel(a, 0.6, *args)
            want = _axis_kernel_formula(a, 0.6, *args)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_matrix_holds_two_matrices(self):
        # the Bessel factor and the returned matrix, besides the kernel
        # tables and their evaluation blocks
        ax = AxisGrid.build(0.5, R=24.0, n=1024)
        tracemalloc.start()
        try:
            axis_heat_matrix(0.5, 1.0, ax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * ax.n * ax.n * 8 + cli.KERNEL_TABLE_PEAK


class TestSemigroup:
    def test_composition(self, hk_half, grid16):
        f = gaussian_bump(grid16, 5.0, 1.0)
        one = heat_apply(hk_half, 1.5, f)
        two = heat_apply(hk_half, 1.0, heat_apply(hk_half, 0.5, f))
        assert norm(one - two, np.inf) <= 1e-8 * norm(one, np.inf)

    def test_matches_spectral_multiplier(self, hk_half, plan_half):
        # kernel route against H(e^{-t lambda^2} Hf) on a compact interior
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        spec = hankel_transform(plan_half, f)
        lam = plan_half.dual_grid.axes[0].nodes
        x = plan_half.grid.axes[0].nodes
        for t in (0.25, 1.0):
            kern = heat_apply(hk_half, t, f).values
            spect = inverse_hankel(plan_half, GridFunction(
                plan_half.dual_grid, np.exp(-t * lam**2) * spec.values)).values
            interior = x < 16.0 - 6.0 * np.sqrt(t)
            assert np.max(np.abs((kern - spect)[interior])) <= 1e-6

    def test_contraction_in_l1(self, hk_half, grid16):
        f = gaussian_bump(grid16, 5.0, 1.0)
        assert norm(heat_apply(hk_half, 1.0, f), 1.0) <= norm(f, 1.0) * (1 + 1e-10)

    def test_dimension_mismatch_is_refused(self, hk_half):
        # a 1-D kernel on a 2-D grid must not apply on only some of the axes
        grid = Grid.build(MultiIndex((0.5, 0.5)), R=8.0, n=64)
        f = GridFunction(grid, np.ones(grid.shape))
        with pytest.raises(ValueError):
            heat_apply(hk_half, 1.0, f)


class TestBounds:
    def test_gaussian_bound_and_regime_bands(self, hk_half):
        rng = np.random.default_rng(11)
        samples = [(float(np.exp(rng.uniform(-2, 2))),
                    rng.uniform(0.3, 5.0, 1), rng.uniform(0.3, 5.0, 1))
                   for _ in range(80)]
        rep = gaussian_bound_check(hk_half, samples)
        assert rep.verdict == "pass"
        assert rep.fitted_constants["min_kernel_value"] >= 0.0

    @staticmethod
    def _per_sample_check(hk, samples):
        # the check one sample at a time: T_t(x, y) by heat_kernel and each
        # axis's band entry by its own _axis_kernel call
        band_tol = 10.0
        rep = EstimateReport(
            name="heat_gaussian_bound",
            parameters={"c_exp": GAUSSIAN_DECAY, "n_samples": len(samples),
                        "alpha": list(hk.alpha.alpha), "band_tol": band_tol},
            provenance="heat kernel Gaussian bound and two-regime asymptotics",
        )
        Cs, neg = [], 0.0
        band_small, band_large = [], []
        for t, x, y in samples:
            x = np.atleast_1d(np.asarray(x, float))
            y = np.atleast_1d(np.asarray(y, float))
            T = float(heat_kernel(hk, t, x, y))
            neg = min(neg, T)
            dist2 = float(np.sum((x - y) ** 2))
            volB = float(_local_ball_measure(hk.alpha, x, np.sqrt(t)))
            Cs.append(T * volB * np.exp(GAUSSIAN_DECAY * dist2 / t))
            for k, a in enumerate(hk.alpha.alpha):
                xk, yk = x[k], y[k]
                Tk = float(_axis_kernel(a, t, xk, yk))
                if xk * yk < t:
                    band_small.append(Tk * t ** ((2 * a + 1) / 2)
                                      * np.exp((xk**2 + yk**2) / (4 * t)))
                else:
                    band_large.append(Tk * t**0.5 * (xk * yk) ** a
                                      * np.exp((xk - yk) ** 2 / (4 * t)))
        rep.fitted_constants["C_gauss"] = float(np.max(Cs))
        rep.fitted_constants["min_kernel_value"] = neg
        ok = neg >= 0.0 and np.isfinite(np.max(Cs))
        for label, band in (("small_regime", band_small),
                            ("large_regime", band_large)):
            if band:
                ratio = float(np.max(band) / np.min(band))
                rep.fitted_constants[f"band_ratio_{label}"] = ratio
                rep.add(f"band_ratio_{label}", ratio)
                ok = ok and ratio <= band_tol
        rep.verdict = PASS if ok else FAIL
        return rep

    @staticmethod
    def _selftest_samples(seed, d):
        # the samples heat-selftest draws at CLI seed `seed`
        rng = np.random.default_rng(seed)
        return [(float(np.exp(rng.uniform(-2, 2))), rng.uniform(0.3, 5.0, d),
                 rng.uniform(0.3, 5.0, d)) for _ in range(40)]

    @pytest.mark.parametrize("alpha", [(0.5,), (1.3,), (0.5, 1.3)],
                             ids=["0.5", "1.3", "0.5,1.3"])
    @pytest.mark.parametrize("seed", range(1001, 1009))
    def test_gaussian_bound_matches_the_per_sample_check(self, alpha, seed):
        hk = HeatKernelEval(MultiIndex(alpha))
        samples = self._selftest_samples(seed, len(alpha))
        assert gaussian_bound_check(hk, samples).to_dict() == \
            self._per_sample_check(hk, samples).to_dict()

    @pytest.mark.parametrize("seed", range(1001, 1009))
    def test_gaussian_bound_at_three_axes_matches_to_round_off(self, seed):
        hk = HeatKernelEval(MultiIndex((-0.3, 2.0, 0.8)))
        samples = self._selftest_samples(seed, 3)
        got = gaussian_bound_check(hk, samples).to_dict()
        want = self._per_sample_check(hk, samples).to_dict()
        assert got["verdict"] == want["verdict"]
        assert got["fitted_constants"].keys() == want["fitted_constants"].keys()
        for key, value in want["fitted_constants"].items():
            assert got["fitted_constants"][key] == pytest.approx(
                value, rel=1e-15, abs=0.0)

    def test_lipschitz_band(self, hk_half):
        grid = Grid.build(MultiIndex((0.5,)), R=24.0, n=512)
        pairs = [([2.0], [2.0 + s]) for s in np.geomspace(1e-1, 1e-4, 7)]
        rep = heat_lipschitz_check(hk_half, grid, pairs)
        assert rep.verdict == "pass"


class TestMaximalFunction:
    def test_routes_agree(self, hk_half, plan_half):
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        tg = TimeGrid(np.geomspace(0.1, 10.0, 12))
        kern = maximal_function(hk_half, tg, f)
        spec = _maximal_field(plan_half, plan_half.forward(f.values), tg)
        x = plan_half.grid.axes[0].nodes
        interior = x < 10.0
        dev = np.max(np.abs((kern.values - spec)[interior]))
        assert dev <= 1e-6 * norm(kern, np.inf)

    def test_dominates_single_time(self, hk_half, plan_half):
        f = gaussian_bump(plan_half.grid, 5.0, 1.0)
        tg = TimeGrid(np.geomspace(0.1, 10.0, 12))
        m = maximal_function(hk_half, tg, f)
        one = heat_apply(hk_half, float(tg.t_values[5]), f)
        assert np.all(m.values + 1e-12 >= np.abs(one.values))

    @staticmethod
    def _stepwise_field(plan, spec_vals, tg):
        # one inverse transform per time, skipping times damped below 1e-16
        lam2 = plan.dual_grid.squared_mesh().sum(axis=-1)
        best = np.zeros(plan.grid.shape)
        for t in tg.t_values:
            damp = np.exp(-t * lam2)
            if damp.max() < 1e-16:
                continue
            # plan.inv holds the bare kernel; the dual weights go on the input
            out = spec_vals * damp * plan.dual_grid.weight_tensor()
            for k, M in enumerate(plan.inv):
                out = np.moveaxis(np.tensordot(M.astype(complex), out,
                                               axes=([1], [k])), 0, k)
            np.maximum(best, np.abs(out), out=best)
        return best

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    def test_batched_field_matches_stepwise_loop(self, plan_name, kind,
                                                 request):
        plan = request.getfixturevalue(plan_name)
        center = [4.0] * plan.grid.d
        spec = hankel_transform(plan, gaussian_bump(plan.grid, center, 1.0))
        vals = spec.values.real
        if kind == "complex":
            lam2 = plan.dual_grid.squared_mesh().sum(axis=-1)
            vals = vals * np.exp(1j * np.sqrt(lam2))
        # the last two times damp every dual node below 1e-16
        tg = TimeGrid(np.concatenate([np.geomspace(0.05, 20.0, 9),
                                      [1e13, 1e14]]))
        got = _maximal_field(plan, vals, tg)
        want = self._stepwise_field(plan, vals, tg)
        assert got.shape == plan.grid.shape and got.dtype == float
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_field_is_zero_when_every_time_is_skipped(self, plan_name,
                                                      request):
        plan = request.getfixturevalue(plan_name)
        vals = np.ones(plan.dual_grid.shape, dtype=complex)
        got = _maximal_field(plan, vals, TimeGrid(np.geomspace(1e13, 1e15, 4)))
        assert got.shape == plan.grid.shape
        assert not got.any()

    @staticmethod
    def _recorded_rows(plan, monkeypatch):
        # per _contract call of _maximal_field, the (first, stop) rows of
        # plan.inv[k] that its matrix k holds; each is a column slice view
        calls = []
        contract = heat._contract

        def recorded(mats, values):
            spans = []
            for M, full in zip(mats, plan.inv):
                offset = M.ctypes.data - full.ctypes.data
                first, rem = divmod(offset, full.strides[1])
                assert rem == 0 and M.strides == full.strides
                assert np.array_equal(M, full[:, first:first + M.shape[1]])
                spans.append((first, first + M.shape[1]))
            calls.append(spans)
            return contract(mats, values)

        monkeypatch.setattr(heat, "_contract", recorded)
        return calls

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_band_limited_field_contracts_only_its_band(self, plan_name,
                                                         request,
                                                         monkeypatch):
        # a spectrum vanishing off the j = 2 window of the squared
        # partition, 2 <= |lambda|^2 <= 8: per axis, every contraction reads
        # only dual rows from its first to its last nonzero one, starting at
        # the first
        plan = request.getfixturevalue(plan_name)
        center = [4.0] * plan.grid.d
        spec = hankel_transform(plan, gaussian_bump(plan.grid, center, 1.0))
        vals = (make_partition("squared").piece(
            2, plan.dual_grid.squared_mesh()) * spec.values)
        tg = TimeGrid(np.concatenate([np.geomspace(0.05, 20.0, 9),
                                      [1e13, 1e14]]))
        calls = self._recorded_rows(plan, monkeypatch)
        got = _maximal_field(plan, vals, tg)
        monkeypatch.undo()
        want = self._stepwise_field(plan, vals, tg)
        nz = vals != 0
        rows = [np.flatnonzero(nz.any(axis=tuple(a for a in range(nz.ndim)
                                                 if a != k)))
                for k in range(nz.ndim)]
        assert calls
        for spans in calls:
            assert all(first == r[0] and stop <= r[-1] + 1
                       for (first, stop), r in zip(spans, rows))
        assert all(r[-1] + 1 < ax.n
                   for r, ax in zip(rows, plan.dual_grid.axes))
        assert got.shape == plan.grid.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_damped_rows_are_not_contracted(self, plan_name, request,
                                            monkeypatch):
        # at t = 4 every row with lambda_k^2 > 4 log 10 is damped below
        # 1e-16 on its own axis, so that time contracts a prefix of each
        # axis, at most ROW_GRANULE - 1 rows past the last row it keeps and
        # short of the axis's end; at t = 1e-6 no row is damped and the
        # whole axis is contracted
        plan = request.getfixturevalue(plan_name)
        vals = np.ones(plan.dual_grid.shape, dtype=complex)
        tg = TimeGrid(np.array([1e-6, 4.0]))
        calls = self._recorded_rows(plan, monkeypatch)
        got = _maximal_field(plan, vals, tg)
        monkeypatch.undo()
        kept = [np.count_nonzero(np.exp(-4.0 * ax.nodes**2) >= 1e-16)
                for ax in plan.dual_grid.axes]
        assert calls[0] == [(0, ax.n) for ax in plan.dual_grid.axes]
        assert len(calls) == 2
        for (first, stop), k, ax in zip(calls[1], kept, plan.dual_grid.axes):
            assert first == 0 and k <= stop < min(k + ROW_GRANULE, ax.n)
        want = self._stepwise_field(plan, vals, tg)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    @pytest.mark.parametrize("kind", ["complex", "real"])
    @pytest.mark.parametrize("columns", [None, 4])
    def test_batch_axis_gives_one_field_per_slice(self, plan_name, kind,
                                                  columns, request,
                                                  monkeypatch):
        # three spectra along a trailing batch axis, one of them limited to
        # a dyadic band, so that the batch's band is wider than its own; at
        # 4 columns per contraction a group of times is split as well
        plan = request.getfixturevalue(plan_name)
        if columns is not None:
            monkeypatch.setattr(heat, "FIELD_COLUMNS", columns)
        lam2 = plan.dual_grid.squared_mesh()
        specs = [hankel_transform(plan, gaussian_bump(
            plan.grid, [c] * plan.grid.d, 1.0)).values.real
            for c in (2.0, 4.0, 6.0)]
        specs[1] = make_partition("squared").piece(1, lam2) * specs[1]
        vals = np.stack(specs, axis=-1)
        if kind == "complex":
            vals = vals * np.exp(1j * np.sqrt(lam2.sum(axis=-1)))[..., None]
        tg = TimeGrid(np.concatenate([np.geomspace(0.05, 20.0, 9),
                                      [1e13, 1e14]]))
        got = _maximal_field(plan, vals, tg)
        assert got.shape == plan.grid.shape + (3,) and got.dtype == float
        for i in range(3):
            one = _maximal_field(plan, vals[..., i], tg)
            want = self._stepwise_field(plan, vals[..., i], tg)
            assert np.max(np.abs(got[..., i] - one)) <= 1e-13 * np.max(one)
            assert np.max(np.abs(got[..., i] - want)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("plan_name", ["plan_half", "plan_2d"])
    def test_field_of_a_zero_spectrum_is_zero(self, plan_name, request):
        plan = request.getfixturevalue(plan_name)
        got = _maximal_field(plan, np.zeros(plan.dual_grid.shape, complex),
                             TimeGrid(np.geomspace(0.05, 20.0, 9)))
        assert got.shape == plan.grid.shape and got.dtype == float
        assert not got.any()

    def test_timegrid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            TimeGrid(np.array([-1.0, 1.0]))


@given(t=st.floats(0.1, 10.0), y=st.floats(0.5, 6.0))
@settings(max_examples=20, deadline=None)
def test_mass_one_property(t, y):
    hk = HeatKernelEval(MultiIndex((0.5,)))
    g = Grid.build(MultiIndex((0.5,)), R=40.0, n=512)
    x = g.axes[0].nodes
    mass = float(np.sum(heat_kernel(hk, t, x[:, None], np.array([y])) *
                        g.axes[0].quad_weights))
    assert mass == pytest.approx(1.0, abs=1e-6)
