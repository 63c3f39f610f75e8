"""Command-line front end: configure grids and symbols, run the check
suites, and emit reports as JSON, CSV, and a summary table.

Exit status: 0 when every requested suite passes, 2 when any is
inconclusive, 1 when a suite fails or raises, 64 when the configuration,
a memory budget or the output directory is refused before any suite runs.
"""

import argparse
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields
from decimal import Decimal

import numpy as np

from . import __version__
from .grid import (MIN_PPW, POINTS_PER_PANEL, Grid, GridFunction, axis_size,
                   check_normal_floats, check_weight_resolved,
                   check_weight_tensor, first_node, norm,
                   points_per_wavelength, product_values)
from .heat import HeatKernelEval, axis_heat_matrix, gaussian_bound_check
from .report import FAIL, INCONCLUSIVE, PASS, EstimateReport
from .specfun import MultiIndex, check_tabled
from .symbols import family_name, parse_symbol
from .sobolev import (BOX_SAMPLES, SpectralTailWarning, box_samples,
                      box_top_frequency, hormander_sup)
from .transform import TransformPlan, _contract
from .verify import (BATTERY_WIDTH_RATIO, DEFAULT_SEED, _cz_band, _h1_orbits,
                     cz_hormander_check, default_atom_family,
                     default_cz_pairs, h1_atom_check, lp_norm_probe,
                     weak11_probe)

USAGE_ERROR = 64
MEMORY_LIMIT_BYTES = 2 << 30
# one 16-node panel per axis in d = 7 already holds 16^7 complex values,
# 4 GiB, over MEMORY_LIMIT_BYTES
MAX_DIMS = 6

# multiplier-check evaluates the symbol at 2^j u for u on the window's
# annulus 1/2 <= |u| <= 2, where |2^j u|^2 runs from 2^(2j-2) to 2^(2j+2);
# both ends are normal floats, from 2^minexp = 2^-1022 to 2^(maxexp-1) =
# 2^1023, exactly for J_RANGE[0] <= j <= J_RANGE[1], that is |j| <= 510
_FLOATS = np.finfo(float)
J_RANGE = (-((-2 - _FLOATS.minexp) // 2), (_FLOATS.maxexp - 3) // 2)

# heat-selftest compares its two routes on x < R - HEAT_MARGIN sqrt(t)
HEAT_TIMES = (0.25, 1.0, 4.0)
HEAT_MARGIN = 6.0


@dataclass
class RunConfig:
    """Effective (post-default) configuration of one CLI run."""

    suite: str = "transform-selftest"
    alpha: tuple = (0.5,)
    dims: int = 1
    n: int = 1024
    R: float = 24.0
    symbol: str = "laplace_type{phi=imag_power:gamma=1.0}"
    beta: float = 2.0
    jmin: int = -10
    jmax: int = 10
    p: float = 2.0
    seed: int = DEFAULT_SEED
    output: str = "hankellab-out"

    def digest(self):
        """Hash of the suite and the fields it reads (_SUITE_READS), so
        neither output nor an option the suite ignores changes it."""
        keys = ("suite",) + _SUITE_READS[self.suite]
        payload = json.dumps({k: getattr(self, k) for k in keys},
                             sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _parse_config_file(path):
    """Flat key=value file in UTF-8; '#' starts a comment, and a key may
    be given once."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key in out:
                raise ValueError(f"{path}:{lineno}: {key} given twice")
            out[key] = val
    return out


# the RunConfig fields a flag or a config file may set, with their types;
# the suite is set per run
_KEY_TYPES = {f.name: f.type for f in fields(RunConfig) if f.name != "suite"}
CONFIG_KEYS = tuple(_KEY_TYPES)


def _coerce(key, text):
    """The value of a flag or config entry, converted to the field's type;
    alpha is a comma list of floats."""
    kind = _KEY_TYPES[key]
    try:
        if kind is tuple:
            return tuple(float(a) for a in text.split(","))
        return kind(text)
    except ValueError:
        want = "a comma list of floats" if kind is tuple else kind.__name__
        raise ValueError(f"{key} = {text!r}: expected {want}") from None


def build_config(args):
    """RunConfig from the config file, then the flags, which win."""
    given = {}
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key: {key}")
            given[key] = _coerce(key, val)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = _coerce(key, flag)
    cfg = RunConfig(**given)
    if len(cfg.alpha) > 1:
        if "dims" in given and cfg.dims != len(cfg.alpha):
            raise ValueError(f"dims = {cfg.dims} disagrees with the "
                             f"{len(cfg.alpha)} entries of alpha = {cfg.alpha}")
        cfg.dims = len(cfg.alpha)
    if not 1 <= cfg.dims <= MAX_DIMS:
        raise ValueError(f"dims = {cfg.dims}: must lie in 1..{MAX_DIMS}")
    cfg.alpha = cfg.alpha * (cfg.dims // len(cfg.alpha))
    return cfg


def _suite_names(args):
    if args.command != "suite":
        return [args.command]
    names = list(_SUITE_FNS) if args.which == "all" \
        else [s.strip() for s in args.which.split(",")]
    unknown = [s for s in names if s not in _SUITE_FNS]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    twice = sorted({s for s in names if names.count(s) > 1})
    if twice:
        raise ValueError(f"suites named twice: {twice}")
    return names


# each sweep's declarations of the (R, n) of every axis it builds
_SWEEP_GRIDS = {
    "cz-check": lambda: [_cz_band(y, yp) for y, yp in default_cz_pairs()],
    "h1-check": lambda: [axes for _, axes in
                         _h1_orbits(default_atom_family()).values()]}


def _check_config(cfg, names):
    """Refuse values no requested suite can run with, and memory budgets
    over MEMORY_LIMIT_BYTES, before any grid, plan, box or table is built;
    returns the parsed symbol, which every suite receives."""
    MultiIndex(cfg.alpha)
    check_tabled(cfg.alpha, f"alpha = {cfg.alpha}")
    if cfg.n < POINTS_PER_PANEL:
        raise ValueError(f"n = {cfg.n}: an axis needs at least "
                         f"{POINTS_PER_PANEL} nodes")
    if not 0 < cfg.R < np.inf:
        raise ValueError(f"R = {cfg.R}: the truncation radius must be "
                         "finite and > 0")
    if not 1.0 < cfg.p < np.inf:
        raise ValueError(f"p = {cfg.p}: must lie in (1, inf)")
    if cfg.seed < 0:
        raise ValueError(f"seed = {cfg.seed}: must be >= 0")
    for name in (name for name in _SWEEP_GRIDS if name in names):
        if cfg.dims != 1:
            raise ValueError(f"dims = {cfg.dims} (alpha = {cfg.alpha}): "
                             f"{name} runs in one dimension")
        radii = [R for decl in _SWEEP_GRIDS[name]() for axes in decl.values()
                 for R, _ in axes]
        check_normal_floats(cfg.alpha, radii, f"alpha = {cfg.alpha}, {name}")
    if "multiplier-check" in names and cfg.jmin > cfg.jmax:
        raise ValueError(f"jmin = {cfg.jmin} > jmax = {cfg.jmax}: "
                         "multiplier-check needs jmin <= jmax")
    if "multiplier-check" in names and not (J_RANGE[0] <= cfg.jmin
                                            and cfg.jmax <= J_RANGE[1]):
        raise ValueError(f"jmin = {cfg.jmin}, jmax = {cfg.jmax}: "
                         "multiplier-check evaluates the symbol at |2^j u|^2 "
                         "= 2^(2j-2) ... 2^(2j+2), normal floats only for "
                         f"{J_RANGE[0]} <= j <= {J_RANGE[1]}")
    if "multiplier-check" in names and not 0 <= cfg.beta < np.inf:
        raise ValueError(f"beta = {cfg.beta}: multiplier-check needs a "
                         "finite beta >= 0")
    # the box weight (1+|xi|^2)^beta is largest at the box's top frequency
    # on every axis
    xi2 = cfg.dims * box_top_frequency(cfg.dims)**2
    beta_max = np.log(_FLOATS.max) / np.log1p(xi2)
    if "multiplier-check" in names and cfg.beta > beta_max:
        raise ValueError(f"beta = {cfg.beta}: multiplier-check's weight "
                         f"(1+|xi|^2)^beta overflows at |xi|^2 = {xi2:.6g} "
                         f"(dims = {cfg.dims}), from beta = {beta_max:.6g}")
    ppw = points_per_wavelength(axis_size(cfg.n), cfg.R, cfg.R)  # Lambda = R
    plan_suites = [name for name in RUN_PEAK if name in names]
    if plan_suites and ppw < MIN_PPW:
        raise ValueError(f"n = {cfg.n}, R = {cfg.R}: the Lambda = R plan of "
                         f"{plan_suites[0]} has ~{ppw:.1f} points per "
                         f"wavelength, below {MIN_PPW:g}")
    # the plan's R * Lambda = R^2 is the self-test's power at alpha_k = 1/2
    if plan_suites:
        check_normal_floats(cfg.alpha + (0.5,), cfg.R, f"R = {cfg.R} (alpha "
                            f"= {cfg.alpha}), the Lambda = R plan")
        check_weight_resolved(cfg.alpha, cfg.n, f"alpha = {cfg.alpha}, n = "
                              f"{cfg.n}, the Lambda = R plan")
    if "lp-probe" in names and cfg.R < BATTERY_WIDTH_RATIO:
        ratio = f"{BATTERY_WIDTH_RATIO:g}"
        raise ValueError(f"R = {cfg.R}: lp-probe draws bump widths from "
                         f"[{ratio}/R, R/{ratio}], so it needs R >= {ratio}")
    # every memory budget, in the order the run meets it: the potential
    # table, which parse_symbol builds, then each requested suite's peak
    budgets = {}
    if family_name(cfg.symbol) == "potential":
        budgets["the potential table"] = POTENTIAL_PEAK * BOX_SAMPLES**cfg.dims
    for name in names:
        if name in RUN_PEAK:
            budgets[name] = _estimate_run_bytes(name, cfg.dims,
                                                axis_size(cfg.n))
        elif name == "multiplier-check":
            budgets[name] = _estimate_box_bytes(cfg.dims)
    for what, need in budgets.items():
        if need > MEMORY_LIMIT_BYTES:  # Decimal: need / 2**30 may overflow
            raise ValueError(f"refusing to run {what} at dims = {cfg.dims}, "
                             f"n = {cfg.n}: ~{Decimal(need) / 2**30:.3g} GiB, "
                             f"over the {MEMORY_LIMIT_BYTES >> 30} GiB limit")
    # after the budgets, which bound the n whose axis weights this forms
    if plan_suites and cfg.dims >= 2:
        check_weight_tensor(cfg.alpha, cfg.R, cfg.n, f"alpha = {cfg.alpha}, "
                            f"R = {cfg.R}, n = {cfg.n}, the Lambda = R plan "
                            f"of {plan_suites[0]}")
    heat_reach = HEAT_MARGIN * np.sqrt(max(HEAT_TIMES))
    if "heat-selftest" in names and not all(
            first_node(a, cfg.R, cfg.n) < cfg.R - heat_reach
            for a in cfg.alpha):
        raise ValueError(f"R = {cfg.R}, n = {cfg.n}: heat-selftest compares "
                         f"on x < R - {heat_reach:g}, which holds no node "
                         "of an axis")
    return parse_symbol(cfg.symbol, cfg.dims)


# each Lambda = R suite's peak, plan build included, by tracemalloc at
# R = 14, rounded up: float kernel matrices per axis, 2.2, 2.7 and 2.1 at
# d = 1 (1024, 2048 nodes; heat-selftest holds the plan's kernel matrix and
# the two arrays of axis_heat_matrix on the rows x < R - HEAT_MARGIN sqrt(t),
# which never reach the whole axis, since the ppw gate keeps R <=
# sqrt(pi N / 2); at the largest R it admits, 2.9 at 2048 nodes and 3.2 at
# 1024, the kernel tables below included), and complex value tensors,
# 3.7, 1.2 and 9.6 at d = 3 (48^3, 64^3); the self-tests transform their
# inputs axis by axis and form only real value tensors, of products of the
# transformed factors.  tracemalloc sees numpy's arrays only, not the
# workspace that LAPACK and BLAS allocate for themselves; the largest such
# call, the d = 2 lp-probe's factorization, is judged by its growth of the
# resident set at n = 512, of the 52.0 MiB budget: 27.2 MiB at p = 2, which
# forms no image, 31.6 MiB at p = 3, and 49.3 MiB at either p for the
# divergent symbol, whose whole symbol matrix is factored; the budget keeps
# 10 tensors, since p != 2 still forms images
RUN_PEAK = {"transform-selftest": (2, 7), "heat-selftest": (3, 8),
            "lp-probe": (2, 10)}
# per axis besides: the Bessel kernel tables of its order (J and scaled I,
# up to 1.3 MB each) while one is built, and the kernel's evaluation blocks
# (0.4 MB); 1.8 MB at d = 1 and 4.1 MB at d = 3, R = 24, by tracemalloc
KERNEL_TABLE_PEAK = 2 << 20


def _estimate_run_bytes(suite, dims, nodes):
    """Peak bytes of a Lambda = R suite on a grid of `nodes` nodes per axis."""
    matrices, tensors = RUN_PEAK[suite]
    return (matrices * dims * nodes * nodes * 8 + tensors * nodes**dims * 16
            + dims * KERNEL_TABLE_PEAK)


def _plan(cfg):
    return TransformPlan.build(Grid.build(cfg.alpha, R=cfg.R, n=cfg.n))


# multiplier-check's peak per point of its samples^d Sobolev box, by
# tracemalloc, rounded up: 42.9 bytes at d = 1 (65,536 samples; 50.8 at
# 16,384, where the fixed part below weighs in) and 15.7 at d = 2 (1024^2),
# the window's weight lattice (1+|xi|^2)^beta, 8 bytes formed in place,
# beside the first call on it; a warm call adds 28 bytes at d = 1, where
# the one line is the whole box, and 6.0 at d = 2, the once-transformed
# block and one slab; besides, up to 0.18 MB that does not grow with the
# box, mostly numpy.fft's first import
BOX_PEAK = 48
BOX_FIXED_PEAK = 1 << 18
# the potential symbol's peak per point of its BOX_SAMPLES^dims table, by
# tracemalloc, rounded up: 89 bytes at d = 2 and 97 at d = 3 (on a 96^3
# box) for h = bump, 72 for sign and cos; the mesh of the box alone is 8
# bytes per point per axis, so the 512^3 table of d = 3, 13 GB, cannot run
POTENTIAL_PEAK = 100


def _estimate_box_bytes(dims):
    """Peak bytes of multiplier-check's Sobolev box in `dims` dimensions."""
    return BOX_PEAK * box_samples(dims) ** dims + BOX_FIXED_PEAK


# ---------------------------------------------------------------------------
# suites

def suite_transform_selftest(cfg, sym):
    plan = _plan(cfg)
    grid = plan.grid
    rng = np.random.default_rng(cfg.seed)
    rep = EstimateReport(
        name="transform_selftest",
        parameters={"alpha": list(cfg.alpha), "n": cfg.n, "R": cfg.R},
        provenance="Plancherel identity and self-inversion battery",
    )
    draws = [(rng.uniform(cfg.R / 8, cfg.R / 3, size=cfg.dims),
              rng.uniform(0.8, 2.0)) for _ in range(8)]
    centres = np.array([c for c, _ in draws])
    widths = np.array([w for _, w in draws])
    # Gaussian i is the product over the axes k of factors[k][:, i]
    factors = [np.exp(-(((ax.nodes[:, None] - centres[:, k]) / widths) ** 2))
               for k, ax in enumerate(grid.axes)]
    spec = plan.forward_factors(factors)
    back = plan.inverse_factors(spec)
    worst_pl, worst_inv = 0.0, 0.0
    for i in range(8):
        f, g, fb = (GridFunction(on, product_values([F[:, i] for F in fs]))
                    for on, fs in ((grid, factors), (plan.dual_grid, spec),
                                   (grid, back)))
        pl = abs(norm(g, 2.0) / norm(f, 2.0) - 1.0)
        inv = norm(fb - f, 2.0) / norm(f, 2.0)
        worst_pl, worst_inv = max(worst_pl, pl), max(worst_inv, inv)
        rep.add(f"plancherel_dev@f{i}", pl)
        rep.add(f"inversion_err@f{i}", inv)
    rep.fitted_constants["max_plancherel_deviation"] = worst_pl
    rep.fitted_constants["max_inversion_error"] = worst_inv
    rep.verdict = PASS if (worst_pl <= 1e-6 and worst_inv <= 1e-6) else FAIL
    return [rep]


def suite_heat_selftest(cfg, sym):
    alpha = MultiIndex(cfg.alpha)
    hk = HeatKernelEval(alpha)
    plan = _plan(cfg)
    grid = plan.grid
    # the Gaussian centred at (2, ..., 2), e^{-t |lambda|^2} and the heat
    # kernel are all products over the axes: each route runs axis by axis
    f = [np.exp(-((ax.nodes - 2.0) ** 2)) for ax in grid.axes]
    spect = plan.inverse_factors([
        S[:, None] * np.exp(-np.multiply.outer(dax.nodes**2, HEAT_TIMES))
        for S, dax in zip(plan.forward_factors(f), plan.dual_grid.axes)])
    rep = EstimateReport(
        name="heat_selftest",
        parameters={"alpha": list(cfg.alpha), "n": cfg.n, "R": cfg.R},
        provenance="kernel route against the spectral Gaussian multiplier",
    )
    worst = 0.0
    for i, t in enumerate(HEAT_TIMES):
        # the routes are compared on the rows x_k < R - HEAT_MARGIN sqrt(t)
        rows = [slice(0, np.count_nonzero(
            ax.nodes < cfg.R - HEAT_MARGIN * np.sqrt(t))) for ax in grid.axes]
        kern = [_contract((axis_heat_matrix(a, t, ax, r),), F)
                for a, ax, r, F in zip(alpha.alpha, grid.axes, rows, f)]
        dev = float(np.max(np.abs(
            product_values(kern)
            - product_values([S[r, i] for S, r in zip(spect, rows)]))))
        rep.add(f"route_deviation@t={t}", dev)
        worst = max(worst, dev)
    rng = np.random.default_rng(cfg.seed)
    samples = [(float(np.exp(rng.uniform(-2, 2))),
                rng.uniform(0.3, 5.0, cfg.dims),
                rng.uniform(0.3, 5.0, cfg.dims)) for _ in range(40)]
    gb = gaussian_bound_check(hk, samples)
    rep.fitted_constants["max_route_deviation"] = worst
    rep.fitted_constants["C_gauss"] = gb.fitted_constants["C_gauss"]
    rep.verdict = PASS if (worst <= 1e-6 and gb.verdict == PASS) else FAIL
    return [rep, gb]


def suite_multiplier_check(cfg, sym):
    # drops the profile's SpectralTailWarnings, 21 for the default symbol at
    # d = 1 and at d = 2: the box samples leave a Nyquist tail of 1.0e-5
    # (d = 1) and 2.4e-3 (d = 2) of the norm at j = 0, above the 1e-8
    # threshold of local_sobolev_norm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SpectralTailWarning)
        prof = hormander_sup(sym, cfg.beta, (cfg.jmin, cfg.jmax))
    rep = EstimateReport(
        name="multiplier_check",
        parameters={"symbol": cfg.symbol, "beta": cfg.beta,
                    "j_range": [cfg.jmin, cfg.jmax]},
        provenance="dyadic localized Sobolev profile of the symbol",
    )
    for j in sorted(prof.norms):
        rep.add(f"norm@j={j}", prof.norms[j])
    flat = prof.flatness()
    rep.fitted_constants["sup_norm"] = prof.sup_norm
    rep.fitted_constants["flatness"] = flat
    rep.verdict = PASS if (np.isfinite(prof.sup_norm)
                           and flat <= 10.0) else FAIL
    return [rep]


def suite_cz_check(cfg, sym):
    return [cz_hormander_check(MultiIndex(cfg.alpha), sym)]


def suite_h1_check(cfg, sym):
    return [h1_atom_check(MultiIndex(cfg.alpha), sym)]


def suite_lp_probe(cfg, sym):
    plan = _plan(cfg)
    reps = [lp_norm_probe(plan, sym, cfg.p, seed=cfg.seed)]
    if cfg.dims == 1:
        reps.append(weak11_probe(plan, sym))
    return reps


# each suite takes the effective config and the parsed symbol
_SUITE_FNS = {
    "transform-selftest": suite_transform_selftest,
    "heat-selftest": suite_heat_selftest,
    "multiplier-check": suite_multiplier_check,
    "cz-check": suite_cz_check,
    "h1-check": suite_h1_check,
    "lp-probe": suite_lp_probe,
}
# the RunConfig fields each suite reads, the only ones its config hash covers
_GRID_KEYS = ("alpha", "dims", "n", "R")
_SUITE_READS = {
    "transform-selftest": _GRID_KEYS + ("seed",),
    "heat-selftest": _GRID_KEYS + ("seed",),
    "multiplier-check": ("dims", "symbol", "beta", "jmin", "jmax"),
    "cz-check": ("alpha", "dims", "symbol"),
    "h1-check": ("alpha", "dims", "symbol"),
    "lp-probe": _GRID_KEYS + ("symbol", "p", "seed"),
}


# ---------------------------------------------------------------------------
# artifacts

def _write_artifacts(cfg, suite, reports, outdir):
    digest = cfg.digest()
    meta = {"tool": "hankellab", "version": __version__,
            "config_hash": digest, "config": asdict(cfg)}
    payload = dict(meta, reports=[r.to_dict() for r in reports])
    with open(os.path.join(outdir, f"report-{suite}.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, f"data-{suite}.csv"), "w") as fh:
        fh.write(f"# hankellab {__version__} config {digest}\n")
        fh.write("report,descriptor,value\n")
        for r in reports:
            for d, v in r.measurements:
                fh.write(f"{r.name},{d},{v!r}\n")
    return meta


def _write_summary(all_reports, outdir):
    """One verdict line per (config hash, report), stamped with the hash of
    the report-<suite>.json the report was written to."""
    lines = [f"hankellab {__version__}"]
    for digest, r in all_reports:
        lines.append(f"{r.verdict.upper():14s} {r.name}  config {digest}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# entry point

def _make_parser():
    parser = argparse.ArgumentParser(
        prog="hankellab",
        description="Hankel-transform multiplier laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*_SUITE_FNS, "suite"]:
        p = sub.add_parser(name)
        if name == "suite":
            p.add_argument("which", help="'all' or comma list of suites")
        p.add_argument("--config", default=None,
                       help="flat key=value config file (flags win)")
        # kept as text; build_config converts them like config-file values
        for key in CONFIG_KEYS:
            p.add_argument(f"--{key}", default=None)
    return parser


def main(argv=None):
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = build_config(args)
        names = _suite_names(args)
        sym = _check_config(cfg, names)
        os.makedirs(cfg.output, exist_ok=True)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    all_reports = []
    try:
        for name in names:
            cfg.suite = name
            reports = _SUITE_FNS[name](cfg, sym)
            digest = _write_artifacts(cfg, name, reports, cfg.output)[
                "config_hash"]
            all_reports.extend((digest, r) for r in reports)
    except Exception as exc:  # runtime failure of a suite
        print(f"suite error: {exc}", file=sys.stderr)
        return 1
    print(_write_summary(all_reports, cfg.output), end="")
    verdicts = {r.verdict for _, r in all_reports}
    if FAIL in verdicts:
        return 1
    if INCONCLUSIVE in verdicts:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
