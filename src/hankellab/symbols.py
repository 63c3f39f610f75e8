"""Multiplier symbols n on R^d (with m(lambda) = n(lambda_1^2, ..., lambda_d^2)),
their standard families, and the config-file mini-language.

Families (FAMILIES gives each its keys and builder):
  laplace_type{phi=const}              n = Xi (identically 1 on the quadrant)
  laplace_type{phi=imag_power:gamma=G} n = Xi * Gamma(1+iG) s^{-iG}, s = sum u_k
  bump                                 the radial partition bump in A_{1/2,2}
  oscillatory{k=K}                     eta(u) e^{i K u_1}
  potential{s=S,h=NAME}                h * G_S built constructively (see sobolev)
  divergent                            e^{i/s} * cutoff; the negative control
  heat{t=T}                            e^{-t (u_1+...+u_d)_+}, i.e. e^{-t|lambda|^2}
  const{value=V}                       the constant V
  tabulated{path=FILE}                 from CSV with columns u_1..u_d, Re n, Im n
"""

import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .dyadic import make_partition, smooth_chi, smoothstep
from .specfun import gamma_one_plus_i


@dataclass(frozen=True)
class Symbol:
    """A multiplier symbol n on R^d, its recorded sup norm and its name."""

    fn: callable
    d: int
    sup_norm: float
    name: str = "symbol"

    def __call__(self, u):
        """Evaluate n at points u with last axis of length d.

        The recorded sup norm is checked only at the points evaluated, so
        a symbol sampled on part of a grid is checked on that part only."""
        u = np.asarray(u, dtype=float)
        if u.shape[-1] != self.d:
            raise ValueError(f"expected last axis {self.d}, got {u.shape[-1]}")
        vals = np.asarray(self.fn(u))
        mags = np.abs(vals)
        if mags.size and float(np.max(mags)) > self.sup_norm * (1 + 1e-9):
            raise RuntimeError(
                f"symbol {self.name} exceeds its recorded sup norm: "
                f"{float(np.max(mags))} > {self.sup_norm}"
            )
        return vals


def _xi_cutoff(u):
    """Smooth 0-homogeneous angular cutoff: 1 on the open quadrant, 0 where
    u_1+...+u_d < |u|/d."""
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    s = np.sum(u, axis=-1)
    mag = np.sqrt(np.sum(u * u, axis=-1))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(mag > 0, s / np.where(mag > 0, mag, 1.0), 0.0)
    if d == 1:
        return (rho > 0).astype(float)
    # on the quadrant s >= |u|, i.e. rho >= 1; forbidden zone rho <= 1/d
    return smoothstep((rho - 1.0 / d) / (1.0 - 1.0 / d))


def laplace_type_symbol(d, phi, gamma=None):
    """Laplace-transform-type family n = Xi * s * int_0^inf e^{-t s} phi(t) dt."""
    if phi == "const":
        if gamma is not None:
            raise ValueError("phi=const takes no gamma")

        def fn(u):
            return _xi_cutoff(u).astype(complex)

        return Symbol(fn, d, 1.0, "laplace_type{phi=const}")
    if phi == "imag_power":
        if gamma is None:
            raise ValueError("phi=imag_power needs gamma=G")
        g = float(gamma)
        C = gamma_one_plus_i(g)

        def fn(u):
            xi = _xi_cutoff(u)
            s = np.sum(np.asarray(u, dtype=float), axis=-1)
            safe = np.where(s > 0, s, 1.0)
            return np.where(xi > 0, xi * C * safe ** (-1j * g), 0.0 + 0.0j)

        return Symbol(fn, d, float(abs(C)),
                      f"laplace_type{{phi=imag_power:gamma={g}}}")
    raise ValueError(f"unknown phi family: {phi}")


def bump_symbol(d):
    """The radial partition bump, a C_c^infty(A_{1/2,2}) representative."""
    psi = make_partition("plain")

    def fn(u):
        return psi(u).astype(complex)

    return Symbol(fn, d, 1.0, "bump")


def oscillatory_symbol(d, k):
    """eta(u) e^{i k u_1} with eta the radial bump window."""
    psi = make_partition("plain")
    k = float(k)

    def fn(u):
        u = np.asarray(u, dtype=float)
        return psi(u) * np.exp(1j * k * u[..., 0])

    return Symbol(fn, d, 1.0, f"oscillatory{{k={k}}}")


def divergent_symbol(d):
    """Negative control: e^{i/s} times a smooth cutoff at |u| = 8 to 16.

    Its localized Sobolev norms blow up as j -> -infty for beta >= 1."""
    def fn(u):
        u = np.asarray(u, dtype=float)
        s = np.sum(u, axis=-1)
        mag = np.sqrt(np.sum(u * u, axis=-1))
        env = smooth_chi(mag / 8.0)
        safe = np.where(np.abs(s) > 1e-300, s, 1.0)
        return np.where(np.abs(s) > 1e-300, env * np.exp(1j / safe), 0.0 + 0.0j)

    return Symbol(fn, d, 1.0, "divergent")


def heat_symbol(d, t):
    """Gaussian multiplier n(u) = e^{-t (u_1+...+u_d)_+} (m = e^{-t|lambda|^2};
    only u >= 0 is ever hit by m, the continuation is clipped to stay bounded)."""
    t = float(t)

    def fn(u):
        s = np.sum(np.asarray(u, dtype=float), axis=-1)
        return np.exp(-t * np.maximum(s, 0.0)).astype(complex)

    return Symbol(fn, d, 1.0, f"heat{{t={t}}}")


def constant_symbol(d, value):
    def fn(u):
        return np.full(np.asarray(u).shape[:-1], complex(value))

    return Symbol(fn, d, abs(complex(value)), f"const{{value={value}}}")


def table_symbol(coords, vals, sup, name):
    """Symbol from its values vals on the box grid with axis coordinates
    coords, each strictly increasing, multilinearly interpolated and zero
    outside the box.

    Per axis, a point's cell is the pair of nodes around it and its weight
    the linear one on the upper node; the value is the weighted sum over
    the cell's 2^d corners.  An axis of one node gives that node's value
    on it and 0 elsewhere."""
    coords = [np.asarray(c, dtype=float) for c in coords]
    d = len(coords)
    vals = np.asarray(vals)

    def fn(u):
        u = np.asarray(u, dtype=float)
        pts = u.reshape(-1, d)
        outside = np.zeros(len(pts), dtype=bool)
        cells = []  # per axis: (node index, weight) of the lower, upper node
        for c, x in zip(coords, pts.T):
            outside |= (x < c[0]) | (x > c[-1])
            x = np.clip(x, c[0], c[-1])
            lo = np.clip(np.searchsorted(c, x) - 1, 0, max(c.size - 2, 0))
            hi = np.minimum(lo + 1, c.size - 1)
            w = (x - c[lo]) / np.where(hi > lo, c[hi] - c[lo], 1.0)
            cells.append(((lo, 1.0 - w), (hi, w)))
        out = 0.0
        for corner in itertools.product(*cells):
            index, weights = zip(*corner)
            out = out + vals[index] * math.prod(weights)
        return np.where(outside, 0.0, out).reshape(u.shape[:-1])

    return Symbol(fn, d, sup, name)


def tabulated_symbol(path, d):
    """Symbol tabulated on a box grid, loaded from CSV (u_1..u_d, Re n, Im n)
    with one row per grid node, in any order; evaluated by multilinear
    interpolation, zero outside the table."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] == 0 or data.shape[1] != d + 2:
        raise ValueError(f"{path}: need rows of {d + 2} columns "
                         f"(u_1..u_{d}, Re n, Im n), got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: every entry must be finite")
    coords, index = zip(*(np.unique(data[:, k], return_inverse=True)
                          for k in range(d)))
    shape = tuple(c.size for c in coords)
    if data.shape[0] != math.prod(shape):
        raise ValueError(f"{path}: {data.shape[0]} rows for the {shape} box "
                         "grid its coordinates span; need one per node")
    # each row is placed by its coordinates, not by its place in the file
    node = np.ravel_multi_index(index, shape)
    if np.unique(node).size != node.size:
        raise ValueError(f"{path}: a node of the {shape} box grid is listed "
                         "twice and another is missing")
    vals = np.empty(node.size, dtype=complex)
    vals[node] = data[:, d] + 1j * data[:, d + 1]
    vals = vals.reshape(shape)
    return table_symbol(coords, vals, float(np.max(np.abs(vals))) + 1e-12,
                        f"tabulated{{path={path}}}")


_FAMILY_RE = re.compile(r"^(\w+)(?:\{(.*)\})?$")


def family_name(spec_str):
    """The family a symbol spec names, the text before its first '{',
    without parsing the arguments: for every spec parse_symbol accepts, the
    family _FAMILY_RE reads."""
    return spec_str.split("{", 1)[0].strip()


def _potential(d, a, need):
    from .sobolev import potential_symbol  # sobolev imports this module

    return potential_symbol(d, float(need("s")), need("h"))


# each family of the mini-language: the keys it takes (gamma may also sit
# under phi=MODE:gamma=G), each mapped to the least value of a numeric key
# or to None for a text key, and its builder from d, the given keys and
# need(key); _ANY is the least value of a key that takes any finite number
_ANY = -np.inf
FAMILIES = {
    "laplace_type": ({"phi": None, "gamma": _ANY},
                     lambda d, a, need: laplace_type_symbol(
                         d, a.get("phi", "const"), a.get("gamma"))),
    "bump": ({}, lambda d, a, need: bump_symbol(d)),
    "oscillatory": ({"k": _ANY},
                    lambda d, a, need: oscillatory_symbol(d, float(need("k")))),
    "potential": ({"s": 0.0, "h": None}, _potential),
    "divergent": ({}, lambda d, a, need: divergent_symbol(d)),
    "heat": ({"t": 0.0},
             lambda d, a, need: heat_symbol(d, float(a.get("t", 1.0)))),
    "const": ({"value": _ANY}, lambda d, a, need: constant_symbol(
        d, float(a.get("value", 1.0)))),
    "tabulated": ({"path": None},
                  lambda d, a, need: tabulated_symbol(need("path"), d)),
}


def parse_symbol(spec_str, d):
    """Parse the mini-language: family name plus {key=value,...} arguments.

    A malformed spec, an unknown family, a key the family does not take, a
    key given twice (gamma counts once whether plain or under phi=MODE:) or
    a numeric key that is not a finite number at least its family's least
    value raises ValueError; an unreadable tabulated path raises OSError.
    """
    m = _FAMILY_RE.match(spec_str.strip())
    if not m:
        raise ValueError(f"cannot parse symbol spec: {spec_str!r}")
    fam, argstr = m.group(1), m.group(2) or ""
    if fam not in FAMILIES:
        raise ValueError(f"unknown symbol family: {fam!r}")
    keys, build = FAMILIES[fam]
    args, phi_args, given = {}, {}, []
    for part in filter(None, (p.strip() for p in argstr.split(","))):
        if "=" not in part:
            raise ValueError(f"bad symbol argument: {part!r}")
        key, val = (s.strip() for s in part.split("=", 1))
        given.append(key)
        if key == "phi" and ":" in val:
            val, sub = val.split(":", 1)
            if "=" not in sub:
                raise ValueError(f"bad symbol argument: {part!r}")
            skey, sval = (s.strip() for s in sub.split("=", 1))
            phi_args[skey] = sval
            given.append(skey)
        args[key] = val
    repeated = sorted({k for k in given if given.count(k) > 1})
    if repeated:
        raise ValueError(f"symbol {spec_str!r}: {fam} does not take "
                         f"{', '.join(repeated)} twice")
    unknown = sorted(set(args) - set(keys)) \
        + sorted(f"phi:{k}" for k in set(phi_args) - {"gamma"})
    if unknown:
        takes = ", ".join(sorted(keys)) or "no keys"
        raise ValueError(f"symbol {spec_str!r}: {fam} does not take "
                         f"{', '.join(unknown)} (it takes {takes})")
    # what is left of phi_args is a gamma that no plain gamma= repeats
    args.update(phi_args)
    for key, val in args.items():
        least = keys[key]
        if least is None:  # a text key
            continue
        try:
            num = float(val)
        except ValueError:
            num = np.nan
        if not (np.isfinite(num) and num >= least):
            bound = f" >= {least:g}" if least > _ANY else ""
            raise ValueError(f"symbol {spec_str!r}: {key} = {val!r} must be "
                             f"a finite number{bound}")

    def need(key):
        if key not in args:
            raise ValueError(f"symbol {spec_str!r} needs {key}=...")
        return args[key]

    return build(d, args, need)
