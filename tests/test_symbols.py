"""Symbol families and the config mini-language."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

from hankellab import symbols
from hankellab.symbols import (_FAMILY_RE, FAMILIES, Symbol, bump_symbol,
                               divergent_symbol, family_name, heat_symbol,
                               laplace_type_symbol, oscillatory_symbol,
                               parse_symbol, table_symbol)

import mpmath

mpmath.mp.dps = 25


class TestFamilies:
    def test_const_phi_is_indicator(self):
        n = laplace_type_symbol(1, "const")
        u = np.array([[0.5], [2.0], [7.0]])
        assert np.allclose(n(u), 1.0)

    def test_imag_power_modulus(self):
        # |Gamma(1+i gamma) s^{-i gamma}| = |Gamma(1+i gamma)| on s > 0
        g = 1.0
        n = laplace_type_symbol(1, "imag_power", gamma=g)
        want = float(abs(mpmath.gamma(1 + 1j * g)))
        u = np.array([[0.3], [1.0], [42.0]])
        assert np.allclose(np.abs(n(u)), want, rtol=1e-12)
        assert n.sup_norm == pytest.approx(want, rel=1e-12)

    def test_imag_power_oracle_value(self):
        # n(s) = Gamma(1+i) s^{-i} against mpmath at s = 2
        n = laplace_type_symbol(1, "imag_power", gamma=1.0)
        got = complex(n(np.array([[2.0]]))[0])
        want = complex(mpmath.gamma(1 + 1j) * mpmath.mpf(2) ** (-1j))
        assert got == pytest.approx(want, rel=1e-12)

    def test_bump_support(self):
        n = bump_symbol(1)
        assert abs(n(np.array([[3.0]]))[0]) == 0.0

    def test_oscillatory_reduces_to_bump_modulus(self):
        n = oscillatory_symbol(1, 8)
        b = bump_symbol(1)
        u = np.array([[0.7], [1.3]])
        assert np.allclose(np.abs(n(u)), np.abs(b(u)))

    def test_divergent_bounded(self):
        n = divergent_symbol(1)
        u = np.geomspace(1e-6, 20.0, 200).reshape(-1, 1)
        assert np.max(np.abs(n(u))) <= 1.0 + 1e-12

    def test_heat_symbol(self):
        n = heat_symbol(1, t=2.0)
        assert complex(n(np.array([[3.0]]))[0]) == pytest.approx(np.exp(-6.0))

    def test_sup_norm_guard_trips(self):
        lying = Symbol(lambda u: 2.0 * np.ones(np.asarray(u).shape[:-1]),
                       1, sup_norm=1.0)
        with pytest.raises(RuntimeError):
            lying(np.array([[1.0]]))

    def test_dimension_guard(self):
        n = bump_symbol(2)
        with pytest.raises(ValueError):
            n(np.array([[1.0]]))


class TestMiniLanguage:
    @pytest.mark.parametrize("spec_str,name", [
        ("bump", "bump"),
        ("laplace_type{phi=const}", "laplace_type{phi=const}"),
        ("laplace_type{phi=imag_power:gamma=2.0}",
         "laplace_type{phi=imag_power:gamma=2.0}"),
        ("oscillatory{k=4}", "oscillatory{k=4.0}"),
        ("divergent", "divergent"),
        ("heat{t=0.5}", "heat{t=0.5}"),
        ("const{value=3.0}", "const{value=3.0}"),
    ])
    def test_parse_families(self, spec_str, name):
        n = parse_symbol(spec_str, 1)
        assert n.name == name
        assert n.d == 1

    def test_every_family_name_parses_back_to_itself(self, tmp_path):
        # reports record the name, so it must be a spec that rebuilds the
        # same symbol
        path = tmp_path / "tab.csv"
        path.write_text("u1,re_n,im_n\n0.0,1.0,0.0\n1.0,0.5,0.0\n")
        specs = {"laplace_type": "laplace_type{phi=imag_power:gamma=2}",
                 "bump": "bump", "oscillatory": "oscillatory{k=4}",
                 "potential": "potential{s=2,h=cos}",
                 "divergent": "divergent", "heat": "heat{t=0.5}",
                 "const": "const{value=2}",
                 "tabulated": f"tabulated{{path={path}}}"}
        assert set(specs) == set(FAMILIES)
        for spec in specs.values():
            name = parse_symbol(spec, 1).name
            assert parse_symbol(name, 1).name == name, spec

    @pytest.mark.parametrize("spec_str", [
        "bump", " potential{s=1,h=bump} ", "heat{t=0.5}",
        "laplace_type{phi=imag_power:gamma=2.0}", "const{value=3.0}"])
    def test_family_name_is_the_parsed_family(self, spec_str):
        assert family_name(spec_str) == \
            _FAMILY_RE.match(spec_str.strip()).group(1)
        parse_symbol(spec_str, 1)

    def test_parse_potential_family(self):
        n = parse_symbol("potential{s=2.0,h=bump}", 1)
        vals = n(np.linspace(-4, 4, 64).reshape(-1, 1))
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("bad", ["", "nope", "oscillatory{}",
                                     "bump}{", "laplace_type{phi=cubic}"])
    def test_parse_rejects(self, bad):
        with pytest.raises((ValueError, KeyError)):
            parse_symbol(bad, 1)

    def test_tabulated_roundtrip(self, tmp_path):
        u = np.linspace(-2, 2, 41)
        vals = np.exp(-u * u)
        path = tmp_path / "tab.csv"
        rows = ["u1,re_n,im_n"] + [f"{x},{v},0.0" for x, v in zip(u, vals)]
        path.write_text("\n".join(rows) + "\n")
        n = parse_symbol(f"tabulated{{path={path}}}", 1)
        probe = np.array([[0.0], [1.0], [3.0]])
        got = n(probe)
        assert abs(got[0] - 1.0) < 1e-12      # on a table node
        assert abs(got[2]) == 0.0             # outside the table


@pytest.mark.parametrize("bad", ["oscillatory", "potential{s=1}",
                                 "laplace_type{phi=imag_power}",
                                 "laplace_type{phi=imag_power:gamma}",
                                 "tabulated{}"])
def test_missing_argument_is_value_error(bad):
    with pytest.raises(ValueError, match="needs|bad symbol argument"):
        parse_symbol(bad, 1)


@pytest.mark.parametrize("bad,named", [
    ("heat{tt=2}", "tt"),
    ("bump{k=3}", "k"),
    ("oscillatory{k=4,t=1}", "t"),
    ("laplace_type{phi=imag_power:gamma=1.0,k=2}", "k"),
    ("laplace_type{phi=imag_power:foo=1,gamma=2}", "phi:foo"),
    ("laplace_type{phi=const,gamma=1}", "gamma"),
    ("heat{t=1,t=2}", "t"),
    ("laplace_type{phi=imag_power:gamma=1,gamma=2}", "gamma"),
])
def test_key_the_family_does_not_take_is_value_error(bad, named):
    with pytest.raises(ValueError, match=rf"(does not take|takes no) {named}\b"):
        parse_symbol(bad, 1)


def test_family_table_and_its_docs_agree():
    # the README's mini-language list and the module docstring name every
    # family the parser builds, and no other
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Symbol mini-language", 1)[1].split("\n## ")[0]
    in_readme = set(re.findall(r"^\* `(\w+)", section, re.M))
    in_docstring = set(re.findall(r"^  (\w+)", symbols.__doc__, re.M))
    assert in_readme == set(FAMILIES)
    assert in_docstring == set(FAMILIES)


def test_tabulated_with_wrong_columns_is_value_error(tmp_path):
    path = tmp_path / "tab.csv"
    path.write_text("u1,re_n\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="columns"):
        parse_symbol(f"tabulated{{path={path}}}", 1)


def write_table(path, rows):
    """A tabulated-symbol CSV of rows (u_1..u_d, Re n, Im n)."""
    d = len(rows[0]) - 2
    head = ",".join([f"u{k + 1}" for k in range(d)] + ["re_n", "im_n"])
    path.write_text("\n".join([head] + [",".join(map(repr, r)) for r in rows])
                    + "\n")
    return f"tabulated{{path={path}}}"


class TestTabulatedFile:
    def test_rows_in_descending_order(self, tmp_path):
        spec = write_table(tmp_path / "tab.csv",
                           [(2.0, 20.0, 0.0), (1.0, 10.0, 0.0),
                            (0.0, 0.0, 0.0)])
        n = parse_symbol(spec, 1)
        assert list(n(np.array([[0.0], [1.0], [2.0]]))) == [0.0, 10.0, 20.0]

    def test_rows_with_the_first_coordinate_fastest(self, tmp_path):
        # n(u_1, u_2) = u_1 + 2 u_2 + 1, listed with u_1 varying fastest
        rows = [(u1, u2, u1 + 2.0 * u2 + 1.0, 0.0)
                for u2 in (0.0, 1.0) for u1 in (0.0, 1.0)]
        n = parse_symbol(write_table(tmp_path / "tab.csv", rows), 2)
        nodes = np.array([r[:2] for r in rows])
        assert list(n(nodes)) == [r[2] for r in rows]

    @pytest.mark.parametrize("rows,named", [
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], "3 rows"),
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)],
         "5 rows"),
        ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1.0)], "listed twice"),
    ], ids=["missing-node", "repeated-node", "repeated-for-missing"])
    def test_not_one_row_per_node_is_value_error(self, rows, named,
                                                 tmp_path):
        rows = [r + (1.0, 0.0) for r in rows]
        with pytest.raises(ValueError, match=named):
            parse_symbol(write_table(tmp_path / "tab.csv", rows), 2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_entry_is_value_error(self, bad, column, tmp_path):
        rows = [[0.0, 1.0, 0.0], [1.0, 0.5, 0.0]]
        rows[1][column] = bad
        with pytest.raises(ValueError, match="finite"):
            parse_symbol(write_table(tmp_path / "tab.csv", rows), 1)


_AXIS = st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4, unique=True)


@given(u1=_AXIS, u2=_AXIS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_tabulated_symbol_does_not_depend_on_row_order(u1, u2, data,
                                                       tmp_path_factory):
    rows = [(a, b, a - b * b, a * b) for a in sorted(u1) for b in sorted(u2)]
    order = data.draw(st.permutations(range(len(rows))))
    root = tmp_path_factory.mktemp("tab")
    sorted_n = parse_symbol(write_table(root / "sorted.csv", rows), 2)
    n = parse_symbol(write_table(root / "shuffled.csv",
                                 [rows[i] for i in order]), 2)
    nodes = np.array([r[:2] for r in rows])
    probe = np.concatenate([nodes, (nodes + nodes[::-1]) / 2.0])
    assert list(n(nodes)) == [complex(r[2], r[3]) for r in rows]
    np.testing.assert_array_equal(n(probe), sorted_n(probe))


@st.composite
def _tables(draw):
    """(axis coordinates, complex values) of a random box table in d = 1, 2
    or 3: each axis 1 to 5 nodes with unequal gaps."""
    coords = []
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.floats(-4.0, 4.0))
        gaps = draw(st.lists(st.floats(0.05, 2.0), max_size=4))
        coords.append(start + np.cumsum([0.0] + gaps))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = [c.size for c in coords]
    return coords, rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _coordinate(c):
    """A node, so that points fall on faces and at corners; a point just
    outside either end; or any point up to 1 beyond the ends."""
    lo, hi = float(c[0]), float(c[-1])
    return st.one_of(st.sampled_from(c.tolist()),
                     st.sampled_from([np.nextafter(lo, -np.inf), lo - 1e-9,
                                      np.nextafter(hi, np.inf), hi + 1e-9]),
                     st.floats(lo - 1.0, hi + 1.0))


@given(table=_tables(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_table_symbol_matches_regular_grid_interpolator(table, data):
    # multilinear inside the box and 0 outside it, as scipy's linear
    # RegularGridInterpolator with fill_value 0; on a one-node axis, the
    # node's value there and 0 elsewhere
    coords, vals = table
    pts = np.array(data.draw(st.lists(
        st.tuples(*map(_coordinate, coords)), min_size=1, max_size=16)))
    sup = float(np.max(np.abs(vals)))
    got = table_symbol(coords, vals, sup + 1e-12, "table")(pts)
    want = RegularGridInterpolator(coords, vals, method="linear",
                                   bounds_error=False, fill_value=0.0)(pts)
    assert np.max(np.abs(got - want)) <= 1e-13 * sup


# the keys each family takes, written out here as the oracle for the parser
_TAKES = {"laplace_type": {"phi", "gamma"}, "bump": set(), "oscillatory": {"k"},
          "potential": {"s", "h"}, "divergent": set(), "heat": {"t"},
          "const": {"value"}, "tabulated": {"path"}}
_FAMILIES = sorted(_TAKES) + ["nope"]
_KEYS = ["phi", "gamma", "k", "s", "h", "t", "value", "path"]
_VALUES = st.one_of(st.floats().map(repr), st.text(max_size=8),
                    st.sampled_from(["const", "imag_power", "imag_power:gamma=1",
                                     "imag_power:gamma", "bump", "cos"]))
# path-like values stay inside one directory level, so no device file is read
_SPECS = st.builds(
    lambda fam, items: fam + "{" + ",".join(f"{k}={v}" for k, v in items) + "}",
    st.sampled_from(_FAMILIES),
    st.lists(st.tuples(st.one_of(st.sampled_from(_KEYS), st.text(max_size=4)),
                       _VALUES.filter(lambda v: "/" not in v)), max_size=4))


@given(spec=st.one_of(st.text(), _SPECS))
@settings(max_examples=300, deadline=None)
def test_parse_symbol_returns_symbol_or_value_error(spec):
    try:
        sym = parse_symbol(spec, 1)
    except ValueError:
        return
    except OSError:
        # the one other outcome: a tabulated path that cannot be read
        assert spec.strip().startswith("tabulated")
        return
    assert isinstance(sym, Symbol)
    # an accepted spec names only keys its family takes
    fam, _, argstr = spec.strip().partition("{")
    for part in filter(None, (p.strip() for p in argstr[:-1].split(","))):
        key, _, val = (s.strip() for s in part.partition("="))
        assert key in _TAKES[fam]
        if key == "phi" and ":" in val:
            assert val.split(":", 1)[1].split("=", 1)[0].strip() == "gamma"
