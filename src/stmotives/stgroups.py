"""Catalog of the 26 candidate Sato-Tate groups and their exact moments.

Each group is a finite list of connected components carrying equal Haar
mass.  A component is described by the four eigenvalues of its elements,
each a root of unity (in Z[zeta_24]) times a Laurent monomial in torus
variables; each variable carries a measure kind, its Weyl density against
the uniform measure on the circle (E[u^e] = coefficient of u^-e over the
constant term; see laurent.expectation):

  circle   1                                      E[u^j] = [j == 0]
  su2      2 - v^2 - v^-2                         E[v^j] = [j == 0] - [|j| == 2]/2
  su2sqrt  2 - h^4 - h^-4  (h^2 is an su2 variable; odd powers of h average 0)
  usp4     (v1-1/v1)^2 (v2-1/v2)^2 (v1+1/v1-v2-1/v2)^2 on a pair, constant term 8

Components whose elements are not plain torus translates (the J-cosets,
the swap coset of N(G_{3,3}), the antidiagonal cosets in the U(1)xU(1)
normalizer family) are encoded through reduced spectra: their squares land
back on a torus, so an auxiliary square-root variable (su2sqrt, or a fresh
circle variable for a product of two circle angles) captures the exact
eigenvalue distribution.  Every printed group moment and every (d, c, z1,
z2) invariant is reproduced by this encoding; the regression suite pins
all of them.

Moments are computed once.  The components of the catalog (86 of them)
carry only 22 distinct spectra, and a component's moments depend on
its spectrum alone, so the one memo `_SERIES` maps each (measure kinds,
spectrum, coefficient) key to the plain tuple (f, f^k, (E[f^0], ..., E[f^k]))
for f = a1 or a2, extended lazily by one Laurent product per new order up
to the largest order asked so far.  On top of it `moment` is memoized
on the group object (its content, not its name), so repeated tables and
`stats.classify` calls reuse every exact moment.  Nothing is computed at
import time; `laurent.lp_pow` stays as the independent oracle of the tests.
The Monte-Carlo oracle `sample_many` shares only the spectra with this
engine: it forms a1 and a2 from each draw's four eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations

from .laurent import (
    expectation as lp_expectation,
    lp_add,
    lp_const,
    lp_mul,
    lp_term,
)


@dataclass(frozen=True)
class Component:
    """One connected component: the measure kind of each torus variable and
    four eigenvalues, each (zeta24 power, exps)."""

    label: str
    kinds: tuple[str, ...]
    eigen: tuple[tuple[int, tuple[int, ...]], ...]

    def charpoly_coeff(self, coeff: str) -> dict:
        """a1 = -sum(lam) = sum(zeta_24^12 lam), with no product, or
        a2 = e2(lam) as a Laurent polynomial."""
        if coeff == "a1":
            return reduce(lp_add, (lp_term(exps, zp + 12) for zp, exps in self.eigen), {})
        lams = [lp_term(exps, zp) for zp, exps in self.eigen]
        return reduce(lp_add, (lp_mul(a, b) for a, b in combinations(lams, 2)), {})


@dataclass(frozen=True)
class STGroup:
    name: str
    dim: int
    component_group: str
    components: tuple[Component, ...]
    catalog_index: int = field(default=0, compare=False)

    @property
    def num_components(self) -> int:
        return len(self.components)


# ---------------------------------------------------------------------------
# catalog construction

_U = ("circle",)  # u
_V = ("su2",)  # v
_UV = ("circle", "su2")  # u, v
_U12 = ("circle", "circle")  # u1, u2
_Q = ("circle",)  # q, a square root of u1*u2 (or u1/u2)
_H = ("su2sqrt",)  # h
_V12 = ("su2", "su2")  # v1, v2
_VJ = ("usp4", "usp4")  # v1, v2


def _hodge_circle_comp(label: str, zpow: int) -> Component:
    # eigenvalues {z u^3, u, 1/u, conj(z)/u^3} with z = zeta_24^zpow
    return Component(
        label, _U, ((zpow, (3,)), (0, (1,)), (0, (-1,)), (-zpow % 24, (-3,)))
    )


def _j_comp(label: str) -> Component:
    # every element of a J-coset has eigenvalues {i, -i, i, -i}
    return Component(label, (), ((6, ()), (18, ()), (6, ()), (18, ())))


def _sqrt_circle_comp(label: str) -> Component:
    # spectrum {w, -w, conj(w), -conj(w)} with w^2 uniform on U(1):
    # encode w = i*q, q uniform (a1 = 0, a2 = q^2 + q^-2)
    return Component(label, _Q, ((6, (1,)), (18, (1,)), (18, (-1,)), (6, (-1,))))


def _eighth_roots_comp(label: str) -> Component:
    # constant spectrum = primitive 8th roots of unity (a1 = a2 = 0)
    return Component(label, (), ((3, ()), (9, ()), (15, ()), (21, ())))


def _f_family_comp(word: str) -> Component:
    # cosets of U(1)xU(1) by words in the generators a, b, c
    if word == "e":
        return Component("e", _U12, ((0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))))
    if word == "a":
        return Component("a", _U12, ((6, (0, 0)), (18, (0, 0)), (0, (0, 1)), (0, (0, -1))))
    if word == "b":
        return Component("b", _U12, ((0, (1, 0)), (0, (-1, 0)), (6, (0, 0)), (18, (0, 0))))
    if word == "ab":
        return _j_comp("ab")
    if word in ("c", "abc"):
        return _sqrt_circle_comp(word)
    if word in ("ac", "bc", "ac^3"):
        return _eighth_roots_comp(word)
    if word == "ac^2":
        return _j_comp("ac^2")
    raise ValueError(word)


def _build_catalog() -> tuple[STGroup, ...]:
    groups: list[STGroup] = []

    def add(name, dim, cgrp, comps):
        groups.append(STGroup(name, dim, cgrp, tuple(comps), len(groups)))

    # U(1) identity component: C_n and J(C_n), n in {1, 2, 3, 4, 6}
    for n in (1, 2, 3, 4, 6):
        comps = [_hodge_circle_comp(f"zeta^{k}", 24 * k // n) for k in range(n)]
        add(f"C{n}", 1, f"C{n}", comps)
    for n in (1, 2, 3, 4, 6):
        comps = [_hodge_circle_comp(f"zeta^{k}", 24 * k // n) for k in range(n)]
        comps += [_j_comp(f"zeta^{k} J") for k in range(n)]
        add(f"J(C{n})", 1, f"D{n}", comps)

    # SU(2) via Sym^3
    add("D", 3, "C1", [Component("e", _V, ((0, (3,)), (0, (1,)), (0, (-1,)), (0, (-3,))))])

    # U(2) and its normalizer
    u2 = Component("e", _UV, ((0, (1, 1)), (0, (1, -1)), (0, (-1, 1)), (0, (-1, -1))))
    ju2 = Component("J", _V, ((0, (1,)), (12, (1,)), (0, (-1,)), (12, (-1,))))
    add("U(2)", 4, "C1", [u2])
    add("N(U(2))", 4, "C2", [u2, ju2])

    # U(1)xU(1) family: (name, component group, words)
    for name, cgrp, words in (
        ("F", "C1", ["e"]),
        ("F_a", "C2", ["e", "a"]),
        ("F_c", "C2", ["e", "c"]),
        ("F_{ab}", "C2", ["e", "ab"]),
        ("F_{ac}", "C4", ["e", "ac", "ac^2", "ac^3"]),
        ("F_{a,b}", "D2", ["e", "a", "b", "ab"]),
        ("F_{ab,c}", "D2", ["e", "ab", "c", "abc"]),
        ("F_{a,b,c}", "D4", ["e", "a", "b", "ab", "c", "ac", "bc", "abc"]),
    ):
        add(name, 2, cgrp, [_f_family_comp(w) for w in words])

    # U(1)xSU(2) and SU(2)xSU(2)
    g13 = Component("e", _UV, ((0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))))
    ag13 = Component("a", _V, ((6, (0,)), (18, (0,)), (0, (1,)), (0, (-1,))))
    add("G_{1,3}", 4, "C1", [g13])
    add("N(G_{1,3})", 4, "C2", [g13, ag13])

    g33 = Component("e", _V12, ((0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))))
    swap = Component("swap", _H, ((0, (1,)), (12, (1,)), (0, (-1,)), (12, (-1,))))
    add("G_{3,3}", 6, "C1", [g33])
    add("N(G_{3,3})", 6, "C2", [g33, swap])

    # the full group
    add("USp(4)", 10, "C1", [Component("e", _VJ, ((0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (0, (0, -1))))])

    assert len(groups) == 26
    return tuple(groups)


_CATALOG = _build_catalog()
_BY_NAME = {g.name: g for g in _CATALOG}

# the printed table orders: a1 moments M_2..M_16, a2 moments M_1..M_9
TABLE_ORDERS = {"a1": tuple(range(2, 17, 2)), "a2": tuple(range(1, 10))}


def catalog() -> tuple[STGroup, ...]:
    """The 26 candidate groups, in their standard order."""
    return _CATALOG


def group(g: STGroup | str) -> STGroup:
    """The catalog group named g; a group object is returned as it is."""
    return _BY_NAME[g] if isinstance(g, str) else g


# ---------------------------------------------------------------------------
# moments and invariants


def _check_moment_args(coeff: str, n: int) -> None:
    if coeff not in ("a1", "a2"):
        raise ValueError("coeff must be 'a1' or 'a2'")
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"moment order must be a non-negative int, got {n!r}")


# (measure kinds, spectrum, coeff) -> (f, f^k, (E[f^0], ..., E[f^k])), the
# one memo of the engine: filled on first use, extended by one product with f
# per new order, and stored back as one tuple per order, so a reader never
# sees f^k with another order's expectations
_SERIES: dict[tuple, tuple] = {}


def component_moment(comp: Component, coeff: str, n: int) -> Fraction:
    """Exact E[coeff^n] over one component (shared by equal spectra)."""
    _check_moment_args(coeff, n)
    key = (comp.kinds, comp.eigen, coeff)
    if key not in _SERIES:
        one = lp_const(len(comp.kinds), 1)
        _SERIES[key] = (comp.charpoly_coeff(coeff), one, (lp_expectation(one, comp.kinds),))
    f, power, values = _SERIES[key]
    while len(values) <= n:
        power = lp_mul(power, f)
        values += (lp_expectation(power, comp.kinds),)
        _SERIES[key] = (f, power, values)
    return values[n]


def moment(g: STGroup | str, coeff: str, n: int) -> int:
    """Exact n-th moment of a1 or a2 over the group (always an integer)."""
    _check_moment_args(coeff, n)
    return _group_moment(group(g), coeff, n)


@cache
def _group_moment(g: STGroup, coeff: str, n: int) -> int:
    # keyed on the group's content: a caller-built group that reuses a
    # catalog name with other components gets its own moments
    total = sum(component_moment(c, coeff, n) for c in g.components)
    val = Fraction(total, g.num_components)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer moment {val} for {g.name} {coeff} M_{n}")
    return int(val)


def invariants(g: STGroup | str) -> tuple[int, int, int, list[int], str]:
    """(d, c, z1, z2, component group label) recomputed from the catalog.

    z1 counts components on which a1 is identically 0; z2[j+2] counts
    components on which a2 is identically the integer j, -2 <= j <= 2.
    """
    g = group(g)
    z1 = 0
    z2 = [0, 0, 0, 0, 0]
    for comp in g.components:
        if comp.charpoly_coeff("a1") == {}:  # zero is the empty dict
            z1 += 1
        const = (0, (0,) * len(comp.kinds))
        a2 = comp.charpoly_coeff("a2")
        v = a2.get(const, 0)
        if a2.keys() <= {const} and -2 <= v <= 2:
            z2[v + 2] += 1
    return g.dim, g.num_components, z1, z2, g.component_group


# ---------------------------------------------------------------------------
# Monte-Carlo sampling oracle


def sample_many(g: STGroup | str, count: int, seed: int = 0):
    """count Haar draws of (a1, a2), from each component's spectrum alone:
    eigenvalue phases pi k / 12 + <exps, angles>, then a1 = -sum(lam) and
    a2 = e2(lam) = (sum(lam)^2 - sum(lam^2)) / 2.  numpy-vectorized."""
    import numpy as np

    g = group(g)
    rng = np.random.default_rng(seed)
    c = g.num_components
    counts = np.bincount(rng.integers(0, c, size=count), minlength=c)
    out1, out2 = np.empty(count), np.empty(count)
    pos = 0
    for comp, m in zip(g.components, counts):
        m = int(m)
        if m == 0:
            continue
        kinds = comp.kinds
        if "usp4" in kinds:
            angs = _rejection_np(rng, m, 2, 3, _usp4_accept)
        else:
            angs = np.column_stack([_angles_np(k, rng, m) for k in kinds]) if kinds else np.zeros((m, 0))
        s1, s2 = np.zeros(m, complex), np.zeros(m, complex)  # sum(lam), sum(lam^2)
        for k, exps in comp.eigen:  # one eigenvalue at a time, in place
            lam = 1j * (np.pi * k / 12 + angs @ exps)
            s1 += np.exp(lam, out=lam)
            s2 += np.square(lam, out=lam)
        if max(np.abs(s1.imag).max(), np.abs(s2.imag).max()) > 1e-8:
            raise ArithmeticError(f"non-real samples on {g.name} component {comp.label}")
        out1[pos : pos + m] = -s1.real
        out2[pos : pos + m] = ((s1 * s1).real - s2.real) / 2
        pos += m
    return out1, out2


def _angles_np(kind, rng, m):
    import numpy as np

    if kind == "circle":
        return rng.uniform(0.0, 2.0 * np.pi, size=m)
    out = _rejection_np(rng, m, 1, 2, lambda t: np.sin(t) ** 2)[:, 0]
    return out if kind == "su2" else out / 2.0


def _rejection_np(rng, m, dims, oversample, weight):
    """m draws of `dims` angles in [0, pi), accepted with probability
    weight(t_1, ..., t_dims) <= 1.  Each round draws oversample * (m - have)
    + 16 candidates, one uniform array per angle and then one for the test."""
    import numpy as np

    out = np.empty((m, dims))
    have = 0
    while have < m:
        k = oversample * (m - have) + 16
        ts = [rng.uniform(0.0, np.pi, size=k) for _ in range(dims)]
        sel = rng.uniform(size=k) <= weight(*ts)
        kept = [t[sel] for t in ts]  # per angle: no (k, dims) copy of the candidates
        take = min(kept[0].size, m - have)
        for j, t in enumerate(kept):
            out[have : have + take, j] = t[:take]
        have += take
    return out


def _usp4_accept(t1, t2):
    """The USp(4) pair weight over its maximum: with a, b = cos t1, cos t2
    the weight (1-a^2)(1-b^2)(a-b)^2 peaks at 16/27, at a = -b = 1/sqrt(3)."""
    import numpy as np

    a, b = np.cos(t1), np.cos(t2)
    w = (a - b) ** 2 * (27 / 16)
    for c in (a, b):  # c^2 - 1 in place of 1 - c^2 (on arrays): the two signs cancel
        c *= c
        c -= 1
        w *= c
    return w


# ---------------------------------------------------------------------------
# table emission


def emit_group_table(coeff: str, names=None) -> str:
    """Tab-separated moment table (exact integers) for the requested groups."""
    if coeff not in TABLE_ORDERS:
        raise ValueError("coeff must be 'a1' or 'a2'")
    ns = TABLE_ORDERS[coeff]
    rows = ["#group\t" + "\t".join(f"M{n}" for n in ns)]
    for g in catalog():
        if names and g.name not in names:
            continue
        rows.append(g.name + "\t" + "\t".join(str(moment(g, coeff, n)) for n in ns))
    return "\n".join(rows) + "\n"
