"""Catalog of the 26 candidate Sato-Tate groups and their exact moments.

Each group is a finite list of connected components carrying equal Haar
mass.  A component is described by the four eigenvalues of its elements,
each a root of unity (in Z[zeta_24]) times a Laurent monomial in torus
variables; the variables carry expectation functionals ("measures") that
realize Weyl integration:

  circle   E[u^j] = [j == 0]                      (uniform on U(1))
  su2      E[v^j] = [j == 0] - [|j| == 2]/2       (Weyl measure of SU(2))
  su2sqrt  h = sqrt of an su2 eigenvalue          (only even powers occur)
  usp4     joint pair measure of the USp(4) torus

Components whose elements are not plain torus translates (the J-cosets,
the swap coset of N(G_{3,3}), the antidiagonal cosets in the U(1)xU(1)
normalizer family) are encoded through reduced spectra: their squares land
back on a torus, so an auxiliary square-root variable (su2sqrt, or a fresh
circle variable for a product of two circle angles) captures the exact
eigenvalue distribution.  Every printed group moment and every (d, c, z1,
z2) invariant is reproduced by this encoding; the regression suite pins
all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .laurent import (
    expectation as lp_expectation,
    lp_add,
    lp_const,
    lp_constant_value,
    lp_mul,
    lp_neg,
    lp_pow,
    lp_term,
    zeta24_power,
)


@dataclass(frozen=True)
class TorusVar:
    name: str
    kind: str  # one of laurent.MEASURE_KINDS


@dataclass(frozen=True)
class Component:
    """One connected component: four eigenvalues, each (zeta24 power, exps)."""

    label: str
    vars: tuple[TorusVar, ...]
    eigen: tuple[tuple[int, tuple[int, ...]], ...]

    def charpoly_coeffs(self) -> tuple[dict, dict]:
        """(a1, a2) as Laurent polynomials: a1 = -sum(lam), a2 = e2(lam)."""
        n = len(self.vars)
        lams = [lp_term(exps, zeta24_power(zp)) for zp, exps in self.eigen]
        a1 = lp_const(n, (0,) * 8)
        for lam in lams:
            a1 = lp_add(a1, lam)
        a1 = lp_neg(a1)
        a2 = lp_const(n, (0,) * 8)
        for i in range(4):
            for j in range(i + 1, 4):
                a2 = lp_add(a2, lp_mul(lams[i], lams[j]))
        return a1, a2

    def kinds(self) -> tuple[str, ...]:
        return tuple(v.kind for v in self.vars)


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

_U = (TorusVar("u", "circle"),)
_V = (TorusVar("v", "su2"),)
_UV = (TorusVar("u", "circle"), TorusVar("v", "su2"))
_U12 = (TorusVar("u1", "circle"), TorusVar("u2", "circle"))
_Q = (TorusVar("q", "circle"),)  # stands for a square root of u1*u2 (or u1/u2)
_H = (TorusVar("h", "su2sqrt"),)
_V12 = (TorusVar("v1", "su2"), TorusVar("v2", "su2"))
_VJ = (TorusVar("v1", "usp4"), TorusVar("v2", "usp4"))


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

    # U(1)xU(1) family
    f_words = {
        "F": ["e"],
        "F_a": ["e", "a"],
        "F_c": ["e", "c"],
        "F_{ab}": ["e", "ab"],
        "F_{ac}": ["e", "ac", "ac^2", "ac^3"],
        "F_{a,b}": ["e", "a", "b", "ab"],
        "F_{ab,c}": ["e", "ab", "c", "abc"],
        "F_{a,b,c}": ["e", "a", "b", "ab", "c", "ac", "bc", "abc"],
    }
    f_cgrp = {
        "F": "C1",
        "F_a": "C2",
        "F_c": "C2",
        "F_{ab}": "C2",
        "F_{ac}": "C4",
        "F_{a,b}": "D2",
        "F_{ab,c}": "D2",
        "F_{a,b,c}": "D4",
    }
    for name in ("F", "F_a", "F_c", "F_{ab}", "F_{ac}", "F_{a,b}", "F_{ab,c}", "F_{a,b,c}"):
        add(name, 2, f_cgrp[name], [_f_family_comp(w) for w in f_words[name]])

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


def catalog() -> tuple[STGroup, ...]:
    """The 26 candidate groups, in their standard order."""
    return _CATALOG


def group(name: str) -> STGroup:
    return _BY_NAME[name]


# ---------------------------------------------------------------------------
# moments and invariants


def expectation(expr: dict, vars: tuple[TorusVar, ...]) -> Fraction:
    """Exact Haar expectation of a Laurent expression in the given vars."""
    return lp_expectation(expr, tuple(v.kind for v in vars))


def component_moment(comp: Component, coeff: str, n: int) -> Fraction:
    a1, a2 = comp.charpoly_coeffs()
    expr = a1 if coeff == "a1" else a2
    return lp_expectation(lp_pow(expr, n, len(comp.vars)), comp.kinds())


def moment(g: STGroup | str, coeff: str, n: int) -> int:
    """Exact n-th moment of a1 or a2 over the group (always an integer)."""
    if isinstance(g, str):
        g = _BY_NAME[g]
    if coeff not in ("a1", "a2"):
        raise ValueError("coeff must be 'a1' or 'a2'")
    total = sum(component_moment(c, coeff, n) for c in g.components)
    val = Fraction(total, g.num_components)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer moment {val} for {g.name} {coeff} M_{n}")
    return int(val)


def moment_vector(g: STGroup | str) -> dict:
    """The printed table slices: a1 moments M_2..M_16, a2 moments M_1..M_9."""
    if isinstance(g, str):
        g = _BY_NAME[g]
    return {
        "a1": [moment(g, "a1", n) for n in range(2, 17, 2)],
        "a2": [moment(g, "a2", n) for n in range(1, 10)],
    }


def invariants(g: STGroup | str) -> tuple[int, int, int, list[int], str]:
    """(d, c, z1, z2, component group label) recomputed from the catalog.

    z1 counts components on which a1 is identically 0; z2[j+2] counts
    components on which a2 is identically the integer j, -2 <= j <= 2.
    """
    if isinstance(g, str):
        g = _BY_NAME[g]
    z1 = 0
    z2 = [0, 0, 0, 0, 0]
    for comp in g.components:
        a1, a2 = comp.charpoly_coeffs()
        if lp_constant_value(a1) == 0:
            z1 += 1
        v = lp_constant_value(a2)
        if v is not None and -2 <= v <= 2:
            z2[v + 2] += 1
    return g.dim, g.num_components, z1, z2, g.component_group


# ---------------------------------------------------------------------------
# Monte-Carlo sampling oracle


def sample_many(g: STGroup | str, count: int, seed: int = 0):
    """numpy-vectorized sampler used by the statistical regression tests."""
    import numpy as np

    if isinstance(g, str):
        g = _BY_NAME[g]
    rng = np.random.default_rng(seed)
    c = g.num_components
    counts = np.bincount(rng.integers(0, c, size=count), minlength=c)
    out1 = np.empty(count)
    out2 = np.empty(count)
    pos = 0
    for comp, m in zip(g.components, counts):
        m = int(m)
        if m == 0:
            continue
        kinds = comp.kinds()
        if "usp4" in kinds:
            angs = _usp4_pairs_np(rng, m)
        else:
            angs = np.column_stack([_angles_np(k, rng, m) for k in kinds]) if kinds else np.zeros((m, 0))
        a1, a2 = comp.charpoly_coeffs()
        out1[pos : pos + m] = _lp_eval_np(a1, angs)
        out2[pos : pos + m] = _lp_eval_np(a2, angs)
        pos += m
    return out1, out2


def _angles_np(kind, rng, m):
    import numpy as np

    if kind == "circle":
        return rng.uniform(0.0, 2.0 * np.pi, size=m)
    out = np.empty(m)
    have = 0
    while have < m:
        t = rng.uniform(0.0, np.pi, size=2 * (m - have) + 16)
        keep = t[rng.uniform(size=t.size) <= np.sin(t) ** 2]
        take = min(keep.size, m - have)
        out[have : have + take] = keep[:take]
        have += take
    return out if kind == "su2" else out / 2.0


def _usp4_pairs_np(rng, m):
    import numpy as np

    out = np.empty((m, 2))
    have = 0
    while have < m:
        k = 3 * (m - have) + 16
        t1 = rng.uniform(0.0, np.pi, size=k)
        t2 = rng.uniform(0.0, np.pi, size=k)
        w = (np.sin(t1) * np.sin(t2)) ** 2 * (np.cos(t1) - np.cos(t2)) ** 2
        sel = rng.uniform(size=k) <= w / 4.0
        t1, t2 = t1[sel], t2[sel]
        take = min(t1.size, m - have)
        out[have : have + take, 0] = t1[:take]
        out[have : have + take, 1] = t2[:take]
        have += take
    return out


def _lp_eval_np(f: dict, angles):
    import numpy as np

    from .laurent import cyc_to_complex

    n = angles.shape[0]
    total = np.zeros(n, dtype=complex)
    for e, c in f.items():
        phase = np.zeros(n)
        for k, col in zip(e, angles.T):
            if k:
                phase += k * col
        total += cyc_to_complex(c) * np.exp(1j * phase)
    if total.size and np.max(np.abs(total.imag)) > 1e-8:
        raise ArithmeticError("non-real samples")
    return total.real


# ---------------------------------------------------------------------------
# table emission


def emit_group_table(coeff: str, names=None) -> str:
    """Tab-separated moment table (exact integers) for the requested groups."""
    if coeff == "a1":
        ns = list(range(2, 17, 2))
    elif coeff == "a2":
        ns = list(range(1, 10))
    else:
        raise ValueError("coeff must be 'a1' or 'a2'")
    rows = ["#group\t" + "\t".join(f"M{n}" for n in ns)]
    for g in catalog():
        if names and g.name not in names:
            continue
        rows.append(g.name + "\t" + "\t".join(str(moment(g, coeff, n)) for n in ns))
    return "\n".join(rows) + "\n"
