"""Moment statistics over L-polynomial streams and nearest-group ranking.

A moment statistic M_n[a_i] is the plain average of a_i(p)^n over the
retained primes.  Classification compares the statistics to the exact
group moments through the scale-normalized squared deviation

    d(G) = sum_n ((M_n[stat] - M_n[G]) / max(1, |M_n[G]|))^2

over a1 moments M_2..M_12 and a2 moments M_1..M_9 (whichever the input
carries).  motive --classify ranks these unrounded; stats classify --in ranks
the cells a file holds, rounded as printed (a2 M_1..M_7 alone), so one run's
distances differ: at B = 2^16 C3 is at 0.0492 against 0.0338 read back for
tensor-ec(0,4; 0,1)/Q(w) (same top cluster C3/C4/C6/F), and J(C1) at 0.0118
against 0.0086 for sum(27.2a, 9.4a)/Q.  Groups whose distances agree to
within 1% relative, or, for an imperfect best fit, within the jitter radius
of two nearly equal model vectors (see `classify`; it puts C2 at 0.658 with
C3 at 0.556 for tensor-ec(0,4; 0,1)/Q(w) at B = 2^12), are reported as a tie
cluster ordered by catalog position, whatever their distances: several catalog
groups have identical moment vectors through this range (C4, C6 and F;
J(C4), J(C6) and F_{ab}; and C3 differs from that first cluster only in
the 12th a1 moment, by half a part in a thousand), so finite-bound
statistics cannot split them and the deterministic catalog order picks
the representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from . import stgroups

A1_NS = (2, 4, 6, 8, 10, 12)
A2_NS = (1, 2, 3, 4, 5, 6, 7, 8, 9)

# printed-precision profiles (decimal places) for the statistics tables
A1_DECIMALS = (3, 3, 3, 2, 1, 0)
A2_DECIMALS = (3, 3, 3, 3, 3, 2, 1)


@dataclass(frozen=True)
class MomentStats:
    bound: int
    count: int
    a1: dict[int, float]  # n -> M_n[a1]
    a2: dict[int, float] | None  # None for c1-only streams


def moment_statistics(rows, bound: int) -> MomentStats:
    """Compute the moment statistics of a stream of (p, c1[, c2]) rows.

    Sums are compensated (math.fsum) so results are deterministic and
    independent of accumulation order."""
    rows = list(rows)
    if not rows:
        raise ValueError("empty stream: no retained primes")
    count = len(rows)
    a1 = [row[1] / row[0] ** 1.5 for row in rows]
    a1_m = {n: math.fsum(x**n for x in a1) / count for n in A1_NS}
    a2_m = None
    if len(rows[0]) >= 3:
        a2 = [row[2] / row[0] ** 2 for row in rows]
        a2_m = {n: math.fsum(x**n for x in a2) / count for n in A2_NS}
    return MomentStats(bound, count, a1_m, a2_m)


@dataclass(frozen=True)
class ClassificationResult:
    ranked: tuple[tuple[str, float], ...]
    metric: str
    clusters: tuple[tuple[str, ...], ...] = field(default=())

    @property
    def top(self) -> str:
        return self.ranked[0][0]


TIE_RELATIVE = 0.01


def _metric_vector(stats: MomentStats, g) -> tuple[list[float], list[int]]:
    """Per-moment scaled deviations and the group's raw moment vector on
    the same moment set (the latter feeds the inter-group separation)."""
    devs, raw = [], []
    for coeff, ns, got in (("a1", A1_NS, stats.a1), ("a2", A2_NS, stats.a2 or {})):
        for n in (n for n in ns if n in got):
            m = stgroups.moment(g, coeff, n)
            devs.append((got[n] - m) / max(1.0, abs(m)))
            raw.append(m)
    return devs, raw


def classify(stats: MomentStats) -> ClassificationResult:
    """Rank the catalog groups by moment distance, with tie clusters.

    Two candidates land in one cluster when their distance gap is below
    the classifier's resolution: within TIE_RELATIVE of each other, or
    (for an imperfect best fit) below 2*sqrt(d)*separation, the first-order
    distance jitter of two model vectors separated by `separation` under
    a misfit of size sqrt(d).  An exact fit (d = 0) is never absorbed by
    the jitter radius, so exact group moments classify to that group (up
    to the catalog pairs with strictly identical metric vectors).  Inside
    a cluster the catalog order picks the representative."""
    scored = []
    vectors = {}
    for idx, g in enumerate(stgroups.catalog()):
        devs, raw = _metric_vector(stats, g)
        vectors[g.name] = raw
        d = math.fsum(x * x for x in devs)
        scored.append((d, idx, g.name))
    scored.sort(key=lambda t: (t[0], t[1]))
    clusters: list[list[tuple[float, int, str]]] = []
    for item in scored:
        if clusters:
            head = clusters[-1][0]
            gap = item[0] - head[0]
            tol = TIE_RELATIVE * max(head[0], item[0])
            if head[0] > 0.0:
                sep2 = math.fsum(
                    ((a - b) / max(1.0, abs(a))) ** 2
                    for a, b in zip(vectors[head[2]], vectors[item[2]])
                )
                # near-degenerate candidates (model separation well inside
                # the misfit ball) cannot be resolved: their distance gap
                # is first-order jitter of size 2*sqrt(d)*sep
                if sep2 <= 0.1 * head[0]:
                    tol = max(tol, 2.0 * math.sqrt(head[0] * sep2))
            if gap <= tol:
                clusters[-1].append(item)
                continue
        clusters.append([item])
    ranked = []
    cluster_names = []
    for cl in clusters:
        cl_sorted = sorted(cl, key=lambda t: t[1])  # catalog order inside a tie
        cluster_names.append(tuple(name for _, _, name in cl_sorted))
        ranked.extend((name, d) for d, _, name in cl_sorted)
    metric = ("sum_n ((stat-M_n)/max(1,|M_n|))^2 over a1 M2..M12, a2 M1..M9; "
              "resolution-aware tie clusters")
    return ClassificationResult(tuple(ranked), metric, tuple(cluster_names))


# ---------------------------------------------------------------------------
# table emission


def _fmt(x: float, places: int) -> str:
    q = Decimal(1).scaleb(-places) if places else Decimal(1)
    return str(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_EVEN))


def stats_row(stats: MomentStats) -> list[str]:
    b = stats.bound  # the first cell: log2 of a power of two below 2^64, else "B=<bound>"
    cells = [str(b.bit_length() - 1) if 0 < b < 2**64 and b & (b - 1) == 0 else f"B={b}"]
    for got, ns, places in ((stats.a1, A1_NS, A1_DECIMALS), (stats.a2 or {}, A2_NS, A2_DECIMALS)):
        cells += [_fmt(got[n], d) if n in got else "" for n, d in zip(ns, places)]
    return cells


# the decimals profiles set the printed columns: a1 M2..M12, a2 M1..M7
STATS_HEADER = (["n"] + [f"a1.M{n}" for n, _ in zip(A1_NS, A1_DECIMALS)]
                + [f"a2.M{n}" for n, _ in zip(A2_NS, A2_DECIMALS)])


def emit_table(rows: list[list[str]], fmt: str = "tsv") -> str:
    """Render rows as TSV ('#'-prefixed header) or aligned text."""
    if fmt == "tsv":
        out = ["#" + "\t".join(STATS_HEADER)]
        out += ["\t".join(r) for r in rows]
        return "\n".join(out) + "\n"
    if fmt == "aligned":
        table = [STATS_HEADER] + rows
        widths = [max(len(r[i]) for r in table) for i in range(len(STATS_HEADER))]
        lines = [" ".join(c.rjust(w) for c, w in zip(r, widths)) for r in table]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt}")


def parse_stats_tsv(text: str) -> MomentStats:
    """Read back a stats TSV produced by emit_table: every data row is
    checked against the (last) header, and the last row is returned.  A
    line that starts with "# " is a comment (the CLI's own ranking lines)."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("# ")]
    headers = [ln[1:].split("\t") for ln in lines if ln.startswith("#")]
    rows = [ln.split("\t") for ln in lines if not ln.startswith("#")]
    if not headers:  # emit_table's aligned format has no '#' header
        raise ValueError("no '#' header line: only --format tsv tables can be read back")
    if not rows:
        raise ValueError("no stats rows found")
    header = headers[-1]
    if header[0] != "n":
        raise ValueError(f"the header's first column is {header[0]!r}, not 'n'")
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated column(s) {repeated}")
    unknown = [name for name in header if name not in STATS_HEADER]
    if unknown:
        raise ValueError(f"unknown column(s) {unknown}; expected some of {STATS_HEADER}")
    return [_parse_stats_row(header, data) for data in rows][-1]


def _parse_stats_row(header: list[str], data: list[str]) -> MomentStats:
    if len(data) > len(header):
        raise ValueError(f"the stats row has {len(data)} cells for {len(header)} columns")
    a1: dict[int, float] = {}
    a2: dict[int, float] = {}
    for name, cell in zip(header[1:], data[1:]):
        if not cell:
            continue
        coeff, mn = name.split(".M")
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError(f"non-finite moment cell {cell!r} in column {name}")
        (a1 if coeff == "a1" else a2)[int(mn)] = value
    if not a1 and not a2:
        raise ValueError("the stats row has no moment values")
    n = data[0]  # a plain cell: log2 of the bound below 64, else the bound (older files)
    plain = not n.startswith("B=")
    bound = int(n if plain else n[2:])
    if bound < 0:
        raise ValueError(f"negative bound cell {n!r}")
    return MomentStats(2**bound if plain and bound < 64 else bound, 0, a1, a2 or None)
