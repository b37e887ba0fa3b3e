"""The mutation gate: every listed mutant of the package must fail a named test.

    python tests/mutants.py

Each entry of MUTANTS is (name, file, exact snippet, replacement, tests, note),
plus `equivalent`, the reason, for a mutant that cannot change what the
package returns.  The tool copies the checkout (src/, tests/, bench/ and
pyproject.toml) into a temporary directory once and first runs the union of
the named tests there unmutated; they must pass.  Then it applies one
mutant at a time to that copy (the snippet must occur exactly once), runs
`python -m pytest -x` on the mutant's tests under TIMEOUT (60 s), and
restores the file.  A mutant is killed when pytest fails (exit 1, or 2 for an error
at collection) within the timeout, and survives when the tests pass; the
time to fail is the wall time of that pytest run.  The exit code is 0 when
the unmutated run passes, every snippet applies and every non-equivalent
mutant is killed within the timeout, and 1 otherwise.  Equivalent mutants
are run and reported but do not count.  A survivor stays on the list.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIMEOUT = 60.0


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    note: str
    equivalent: str = ""


PH = "src/stmotives/padic_hypergeom.py"
MV = "src/stmotives/motives.py"
LR = "src/stmotives/laurent.py"
SG = "src/stmotives/stgroups.py"
NT = "src/stmotives/ntkernel.py"
RC = "src/stmotives/records.py"
CF = "src/stmotives/cmforms.py"
HG = "tests/test_hypergeom.py::"
TM = "tests/test_motives.py::"
TS = "tests/test_stgroups.py::"
SC = "tests/test_stats_cli.py::"
TG = "tests/test_padic_gamma.py::"
TN = "tests/test_ntkernel.py::"
TC = "tests/test_cmforms.py::"
HP2 = (HG + "test_fast_hp2_loop_equals_generic_trace",)
HPB = (HG + "test_eta_band_table_matches_definition",)
CACHE = (TM + "test_corrupt_cache_is_a_miss",)
BSGS = (TC + "test_bsgs_trace_vs_naive_count_random",
        TC + "test_ec_trace_equals_the_point_count_for_11_2a_to_2_14")

MUTANTS = [
    # the Weil windows live in LPoly; the Dwork row only lifts
    Mutant("lift-at-hi", PH, "return w - pk if w > hi else w", "return w - pk if w >= hi else w",
           (HG + "test_c1_lift_is_balanced_and_weil_checked",),
           "_lift sends w = hi to hi - pk"),
    Mutant("c1-lift-window-hi-pk", PH, "c1 = _lift(-hp, pk, pk // 2)", "c1 = _lift(-hp, pk, pk)",
           (HG + "test_c1_weil_bound_sweep",), "c1 lifted to [0, p^k), not balanced"),
    Mutant("c2-lift-window-one-short", PH, "pk, 12 * p**3)", "pk, 12 * p**3 - 1)",
           (HG + "test_c2_lift_reaches_both_edges_of_the_window",),
           "2p c2 = 12p^3 (c2 = 6p^2) wraps out of the window"),
    Mutant("lpoly-c2-guard-dropped", RC, "if c2 is not None and not (", "if not (",
           (TM + "test_lpoly_validates_weil_bounds",), "a c1-only row computes with None"),
    Mutant("lpoly-discriminant-dropped", RC, "c1 * c1 - 4 * p * c2 + 8 * p**3 >= 0", "True",
           (TM + "test_lpoly_validates_weil_bounds",),
           "a full row with complex roots, any c2 above 2p^2 at c1 = 0, is accepted"),
    Mutant("lpoly-lower-edge-dropped", RC, "and 2 * p * p + c2 >= 0", "and True",
           (TM + "test_lpoly_validates_weil_bounds",),
           "c2 below -2p^2 is accepted where (2p^2 + c2)^2 >= 4p c1^2"),
    Mutant("lpoly-roots-past-2-dropped", RC, "and (2 * p * p + c2) ** 2 >= 4 * p * c1 * c1",
           "and True", (TM + "test_lpoly_validates_weil_bounds",),
           "a row with a root x past -2 or 2, 2p^2 + c2 < 2|c1| sqrt(p), is accepted"),
    Mutant("direct-sum-f1-first", MV,
           "        d = coeff(self.f2, p)  # first: a weight-4 file table skips p before f1's "
           "point count\n        b = coeff(self.f1, p)\n",
           "        b = coeff(self.f1, p)\n        d = coeff(self.f2, p)\n",
           (TM + "test_direct_sum_skips_past_a_file_table_before_the_weight_2_form",),
           "the weight-2 form runs at primes past the weight-4 table's end"),
    # the stream cache's row checks
    Mutant("cache-weil-check-dropped", MV, "            LPoly(*row)\n", "", CACHE,
           "a cached row past a Weil bound is served"),
    Mutant("cache-width-check-dropped", MV, "            if len(row) != width:",
           "            if False:", CACHE, "a cached row of the wrong width is served"),
    Mutant("cache-ascending-check-dropped", MV, "if row[0] <= last or row[0] not in primes:",
           "if row[0] not in primes:", CACHE, "a repeated or descending cached prime is served"),
    Mutant("cache-stream-prime-check-dropped", MV, "if row[0] <= last or row[0] not in primes:",
           "if row[0] <= last:", CACHE, "a cached row at no stream prime is served"),
    # the stream workers
    Mutant("pool-rows-in-dispatch-order", MV, "                return sorted(rows)\n",
           "                return rows\n", (TM + "test_workers_take_every_nth_prime_largest_first",),
           "worker rows returned share by share, each largest prime first"),
    Mutant("worker-share-dropped", MV, "for i in range(workers):", "for i in range(workers - 1):",
           (TM + "test_workers_take_every_nth_prime_largest_first",),
           "the last worker's share is never started, so its rows are missing"),
    Mutant("worker-exception-swallowed", MV, "        conn.send(exc)\n", "        conn.send([])\n",
           (TM + "test_worker_failures_reach_the_caller",),
           "a worker that fails replies with no rows: its share leaves the stream unreported"),
    Mutant("parent-keeps-write-end", MV,
           "                    send.close()  # the worker holds the one write end: its exit is an EOF\n",
           "", (TM + "test_worker_failures_reach_the_caller",),
           "the parent's copy of a write end keeps a dead worker's pipe open: no EOF, a hang"),
    Mutant("worker-eof-not-an-error", MV,
           'raise RuntimeError("a stream worker exited without a reply") from None',
           "continue", (TM + "test_worker_failures_reach_the_caller",),
           "a worker that exits without a reply leaves its share out of the stream"),
    Mutant("cache-digest-check-dropped", MV,
           '        if head[len(header):].rstrip("\\n") != hashlib.sha256(body.encode()).hexdigest():',
           "        if False:", (TM + "test_cache_with_an_edited_row_set_is_a_miss",),
           "a cache with a dropped or edited row is served"),
    # the banded H_p kernel
    Mutant("band-cut-plus-one", PH, "(k * p + 5 - k) // 5", "(k * p + 6 - k) // 5",
           (HG + "test_hp_poly_stops_at_the_band_cut",), "one band term too many"),
    Mutant("band-cut-minus-one", PH, "(k * p + 5 - k) // 5", "(k * p + 4 - k) // 5",
           (HG + "test_hp_poly_stops_at_the_band_cut",), "one band term too few"),
    Mutant("band-cut-without-k", PH, "(k * p + 5 - k) // 5", "(k * p + 5) // 5",
           (HG + "test_hp_poly_stops_at_the_band_cut",), "the cut's -k dropped"),
    Mutant("wraps-without-minus-one", PH, "    return (5 * x - 1) // (q - 1)",
           "    return 5 * x // (q - 1)",
           (HG + "test_eta_band_table_matches_definition",) + HP2, "W(x) = 5x // (q - 1)"),
    Mutant("hp-lam-at-q-p2", PH, "s = (pk - 1) // (p - 1)", "s = (pk - 1) // (p * p - 1)",
           (HG + "test_eta_band_table_matches_definition",),
           "H_p's b = m/(p - 1) read at q = p^2: S = (p^k - 1)/(p^2 - 1)"),
    Mutant("hp-s-without-one", PH, "s = (pk - 1) // (p - 1)", "s = (pk - p) // (p - 1)",
           (HG + "test_eta_band_table_matches_definition",),
           "S = p + ... + p^(k-1): the progression b = p^k - mS with a wrong step"),
    Mutant("hp-band-hi-plus-one", PH, "min((w + 1) * (p - 1) // 5, cut - 1)",
           "min((w + 1) * (p - 1) // 5 + 1, cut - 1)",
           (HG + "test_eta_band_table_matches_definition",),
           "a band's top one past its last m: the next band's first term taken twice"),
    Mutant("hp-p-power-dropped", PH, "c = (-tables.p) ** w % pk", "c = (-1) ** w % pk",
           (HG + "test_eta_band_table_matches_definition",),
           "the p^W(m) of an H_p term left out"),
    Mutant("hp-scale-sign", PH, "-pow(1 - p, -1, pk)", "pow(1 - p, -1, pk)",
           (HG + "test_eta_band_table_matches_definition",), "every H_p term negated"),
    Mutant("z-in-place-of-teich", PH,
           "    tz = teichmuller(rational_mod(z.numerator, z.denominator, pk), p, tables.k)",
           "    tz = rational_mod(z.numerator, z.denominator, pk)",
           (HG + "test_c1_balanced_lift_matches_p4_path",), "the row body evaluates at z"),
    # the term builder of H_p and of the direct-sum oracle
    Mutant("beta-argument-complement", PH, "zip(tables.gamma_list(bs), gv)",
           "zip(tables.gamma_list([-b % pk for b in bs]), gv)", HPB,
           "Gamma_p at 1 - beta = -b in place of b"),
    Mutant("gauss-v-without-wraps", PH, "(w + 1 - 5 * b) % pk", "(1 - 5 * b) % pk", HPB,
           "V = 5u + 1: the wrap count left out of {5u}"),
    Mutant("terms-reflection-gamma-dropped", PH, "* g2 * g % pk * v * c % pk",
           "* g2 % pk * v * c % pk", HPB,
           "Gamma_p(b)^4 in _terms: the reflection's Gamma_p(b) left out"),
    # the H_{p^2} kernel: the Newton stage
    Mutant("newton-beta-argument-complement", PH, "        tables.gamma_list(row), tables",
           "        tables.gamma_list([-b % pk for b in row]), tables", HP2,
           "the Newton stage's Gamma_p at 1 - beta = -b in place of b"),
    Mutant("newton-rows-one-level-short", PH, "cross[k - 1 - x1] + 1)] for x1 in range(k)]",
           "cross[k - 2 - x1] + 1)] for x1 in range(k)]", HP2,
           "the Newton rows x1 end one level early: D_j missing on the top level it is read at"),
    Mutant("gauss-f-without-wraps", PH, "(f * p - w + 4) // 5", "(f * p + 4) // 5", HP2,
           "f = floor(5 x0/p): the wrap count left out of the f-runs"),
    Mutant("newton-f-run-off-by-one", PH, "(f * p - w + 4) // 5", "(f * p - w + 5) // 5", HP2,
           "an f-run of the Newton stage starts one x0 late"),
    Mutant("gauss-reflection-gamma-dropped", PH, "(g2 := g * g % pk) * g2 * g * v % pk for g, v",
           "(g2 := g * g % pk) * g2 * v % pk for g, v", HP2,
           "Gamma_p(b)^4 in the Newton stage: the reflection's Gamma_p(b) left out"),
    Mutant("functional-equation-unit-branch-only", PH,
           "(g * d if (d := 5 * b - w) % p else -g)", "(g * (5 * b - w))", HP2,
           "Gamma_p(V + 1) = -V Gamma_p(V) also where p | V, in place of -Gamma_p(V)"),
    Mutant("functional-equation-one-wrap-too-far", PH, "(d := 5 * b - w) % p",
           "(d := 5 * b - w - 1) % p", HP2,
           "Gamma_p(V_w) stepped by -V_w in place of -V_(w-1): one wrap count too far"),
    Mutant("newton-coefficient-unscaled", PH, "[d % pk // p**j for d in diffs[0]]",
           "[d % pk for d in diffs[0]]", HP2, "D_j not divided by p^j: p^j counted twice"),
    # the H_{p^2} kernel: the crossing rows, run by run, read from the Newton data
    Mutant("crossing-run-cut-one-late", PH, "{min(c + i, top)", "{min(c + i + 1, top)", HP2,
           "the run cuts one m0 late: the point where W or W' steps keeps the old value"),
    Mutant("crossing-column-cut-dropped", PH, "for c in cross for i in (0, 1)}",
           "for c in cross for i in (1,)}", HP2,
           "no cut at a crossing column: the meet shares a run, W(sigma(m)) read at its start"),
    Mutant("sigma-identity", PH,
           "* dn[ws][j][r] * p**j\n"
           "                    ua = [x + a * d for x, d in zip(ua, dn[w][j][lo:hi])]\n"
           "                    us = [x + b * t for x, t in zip(us, binom[j][lo:hi])]",
           "* binom[j][r] * p**j\n"
           "                    ua = [x + a * d for x, d in zip(ua, dn[w][j][lo:hi])]\n"
           "                    us = [x + b * t for x, t in zip(us, dn[ws][j][lo:hi])]",
           HP2, "the sigma factor read at (m0, r), not (r, m0): no twist on the crossing rows"),
    Mutant("hp2-w-without-sigma", PH, "_wraps(r + p * lo, q)", "0", HP2,
           "W(sigma(m)) = 0 on the crossing rows: the twist's wraps dropped"),
    Mutant("hp2-keep-below-4", PH, "for j in range(k - w - ws):", "for j in range(4 - w - ws):",
           (HG + "test_hp2_poly_at_every_precision_reduces_the_p4_vector",),
           "crossing-row Newton sums run to 4 - W - W' whatever k is: dn has no D_j past k - 1"),
    Mutant("crossing-binom-digit-swapped", PH, "p ** (w + ws + j) * binom[j][r]",
           "p ** (w + ws + j) * binom[j][lo]", HP2,
           "the factor U(m) read at C(m0, j) in place of C(m1, j): the high digit swapped"),
    Mutant("crossing-newton-one-term-short", PH, "a = p ** (w + ws + j) * binom[j][r]\n",
           "a = p ** (w + ws + j) * binom[j][r] * (j < k - 1 - w - ws)\n", HP2,
           "the Newton sum for U(m) on a crossing row stopped one term early"),
    Mutant("crossing-sigma-newton-one-term-short", PH, "* dn[ws][j][r] * p**j\n",
           "* dn[ws][j][r] * p**j * (j < k - 1 - w - ws)\n", HP2,
           "the Newton sum for U(sigma(m)) on a crossing row stopped one term early"),
    Mutant("crossing-newton-sums-one-term-short", PH, "for j in range(k - w - ws):",
           "for j in range(k - 1 - w - ws):", HP2,
           "both Newton sums on a crossing run stopped one term early"),
    Mutant("crossing-row-dropped", PH, "for v, r in enumerate(cross[:k]):",
           "for v, r in list(enumerate(cross[:k]))[1:]:", HP2,
           "the first crossing row and column left out"),
    Mutant("crossing-meets-counted-twice", PH, "(1 if lo in cross else 2)", "2", HP2,
           "a point where a crossing row meets a crossing column counted twice"),
    Mutant("crossing-columns-dropped", PH, "(1 if lo in cross else 2)", "1", HP2,
           "the crossing columns, the rows' sigma images, left out"),
    Mutant("crossing-meets-weight-two-at-5801", PH, "(1 if lo in cross else 2)",
           "(2 if lo in cross else 2)",
           (HG + "test_fiber_rows_past_5791_are_weil_rows_on_the_critical_circle",),
           "the meeting points counted twice, seen at p = 5801 by the fiber rows alone"),
    Mutant("class-index-shifted", PH,
           "acc[lo + r:hi + r] = [x + y * z for x, y, z in zip(acc[lo + r:hi + r], ua, us)]",
           "acc[lo + r + 1:hi + r + 1] = [x + y * z for x, y, z"
           " in zip(acc[lo + r + 1:hi + r + 1], ua, us)]",
           HP2, "each crossing-row term in the next class"),
    # the H_{p^2} kernel: the level intervals and the convolutions
    Mutant("level-zero-from-one", PH, "levels = [(0, cross[0])]", "levels = [(1, cross[0])]", HP2,
           "digit 0 left out of the first level interval: the m = 0 term among others"),
    Mutant("level-takes-crossing-row", PH, "(cross[j] + 1, cross[j + 1])",
           "(cross[j], cross[j + 1])", HP2,
           "a level interval starts on a crossing row: that row counted twice"),
    Mutant("level-ends-one-short", PH, "(cross[j] + 1, cross[j + 1])",
           "(cross[j] + 1, cross[j + 1] - 1)", HP2,
           "a level interval stops one digit before the next crossing row"),
    Mutant("truncation-tightened", PH, "for j in range(k - e - i):",
           "for j in range(k - 1 - e - i):", HP2, "the terms with W + W' + i + j = k - 1 left out"),
    Mutant("truncation-loosened", PH, "for j in range(k - e - i):",
           "for j in range(k + 1 - e - i):", HP2,
           "the terms with W + W' + i + j = k taken: a Newton coefficient never formed"),
    Mutant("conv-reduction-one-power-short", PH, "mod = p ** (k - e - i - j)",
           "mod = p ** (k - 1 - e - i - j)", HP2, "convolution entries reduced mod p^(k-1-e-i-j)"),
    Mutant("hp2-weight-one", PH, "weight = 1 if (w, i) == (ws, j) else 2", "weight = 1", HP2,
           "each convolution weighted 1: its mirror (W', W, j, i) left out"),
    Mutant("hp2-fixed-points-weight-two", PH, "weight = 1 if (w, i) == (ws, j) else 2",
           "weight = 2", HP2, "the self-mirrored convolutions, (W, i) = (W', j), counted twice"),
    Mutant("hp2-fixed-points-dropped", PH, "if (w, i) > (ws, j):", "if (w, i) >= (ws, j):", HP2,
           "the self-mirrored convolutions left out"),
    Mutant("fold-shifted", PH, "slots[n * nb:(n + 1) * nb]", "slots[(n - 1) * nb:n * nb]", HP2,
           "each convolution slot folded into the next class"),
    Mutant("class-sign-dropped", PH, "r, scale = -pow(teichmuller(5, p, k), -5, pk), pow(1 - q",
           "r, scale = pow(teichmuller(5, p, k), -5, pk), pow(1 - q", HP2,
           "r = omega(5)^(-5): the pair's sign (-1)^(m0 + m1) left out"),
    # the gamma tables
    Mutant("g1-equals-plus-g0", PH, "        c = -b % m\n", "        c = b % m\n",
           (TG + "test_recurrence_matches_exact_integers",), "G_1 = +G_0"),
    Mutant("unit-step-at-x0-0", PH, "        c = -b % m\n", "        c = -prev[0] % m\n",
           (TG + "test_recurrence_matches_exact_integers",),
           "the unit step at x0 = 0 in place of G_1 = -G_0"),
    Mutant("column-carries-c-i", PH, "c := -(x0 * c + g) % m", "c := -(x0 * c + c) % m",
           (TG + "test_recurrence_matches_exact_integers",), "C_i carried in place of C_(i-1)"),
    Mutant("column-subtracts-c-i-minus-1", PH, "c := -(x0 * c + g) % m", "c := -(x0 * c - g) % m",
           (HG + "test_hp2_kernel_equals_generic_trace_random",
            HG + "test_hp_kernel_equals_generic_trace_random"),
           "the series columns subtract C_(i-1); the random oracle tests must fail fast"),
    Mutant("c0-step-plus-x0", PH, "c := c * (pk - x0) % pk", "c := c * (pk + x0) % pk",
           (TG + "test_recurrence_matches_exact_integers",),
           "the Gamma_p(x0) column steps by +x0 in place of -x0"),
    # the small-prime rows
    Mutant("small-prime-row-changed", PH, "    (3, 2): (5, 15),", "    (3, 2): (5, 16),",
           (HG + "test_small_prime_rows_certified_by_the_trace",), "one literal row edited"),
    Mutant("small-prime-key-numerator", PH,
           "SMALL_PRIME_ROWS[p, rational_mod(z.numerator, z.denominator, p)]",
           "SMALL_PRIME_ROWS[p, z.numerator % p]",
           (HG + "test_small_prime_lookup_equals_table_row",), "the key ignores z's denominator"),
    # the exact moment engine
    Mutant("zeta-keyed-mod-24", LR, "return {(k, exps): c for k, c in _ZETA24[j % 24]}",
           "return {(j % 24, exps): 1}", (TS + "test_zero_is_the_empty_dict",),
           "keys by the zeta exponent mod 24 are not canonical"),
    Mutant("lp-mul-wrong-row", LR, "for k, s in _ZETA24[k1 + k2]:",
           "for k, s in _ZETA24[k1 + k2 + 1]:",
           (TS + "test_lp_mul_and_lp_add_agree_with_complex_evaluation",),
           "products reduced with the next zeta row"),
    Mutant("su2sqrt-as-su2", LR, '"su2sqrt": {(0,): 2, (4,): -1, (-4,): -1}',
           '"su2sqrt": {(0,): 2, (2,): -1, (-2,): -1}',
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",),
           "the su2sqrt density read as su2's"),
    Mutant("usp4-sign-flip", LR, "x = lp_mul({(0, (1, 0)): 1, (0, (-1, 0)): -1}",
           "x = lp_mul({(0, (1, 0)): 1, (0, (-1, 0)): 1}",
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",),
           "v1 + 1/v1 in place of v1 - 1/v1 in the usp4 density"),
    Mutant("su2-asymmetric", LR, '"su2": {(0,): 2, (2,): -1, (-2,): -1}',
           '"su2": {(0,): 2, (2,): -2}',
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",),
           "an asymmetric su2 density"),
    Mutant("usp4-extra-coefficient", LR, '"usp4": _usp4_density(),',
           '"usp4": {**_usp4_density(), (2, 2): 1},',
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",),
           "one coefficient added to the usp4 density"),
    Mutant("slot-1-unchecked", LR, "if any(acc[1:]):", "if any(acc[2:]):",
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",
            TS + "test_expectation_matches_closed_forms_and_usp4_quadrature"),
           "a z^1 part of an expectation goes unreported"),
    Mutant("wrong-divisor", LR, "return Fraction(acc[0], ct)", "return Fraction(acc[0], 2 * ct)",
           (TS + "test_expectation_of_each_monomial_matches_the_oracles",),
           "expectations divided by twice the constant term"),
    Mutant("series-memo-ignores-spectrum", SG, "key = (comp.kinds, comp.eigen, coeff)",
           "key = (comp.kinds, coeff)", (TS + "test_a1_moment_table",),
           "components with equal measures share one series (once: keyed on the group name)"),
    Mutant("series-one-order-short", SG, "while len(values) <= n:", "while len(values) < n:",
           (TS + "test_a1_moment_table",), "a series extended one order short"),
    Mutant("series-never-stored-back", SG, "        _SERIES[key] = (f, power, values)\n", "",
           (TS + "test_cold_a1_table_takes_at_most_16_products_per_spectrum",),
           "each order recomputed from f^0: the series stays at order 0"),
    # statistics files, fields and forms
    Mutant("comment-read-as-header", "src/stmotives/stats.py",
           ' and not ln.startswith("# ")]', "]",
           (SC + "test_cli_classifies_the_file_motive_classify_writes",),
           "the CLI's trailing '# top ...' line is read as the header"),
    Mutant("a2-decimals-shifted", "src/stmotives/stats.py", "A2_DECIMALS = (3, 3, 3, 3, 3, 2, 1)",
           "A2_DECIMALS = (3, 3, 3, 3, 2, 1, 0)",
           (SC + "test_emit_table_formats_and_rounding",), "a2 M5..M7 printed one place short"),
    Mutant("q-residues-one", NT, 'FieldSpec("Q", 1, frozenset({0}))',
           'FieldSpec("Q", 1, frozenset({1}))', (TN + "test_degree_one_primes",),
           "p mod 1 is never 1: Q has no degree-1 primes"),
    # the split memo and its primality certificate
    Mutant("memo-without-is-prime", NT, "if (p - 1) % len(cls.UNITS) or not is_prime(p):",
           "if (p - 1) % len(cls.UNITS):",
           (TN + "test_splitter_rejects_what_is_not_a_split_prime",
            TC + "test_coeff_refuses_a_composite_the_splitter_used_to_split"),
           "the memo stores whatever the descent returns, composites included"),
    Mutant("symbol-without-certificate", NT, "        self._split_prime(p)\n",
           "", (TN + "test_symbol_rejects_non_prime",),
           "the symbol takes any norm 1 mod n as prime"),
    Mutant("memo-stores-before-normalizing", NT,
           "g = cls._SPLITS[p] = cls(x, (T * x + r) // 2).normalized()",
           "g = cls._SPLITS[p] = cls(x, (T * x + r) // 2)\n            g = g.normalized()",
           (TN + "test_split_memo_returns_its_own_frozen_normalized_generator",),
           "the first call returns the normalized generator, every later call the raw one"),
    Mutant("mr-base-2-at-2047", NT, "_MR_BASES = ((2047, (2,)),", "_MR_BASES = ((2048, (2,)),",
           (TN + "test_is_prime_rejects_strong_pseudoprimes",),
           "the strong base-2 pseudoprime 2047 tested at base 2 alone"),
    Mutant("mr-bases-2-3-at-1373653", NT, "(1373653, (2, 3))", "(1373654, (2, 3))",
           (TN + "test_is_prime_rejects_strong_pseudoprimes",),
           "the strong pseudoprime 1373653 tested at bases 2 and 3 alone"),
    Mutant("form-dropped", CF,
           '    NewformHandle("36.2a", 2, 36, "curve", curve=CurveSpec.short(0, 1)),\n', "",
           (TC + "test_forms_hold_every_documented_label_once",),
           "a documented label left out of FORMS"),
    # non-CM traces by baby-step giant-step, the point count as oracle and fallback
    Mutant("bsgs-twist-sign-dropped", CF, "sign = 1 if pow(d, (p - 1) // 2, p) == 1 else -1",
           "sign = 1", BSGS, "a point on the quadratic twist read as a point on E"),
    Mutant("bsgs-twist-sign-flipped", CF, "sign = 1 if pow(d, (p - 1) // 2, p) == 1 else -1",
           "sign = -1 if pow(d, (p - 1) // 2, p) == 1 else 1", BSGS,
           "the twist read as E and E as the twist"),
    Mutant("hasse-interval-one-short", CF, "    T = isqrt(4 * p)\n", "    T = isqrt(4 * p) - 1\n",
           (TC + "test_bsgs_trace_reaches_both_ends_of_the_hasse_interval",),
           "the giant steps start one past p + 1 - 2 sqrt(p), so a_p = 2 sqrt(p) rounded is missed"),
    Mutant("bsgs-first-candidate", CF, "            if len(traces) == 1:", "            if traces:",
           (TC + "test_bsgs_trace_falls_back_to_the_point_count_after_its_points",),
           "a trace is returned while other traces still fit every point"),
    Mutant("baby-step-ignores-minus", CF, "orders.append(c - j if R[1] == y else c + j)",
           "orders.append(c - j)", BSGS, "a giant step at -jP read as one at +jP"),
    Mutant("baby-step-small-order-unchecked", CF,
           "if Q is None or Q[1] == 0 or Q[0] in baby:", "if Q is None:",
           (TC + "test_bsgs_trace_skips_a_point_of_order_at_most_2m",),
           "a point of order at most 2m, whose baby steps repeat an x, is searched"),
    # one short model: CM read off it, the point count only at p <= 3
    Mutant("short-model-j1728-dropped", CF, 'family = ("Q(i)", 1, (-A) ** 3, None)',
           "family = None", (TC + "test_cm_family_is_read_off_the_short_model_of_any_model",),
           "j = 1728 gets no CM family, so y^2 = x^3 - x in another model leaves the Hecke path"),
    Mutant("small-p-guard-off-by-one", CF, "    if p <= 3:\n", "    if p <= 2:\n",
           (TC + "test_long_weierstrass_trace",),
           "a_3 of a long model is searched on the cusp Y^2 = X^3 mod 3"),
    Mutant("short-model-always-scaled", CF,
           "A, B = (a4, a6) if (a1, a2, a3) == (0, 0, 0) else (-27 * c4, -54 * c6)",
           "A, B = -27 * c4, -54 * c6", (TC + "test_cm_family_is_computed_once_per_curve",),
           "a short model is scaled by 6 too, and its CM twist with it"),
    # input refused when its value type is built
    Mutant("singular-curve-built", CF,
           '            raise ValueError(f"{self} is a singular curve (discriminant 0)")\n',
           "            pass\n", (TC + "test_curve_spec_refuses_a_singular_model",),
           "a singular model builds, and its stream skips every prime in silence"),
    Mutant("curve-coefficient-kept-as-given", CF,
           "object.__setattr__(self, name, operator.index(value))",
           "object.__setattr__(self, name, value)",
           (TC + "test_curve_spec_refuses_a_coefficient_that_is_not_an_integer",
            TC + "test_curve_spec_stores_a_bool_coefficient_as_an_int"),
           "CurveSpec(0, 0, 0, 1.5, 1) builds, and [0,0,0,True,1] prints apart from [0,0,0,1,1]"),
    Mutant("cm-field-unchecked", CF,
           'if self.kind == "hecke" and self.hecke[0] not in ("Q(i)", "Q(w)"):', "if False:",
           (TC + "test_newform_handle_rejects_what_coeff_cannot_evaluate",),
           "a Hecke handle over another field builds and its coeff reads it as Q(w)"),
    Mutant("dwork-z-kept-as-given", MV,
           '            object.__setattr__(self, "z", Fraction(self.z))\n', "            pass\n",
           (TM + "test_dwork_rejects_the_fibres_degenerate_at_every_prime",),
           'z kept as given: Dwork("1") builds, and Dwork(0.5) describes itself as dwork(0.5)'),
    Mutant("dwork-z-conversion-errors-leak", MV,
           "except (TypeError, ValueError, ArithmeticError):", "except ValueError:",
           (TM + "test_dwork_refuses_what_is_not_a_finite_rational",),
           'Dwork(float("inf")), Dwork("1/0") and Dwork(None) raise OverflowError, '
           "ZeroDivisionError and TypeError"),
    Mutant("sampler-a2-sign", SG, "((s1 * s1).real - s2.real) / 2",
           "((s1 * s1).real + s2.real) / 2", (TS + "test_sample_j_component_constant",),
           "a2 = ((sum lam)^2 + sum lam^2) / 2"),
]


def _pytest(workdir: str, tests, timeout: float):
    """(exit code or None on timeout, wall seconds) of pytest -x on tests in workdir."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    t0 = time.perf_counter()
    try:
        code = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - t0


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(prefix="stmotives-mutants-") as work:
        for name in COPIED:
            src = os.path.join(ROOT, name)
            if os.path.isdir(src):
                shutil.copytree(src, os.path.join(work, name),
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(src, work)
        union = sorted({t for m in MUTANTS for t in m.tests})
        code, secs = _pytest(work, union, 10 * TIMEOUT)
        print(f"unmutated: {len(union)} test ids, exit {code}, {secs:.1f} s", flush=True)
        if code != 0:
            return 1
        for m in MUTANTS:
            path = os.path.join(work, m.file)
            with open(path) as fh:
                original = fh.read()
            if original.count(m.snippet) != 1:
                print(f"STALE     {m.name}: snippet found {original.count(m.snippet)} times "
                      f"in {m.file}", flush=True)
                ok = False
                continue
            with open(path, "w") as fh:
                fh.write(original.replace(m.snippet, m.replacement))
            try:
                code, secs = _pytest(work, m.tests, TIMEOUT)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            killed = code in (1, 2)
            status = "killed" if killed else "TIMEOUT" if code is None else "SURVIVED"
            if m.equivalent:
                status = f"({status}, equivalent)"
            else:
                ok &= killed
            print(f"{status:<9} {m.name}: {secs:5.1f} s, {m.note}", flush=True)
    print("gate:", "every non-equivalent mutant killed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
