"""Quadratic form values: exact field arithmetic and the decay search."""

from __future__ import annotations

import functools
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from repverify import oppenheim
from repverify.oppenheim import (
    BudgetError,
    FitError,
    FormParseError,
    QuadExt,
    QuadraticForm,
    SignatureError,
    decay_curve,
    isotropic_form,
    parse_form,
    search_min_value,
    sqrt2_form,
)

F = Fraction


class TestQuadExt:
    def test_arithmetic(self):
        x = QuadExt(F(1), F(1), 2)  # 1 + sqrt2
        y = QuadExt(F(1), F(-1), 2)  # 1 - sqrt2
        assert (x * y) == QuadExt(F(-1), F(0), 2)
        assert (x + y) == QuadExt(F(2), F(0), 2)
        assert (x * x.inverse()) == QuadExt(F(1), F(0), 2)

    def test_sign_exact(self):
        assert QuadExt(F(3), F(-2), 2).sign() == 1  # 3 - 2 sqrt2 = 0.17...
        assert QuadExt(F(-3), F(2), 2).sign() == -1
        assert QuadExt(F(1), F(-1), 2).sign() == -1  # 1 - sqrt2 < 0
        assert QuadExt(F(0), F(0), 2).sign() == 0

    def test_zero_forces_both_zero(self):
        assert not QuadExt(F(1), F(-1), 2).is_zero()
        assert QuadExt(F(0), F(0), 5).is_zero()

    def test_squarefree_required(self):
        with pytest.raises(FormParseError):
            QuadExt(F(1), F(1), 4)


class TestParseAndSignature:
    def test_sqrt2_form(self):
        q = sqrt2_form()
        assert q.d == 3
        assert q.signature() == (2, 1, 0)
        assert q.is_indefinite()

    def test_direct_evaluation(self):
        q = sqrt2_form()
        val = q.evaluate((1, 1, 1))
        assert val == QuadExt(F(2), F(-1), 2)
        assert float(val) == pytest.approx(2 - math.sqrt(2))

    def test_cross_terms(self):
        q = parse_form("2*x1*x2 + x2^2 - x3^2", dim=3)
        assert float(q.evaluate((1, 1, 1))) == pytest.approx(2.0)
        assert q.is_indefinite()

    def test_isotropic_signature(self):
        q = isotropic_form()
        assert q.signature() == (1, 1, 1)

    def test_definite_rejected(self):
        q = parse_form("x1^2+x2^2+x3^2")
        with pytest.raises(SignatureError):
            search_min_value(q, 0.0, 10)

    @pytest.mark.parametrize(
        "form, entry",
        [
            ("2*sqrt3*x1^2+x2^2-x3^2", QuadExt(F(0), F(2), 3)),
            ("sqrt3*2*x1^2+x2^2-x3^2", QuadExt(F(0), F(2), 3)),  # coefficient after the root
            ("sqrt2*sqrt2*x1^2+x2^2-x3^2", QuadExt(F(2), F(0), 2)),  # two roots multiply out
        ],
    )
    def test_coefficient_factors(self, form, entry):
        assert parse_form(form).gram[0][0] == entry

    def test_bad_monomial(self):
        with pytest.raises(FormParseError):
            parse_form("x1^3")

    @pytest.mark.parametrize(
        "form, dim",
        [
            ("x0^2+x2^2-x3^2", None),  # x0 would land in the last row, where x3 overwrites it
            ("x1^2-x3^2", 2),  # a variable past the declared dimension
            ("x1^2+x2^2-1/0*x3^2", None),
        ],
        ids=["x0", "past-dim", "zero-denominator"],
    )
    def test_bad_variable_or_coefficient(self, form, dim):
        with pytest.raises(FormParseError):
            parse_form(form, dim=dim)


class TestSearch:
    def test_isotropic_hits_zero(self):
        r = search_min_value(isotropic_form(), 0.0, 10)
        assert r.value_exact.is_zero()
        assert r.best_value == 0.0
        assert math.gcd(*[abs(x) for x in r.best_v]) == 1

    def test_sqrt2_strictly_positive(self):
        r = search_min_value(sqrt2_form(), 0.0, 100)
        assert not r.value_exact.is_zero()
        assert r.best_value > 0
        assert max(abs(x) for x in r.best_v) <= 100

    def test_norm_and_primitivity(self):
        r = search_min_value(sqrt2_form(), 0.0, 50)
        assert 0 < max(abs(x) for x in r.best_v) <= 50
        assert math.gcd(*[abs(x) for x in r.best_v]) == 1

    def test_budget(self):
        with pytest.raises(BudgetError):
            search_min_value(sqrt2_form(), 0.0, 100_000)

    def test_nonzero_target(self):
        r = search_min_value(sqrt2_form(), 1.0, 50)
        assert r.best_value < 0.01  # values near 1 are easy to hit

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_target(self, s):
        with pytest.raises(BudgetError):
            search_min_value(sqrt2_form(), s, 5)
        with pytest.raises(BudgetError):
            decay_curve(sqrt2_form(), s, [2, 3, 5])

    @pytest.mark.parametrize("t", [0, -3])
    def test_bound_below_one(self, t):
        with pytest.raises(BudgetError):
            search_min_value(sqrt2_form(), 0.0, t)

    @pytest.mark.parametrize("t", [2.5, 3.0, True])
    def test_non_integer_bound(self, t):
        with pytest.raises(BudgetError):
            search_min_value(sqrt2_form(), 0.0, t)
        with pytest.raises(BudgetError):
            decay_curve(sqrt2_form(), 0.0, [t, 4, 7])

    def test_scan_memory_stays_small(self):
        # a block holds at most 2^14 candidates per root; 2^16 peaked near 12 MB
        tracemalloc.start()
        try:
            search_min_value(sqrt2_form(), 0.0, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDecay:
    def test_needs_three_bounds(self):
        with pytest.raises(FitError):
            decay_curve(sqrt2_form(), 0.0, [10, 10])

    def test_isotropic_sentinel(self):
        c = decay_curve(isotropic_form(), 0.0, [4, 8, 16])
        assert c.kappa == math.inf
        assert c.rows[-1][1] == 0.0

    def test_sqrt2_monotone_positive(self):
        c = decay_curve(sqrt2_form(), 0.0, [10, 100, 1000])
        vals = [v for _, v in c.rows]
        assert all(v > 0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(not e.is_zero() for e in c.exact_values)
        assert c.kappa > 0
        assert vals[-1] <= 0.05


def brute_min(q: QuadraticForm, s: Fraction, t: int) -> QuadExt:
    """min |Q(v) - s| over primitive v with ||v||_inf <= t, exactly."""
    target = QuadExt.rational(s, q.field_d)
    best = None
    for v in itertools.product(range(-t, t + 1), repeat=q.d):
        if math.gcd(*v) == 1:
            e = q.evaluate(v) - target
            e = e.scale(e.sign())
            if best is None or (best - e).sign() > 0:
                best = e
    return best


_cached_brute_min = functools.cache(brute_min)  # for tests that share a (form, s, t)


class TestScan:
    @pytest.mark.parametrize(
        "form, s, t",
        [
            ("x1^2+x2^2+x3^2-1/50*x4^2", "1/2", 3),  # d = 4: 8/25
            ("x1^2+x2^2-1/100*x3^2", "1/2", 3),  # roots of x3 near +-7, best at x3 = 3: 41/100
            ("x1^2-sqrt2*x2^2+1/7*x2*x3", "1/10", 5),  # linear in the last coordinate
            # roots of x3 near +-15.8 clip to +-4, so row (0, 0) needs a primitive step: 249/100
            ("x1^2+x2^2-1/100*x3^2", "-5/2", 4),
        ],
    )
    def test_matches_brute_force(self, form, s, t):
        q = parse_form(form)
        r = search_min_value(q, float(F(s)), t)
        assert r.value_exact.scale(r.value_exact.sign()) == brute_min(q, F(s), t)

    # exactly integer roots: a row's candidate pair is {r, r + 1}, not a mirrored pair
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("s", ["0", "1", "-5/2"])
    @pytest.mark.parametrize("form", ["x1^2+x2^2-x3^2-x4^2", "x1*x2-x3*x4"])
    def test_half_box_matches_brute_force_on_isotropic_forms(self, form, s, t):
        q = parse_form(form)
        r = search_min_value(q, float(F(s)), t)
        assert r.value_exact.scale(r.value_exact.sign()) == brute_min(q, F(s), t)
        head = [x for x in r.best_v[:-2] if x]
        assert not head or head[0] < 0  # the scan stops after the zero head

    def test_far_roots_are_clipped_before_the_cast(self):
        # the last coordinate's root, (1/2 - 10^6 (x1^2 - x2^2)) / (10^-14 x1),
        # lies beyond 2^63 whenever x1 != x2; the best primitive vector
        # maximizes x1 x3 on x1 = x2
        q = parse_form("1000000*x1^2-1000000*x2^2+1/100000000000000*x1*x3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = search_min_value(q, 0.5, 120)
        assert r.best_v == (-120, -120, -119)
        assert r.value_exact.scale(r.value_exact.sign()) == QuadExt.rational(F(1, 2) - F(120 * 119, 10**14), q.field_d)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_far_roots_match_brute_force(self, t):
        q = parse_form("1000000000*x1^2-1000000000*x2^2+1/1000000000000*x1*x3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = search_min_value(q, 0.5, t)
        got, want = r.value_exact.scale(r.value_exact.sign()), brute_min(q, F(1, 2), t)
        # exact up to float ties within 1e-9: at t = 1 the linear coefficient
        # 10^-12 x1 reads as zero, and the scan returns 1/2 at (-1, -1, 0)
        # against 1/2 - 10^-12 at (1, 1, 1)
        assert got == want if t > 1 else abs(float(got - want)) < 1e-9

    def test_tiny_linear_coefficient_is_not_zero(self):
        # b = 10^-12 x1 is exactly nonzero, so the row's root, not 0 and 1, gives the candidates
        q = parse_form("1000000000*x1^2-1000000000*x2^2+1/1000000000000*x1*x3")
        r = search_min_value(q, 0.5, 1)
        assert r.value_exact.scale(r.value_exact.sign()) == QuadExt.rational(F(1, 2) - F(1, 10**12), q.field_d)
        assert r.best_v == (-1, -1, -1)

    def test_tiny_square_coefficient_is_not_zero(self):
        # a = 5 10^-13 is exactly nonzero, so the scan solves the quadratic: the
        # best is x1^2 = x2^2 and |x3| = 1000, where Q = 5 10^-7
        q = parse_form("x1^2-x2^2+1/2000000000000*x3^2")
        r = search_min_value(q, 0.5, 1000)
        assert r.value_exact == QuadExt.rational(F(-1, 2) + F(5, 10**7), q.field_d)
        assert r.best_v == (-999, -999, 1000)

    # a tiny a beside b: the textbook root (-b +- sqrt(b^2 - 4ac)) / (2a) loses the
    # root near -c / b to cancellation; at |a| = 1e-17 it reads 0
    @pytest.mark.parametrize("b", [3.0, -3.0])
    @pytest.mark.parametrize("a", [1e-17, -1e-17, 1e-13])
    def test_near_root_does_not_cancel(self, a, b):
        roots = [r[0] for _, r in oppenheim._candidate_roots(a, np.array([b]), np.array([10.0]), 100, False)]
        assert min(roots, key=abs) == pytest.approx(-10 / b, rel=1e-12)

    # with a smaller a, Q at the best vectors differs by less than the floats
    # around s = 1/2 resolve, and the scan returns a float tie
    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("linear", ["+x1*x3", "-x1*x3", "+x2*x3"])
    @pytest.mark.parametrize("tiny", ["1/10000000000000", "1/1000000000000000", "-1/10000000000000000"])
    def test_tiny_square_coefficient_beside_a_linear_one(self, tiny, linear, t):
        q = parse_form(f"x1^2-x2^2+{tiny}*x3^2{linear}")
        r = search_min_value(q, 0.5, t)
        assert r.value_exact.scale(r.value_exact.sign()) == brute_min(q, F(1, 2), t)

    # The FOUND on `oppenheim._scan`'s float ties in CHANGES.md: near s = 1/2 the
    # candidates' float errors agree to the last bit, a row's float argmin picks
    # one cell, and only that cell is evaluated exactly.  The scan returns
    # 1/2 + 4 10^-17 at (-3, -2, 2); the exact minimum is 1/2 - 9 10^-17, at
    # (-2, -1, 3).  ROADMAP item 6 (step 1) removes the xfail when it lands.
    @pytest.mark.xfail(strict=True, reason="_scan keeps one cell of a row's float tie")
    def test_float_ties_keep_the_exact_minimum(self):
        q = parse_form("x1^2-x2^2+1/100000000000000000*x3^2+x2*x3")
        r = search_min_value(q, 0.5, 3)
        assert r.value_exact.scale(r.value_exact.sign()) == brute_min(q, F(1, 2), 3)

    @pytest.mark.parametrize("form, t", [("x1^2+x2^2-1e307*x3^2", 3), ("x1^2+x2^2-1e150*x3^2", 100)])
    def test_values_past_the_float_range_are_refused(self, form, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetError, match="overflow"):
                search_min_value(parse_form(form), 0.0, t)
            with pytest.raises(BudgetError):
                decay_curve(parse_form(form), 0.0, [1, 2, t])

    def test_values_inside_the_float_range_are_scanned(self):
        # sum |g_ij| T^2 = (2 + 10^150) 10^4 sits just under the 4.7 10^153 bound
        q = parse_form("x1^2+x2^2-1e150*x3^2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = search_min_value(q, 0.0, 46)
        assert r.value_exact.scale(r.value_exact.sign()) == QuadExt.rational(1, q.field_d)

    @pytest.mark.parametrize("seed", range(12))
    def test_linear_rows_match_brute_force(self, seed):
        # no x_d^2 term: every row is linear in the last coordinate, and its one
        # root's floor and floor + 1 (or 0 and 1 where b = 0) are all the candidates
        rng = random.Random(seed)
        d, t = 3 + seed % 2, 1 + seed % 3
        while True:
            terms = [f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}*x{i}*x{j}"
                     for i in range(1, d + 1) for j in range(i, d + 1) if j < d or i < d]
            q = parse_form("+".join(terms), dim=d)
            if q.is_indefinite():
                break
        s = F(rng.randint(-6, 6), 4)
        r = search_min_value(q, float(s), t)
        assert r.value_exact.scale(r.value_exact.sign()) == brute_min(q, s, t)

    def test_intermediate_bound_is_minimal(self):
        q = parse_form("x1^2+x2^2-1/100*x3^2")
        c = decay_curve(q, 0.37, [2, 4, 7, 11])
        assert c.rows[2] == (7, pytest.approx(7 / 50))
        e = c.exact_values[2]
        assert e.scale(e.sign()) == brute_min(q, F(37, 100), 7)

    @pytest.mark.parametrize(
        "form, s, bounds",
        [
            ("x1^2+x2^2-1/100*x3^2", 0.37, [2, 4, 7, 11]),
            ("x1^2+x2^2-sqrt2*x3^2", 0.0, [5, 20, 100]),
            ("x1*x2+sqrt3*x3^2-x4^2+1/2*x1*x4", 0.3, [2, 4, 6]),
        ],
    )
    def test_decay_rows_equal_single_searches(self, form, s, bounds):
        q = parse_form(form)
        c = decay_curve(q, s, bounds)
        assert c.exact_values == [search_min_value(q, s, t).value_exact for t in bounds]


def _force_block_rows(monkeypatch, rows: int | None, q: QuadraticForm, t: int) -> None:
    """Make a scan of q at bound t run `rows` rows per block (None keeps the default).

    A row holds t + 1 entries where q is even in x_{d-1}, which then runs over
    [-t, 0] only, and 2t + 1 entries otherwise."""
    if rows is not None:
        width = t + 1 if q.even_coordinates()[q.d - 2] else 2 * t + 1
        monkeypatch.setattr(oppenheim, "_BLOCK_ENTRIES", rows * width)


class TestBlocks:
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize(
        "form, s, bounds",
        [
            ("x1^2+x2^2-1/100*x3^2", "-5/2", [2, 3, 4]),  # row (0, 0) needs a primitive step
            ("x1^2+x2^2-1/100*x3^2", "37/100", [4, 7, 11]),
            ("x1^2+x2^2+x3^2-1/50*x4^2", "1/2", [1, 2, 3]),  # 49 rows at t = 3
            ("x1*x2+sqrt3*x3^2-x4^2+1/2*x1*x4", "3/10", [1, 2, 3]),
        ],
    )
    def test_blocks_match_brute_force(self, monkeypatch, rows, form, s, bounds):
        q = parse_form(form)
        _force_block_rows(monkeypatch, rows, q, bounds[-1])
        expected = [brute_min(q, F(s), t) for t in bounds]
        e = search_min_value(q, float(F(s)), bounds[-1]).value_exact
        assert e.scale(e.sign()) == expected[-1]
        curve = decay_curve(q, float(F(s)), bounds)
        assert [e.scale(e.sign()) for e in curve.exact_values] == expected

    # computed with the row-at-a-time scan; every row of these ties at value 0
    @pytest.mark.parametrize("rows", [None, 1, 3])
    @pytest.mark.parametrize(
        "form, t, best_v",
        [
            ("x1^2-x3^2", 10, (-10, -9, -10)),
            ("x1^2-x3^2", 50, (-50, -49, -50)),
            ("x1^2+x2^2-x3^2", 10, (-4, -3, -5)),
            ("x1^2+x2^2-x3^2", 30, (-24, -7, -25)),
        ],
    )
    def test_tie_pins(self, monkeypatch, rows, form, t, best_v):
        q = parse_form(form, dim=3)
        _force_block_rows(monkeypatch, rows, q, t)
        r = search_min_value(q, 0.0, t)
        assert r.best_v == best_v
        assert r.value_exact == QuadExt(F(0), F(0), 2)

    def test_sqrt2_pin(self):
        r = search_min_value(sqrt2_form(), 0.0, 1000)
        assert r.best_v == (-966, -104, -817)
        assert r.value_exact == QuadExt(F(943972), F(-667489), 2)

    def test_d4_sqrt2_pin(self):
        r = search_min_value(parse_form("x1^2+x2^2+x3^2-sqrt2*x4^2"), 0.0, 100)
        assert r.best_v == (-54, -12, -8, -47)
        assert r.value_exact == QuadExt(F(3124), F(-2209), 2)

    # Forms even in some coordinates (no cross term with it): the scan keeps only
    # heads whose even coordinates are <= 0, runs an even x_{d-1} over [-t, 0] and
    # takes one root of an even x_d.
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("s", ["0", "1/2", "-5/2", "37/100"])
    @pytest.mark.parametrize(
        "form, t, even",
        [
            ("sqrt2*x1^2+3/10*x1*x2-x2^2-7/5*x3^2", 4, (False, False, True)),
            ("sqrt2*x1^2+3/10*x1*x3-x2^2+1/2*x3^2", 4, (False, True, False)),
            ("sqrt2*x1^2-x2^2+3/10*x2*x3+1/2*x3^2", 4, (True, False, False)),
            ("sqrt2*x1^2-7/5*x2^2+3/10*x3^2", 4, (True, True, True)),
            ("sqrt2*x1^2+3/10*x1*x2-x2^2+1/2*x2*x3+3/10*x3^2", 4, (False, False, False)),
            ("sqrt2*x1^2+3/10*x1*x2-x2^2+1/2*x2*x3+sqrt2*x3^2-7/5*x4^2", 2, (False, False, False, True)),
            ("sqrt2*x1^2+3/10*x1*x2-x2^2+sqrt2*x2*x4-x3^2+3/10*x4^2", 2, (False, False, True, False)),
            ("sqrt2*x1^2-x2^2+3/10*x2*x3+sqrt2*x3^2-1/2*x3*x4+3/10*x4^2", 2, (True, False, False, False)),
            ("sqrt2*x1^2+1/2*x1*x3-x2^2+sqrt2*x3*x4-3/10*x3^2+3/10*x4^2", 2, (False, True, False, False)),
            ("sqrt2*x1^2-7/5*x2^2+3/10*x3^2-1/2*x4^2", 2, (True, True, True, True)),
            ("sqrt2*x1^2+3/10*x1*x2-x2^2+1/2*x2*x3+x3^2-sqrt2*x3*x4+3/10*x4^2", 2, (False, False, False, False)),
        ],
        ids=["d3-last", "d3-w", "d3-head", "d3-all", "d3-none",
             "d4-last", "d4-w", "d4-head1", "d4-head2", "d4-all", "d4-none"],
    )
    def test_even_coordinates_match_brute_force(self, monkeypatch, rows, s, form, t, even):
        q = parse_form(form)
        assert tuple(q.even_coordinates()) == even
        _force_block_rows(monkeypatch, rows, q, t)
        r = search_min_value(q, float(F(s)), t)
        assert r.value_exact.scale(r.value_exact.sign()) == _cached_brute_min(q, F(s), t)
        assert all(x <= 0 for x, e in zip(r.best_v[:-1], even) if e)
