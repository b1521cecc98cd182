"""Quadratic form values: exact field arithmetic and the decay search."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

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
            e = (q.evaluate(v) - target).abs_exact()
            if best is None or (best - e).sign() > 0:
                best = e
    return best


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
        assert r.value_exact.abs_exact() == brute_min(q, F(s), t)

    def test_intermediate_bound_is_minimal(self):
        q = parse_form("x1^2+x2^2-1/100*x3^2")
        c = decay_curve(q, 0.37, [2, 4, 7, 11])
        assert c.rows[2] == (7, pytest.approx(7 / 50))
        assert c.exact_values[2].abs_exact() == brute_min(q, F(37, 100), 7)

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
