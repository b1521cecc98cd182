"""Small-values search for indefinite quadratic forms at integer points.

Forms have entries a + b sqrt(D) with rational a, b and one squarefree D, so
values at integer vectors are exact field elements.  One scan serves every
dimension d and every bound T: it enumerates the leading d - 2 coordinates,
vectorizes the next one and solves for the last, which makes T = 10^3..10^4
practical at d = 3.  It runs on floats and re-evaluates only improvements
exactly; up to float ties it returns the minimum of |Q(v) - s| over primitive
v in the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


class SignatureError(Exception):
    pass


class BudgetError(Exception):
    pass


class FitError(Exception):
    pass


class FormParseError(Exception):
    pass


def _is_squarefree(d: int) -> bool:
    if d < 0:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class QuadExt:
    """Element a + b sqrt(d) of a real quadratic field (d squarefree, d >= 2)."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.d < 2 or not _is_squarefree(self.d):
            raise FormParseError(f"d must be squarefree and >= 2, got {self.d}")

    @staticmethod
    def rational(x, d: int) -> "QuadExt":
        return QuadExt(Fraction(x), Fraction(0), d)

    def __add__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    def scale(self, c) -> "QuadExt":
        c = Fraction(c)
        return QuadExt(self.a * c, self.b * c, self.d)

    def inverse(self) -> "QuadExt":
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("zero element")
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def is_zero(self) -> bool:
        # a + b sqrt(d) = 0 with d squarefree forces a = b = 0
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2 d exactly
        cmp = a * a - b * b * self.d
        if cmp == 0:
            return 0  # impossible for squarefree d, kept for safety
        if a > 0:
            return 1 if cmp > 0 else -1
        return -1 if cmp > 0 else 1

    def abs_exact(self) -> "QuadExt":
        return self if self.sign() >= 0 else -self

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __str__(self) -> str:
        return f"{self.a}+{self.b}*sqrt{self.d}"


def _abs_less(x: QuadExt, y: QuadExt) -> bool:
    """|x| < |y| exactly, via comparing squares."""
    return (y * y - x * x).sign() > 0


@dataclass(frozen=True)
class QuadraticForm:
    d: int  # number of variables
    gram: tuple[tuple[QuadExt, ...], ...]

    def __post_init__(self):
        if self.d < 3:
            raise FormParseError("need at least three variables")
        for i in range(self.d):
            for j in range(self.d):
                if (self.gram[i][j] - self.gram[j][i]).is_zero() is False:
                    raise FormParseError("gram matrix must be symmetric")

    @property
    def field_d(self) -> int:
        return self.gram[0][0].d

    def evaluate(self, v) -> QuadExt:
        total = QuadExt.rational(0, self.field_d)
        for i in range(self.d):
            if v[i] == 0:
                continue
            for j in range(self.d):
                if v[j]:
                    total = total + self.gram[i][j].scale(v[i] * v[j])
        return total

    def gram_float(self) -> np.ndarray:
        return np.array([[float(x) for x in row] for row in self.gram])

    def signature(self) -> tuple[int, int, int]:
        """(positives, negatives, zeros) by exact congruence diagonalization."""
        n = self.d
        m = [[self.gram[i][j] for j in range(n)] for i in range(n)]
        zero = QuadExt.rational(0, self.field_d)
        pos = neg = nil = 0
        idx = list(range(n))
        while idx:
            # find a nonzero diagonal pivot, creating one if necessary
            piv = next((i for i in idx if m[i][i].sign() != 0), None)
            if piv is None:
                pair = next(
                    ((i, j) for i in idx for j in idx if i != j and m[i][j].sign() != 0),
                    None,
                )
                if pair is None:
                    nil += len(idx)
                    break
                i, j = pair
                # row/col operation x_i -> x_i + x_j makes the diagonal nonzero
                for k in range(n):
                    m[i][k] = m[i][k] + m[j][k]
                for k in range(n):
                    m[k][i] = m[k][i] + m[k][j]
                piv = i
            p = m[piv][piv]
            if p.sign() > 0:
                pos += 1
            else:
                neg += 1
            idx.remove(piv)
            inv = p.inverse()
            for i in idx:
                f = m[i][piv] * inv
                if f.is_zero():
                    continue
                for k in range(n):
                    m[i][k] = m[i][k] - f * m[piv][k]
                for k in range(n):
                    m[k][i] = m[k][i] - f * m[k][piv]
        return pos, neg, nil

    def is_indefinite(self) -> bool:
        pos, neg, _ = self.signature()
        return pos > 0 and neg > 0


@dataclass(frozen=True)
class SearchResult:
    best_v: tuple[int, ...]
    best_value: float
    value_exact: QuadExt
    t_bound: int
    s: float

    def __post_init__(self):
        g = 0
        for x in self.best_v:
            g = math.gcd(g, abs(x))
        if g != 1:
            raise ValueError("returned vector is not primitive")


@dataclass
class DecayCurve:
    rows: list[tuple[int, float]]
    exact_values: list[QuadExt]
    kappa: float  # fitted decay exponent; inf when the minimum is exactly 0


MAX_T = {3: 10_000, 4: 1_000}


def search_min_value(q: QuadraticForm, s: float, t_bound: int) -> SearchResult:
    """Best primitive |Q(v) - s| over 0 < ||v||_inf <= T, as `_scan` finds it."""
    _check_scannable(q, t_bound)
    best_v, value_exact = _scan(q, s, t_bound)
    return SearchResult(best_v, abs(float(value_exact)), value_exact, t_bound, s)


def decay_curve(q: QuadraticForm, s: float, t_list: list[int]) -> DecayCurve:
    """Running minima over nested bounds plus a log-log decay exponent fit.

    Each bound is scanned on its own; a row is the exact minimum up to it.
    """
    if len(set(t_list)) < 3:
        raise FitError("need at least three distinct bounds")
    if sorted(t_list) != list(t_list):
        raise FitError("bounds must be ascending")
    _check_scannable(q, t_list[-1])
    exacts: list[QuadExt] = []
    for t in t_list:
        e = _scan(q, s, t)[1]
        exacts.append(e if not exacts or _abs_less(e, exacts[-1]) else exacts[-1])
    rows = [(t, abs(float(e))) for t, e in zip(t_list, exacts)]
    # fit on strictly improving checkpoints only: plateaus bias the slope
    pts = []
    last = None
    for t, e in zip(t_list, exacts):
        val = abs(float(e))
        if e.is_zero():
            return DecayCurve(rows, exacts, math.inf)
        if last is None or val < last:
            pts.append((math.log(t), math.log(val)))
            last = val
    if len(pts) < 2:
        kappa = 0.0
    else:
        xs = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        kappa = -float(np.polyfit(xs, ys, 1)[0])
    return DecayCurve(rows, exacts, kappa)


def _check_scannable(q: QuadraticForm, t_bound: int) -> None:
    if q.d not in MAX_T:
        raise BudgetError(f"supported dimensions: {sorted(MAX_T)}")
    if t_bound > MAX_T[q.d]:
        raise BudgetError(f"t_bound {t_bound} exceeds cap {MAX_T[q.d]} at d = {q.d}")
    if not q.is_indefinite():
        raise SignatureError("form must be indefinite")


def _scan(q: QuadraticForm, s: float, t: int) -> tuple[tuple[int, ...], QuadExt]:
    """Best primitive v with 0 < ||v||_inf <= t, and the exact value Q(v) - s.

    Rows are the choices of the leading d - 2 coordinates.  In a row,
    coordinate d - 1 runs vectorized over [-t, t], and for each of its values
    Q(v) - s is a quadratic a x^2 + b x + c in the last coordinate x.  The
    integer neighbours of its real roots (of its vertex when it has none),
    clipped to [-t, t], are each the integer nearest the low end of a stretch
    of [-t, t] on which |a x^2 + b x + c| is monotone, so together they hold a
    minimizer over the integers in [-t, t].  A candidate whose vector is not
    primitive steps away from its root or vertex to the nearest x in [-t, t]
    that gives a primitive vector, the best primitive x of its stretch; only
    candidates whose own error could still beat the best value so far take
    that step.  The candidate with the smallest float error is kept.  A row
    minimum within 1e-9 of the best float value so far is re-evaluated exactly
    and replaces the best only if exactly smaller.  Up to float rounding and
    ties within 1e-9 the result is the minimum over the box.
    """
    d = q.d
    k = d - 2  # the row coordinates are v[:k]; v[k] is vectorized, v[k + 1] solved
    g = q.gram_float()
    target = QuadExt.rational(Fraction(s).limit_denominator(10**12), q.field_d)
    a = g[d - 1, d - 1]
    w = np.arange(-t, t + 1)
    best_val, best_vec, best_exact = math.inf, None, None
    for head in itertools.product(range(-t, t + 1), repeat=k):
        c = sum(g[i, j] * head[i] * head[j] for i in range(k) for j in range(k))
        c = c + 2 * sum(g[i, k] * head[i] for i in range(k)) * w + g[k, k] * w * w
        b = 2 * (sum(g[i, d - 1] * head[i] for i in range(k)) + g[k, d - 1] * w)
        gcd_w = np.gcd(math.gcd(*head), np.abs(w))
        err_best = np.full(w.shape, math.inf)
        x_best = np.zeros_like(w)
        for x, r in _candidate_roots(a, b, c - s, t):
            err = np.abs(a * x * x + b * x + c - s)
            prim = np.gcd(gcd_w, np.abs(x)) == 1
            walk = (~prim & (err < best_val + 1e-9)).nonzero()[0]
            if walk.size:
                side = np.where(x[walk] <= r[walk], -1, 1)  # away from the root
                xw, prim[walk] = _primitive_step(x[walk], side, gcd_w[walk], t)
                x[walk] = xw
                err[walk] = np.abs(a * xw * xw + b[walk] * xw + c[walk] - s)
            err = np.where(prim, err, math.inf)
            better = err < err_best
            err_best = np.where(better, err, err_best)
            x_best = np.where(better, x, x_best)
        j = int(np.argmin(err_best))
        if err_best[j] < best_val + 1e-9 and err_best[j] < math.inf:
            vec = (*head, int(w[j]), int(x_best[j]))
            exact = q.evaluate(vec) - target
            if best_exact is None or _abs_less(exact, best_exact):
                best_val, best_vec, best_exact = abs(float(exact)), vec, exact
    if best_vec is None:
        raise BudgetError("no admissible vector found; enlarge the bound")
    return best_vec, best_exact


def _candidate_roots(a, b, c, t: int):
    """Integers in [-t, t] next to the roots (or the vertex) of a x^2 + b x + c,
    each paired with that root."""
    if abs(a) > 1e-12:
        disc = b * b - 4 * a * c
        has_root = disc >= 0
        sq = np.sqrt(np.where(has_root, disc, 0.0))
        roots = [np.where(has_root, (-b + sgn * sq) / (2 * a), -b / (2 * a)) for sgn in (1.0, -1.0)]
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            roots = [np.where(np.abs(b) > 1e-12, -c / b, 0.0)]
    cands = []
    for r in roots:
        f = np.floor(r).astype(np.int64)
        xs = [f, f + 1] + ([np.zeros_like(f), np.ones_like(f)] if len(roots) == 1 else [])
        cands += [(np.clip(x, -t, t), r) for x in xs]
    return cands


def _primitive_step(x, side, g, t: int):
    """Step each x by its side until gcd(g, x) = 1; also return which stayed in [-t, t]."""
    todo = np.flatnonzero(np.gcd(g, np.abs(x)) != 1)
    while todo.size:
        x[todo] += side[todo]
        todo = todo[(np.abs(x[todo]) <= t) & (np.gcd(g[todo], np.abs(x[todo])) != 1)]
    return x, (np.abs(x) <= t) & (np.gcd(g, np.abs(x)) == 1)


# --- form mini-grammar -------------------------------------------------------------


def parse_form(text: str, dim: int | None = None) -> QuadraticForm:
    """Parse forms like "x1^2+x2^2-sqrt2*x3^2" or "1/2*x1*x2 - x3^2".

    Monomials are xi^2 or xi*xj with coefficients p/q, p/q*sqrtD, or sqrtD.
    """
    cleaned = text.replace(" ", "").replace("-", "+-")
    terms = [t for t in cleaned.split("+") if t]
    entries: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    field_d = None
    max_var = 0
    for term in terms:
        sign = Fraction(1)
        if term.startswith("-"):
            sign = Fraction(-1)
            term = term[1:]
        parts = term.split("*")
        rational = Fraction(1)
        odd_root = False  # whether the sqrtD factors so far leave one sqrtD
        vars_seen: list[int] = []
        for p in parts:
            if p.startswith("sqrt"):
                try:
                    d = int(p[4:])
                except ValueError:
                    raise FormParseError(f"bad radicand {p!r}") from None
                if field_d is not None and field_d != d:
                    raise FormParseError("mixed radicands are not supported")
                field_d = d
                if odd_root:
                    rational = rational * d  # sqrtD * sqrtD = D
                odd_root = not odd_root
            elif p.startswith("x"):
                try:
                    if p.endswith("^2"):
                        idx = int(p[1:-2])
                        vars_seen.extend([idx, idx])
                    else:
                        vars_seen.append(int(p[1:]))
                except ValueError:
                    raise FormParseError(f"bad monomial factor {p!r}") from None
            else:
                try:
                    rational = rational * Fraction(p)
                except ValueError:
                    raise FormParseError(f"bad coefficient {p!r}") from None
        if len(vars_seen) != 2:
            raise FormParseError(f"monomial {term!r} is not quadratic")
        coeff_a, coeff_b = (Fraction(0), rational) if odd_root else (rational, Fraction(0))
        i, j = sorted(vars_seen)
        max_var = max(max_var, j)
        a, b = entries.get((i, j), (Fraction(0), Fraction(0)))
        entries[(i, j)] = (a + sign * coeff_a, b + sign * coeff_b)
    d = dim or max_var
    if field_d is None:
        field_d = 2  # rational form embedded in Q(sqrt 2)
    gram = [[QuadExt.rational(0, field_d) for _ in range(d)] for _ in range(d)]
    for (i, j), (a, b) in entries.items():
        if i == j:
            gram[i - 1][i - 1] = QuadExt(a, b, field_d)
        else:
            half = QuadExt(a / 2, b / 2, field_d)
            gram[i - 1][j - 1] = gram[i - 1][j - 1] + half
            gram[j - 1][i - 1] = gram[j - 1][i - 1] + half
    return QuadraticForm(d, tuple(tuple(row) for row in gram))


def sqrt2_form() -> QuadraticForm:
    return parse_form("x1^2+x2^2-sqrt2*x3^2")


def isotropic_form() -> QuadraticForm:
    return parse_form("x1^2-x3^2", dim=3)
