"""Small-values search for indefinite quadratic forms at integer points.

Forms have entries a + b sqrt(D) with rational a, b and one squarefree D, so
values at integer vectors are exact field elements.  One scan serves every
dimension d and every bound T: it enumerates the leading d - 2 coordinates
(a row), runs the next one over [-T, T] and solves for the last, which makes
T = 10^3..10^4 practical at d = 3.  Since Q(-v) = Q(v), only the rows up to
the zero head are scanned: half the box.  Each coordinate in which Q is even
(it has no cross term x_i x_j) halves that again: an even head coordinate or
an even x_{d-1} runs over [-T, 0] only, and an even x_d takes one root of its
quadratic, not two.  A diagonal form such as x1^2+x2^2-sqrt2*x3^2 gets every
reduction; a cross term x_i x_j takes away those of x_i and x_j.  Rows go
through numpy in blocks of about 2^14 entries; a candidate pays for a gcd only
while its float error can still beat the best value found before its block.
The scan runs on floats and re-evaluates only improvements exactly, row by
row; up to float ties it returns the minimum of |Q(v) - s| over primitive v
in the box.

On a 2-core x86 host, at s = 0: x1^2+x2^2-sqrt2*x3^2 takes about 0.05-0.09 s
at T = 1000 and 0.45 s at T = 3000, and x1^2+x1*x2+x2*x3-sqrt2*x3^2, even in
no coordinate, about 0.2 s at T = 1000.  At d = 4 the cost grows as T^3:
x1^2+x2^2+x3^2-sqrt2*x4^2 takes about 0.08 s at T = 100, 0.22 s at T = 150
and 0.5 s at T = 200, and x1^2+x1*x2+x2*x3+x3*x4-sqrt2*x4^2, even in no
coordinate, 0.7 s at T = 100.  The cap MAX_T[4] = 1000 is accepted but stays
impractical: at those rates it would take from one minute to about ten.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
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


# Trial division runs up to sqrt(D): about 0.3 s for a prime D near the bound on a
# 2-core x86 host, paid once per radicand since the result is cached.
MAX_RADICAND = 10**12


@functools.cache
def _is_squarefree(d: int) -> bool:
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
        if not 2 <= self.d <= MAX_RADICAND or not _is_squarefree(self.d):
            raise FormParseError(f"d must be squarefree and in [2, {MAX_RADICAND}], got {self.d}")

    @staticmethod
    def rational(x, d: int) -> "QuadExt":
        return QuadExt(Fraction(x), Fraction(0), d)

    def __add__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o: "QuadExt") -> "QuadExt":
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

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
        # opposite signs: compare a^2 against b^2 d exactly; they never tie, since
        # a squarefree d >= 2 is not the square a^2 / b^2 of a rational
        cmp = a * a - b * b * self.d
        if a > 0:
            return 1 if cmp > 0 else -1
        return -1 if cmp > 0 else 1

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

    def even_coordinates(self) -> list[bool]:
        """For each j, whether Q is even in x_j (g_ij = 0 exactly for every i != j)."""
        return [all(self.gram[i][j].is_zero() for i in range(self.d) if i != j) for j in range(self.d)]

    def signature(self) -> tuple[int, int, int]:
        """(positives, negatives, zeros) by exact congruence diagonalization."""
        n = self.d
        m = [[self.gram[i][j] for j in range(n)] for i in range(n)]
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


@dataclass
class DecayCurve:
    rows: list[tuple[int, float]]
    exact_values: list[QuadExt]
    kappa: float  # fitted decay exponent; inf when the minimum is exactly 0


MAX_T = {3: 10_000, 4: 1_000}
_MAX_SCAN_VALUE = math.sqrt(sys.float_info.max / 8)  # about 4.7e153


def search_min_value(q: QuadraticForm, s: float, t_bound: int) -> SearchResult:
    """Best primitive |Q(v) - s| over 0 < ||v||_inf <= T, as `_scan` finds it."""
    _check_scannable(q, s, [t_bound])
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
    _check_scannable(q, s, t_list)
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


def _check_scannable(q: QuadraticForm, s: float, t_list: list[int]) -> None:
    if q.d not in MAX_T:
        raise BudgetError(f"supported dimensions: {sorted(MAX_T)}")
    for t in t_list:
        if isinstance(t, bool) or not isinstance(t, numbers.Integral):
            raise BudgetError(f"t_bound must be an integer, got {t!r}")
    if max(t_list) > MAX_T[q.d]:
        raise BudgetError(f"t_bound {max(t_list)} exceeds cap {MAX_T[q.d]} at d = {q.d}")
    if min(t_list) < 1:
        raise BudgetError(f"t_bound {min(t_list)} is below 1")
    if not math.isfinite(s):
        raise BudgetError(f"target s must be finite, got {s}")
    # |a|, |b| / 2 and |c - s| are at most m, so the scan's largest float, the
    # discriminant b^2 - 4ac, is at most 8 m^2
    m = sum(abs(float(x)) for row in q.gram for x in row) * max(t_list) ** 2 + abs(s)
    if not m <= _MAX_SCAN_VALUE:
        raise BudgetError(f"sum of |g_ij| T^2 + |s| is {m:.3g} at T = {max(t_list)}, "
                          f"past {_MAX_SCAN_VALUE:.3g}, where the scan's floats can overflow")
    if not q.is_indefinite():
        raise SignatureError("form must be indefinite")


_BLOCK_ENTRIES = 2**14  # a block holds max(1, _BLOCK_ENTRIES // width) rows of `width` entries


def _scan(q: QuadraticForm, s: float, t: int) -> tuple[tuple[int, ...], QuadExt]:
    """Best primitive v with 0 < ||v||_inf <= t, and the exact value Q(v) - s.

    Rows are the choices of the leading d - 2 coordinates (the head h), in
    lexicographic order.  In a row, coordinate d - 1 runs over w in [-t, t],
    and for each w, Q(v) - s is a quadratic a x^2 + b x + c in the last
    coordinate x.  The integer neighbours of its real roots (of its vertex
    when it has none), clipped to [-t, t], are each the integer nearest the
    low end of a stretch of [-t, t] on which |a x^2 + b x + c| is monotone, so
    together they hold a minimizer over the integers in [-t, t].  A candidate
    whose vector is not primitive steps away from its root or vertex (towards
    -1 when x <= root, else towards +1) to the nearest x in [-t, t] that gives
    a primitive vector, the best primitive x of its stretch.

    Only half the box is scanned.  The heads whose first nonzero entry is
    negative, followed by the zero head, are exactly the rows up to the zero
    head; the scan stops after it, and its row keeps every w.  Each skipped v
    has its mirror -v in an earlier row, with a bit-identical float error,
    since Q(-v) = Q(v): with c = c0 + 2 c1 w + g_kk w^2 and
    b = 2 (b0 + g_k,d-1 w), negating h and w keeps every term of c and negates
    b exactly, so the roots (or the vertex) are negated exactly (each of
    `_candidate_roots`' two formulas turns into the other's negative when b
    changes sign) and the error at -x in the mirror row is the error at x.  A
    root r that is not an integer has candidates floor(r), stepping to -1, and
    floor(r) + 1, stepping to +1; their mirrors are the mirror row's
    candidates floor(-r) + 1, stepping to +1, and floor(-r), stepping to -1.
    An exactly integer root, as the isotropic forms have, gives the pair
    {r, r + 1} and not a mirrored pair.  The step at x = r goes to -1, so the
    row reaches the nearest primitive x <= r and the nearest >= r + 1, while
    the mirror row, from -r and -r + 1, reaches the mirrors of the nearest
    >= r and the nearest <= r - 1.  These differ only when r is itself
    primitive, and then the rows hold r and -r, at the same error, which is
    the least of either row.  In the linear case (a = 0) the one root
    r = -c / b is mirrored the same way; where b is exactly 0 the row is
    constant, its pair is {0, 1}, and every primitive x ties.  So the skipped
    rows hold only exact ties, which never replace the best; row order is
    unchanged, so ties still go to the first vector found, and up to float ties
    the half scan returns what the full scan returns.

    A coordinate j in which Q is even (g_ij = 0 exactly for every i != j)
    gives one more mirror, v -> v with v_j negated, and every float the scan
    builds from v is unchanged by it: each term with a factor g_ij, i != j, is
    +-0, which leaves a sum that starts at +0 unchanged, and (g_jj h_j) h_j is
    unchanged by negating h_j.  So:
    - an even head coordinate runs over [-t, 0] only.  A row with h_j > 0
      before the zero head has the cells of the row with h_j negated bit for
      bit, and that row comes earlier and keeps the first nonzero entry
      negative;
    - an even w runs over [-t, 0] only.  The cells (h, w) and (h, -w) have the
      same a, b and c bit for bit, so the row's first least error lies at
      some w <= 0;
    - an even x has b = +0 everywhere, so the two roots are +-sqrt(disc) / (2a),
      exact negatives, and only the first is taken.  By the argument above,
      applied within one cell, the second root's candidates reach the mirrors
      of what the first root's reach, or r and -r at the same least error, and
      the first root's come first.
    Each skipped vector thus has a mirror earlier in row order with the same
    float error bit for bit and the same exact value, and the kept rows keep
    their order, so every minimum, vector and tie is the one above.

    Rows are scanned in blocks of max(1, _BLOCK_ENTRIES // width) rows, as
    flat arrays, where a row is width = 2t + 1 entries wide, or t + 1 for an
    even w.  A block builds its heads from their row numbers and sums
    the per-head scalars c0, c1 and b0 over all its heads at once, term by
    term in the order of the form's index pairs, so each is bit-identical to
    summing one head's terms one by one.  Before a block starts, its
    threshold is read off the best float value so far, best_val + 1e-9; only
    candidates whose float error is below it pay for a gcd and, if not
    primitive, take the step, and every other candidate counts as infinitely
    far.  Then the block's row minima are visited in row order: a row minimum
    below the current threshold is re-evaluated exactly and replaces the best
    only if exactly smaller.  Up to float rounding and ties within 1e-9 the
    result is the minimum over the box.

    The block threshold dates from before the block, so it can be looser
    than the current one, which a row-at-a-time scan would use.  A candidate
    that passes the filter or steps only because of that already has error >=
    the current threshold; stepping away from its root only raises that error,
    so it cannot become a row minimum below the threshold, ties included.  (A
    step that runs past the vertex into the neighbouring stretch lands on a
    primitive x which that stretch's own candidate, already below the
    threshold, reaches or beats exactly.)  So up to float rounding the result
    is the one the row-at-a-time scan returns.
    """
    d = q.d
    k = d - 2  # the row coordinates are v[:k]; v[k] runs over w, v[k + 1] is solved
    g = q.gram_float()
    even = q.even_coordinates()
    target = QuadExt.rational(Fraction(s).limit_denominator(10**12), q.field_d)
    a = g[d - 1, d - 1]
    sizes = [t + 1 if even[j] else 2 * t + 1 for j in range(k + 1)]  # an even one runs over [-t, 0]
    w = np.arange(-t, sizes[k] - t)
    abs_w, w_sq, w_lin = np.abs(w), g[k, k] * w * w, g[k, d - 1] * w
    n_rows = int(np.ravel_multi_index((t,) * k, sizes[:k])) + 1  # up to and including the zero head
    block_rows = max(1, _BLOCK_ENTRIES // w.size)
    best_val, best_vec, best_exact = math.inf, None, None
    for start in range(0, n_rows, block_rows):
        rows = np.arange(start, min(start + block_rows, n_rows))
        heads = np.stack(np.unravel_index(rows, sizes[:k]), axis=1) - t
        # each term is (g h_i) h_j, added in the same order as for a single row
        c0, c1, b0 = np.zeros((3, rows.size))
        for i in range(k):
            for j in range(k):
                c0 += g[i, j] * heads[:, i] * heads[:, j]
            c1 += g[i, k] * heads[:, i]
            b0 += g[i, d - 1] * heads[:, i]
        head_gcd = np.gcd.reduce(heads, axis=1)
        c = (c0[:, None] + 2 * c1[:, None] * w + w_sq).ravel()
        b = (2 * (b0[:, None] + w_lin)).ravel()
        threshold = best_val + 1e-9
        err_best = np.full(c.shape, math.inf)
        x_best = np.zeros(c.shape, dtype=w.dtype)
        for x, r in _candidate_roots(a, b, c - s, t, even[d - 1]):
            err = np.abs(a * x * x + b * x + c - s)
            live = np.flatnonzero(err < threshold)
            row, col = np.divmod(live, w.size)
            gcd_w = np.gcd(head_gcd[row], abs_w[col])
            x, err = x[live], err[live]
            prim = np.gcd(gcd_w, np.abs(x)) == 1
            walk = np.flatnonzero(~prim)
            if walk.size:
                at = live[walk]
                side = np.where(x[walk] <= r[at], -1, 1)  # away from the root
                xw, prim[walk] = _primitive_step(x[walk], side, gcd_w[walk], t)
                x[walk] = xw
                err[walk] = np.abs(a * xw * xw + b[at] * xw + c[at] - s)
            better = prim & (err < err_best[live])
            err_best[live[better]] = err[better]
            x_best[live[better]] = x[better]
        err_best = err_best.reshape(rows.size, w.size)
        cols = err_best.argmin(axis=1)
        row_min = err_best[np.arange(rows.size), cols]
        for i in np.flatnonzero(row_min < threshold):
            if row_min[i] < best_val + 1e-9:
                vec = (*heads[i].tolist(), int(w[cols[i]]), int(x_best[i * w.size + cols[i]]))
                exact = q.evaluate(vec) - target
                if best_exact is None or _abs_less(exact, best_exact):
                    best_val, best_vec, best_exact = abs(float(exact)), vec, exact
    if best_vec is None:
        raise BudgetError("no admissible vector found; enlarge the bound")
    return best_vec, best_exact


def _candidate_roots(a, b, c, t: int, even: bool):
    """Integers in [-t, t] next to the roots (or the vertex) of a x^2 + b x + c,
    each paired with that root; for a = 0, next to -c / b, or to 0 where b = 0.

    The roots come in the order (-b + sqrt(disc)) / (2a), (-b - sqrt(disc)) / (2a).
    Where -b and the square root have opposite signs that formula cancels, so
    that root is taken as 2c / (-b -+ sqrt(disc)), which is c / a over the other
    root.  A form even in x (`even`) has b = 0 everywhere, so its roots are
    +-sqrt(disc) / (2a), exact negatives, and only the first root's candidates
    are returned: the second's are their mirrors, at the same error bit for bit.

    A root is clipped to [-t - 1, t] before its floor is cast to int64, which
    keeps a root far out of range, even an infinite one, from overflowing the
    cast; the clipped candidates equal those of the unclipped floor."""
    with np.errstate(all="ignore"):  # a root past the float range is inf, and clipped
        if a == 0:
            roots = [np.where(b != 0, -c / b, 0.0)]
        else:
            disc = b * b - 4 * a * c
            has_root = disc >= 0
            sq = np.sqrt(np.where(has_root, disc, 0.0))
            vertex = -b / (2 * a)
            if even:
                roots = [np.where(has_root, sq / (2 * a), vertex)]
            else:
                plus = np.where(b > 0, 2 * c / (-b - sq), (-b + sq) / (2 * a))
                minus = np.where(b < 0, 2 * c / (-b + sq), (-b - sq) / (2 * a))
                roots = [np.where(has_root, r, vertex) for r in (plus, minus)]
    floors = [(np.floor(np.clip(r, -t - 1, t)).astype(np.int64), r) for r in roots]
    return [(np.clip(x, -t, t), r) for f, r in floors for x in (f, f + 1)]


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
                except (ValueError, ZeroDivisionError):
                    raise FormParseError(f"bad coefficient {p!r}") from None
        if len(vars_seen) != 2:
            raise FormParseError(f"monomial {term!r} is not quadratic")
        coeff_a, coeff_b = (Fraction(0), rational) if odd_root else (rational, Fraction(0))
        i, j = sorted(vars_seen)
        if i < 1:
            raise FormParseError(f"variables are numbered from x1, got x{i}")
        max_var = max(max_var, j)
        a, b = entries.get((i, j), (Fraction(0), Fraction(0)))
        entries[(i, j)] = (a + sign * coeff_a, b + sign * coeff_b)
    d = dim or max_var
    if max_var > d:
        raise FormParseError(f"variable x{max_var} exceeds dimension {d}")
    if field_d is None:
        field_d = 2  # rational form embedded in Q(sqrt 2)
    gram = [[QuadExt.rational(0, field_d) for _ in range(d)] for _ in range(d)]
    for (i, j), (a, b) in entries.items():
        coeff = QuadExt(a, b, field_d)
        try:
            finite = math.isfinite(float(coeff))  # as the scan reads it
        except OverflowError:
            finite = False
        if not finite:
            raise FormParseError(f"coefficient of {f'x{i}^2' if i == j else f'x{i}*x{j}'} overflows a float")
        if i == j:
            gram[i - 1][i - 1] = coeff
        else:
            half = coeff.scale(Fraction(1, 2))
            gram[i - 1][j - 1] = gram[i - 1][j - 1] + half
            gram[j - 1][i - 1] = gram[j - 1][i - 1] + half
    return QuadraticForm(d, tuple(tuple(row) for row in gram))


def sqrt2_form() -> QuadraticForm:
    return parse_form("x1^2+x2^2-sqrt2*x3^2")


def isotropic_form() -> QuadraticForm:
    return parse_form("x1^2-x3^2", dim=3)
