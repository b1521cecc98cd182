"""Exact linear algebra: frozen examples, oracle cross-checks, invariants."""

from __future__ import annotations

import json
import math
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repverify import generic, qlinalg
from repverify.harness import BUILTIN_CONFIGS
from repverify.qlinalg import (
    MAX_DIM,
    MODULUS,
    DimensionMismatch,
    LinAlgError,
    Mat,
    NotNilpotent,
    RowSpan,
    Subspace,
    _integer,
    canonicalize,
    certified_columns,
    exp_product,
    exp_product_columns,
    exp_product_residues,
    exp_terms,
    independent_columns,
    integer_columns,
    kernel_of_rows,
    mat_from_json,
    mat_to_json,
    matmul_mod,
    nilpotent_exp,
    rank,
    subspace_from_json,
    subspace_intersect,
    subspace_sum,
    subspace_to_json,
)
from repverify.reps import build_config

F = Fraction


def e(n, i):
    return [F(1) if t == i else F(0) for t in range(n)]


def random_mat(rng, rows, cols, span=6):
    return Mat.from_rows(
        [[F(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
    )


def random_subspace(rng, n, dim):
    while True:
        m = random_mat(rng, n, dim)
        s = canonicalize(m)
        if s.dim == dim:
            return s


def to_sympy(m: Mat):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


class TestCanonicalize:
    def test_duplicate_column(self):
        m = Mat.from_cols([e(3, 0), e(3, 0)])
        s = canonicalize(m)
        assert s.dim == 1
        assert s.basis.col(0) == tuple(e(3, 0))

    def test_identity_full_space(self):
        s = canonicalize(Mat.identity(3))
        assert s == Subspace.full(3)

    def test_hand_row_reduction(self):
        # span{(1,1,0), (1,2,0)} = span{e1, e2}
        s = canonicalize(Mat.from_cols([[1, 1, 0], [1, 2, 0]]))
        assert s == Subspace.from_columns(3, [e(3, 0), e(3, 1)])

    def test_zero_matrix(self):
        s = canonicalize(Mat.zeros(4, 2))
        assert s.dim == 0

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            s = canonicalize(random_mat(rng, 5, 3))
            assert canonicalize(s.basis) == s


class TestCanonicalForm:
    """Subspaces are stored as integer columns: reduced column echelon columns
    times the least integer L clearing their denominators."""

    def test_equivalent_generators_compare_equal(self):
        rng = random.Random(5)
        for _ in range(20):
            cols = [random_mat(rng, 5, 1).col(0) for _ in range(3)]
            s = Subspace.from_columns(5, cols)
            mixed = [[F(-7, 3) * x for x in cols[2]], cols[0], [5 * x for x in cols[1]], [F(2) * x for x in cols[0]]]
            t = Subspace.from_columns(5, mixed)
            assert t == s and hash(t) == hash(s)
            assert canonicalize(Mat.from_cols(mixed)) == s

    def test_columns_have_gcd_one_and_equal_positive_pivots(self):
        rng = random.Random(6)
        for _ in range(20):
            s = random_subspace(rng, 5, rng.randint(1, 4))
            pivots = [next(x for x in col if x) for col in s.columns]
            assert len(set(pivots)) == 1 and pivots[0] > 0
            assert math.gcd(*(x for col in s.columns for x in col)) == 1
            assert s.basis == Mat.from_cols(s.columns).scale(F(1, pivots[0]))
        assert Subspace.zero(3).columns == ()
        assert Subspace.full(2).columns == ((1, 0), (0, 1))

    def test_subspace_to_json_pinned(self):
        spaces = [
            Subspace.from_columns(3, [[2, 1, 0], [0, 3, 1]]),
            Subspace.from_columns(4, [[3, 1, 2, 0]]),
            Subspace.from_columns(5, [[1, 2, 3, 4, 5], [0, 7, 1, 0, 2], [4, 0, 0, 1, F(9, 2)]]),
        ]
        assert [json.dumps(subspace_to_json(s)) for s in spaces] == [
            '{"ambient_dim": 3, "basis": {"rows": 3, "cols": 2, "entries": [["1", "0"], ["0", "1"], ["-1/6", "1/3"]]}}',
            '{"ambient_dim": 4, "basis": {"rows": 4, "cols": 1, "entries": [["1"], ["1/3"], ["2/3"], ["0"]]}}',
            '{"ambient_dim": 5, "basis": {"rows": 5, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"], '
            '["0", "0", "1"], ["1/4", "-15/76", "105/76"], ["9/8", "17/152", "185/152"]]}}',
        ]
        assert spaces[0].columns == ((6, 0, -1), (0, 6, 2))

    def test_pickle_round_trip(self):
        s = random_subspace(random.Random(8), 4, 2)
        fresh = pickle.loads(pickle.dumps(s))
        assert fresh == s and hash(fresh) == hash(s)
        s.basis  # noqa: B018 - a cached basis travels with the pickle
        assert pickle.loads(pickle.dumps(s)).basis == s.basis

    def test_from_columns_checks_lengths(self):
        with pytest.raises(DimensionMismatch):
            Subspace.from_columns(3, [[1, 0]])
        with pytest.raises(DimensionMismatch):
            Subspace.from_columns(3, [[1, 0, 0], [1, 0]])

    def test_coordinate_matches_from_columns(self):
        for n in range(7):
            for mask in range(2**n):
                idx = [i for i in range(n) if mask >> i & 1]
                unit = [[int(t == i) for t in range(n)] for i in idx]
                assert Subspace.coordinate(n, idx) == Subspace.from_columns(n, unit)
                assert Subspace.coordinate(n, idx).columns == Subspace.from_columns(n, unit).columns
        assert Subspace.coordinate(4, [3, 1, 3]) == Subspace.coordinate(4, [1, 3])
        assert Subspace.full(3) == Subspace.coordinate(3, range(3))
        for bad in ([3], [-1]):
            with pytest.raises(DimensionMismatch):
                Subspace.coordinate(3, bad)


class TestKernel:
    def test_zero_map(self):
        m = Mat.zeros(2, 2)
        assert kernel_of_rows(integer_columns(m.transpose()), m.cols) == Subspace.full(2)

    def test_invertible(self):
        m = Mat.from_rows([[1, 1], [0, 1]])
        assert kernel_of_rows(integer_columns(m.transpose()), m.cols).dim == 0

    def test_row_of_ones(self):
        m = Mat.from_rows([[1, 1, 1]])
        k = kernel_of_rows(integer_columns(m.transpose()), m.cols)
        assert k.dim == 2
        assert k.contains_vector([1, -1, 0])
        for col in k.columns:
            assert all(x == 0 for x in m.apply(col))

    def test_rank_against_sympy(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            assert rank(m) == to_sympy(m).rank()
            assert kernel_of_rows(integer_columns(m.transpose()), m.cols).dim == m.cols - to_sympy(m).rank()

    def test_kernel_of_rows_keeps_its_rows(self):
        rng = random.Random(6)
        for _ in range(20):
            m = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            rows = integer_columns(m.transpose())
            before = [list(row) for row in rows]
            assert kernel_of_rows(rows, m.cols).dim == m.cols - rank(m)
            assert rows == before
        assert kernel_of_rows([], 3) == Subspace.full(3)


class TestSumIntersect:
    def test_axes_sum(self):
        u = Subspace.from_columns(3, [e(3, 0)])
        w = Subspace.from_columns(3, [e(3, 1)])
        assert subspace_sum(u, w) == Subspace.from_columns(3, [e(3, 0), e(3, 1)])

    def test_sum_idempotent_neutral(self):
        rng = random.Random(7)
        u = random_subspace(rng, 4, 2)
        assert subspace_sum(u, u) == u
        assert subspace_sum(u, Subspace.zero(4)) == u

    def test_plane_intersection(self):
        u = Subspace.from_columns(3, [e(3, 0), e(3, 1)])
        w = Subspace.from_columns(3, [e(3, 1), e(3, 2)])
        assert subspace_intersect(u, w) == Subspace.from_columns(3, [e(3, 1)])

    def test_intersect_idempotent(self):
        rng = random.Random(13)
        u = random_subspace(rng, 5, 3)
        assert subspace_intersect(u, u) == u

    def test_complementary_planes(self):
        u = Subspace.from_columns(4, [e(4, 0), e(4, 1)])
        w = Subspace.from_columns(4, [e(4, 2), e(4, 3)])
        assert subspace_intersect(u, w).dim == 0
        stacked = u.basis.hstack(w.basis)
        assert rank(stacked) == 4

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_sum(Subspace.full(2), Subspace.full(3))
        with pytest.raises(DimensionMismatch):
            subspace_intersect(Subspace.full(2), Subspace.full(3))

    def test_dimension_formula_random(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 6)
            u = random_subspace(rng, n, rng.randint(0, n))
            w = random_subspace(rng, n, rng.randint(0, n))
            s = subspace_sum(u, w)
            i = subspace_intersect(u, w)
            assert s.dim + i.dim == u.dim + w.dim
            assert s.contains_subspace(u) and s.contains_subspace(w)
            assert u.contains_subspace(i) and w.contains_subspace(i)


class TestNilpotentExp:
    def test_zero(self):
        assert nilpotent_exp(Mat.zeros(3, 3)) == Mat.identity(3)

    def test_e12(self):
        n = Mat.from_rows([[0, 1], [0, 0]])
        assert nilpotent_exp(n) == Mat.from_rows([[1, 1], [0, 1]])

    def test_three_term(self):
        n = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        exp = nilpotent_exp(n)
        assert exp == Mat.from_rows([[1, 1, F(1, 2)], [0, 1, 1], [0, 0, 1]])

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotent_exp(Mat.identity(2))

    def test_exp_inverse(self):
        rng = random.Random(31)
        for _ in range(15):
            n = 4
            strict = [[F(rng.randint(-4, 4)) if j > i else F(0) for j in range(n)] for i in range(n)]
            m = Mat.from_rows(strict)
            assert nilpotent_exp(m) @ nilpotent_exp(-m) == Mat.identity(n)
            assert to_sympy(nilpotent_exp(m)).det() == 1


class TestIndependentColumns:
    def test_integer_columns_clear_each_column(self):
        m = Mat.from_rows([[F(1, 2), F(2, 3)], [F(1, 4), 1]])
        assert integer_columns(m) == [[2, 1], [2, 3]]

    def test_full_rank_mod_p_is_kept(self):
        assert independent_columns([[1, 2], [3, 4], [5, 6]]) == [0, 1]
        assert independent_columns([]) == []

    def test_deficient_mod_p_full_over_q(self):
        # (p, 0) vanishes mod p; the RowSpan over Z sees rank 2
        assert independent_columns([[MODULUS, 0], [0, 1]]) == [0, 1]

    def test_deficient_mod_p_and_over_q(self):
        # rank 1 mod p, rank 2 over Q, below min(3, 3) both ways
        cols = [[MODULUS, 0, 0], [0, 1, 0], [MODULUS, 1, 0]]
        assert independent_columns(cols) == [0, 1]

    def test_bareiss_recount_matches_rank(self):
        # every column a multiple of p, which a mod-p count would miss; the
        # sparse entries leave zeros in pivot columns, which RowSpan must skip
        rng = random.Random(5)
        for _ in range(3000):
            n, c = rng.randint(1, 6), rng.randint(1, 7)
            cols = [[0 if rng.random() < 0.5 else rng.randint(-9, 9) for _ in range(n)] for _ in range(c)]
            sel = independent_columns([[MODULUS * x for x in col] for col in cols])
            assert len(sel) == rank(Mat.from_cols(cols))
            assert rank(Mat.from_cols([cols[i] for i in sel]) if sel else Mat(n, 0, ())) == len(sel)

    def test_zero_columns_are_skipped(self):
        assert independent_columns([[0, 0, 0], [0, 2, 0], [0, 0, 0], [0, 4, 0], [1, 1, 1]]) == [1, 4]


class TestRowSpan:
    def test_wrong_length_raises(self):
        span = RowSpan(3)
        span.add([1, 0, 0])
        for bad in ([1, 0, 0, 5], [0, 1]):
            for method in (span.add, span.contains, span.reduce):
                with pytest.raises(DimensionMismatch):
                    method(bad)
        assert span.dim == 1
        with pytest.raises(DimensionMismatch):
            RowSpan(3).add([0, 1])

    def test_reduce_clears_pivots_and_rows_stay(self):
        span = RowSpan(3)
        assert span.add([2, 4, 0]) and span.add([F(1, 3), 1, 2])
        rows = [list(row) for row in span._rows]
        assert not span.add([1, 3, 6])
        assert span.add([0, 0, F(-5, 7)]) and span.dim == 3
        assert span._rows[:2] == rows == [[1, 2, 0], [0, 1, 6]]
        span = RowSpan(3)
        span.add([2, 4, 0])
        span.add([0, 3, 6])
        assert span.reduce([F(1, 2), 0, 0]) == (0, 0, 2)
        assert span.reduce([1, 1, 1]) == (0, 0, 3)


class TestSerialization:
    def test_mat_round_trip(self):
        rng = random.Random(2)
        m = random_mat(rng, 3, 4, span=20)
        assert mat_from_json(mat_to_json(m)) == m

    def test_subspace_round_trip(self):
        rng = random.Random(9)
        s = random_subspace(rng, 5, 3)
        assert subspace_from_json(subspace_to_json(s)) == s

    def test_subspace_from_json_canonicalizes(self):
        m = Mat.from_cols([[1, 0], [2, 0]])
        s = subspace_from_json({"ambient_dim": 2, "basis": mat_to_json(m)})
        assert s.dim == 1
        assert s == canonicalize(m)
        with pytest.raises(DimensionMismatch):
            subspace_from_json({"ambient_dim": 3, "basis": mat_to_json(m)})
        # a bool is not read as 1, which the one row of this basis would match
        with pytest.raises(ValueError, match="ambient_dim: True is not an integer"):
            subspace_from_json({"ambient_dim": True, "basis": mat_to_json(Mat.from_cols([[1]]))})


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def frac_matrix(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    c = draw(st.integers(min_value=0, max_value=max_n))
    rows = draw(
        st.lists(st.lists(small_fracs, min_size=c, max_size=c), min_size=n, max_size=n)
    )
    return Mat.from_rows(rows) if c else Mat(n, 0, ())


@settings(max_examples=60, deadline=None)
@given(frac_matrix(), frac_matrix())
def test_dim_formula_property(a, b):
    if a.rows != b.rows:
        return
    u, w = canonicalize(a), canonicalize(b)
    s = subspace_sum(u, w)
    i = subspace_intersect(u, w)
    assert s.dim + i.dim == u.dim + w.dim


@st.composite
def subspace_pair(draw):
    """Two small integer subspaces of one R^n: the second zero, full, equal to
    the first, inside it, around it or unrelated, in either order."""
    n = draw(st.integers(min_value=1, max_value=5))

    def vectors(k):
        return draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=k, max_size=k))

    a = Subspace.from_columns(n, vectors(draw(st.integers(min_value=0, max_value=n))))
    relation = draw(st.sampled_from(["zero", "full", "equal", "inside", "around", "any"]))
    if relation == "zero":
        b = Subspace.zero(n)
    elif relation == "full":
        b = Subspace.full(n)
    elif relation == "equal":
        b = a
    elif relation == "inside":
        coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=a.dim, max_size=a.dim), max_size=3))
        b = Subspace.from_columns(n, [[sum(c * col[i] for c, col in zip(cs, a.columns)) for i in range(n)]
                                      for cs in coeffs])
    elif relation == "around":
        b = subspace_sum(a, Subspace.from_columns(n, vectors(draw(st.integers(min_value=0, max_value=2)))))
    else:
        b = Subspace.from_columns(n, vectors(draw(st.integers(min_value=0, max_value=n))))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=200, deadline=None)
@given(subspace_pair(), st.integers(min_value=1, max_value=6))
def test_contains_subspace_matches_sum_property(pair, other_n):
    a, b = pair
    assert a.contains_subspace(b) == (subspace_sum(a, b) == a)
    assert b.contains_subspace(a) == (subspace_sum(a, b) == b)
    if other_n != a.ambient_dim:
        for other in (Subspace.zero(other_n), Subspace.full(other_n)):
            with pytest.raises(DimensionMismatch):
                a.contains_subspace(other)
            with pytest.raises(DimensionMismatch):
                other.contains_subspace(a)


@st.composite
def int_or_frac_matrix(draw):
    """A random rational matrix, half of its entries zero, or a product A B of
    small inner dimension (rank deficient); some columns are scaled by MODULUS
    so that they vanish mod p."""
    n = draw(st.integers(min_value=1, max_value=6))
    c = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(F(0)), small_fracs)

    def mat(rows, cols):
        return Mat.from_rows(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))

    if draw(st.booleans()):
        inner = draw(st.integers(min_value=1, max_value=3))
        m = mat(n, inner) @ mat(inner, c)
    else:
        m = mat(n, c)
    scaled = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    return Mat.from_cols([[x * MODULUS if s else x for x in m.col(j)] for j, s in enumerate(scaled)])


@settings(max_examples=120, deadline=None)
@given(int_or_frac_matrix())
def test_independent_columns_rank_property(m):
    cols = integer_columns(m)
    sel = independent_columns(cols)
    assert len(sel) == to_sympy(m).rank()
    assert to_sympy(Mat.from_cols([cols[i] for i in sel]) if sel else Mat(m.rows, 0, ())).rank() == len(sel)


@settings(max_examples=120, deadline=None)
@given(int_or_frac_matrix())
def test_independent_columns_exact_branch_is_greedy(m):
    # every column a multiple of p, which a mod-p count would miss: column i is
    # picked exactly when it raises the rank of the columns before it
    cols = [[MODULUS * x for x in col] for col in integer_columns(m)]
    sm = to_sympy(m)
    ranks = [sm[:, :i].rank() for i in range(m.cols + 1)]
    assert independent_columns(cols) == [i for i in range(m.cols) if ranks[i + 1] > ranks[i]]


def _sweep_mod_p(rows):
    """certified_columns for one matrix, one row at a time: pivot on the first
    remaining row that is nonzero mod p, remove it and eliminate the column
    from the rest."""
    rows, width, pivots = [list(row) for row in rows], len(rows[0]), []
    full = min(len(rows), width)
    for c in range(width):
        i = next((i for i, row in enumerate(rows) if row[c] % MODULUS), None)
        if i is not None:
            y = rows.pop(i)
            rows = [[(y[c] * x - row[c] * b) % MODULUS for x, b in zip(row, y)] for row in rows]
            pivots.append(c)
    return pivots if len(pivots) == full else None


@st.composite
def residue_batches(draw):
    """Integer matrices of one shape (length x #vectors), each of one of three
    kinds: dense with entries up to 2^40 (full rank), the same with some
    columns times MODULUS (deficient mod p, not over Q), or a product of inner
    dimension below both sides (deficient over Q)."""
    length = draw(st.integers(min_value=1, max_value=6))
    width = draw(st.integers(min_value=1, max_value=7))
    big = st.integers(min_value=-(2**40), max_value=2**40)

    def mat(rows, cols, entry=big):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    mats = []
    for kind in draw(st.lists(st.sampled_from(("full", "mod_p", "over_q")), min_size=1, max_size=6)):
        if kind == "over_q" and min(length, width) > 1:
            inner = draw(st.integers(min_value=1, max_value=min(length, width) - 1))
            a, b = mat(length, inner, st.integers(-9, 9)), mat(inner, width, st.integers(-9, 9))
            m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
        else:
            m = mat(length, width)
            if kind == "mod_p":
                scaled = draw(st.lists(st.booleans(), min_size=width, max_size=width))
                m = [[x * MODULUS if s else x for x, s in zip(row, scaled)] for row in m]
        mats.append(m)
    return mats


@settings(max_examples=150, deadline=None)
@given(residue_batches())
def test_certified_columns_match_per_matrix_sweep(mats):
    batch = np.array([[[x % MODULUS for x in row] for row in m] for m in mats], dtype=np.int64)
    got = certified_columns(batch)
    assert got == [_sweep_mod_p(m) for m in mats]
    for m, sel in zip(mats, got):
        # a certified list is a basis over Q of the span of the columns
        cols = [list(col) for col in zip(*m)]
        if sel is not None:
            assert len(sel) == len(independent_columns(cols)) == len(independent_columns([cols[i] for i in sel]))
            assert all(type(c) is int for c in sel)


def test_certified_columns_edge_shapes():
    assert certified_columns(np.zeros((2, 3, 0), dtype=np.int64)) == [[], []]
    # entries p - 1 everywhere: the largest products the sweep forms
    top = np.full((1, 2, 2), MODULUS - 1, dtype=np.int64)
    top[0, 1, 1] = 1
    assert certified_columns(top) == [[0, 1]]
    assert certified_columns(np.full((1, 2, 2), MODULUS - 1, dtype=np.int64)) == [None]


class DenseRowSpan:
    """RowSpan's update without supports: every reduction rewrites the whole
    vector, w -> q w - f row."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def residual(self, vec):
        vec = [F(x) for x in vec]
        s = math.lcm(*(x.denominator for x in vec))
        w = [x.numerator * (s // x.denominator) for x in vec]
        for p, row in zip(self.pivots, self.rows):
            if w[p]:
                g = math.gcd(row[p], w[p])
                q, f = row[p] // g, w[p] // g
                w = [q * a - f * b for a, b in zip(w, row)]
                s *= q
        return w, s

    def add(self, vec):
        w, _ = self.residual(vec)
        if not any(w):
            return False
        g = math.gcd(*w)
        self.rows.append([x // g for x in w])
        self.pivots.append(next(i for i, x in enumerate(w) if x))
        return True


@st.composite
def sparse_vectors(draw):
    """Sparse integer vectors of one length, some of them integer combinations
    of those before, so that reductions meet pivot ratios 1 and not 1."""
    n = draw(st.integers(min_value=1, max_value=7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(min_value=-4, max_value=4))
    vecs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        if vecs and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=len(vecs), max_size=len(vecs)))
            vecs.append([sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(n)])
        else:
            vecs.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return vecs


@settings(max_examples=200, deadline=None)
@given(sparse_vectors())
@example([[2, 1, 0], [1, 0, 0], [4, 0, 1], [3, 1, 5]])  # q = 2, then q = 1 and q = -1
def test_rowspan_support_path_matches_dense_update(vecs):
    span, ref = RowSpan(len(vecs[0])), DenseRowSpan()
    for v in vecs:
        for probe in (v, [F(x, 2) for x in v], v[::-1]):
            w, s = ref.residual(probe)
            assert span.contains(probe) is not any(w)
            assert span.reduce(probe) == tuple(F(x, s) for x in w)
        assert span.add(v) is ref.add(v)
        assert (span._rows, span.dim) == (ref.rows, len(ref.rows))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=-9, max_value=9), small_fracs), max_size=6))
def test_integer_clears_denominators(vec):
    s, w = _integer(vec)
    if all(isinstance(x, int) for x in vec):
        assert (s, w) == (1, vec) and w is not vec
    lcm = math.lcm(*(F(x).denominator for x in vec))
    assert (s, w) == (lcm, [int(F(x) * lcm) for x in vec])
    assert all(type(x) is int for x in w)


@st.composite
def reference_matrix(draw):
    """A rational matrix, half of its entries zero or a rank-deficient product
    A B, with some rows and columns zeroed; a zero top-left entry makes the
    first pivot a row swap whenever column 0 is nonzero."""
    n = draw(st.integers(min_value=1, max_value=5))
    c = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(F(0)), small_fracs)

    def mat(rows, cols):
        return draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if draw(st.booleans()):
        inner = draw(st.integers(min_value=1, max_value=3))
        prod = Mat.from_rows(mat(n, inner)) @ Mat.from_rows(mat(inner, c))
        rows = [list(prod.row(i)) for i in range(n)]
    else:
        rows = mat(n, c)
    rarely = st.integers(min_value=0, max_value=3).map(lambda x: x == 0)
    zero_rows = draw(st.lists(rarely, min_size=n, max_size=n))
    zero_cols = draw(st.lists(rarely, min_size=c, max_size=c))
    rows = [[F(0) if zero_rows[i] or zero_cols[j] else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
    if draw(st.booleans()):
        rows[0][0] = F(0)
    return Mat.from_rows(rows)


def from_sympy(rows) -> Mat:
    """Rows of sympy Rationals as a Mat."""
    return Mat.from_rows([[F(int(x.p), int(x.q)) for x in row] for row in rows])


def sympy_span(n, vectors) -> Subspace:
    """The canonical Subspace of span(vectors) computed by sympy's rref: its
    nonzero rows times the lcm of their denominators."""
    if not vectors:
        return Subspace.zero(n)
    ref, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    if not pivots:
        return Subspace.zero(n)
    rows = [list(ref.row(i)) for i in range(len(pivots))]
    lcm = math.lcm(*(int(x.q) for row in rows for x in row))
    return Subspace(n, tuple(tuple(int(x * lcm) for x in row) for row in rows))


@settings(max_examples=150, deadline=None)
@given(reference_matrix(), st.data())
def test_elimination_matches_sympy(m, data):
    sm = to_sympy(m)
    r = sm.rank()
    assert rank(m) == r
    assert canonicalize(m) == sympy_span(m.rows, [sm.col(j) for j in range(m.cols)])
    assert kernel_of_rows(integer_columns(m.transpose()), m.cols) == sympy_span(m.cols, sm.nullspace())
    # the span of A x over the kernel vectors (x, y) of [A | -B]; A and B share column h
    h = m.cols // 2
    a, b = sm[:, : h + 1], sm[:, h:]
    meet = [a * v[: h + 1, :] for v in sympy.Matrix.hstack(a, -b).nullspace()]
    u, w = canonicalize(from_sympy(a.tolist())), canonicalize(from_sympy(b.tolist()))
    assert subspace_intersect(u, w) == subspace_intersect(w, u) == sympy_span(m.rows, meet)
    generators = [a.col(j) for j in range(a.cols)] + [b.col(j) for j in range(b.cols)]
    assert subspace_sum(u, w) == sympy_span(m.rows, generators)
    # a vector of the domain to reduce against the row span below
    pairs = st.lists(small_fracs, min_size=2, max_size=2)
    x0 = Mat.from_rows(data.draw(st.lists(pairs, min_size=m.cols, max_size=m.cols)))
    # RowSpan grows exactly when the sympy rank of the rows added so far grows
    span = RowSpan(m.cols)
    for i in range(m.rows):
        row = m.row(i)
        grows = sm[: i + 1, :].rank() > span.dim
        assert span.contains(row) is not grows
        assert span.add(row) is grows
        assert span.dim == sm[: i + 1, :].rank()
    v = x0.col(0)
    residual = span.reduce(v)
    assert span.contains([x - y for x, y in zip(v, residual)])
    assert span.contains(v) is not any(residual)
    assert not any(residual[p] for p in sm.rref()[1])


@settings(max_examples=60, deadline=None)
@given(frac_matrix())
def test_canonicalize_idempotent_property(m):
    s = canonicalize(m)
    assert canonicalize(s.basis) == s


@settings(max_examples=60, deadline=None)
@given(frac_matrix())
def test_kernel_annihilates_property(m):
    k = kernel_of_rows(integer_columns(m.transpose()), m.cols)
    assert k.dim == m.cols - rank(m)
    for col in k.columns:
        assert all(x == 0 for x in m.apply(col))


@settings(max_examples=40, deadline=None)
@given(frac_matrix())
def test_column_space_and_left_kernel_split_the_space_property(m):
    # over Q the column space of m meets the kernel of m^T only in 0
    u = canonicalize(m)
    k = kernel_of_rows(integer_columns(m), m.rows)
    assert u.dim + k.dim == m.rows
    assert subspace_intersect(u, k).dim == 0
    assert subspace_sum(u, k) == Subspace.full(m.rows)


@st.composite
def nilpotent_matrix(draw, min_n=1, max_n=6):
    """Strictly upper-triangular rational N, conjugated by a permutation so the
    pattern is not always triangular."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    rows = [[draw(entry) if j > i else F(0) for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    return Mat.from_rows([[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)])


def power_series_exp(m):
    """sum_k m^k / k! for k = 0..dim, by plain Fraction matrix products."""
    acc, term = Mat.identity(m.rows), Mat.identity(m.rows)
    for k in range(1, m.rows + 1):
        term = (term @ m).scale(F(1, k))
        acc = acc + term
    return acc


params = st.fractions(min_value=-99, max_value=99, max_denominator=97)


@settings(max_examples=80, deadline=None)
@given(nilpotent_matrix(), params)
def test_nilpotent_exp_matches_power_series(n, t):
    assert nilpotent_exp(n.scale(t)) == power_series_exp(n.scale(t))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exp_product_matches_power_series(data):
    dim = data.draw(st.integers(min_value=1, max_value=5))
    factors = data.draw(st.lists(st.tuples(nilpotent_matrix(dim, dim), params), max_size=4))
    expected = Mat.identity(dim)
    for n, t in factors:
        expected = expected @ power_series_exp(n.scale(t))
    assert exp_product(dim, [(exp_terms(n), t) for n, t in factors]) == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exp_product_columns_match_power_series(data):
    # the kernel's columns over its denominator are the Fraction power-series
    # product times the integer columns; on the identity it is exp_product
    dim = data.draw(st.integers(min_value=1, max_value=5))
    factors = data.draw(st.lists(st.tuples(nilpotent_matrix(dim, dim), params), max_size=4))
    cols = data.draw(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=dim, max_size=dim), max_size=4))
    product = Mat.identity(dim)
    for n, t in factors:
        product = product @ power_series_exp(n.scale(t))
    schedule = [(exp_terms(n), t) for n, t in factors]
    out, den = exp_product_columns(dim, schedule, cols)
    assert [[F(x, den) for x in col] for col in out] == [list(product.apply(col)) for col in cols]
    out, den = exp_product_columns(dim, schedule, np.eye(dim, dtype=int).tolist())
    assert Mat.from_cols([[F(x, den) for x in col] for col in out]) == exp_product(dim, schedule) == product


def test_matmul_mod_matches_big_integers():
    # residues p - 1 and p - 2: each product is near 2^62 and a sum of 14 of them
    # overflows int64, which numpy's plain @ wraps silently
    rng = random.Random(3)
    p = MODULUS
    a, b = ([[[rng.choice((p - 1, p - 2)) for _ in range(14)] for _ in range(14)] for _ in range(15)] for _ in "ab")
    want = [[[sum(x * y for x, y in zip(row, col)) % p for col in zip(*mb)] for row in ma] for ma, mb in zip(a, b)]
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    assert matmul_mod(a, b).tolist() == want
    assert (a @ b % p).tolist() != want


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exp_product_residues_match_exact(data):
    # a batch of parameter rows on one schedule of N's, against each exact product mod p
    dim = data.draw(st.integers(min_value=1, max_value=5))
    schedule = [exp_terms(n) for n in data.draw(st.lists(nilpotent_matrix(dim, dim), max_size=4))]
    batch = data.draw(st.lists(st.lists(params, min_size=len(schedule), max_size=len(schedule)), max_size=3))
    got = exp_product_residues(dim, schedule, batch)
    assert got.shape == (len(batch), dim, dim)
    for row, residues in zip(batch, got.tolist()):
        cols, den = exp_product_columns(dim, list(zip(schedule, row)), np.eye(dim, dtype=int).tolist())
        assert residues == [[x * pow(den, -1, MODULUS) % MODULUS for x in r] for r in zip(*cols)]


@pytest.mark.parametrize("fill", ["p-1", "random"])
def test_matmul_mod_exact_at_max_dim(fill):
    # every entry p - 1: each float64 inner sum of a low half reaches
    # 64 (2^31 - 2)(2^16 - 2), within 2^38 of 2^53; random residues round
    # in float64 unless the halves keep every sum below 2^53
    if fill == "p-1":
        a = np.full((2, 3, MAX_DIM), MODULUS - 1, dtype=np.int64)
        b = np.full((MAX_DIM, 4), MODULUS - 1, dtype=np.int64)
    else:
        rng = np.random.default_rng(7)
        a, b = rng.integers(MODULUS - 2**20, MODULUS, (2, 3, MAX_DIM)), rng.integers(MODULUS - 2**20, MODULUS, (MAX_DIM, 4))
    want = [[[sum(x * y for x, y in zip(row, col)) % MODULUS for col in zip(*b.tolist())] for row in m] for m in a.tolist()]
    assert matmul_mod(a, b).tolist() == want
    with pytest.raises(LinAlgError, match="inner dimension 65"):
        matmul_mod(np.ones((3, MAX_DIM + 1), dtype=np.int64), np.ones((MAX_DIM + 1, 2), dtype=np.int64))


def _exact_residues(dim, schedule, row):
    cols, den = exp_product_columns(dim, list(zip(schedule, row)), np.eye(dim, dtype=int).tolist())
    return [[x * pow(den, -1, MODULUS) % MODULUS for x in r] for r in zip(*cols)]


@pytest.mark.parametrize("name", [*BUILTIN_CONFIGS, "sl2_sym:60"])
def test_exp_product_residues_match_exact_on_configs(name):
    # one sampled element per family; sl2_sym:60 has a degree-60 term, and its
    # chunks hold one factor each
    cfg = build_config(name)
    (el,) = generic.sample_elements(cfg, 0, 1)
    schedule = [generic._generator_terms(cfg, idx) for idx, _ in el.recipe]
    row = [t for _, t in el.recipe]
    assert exp_product_residues(cfg.n, schedule, [row]).tolist() == [_exact_residues(cfg.n, schedule, row)]


def test_exp_product_residues_do_not_depend_on_chunks(monkeypatch):
    # sp2n:2 has 16 factors at n = 5: chunks of 5, 5, 5 and 1, odd tree levels
    cfg = build_config("sp2n:2")
    elements = generic.sample_elements(cfg, 3, 6)
    schedule = [generic._generator_terms(cfg, idx) for idx, _ in elements[0].recipe]
    params = [[t for _, t in el.recipe] for el in elements]
    got = exp_product_residues(cfg.n, schedule, params)
    assert got.tolist() == [_exact_residues(cfg.n, schedule, row) for row in params]
    per_factor = (len(params) + max(len(terms.terms) for terms in schedule)) * cfg.n**2
    for entries in (1, 2 * per_factor, 3 * per_factor):  # chunks of 1, 2 and 3 factors
        monkeypatch.setattr(qlinalg, "FACTOR_ENTRIES", entries)
        assert (exp_product_residues(cfg.n, schedule, params) == got).all()


@pytest.mark.parametrize(
    "schedule, batch, want",
    [
        ([], [[], []], [np.eye(3)] * 2),  # empty schedule: the identity per row
        ([Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])], [], []),  # empty batch
        ([Mat.zeros(3, 3), Mat.zeros(3, 3)], [[F(5, 7), F(-2)]], [np.eye(3)]),  # zero generators
    ],
    ids=["empty-schedule", "empty-batch", "zero-generator"],
)
def test_exp_product_residues_edge_cases(schedule, batch, want):
    got = exp_product_residues(3, [exp_terms(n) for n in schedule], batch)
    assert got.shape == (len(batch), 3, 3) and got.dtype == np.int64
    assert got.tolist() == np.array(want, dtype=np.int64).reshape(-1, 3, 3).tolist()


def test_exp_product_residues_memory_stays_small():
    # 50 elements of sl2_sym:60 (n = 61); one batched elementwise product of
    # the whole batch, T n^3 int64 entries, would peak near 94 MB
    cfg = build_config("sl2_sym:60")
    elements = generic.sample_elements(cfg, 0, 50)
    schedule = [generic._generator_terms(cfg, idx) for idx, _ in elements[0].recipe]
    params = [[t for _, t in el.recipe] for el in elements]
    for terms in schedule:
        terms.residues
    tracemalloc.start()
    try:
        exp_product_residues(cfg.n, schedule, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_exp_product_residues_need_invertible_denominators():
    terms = exp_terms(Mat.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(LinAlgError):
        exp_product_residues(2, [terms], [[F(1, MODULUS)]])
