"""Configuration builders, weight decompositions, hypothesis checks."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from repverify import reps
from repverify.qlinalg import DimensionMismatch, Mat, RowSpan, Subspace, _integer, exp_terms, mat_to_json, subspace_intersect, subspace_sum, subspace_to_json
from repverify.reps import (
    ConfigError,
    InvalidLevel,
    RationalityError,
    RepConfig,
    build_config,
    check_irreducible,
    check_proximal,
    config_from_json,
    config_to_json,
    flag_projector,
    weight_decompose,
)

F = Fraction


def _words(mats) -> tuple:
    """The (L, word) pairs of Fraction matrices, as `RepConfig` stores its
    generators: L the lcm of the denominators, word the entries times L."""
    return tuple((s, tuple(w)) for s, w in (_integer(m.entries) for m in mats))


ALL_DESCRIPTORS = [
    "so_pq:2,1",
    "so_pq:2,2",
    "so_pq:3,1",
    "sp2n:2",
    "tensor:2,2",
    "tensor_std:2,2",
    "sl2_sym:1",
    "sl2_sym:2",
    "sl2_sym:4",
    "diagonal:sl2",
    "diagonal:sl3",
]


class TestBuild:
    def test_so21_dimensions(self):
        cfg = build_config("so_pq:2,1")
        assert cfg.n == 5  # dim sl_3 - dim so(2,1) = 8 - 3
        assert cfg.h_dim == 3

    def test_sp4_dimensions(self):
        cfg = build_config("sp2n:2")
        assert cfg.n == 5  # dim sl_4 - dim sp_4 = 15 - 10
        assert cfg.h_dim == 10

    def test_tensor22_dimension(self):
        assert build_config("tensor:2,2").n == 9  # sl_2 (x) sl_2

    def test_unsupported(self):
        with pytest.raises(ConfigError):
            build_config("so_pq:1,1")
        with pytest.raises(ConfigError):
            build_config("frobnicate:3")

    @pytest.mark.parametrize(
        "desc", ["so_pq:x,1", "sp2n:1.5", "diagonal:slx", "tensor:2,y", "tensor_std:z,2", "sl2_sym:k"]
    )
    def test_non_integer_field(self, desc):
        with pytest.raises(ConfigError):
            build_config(desc)

    @pytest.mark.parametrize(
        "desc", ["tensor:1,2", "tensor:2,1", "tensor_std:-1,2", "tensor_std:0,3", "tensor_std:1,1", "sp2n:1"]
    )
    def test_field_out_of_range(self, desc):
        with pytest.raises(ConfigError):
            build_config(desc)

    @pytest.mark.parametrize(
        "desc", ["so_pq:40,40", "tensor:9,9", "sp2n:6", "diagonal:sl9", "tensor_std:8,9", "sl2_sym:64"]
    )
    def test_dimension_cap_checked_before_building(self, monkeypatch, desc):
        def no_build(*args, **kwargs):
            raise AssertionError("a matrix was built past the dimension cap")

        for builder in ("_complement_config", "_adjoint_config", "_tensor_config", "_sl2_sym_config"):
            monkeypatch.setattr(reps, builder, no_build)
        with pytest.raises(ConfigError, match="exceeds supported cap"):
            build_config(desc)

    @pytest.mark.parametrize("desc, n", [("tensor_std:1,2", 2), ("sl2_sym:63", 64)])
    def test_range_edges_still_build(self, desc, n):
        assert build_config(desc).n == n

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_bracket_closure_and_diagonality(self, desc):
        cfg = build_config(desc)
        span = RowSpan(cfg.n * cfg.n)
        for x in cfg.h_basis:
            assert sum(x.at(i, i) for i in range(cfg.n)) == 0
            span.add(x.entries)
        for i in range(cfg.h_dim):
            for j in range(cfg.h_dim):
                br = cfg.h_basis[i] @ cfg.h_basis[j] - cfg.h_basis[j] @ cfg.h_basis[i]
                assert span.contains(br.entries)
        for i in range(cfg.n):
            for j in range(cfg.n):
                if i != j:
                    assert cfg.a_action.at(i, j) == 0


class TestWeightDecomposition:
    def test_so21_weights(self):
        dec = weight_decompose(build_config("so_pq:2,1"))
        assert dec.eigenvalues == (F(-2), F(-1), F(0), F(1), F(2))
        assert dec.multiplicities == (1, 1, 1, 1, 1)

    def test_sp4_weights(self):
        dec = weight_decompose(build_config("sp2n:2"))
        assert dec.eigenvalues == (F(-3), F(-1), F(0), F(1), F(3))
        assert dec.multiplicities == (1, 1, 1, 1, 1)

    def test_sl2_sym1_weights(self):
        dec = weight_decompose(build_config("sl2_sym:1"))
        assert dec.eigenvalues == (F(-1), F(1))
        assert dec.multiplicities == (1, 1)

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
    def test_exact_eigenvectors_and_symmetry(self, desc):
        cfg = build_config(desc)
        dec = weight_decompose(cfg)
        assert dec.total_dim == cfg.n
        assert tuple(sorted(-x for x in dec.eigenvalues)) == dec.eigenvalues
        total = Subspace.zero(cfg.n)
        for mu, basis in zip(dec.eigenvalues, dec.eigenbases):
            for col in basis.columns:
                assert cfg.a_action.apply(col) == tuple(mu * x for x in col)
            assert subspace_intersect(total, basis).dim == 0
            total = subspace_sum(total, basis)
        assert total == Subspace.full(cfg.n)


class TestFlags:
    def test_top_flag_so21(self):
        dec = weight_decompose(build_config("so_pq:2,1"))
        fp = flag_projector(dec, 2)
        assert fp.flag.dim == 1

    def test_min_flag_is_full(self):
        dec = weight_decompose(build_config("so_pq:2,1"))
        fp = flag_projector(dec, -2)
        assert fp.flag == Subspace.full(5)
        assert fp.projector == Mat.identity(5)

    def test_zero_flag_so21(self):
        dec = weight_decompose(build_config("so_pq:2,1"))
        assert flag_projector(dec, 0).flag.dim == 3  # 1 + 1 + 1

    def test_invalid_level(self):
        dec = weight_decompose(build_config("so_pq:2,1"))
        with pytest.raises(InvalidLevel):
            flag_projector(dec, F(1, 2))

    @pytest.mark.parametrize("desc", ["so_pq:2,1", "sp2n:2", "tensor:2,2", "sl2_sym:4"])
    def test_projector_idempotent_and_u_stability(self, desc):
        cfg = build_config(desc)
        dec = weight_decompose(cfg)
        u_plus = [cfg.h_basis[i] for i in cfg.u_plus_indices]
        for mu in dec.eigenvalues:
            fp = flag_projector(dec, mu)
            assert fp.projector @ fp.projector == fp.projector
            img_cols = [fp.projector.col(j) for j in range(cfg.n)]
            from repverify.qlinalg import canonicalize

            assert canonicalize(Mat.from_cols(img_cols)) == fp.flag
            for x in u_plus:
                for col in fp.flag.columns:
                    assert fp.flag.contains_vector(x.apply(col))


def _direct_sum_fixture() -> RepConfig:
    """Two copies of the 2-dim standard sl_2 module; reducible on purpose."""
    base = build_config("sl2_sym:1")

    def two_blocks(m: Mat) -> Mat:
        rows = [[F(0)] * 4 for _ in range(4)]
        for i in range(2):
            for j in range(2):
                rows[i][j] = m.at(i, j)
                rows[2 + i][2 + j] = m.at(i, j)
        return Mat.from_rows(rows)

    return RepConfig(
        name="fixture:sym1+sym1",
        words=_words(two_blocks(m) for m in base.h_basis),
        a_diag=(1, -1, 1, -1),
    )


def _fixture(name: str, generator) -> RepConfig:
    """An unvalidated one-generator configuration, for the closure test only."""
    n = len(generator)
    return RepConfig(
        name=name,
        words=_words([Mat.from_rows(generator)]),
        a_diag=(0,) * n,
    )


class TestIrreducibility:
    def test_sl2_sym1_burnside(self):
        v = check_irreducible(build_config("sl2_sym:1"))
        assert v.is_absolutely_irreducible
        assert v.algebra_dim == 4

    def test_direct_sum_reducible_with_witness(self):
        v = check_irreducible(_direct_sum_fixture())
        assert v.kind == "reducible"
        assert v.witness is not None and v.witness.dim == 2
        assert v.witness == Subspace.from_columns(
            4, [[1, 0, 0, 0], [0, 1, 0, 0]]
        )

    def test_so21_absolutely_irreducible(self):
        assert check_irreducible(build_config("so_pq:2,1")).is_absolutely_irreducible

    def test_rotation_is_inconclusive(self):
        # the algebra of a quarter turn is C: irreducible over R, not absolutely
        v = check_irreducible(_fixture("fixture:rotation", [[0, -1], [1, 0]]))
        assert (v.kind, v.algebra_dim, v.witness) == ("inconclusive", 2, None)

    def test_rotation_plus_fixed_line_reducible(self):
        v = check_irreducible(_fixture("fixture:rotation+line", [[0, -1, 0], [1, 0, 0], [0, 0, 0]]))
        assert (v.kind, v.algebra_dim) == ("reducible", 3)
        assert v.witness == Subspace.from_columns(3, [[1, 0, 0], [0, 1, 0]])


# sha256 of build_config(d)'s name, n, h_dim, h_basis, a_action and u+ / u- (see
# _config_json) and of the check_irreducible verdict (kind, algebra dimension,
# witness).  The verdict hashes were pinned before qlinalg's elimination moved
# to integer rows: building a configuration runs kernel_of_rows and reads the
# weight basis and the brackets at the canonical pivots, and the closure test
# runs RowSpan.
CONFIG_PINS = {
    "so_pq:2,1": ("0023d6677c18d7088cffb8bbc554a961bdc3f966485771090099ea44e691dc3b", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "so_pq:2,2": ("718121315023f09f6c339bd0535e622ebf86a2e2855b02d1b971c58fd93415be", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "so_pq:3,1": ("08937cf78104eec6c74878b8b245ec62f2ad62a6fd3a446b816c55b7422aa094", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "sp2n:2": ("fde84c27c2c270c93664ae354a9cb1af444f67b5f5fa8ffd50886febb90d3151", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "tensor:2,2": ("3fc4bff63a3b767bd421a1296c2f8ed079beac5a9cf4b888ee3ff4da56bac5ab", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "tensor_std:2,2": ("cbf332b02fbe7fb4c507e111a8ba49b56a4816fdcd693408a047b3c960bccf4f", "74d94bb4a956079287d1c9dd7eda8beb5e9cf955e38517fb07bd672de54352de"),
    "sl2_sym:1": ("82590fb803919bdf581a5a8e20ca01faaa0c30d4e3f9b09fda7f643961bef253", "ec961b7d9aa83114e2a308147fd45ded18f2fa130eda08830d5950ff53e49c71"),
    "sl2_sym:2": ("0f1a5ec23ba6a74bf14e3350a4c152232c5459a5f2d79cf0f32def9c7f37bfca", "a6ba5ddda4dec1f8ad80b191c4fcb01fc0e98364d7e54f58a4a2e55fbe073d52"),
    "sl2_sym:4": ("85435d2f48b65bedf8f1ba0e6c7bb15164080dd3cd270791892f6a313c539488", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "diagonal:sl2": ("cd282962e39798198ed4fdea4d46faafbae1aa5319acd0a96d75046057155eef", "a6ba5ddda4dec1f8ad80b191c4fcb01fc0e98364d7e54f58a4a2e55fbe073d52"),
    "diagonal:sl3": ("75d3d9a12bec7df36f610649f14b3450a3ac8030bb8664ffcae7eedcb0689c07", "d50d2bd90bb4fecf2c6815c4c5485e52dfedc9dc77fa229231682b48af76e8fb"),
    "so_pq:3,2": ("a97aa96a6ac6babadc31d79222ad61e6dc6d46f66428a5ef347e2b218be7fdb0", "753bd17e1eafd088f76e562b93f9ebf64b54aa4aaf31de7e5273ee519f2fc238"),
}
FIXTURE_VERDICT_PIN = "b7bed8b129c62dbb5ca4f558fb673d3462f6b071745d5ec997eda1a0dae4d38f"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _config_json(cfg) -> dict:
    return {
        "name": cfg.name,
        "n": cfg.n,
        "h_dim": cfg.h_dim,
        "h_basis": [mat_to_json(m) for m in cfg.h_basis],
        "a_action": mat_to_json(cfg.a_action),
        "u_plus": list(cfg.u_plus_indices),
        "u_minus": list(cfg.u_minus_indices),
    }


def _verdict_json(v) -> dict:
    witness = None if v.witness is None else subspace_to_json(v.witness)
    return {"kind": v.kind, "algebra_dim": v.algebra_dim, "witness": witness}


@pytest.mark.parametrize("desc", sorted(CONFIG_PINS))
def test_config_and_verdict_pinned(desc):
    cfg = build_config(desc)
    assert (_sha(_config_json(cfg)), _sha(_verdict_json(check_irreducible(cfg)))) == CONFIG_PINS[desc]


def test_reducible_verdict_pinned():
    assert _sha(_verdict_json(check_irreducible(_direct_sum_fixture()))) == FIXTURE_VERDICT_PIN


def _scaled_sl3_words() -> tuple[list, list]:
    """sl_3's canonical basis by weight, a reduced basis, with its words scaled
    by integers other than 1, which keeps it reduced, and three generators
    with scales other than 1."""
    sl3_words, a_diag = reps._sl_weight_basis(3)
    words, _ = reps._weight_adapt(Subspace.from_columns(9, sl3_words), a_diag)
    scales, multiples = [1, 2, 3, 5, 6, 4, 7, 9], [3, 1, -2, 5, 1, 2, -1, 4]
    basis = [(t, tuple(c * x for x in w)) for t, c, (_, w) in zip(scales, multiples, words)]
    return basis, [(6, basis[0][1]), (1, basis[3][1]), (4, tuple(2 * x for x in basis[7][1]))]


def test_action_matrices_of_scaled_words():
    """Each (L, word) pair stands for word / L: column j of ad X rebuilds
    [X, Y_j] from the basis, for scales L and generator scales other than 1."""
    basis, generators = _scaled_sl3_words()

    def mat(pair):
        return Mat(3, 3, tuple(Fraction(x, pair[0]) for x in pair[1]))

    ys = [mat(y) for y in basis]
    k = len(basis)
    for x, (s, ad) in zip(map(mat, generators), reps._action_matrices(basis, generators)):
        for j, y in enumerate(ys):
            combo = Mat.zeros(3, 3)
            for r, y_r in enumerate(ys):
                combo = combo + y_r.scale(Fraction(ad[r * k + j], s))
            assert combo == x @ y - y @ x


def test_action_matrices_come_in_lowest_terms():
    """Each matrix comes back as its unique (L, word) pair, L > 0 and
    gcd(L, word) = 1, which config equality and the caches keyed by a config
    rely on; every built family happens to give L = 1."""
    basis, generators = _scaled_sl3_words()
    pairs = reps._action_matrices(basis, generators)
    assert all(s > 0 and math.gcd(s, *word) == 1 for s, word in pairs)
    assert [s for s, _ in pairs] != [1, 1, 1]


def test_spin_makes_no_fraction_product(monkeypatch):
    """Both closures, and the reducible witness, run on integer words only."""
    cfg, fixture = build_config("so_pq:2,2"), _direct_sum_fixture()

    def no_product(self, other):
        raise AssertionError("Fraction matrix product in the closure")

    monkeypatch.setattr(Mat, "__matmul__", no_product)
    check_irreducible.cache_clear()
    assert _sha(_verdict_json(check_irreducible(cfg))) == CONFIG_PINS["so_pq:2,2"][1]
    assert _sha(_verdict_json(check_irreducible(fixture))) == FIXTURE_VERDICT_PIN


def _reference_spin(generators, seed: Mat) -> list[Mat]:
    """The closure on Fraction products: the seed and the products g @ x,
    breadth first, that each enlarge a fresh RowSpan of those before them."""
    span = RowSpan(len(seed.entries))
    span.add(seed.entries)
    orbit, frontier = [seed], [seed]
    while frontier and span.dim < span.length:
        products = (g @ x for x in frontier for g in generators if span.dim < span.length)
        frontier = [p for p in products if span.add(p.entries)]
        orbit += frontier
    return orbit


def _reference_verdict(cfg) -> tuple:
    n = cfg.n
    algebra_dim = len(_reference_spin(cfg.h_basis, Mat.identity(n)))
    if algebra_dim == n * n:
        return ("absolutely_irreducible", algebra_dim, None)
    for start in range(n):
        orbit = _reference_spin(cfg.h_basis, Mat.from_cols([[int(i == start) for i in range(n)]]))
        if len(orbit) < n:
            return ("reducible", algebra_dim, Subspace.from_columns(n, [x.entries for x in orbit]))
    return ("inconclusive", algebra_dim, None)


FIXTURE_GENERATORS = [
    [[[0, -1], [1, 0]]],
    [[[0, -1, 0], [1, 0, 0], [0, 0, 0]]],
    [[[F(1, 2), 0], [0, F(-1, 2)]], [[0, 1], [0, 0]]],
]


@st.composite
def generator_set(draw):
    """A few small generators: sparse integer, with fractional entries, block
    diagonal up to a permutation of the coordinates (reducible), or a fixture."""
    kind = draw(st.sampled_from(["sparse", "fractional", "blocks", "fixture"]))
    if kind == "fixture":
        return draw(st.sampled_from(FIXTURE_GENERATORS))
    if kind == "fractional":
        entry = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    else:
        entry = st.one_of(st.just(0), st.just(0), st.integers(min_value=-3, max_value=3))

    def square(d):
        return draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))

    count = draw(st.integers(min_value=1, max_value=3))
    if kind != "blocks":
        n = draw(st.integers(min_value=1, max_value=4))
        return [square(n) for _ in range(count)]
    a, b = draw(st.integers(min_value=1, max_value=2)), draw(st.integers(min_value=1, max_value=2))
    perm = draw(st.permutations(range(a + b)))
    gens = []
    for _ in range(count):
        top, bottom = square(a), square(b)
        block = [row + [0] * b for row in top] + [[0] * a + row for row in bottom]
        gens.append([[block[perm[i]][perm[j]] for j in range(a + b)] for i in range(a + b)])
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_set())
def test_spin_matches_fraction_product_reference(gens):
    n = len(gens[0])
    cfg = RepConfig("fixture:drawn", _words(Mat.from_rows(g) for g in gens), (0,) * n)
    v = check_irreducible(cfg)
    assert (v.kind, v.algebra_dim, v.witness) == _reference_verdict(cfg)
    for start in range(n):
        e = [int(i == start) for i in range(n)]
        assert len(reps._spin(cfg, e, list(cfg.a_diag))) == len(_reference_spin(cfg.h_basis, Mat.from_cols([e])))


@st.composite
def graded_generator_set(draw):
    """A random integer diagonal a with n <= 5, and one to three generators,
    each supported on the matrix units of one ad(a)-weight a_i - a_j, with
    integer or fractional entries: several weight blocks, unlike a = 0."""
    n = draw(st.integers(min_value=1, max_value=5))
    diag = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    if draw(st.booleans()):
        entry = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    else:
        entry = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))
    weights = sorted({x - y for x in diag for y in diag})
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        w = draw(st.sampled_from(weights))
        gens.append([[draw(entry) if diag[i] - diag[j] == w else 0 for j in range(n)] for i in range(n)])
    return diag, gens


@settings(max_examples=150, deadline=None)
@given(graded_generator_set())
def test_graded_spin_matches_fraction_product_reference(drawn):
    diag, gens = drawn
    n = len(diag)
    cfg = RepConfig("fixture:graded", _words(Mat.from_rows(g) for g in gens), tuple(diag))
    v = check_irreducible(cfg)
    assert (v.kind, v.algebra_dim, v.witness) == _reference_verdict(cfg)
    for start in range(n):
        e = [int(i == start) for i in range(n)]
        assert len(reps._spin(cfg, e, list(cfg.a_diag))) == len(_reference_spin(cfg.h_basis, Mat.from_cols([e])))


@settings(max_examples=150, deadline=None)
@given(graded_generator_set())
def test_generators_of_nonzero_weight_are_nilpotent(drawn):
    # validation computes no powers: X^k lives where a_i - a_j = k w, empty for large k
    diag, gens = drawn
    for g in gens:
        x = Mat.from_rows(g)
        if reps._weight(x.entries, diag) != 0:
            exp_terms(x)  # NotNilpotent otherwise


def test_complement_config_checks_a_before_the_stabilizer_sweep(monkeypatch):
    def no_sweep(s):
        raise AssertionError("the stabilizer basis was swept")

    monkeypatch.setattr(reps, "_form_stabilizer_basis", no_sweep)
    with pytest.raises(ConfigError, match="stabilizer algebra"):
        reps._complement_config("fixture:off", reps._so_gram(2, 1), [F(1), F(1), F(-2)])


@pytest.mark.parametrize("form", [reps._so_gram(2, 1), reps._so_gram(2, 2), reps._so_gram(3, 1), reps._sp_form(2)],
                         ids=["so21", "so22", "so31", "sp4"])
def test_stabilizer_equation_matches_the_span(form, monkeypatch):
    # the reference: diag(a) in the span of the swept basis of {X : X^T S + S X = 0}
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(reps, "_trace_complement_basis", admitted)
    basis = reps._form_stabilizer_basis(form)
    for diag in itertools.product([F(-2), F(-1), F(0), F(1)], repeat=math.isqrt(len(form))):
        inside = basis.contains_vector(Mat.diagonal(list(diag)).entries)
        with pytest.raises(Admitted if inside else ConfigError):
            reps._complement_config("fixture:a", form, list(diag))


def test_closure_needs_eigenvector_generators():
    # unvalidated: [[1, 1], [0, -1]] carries weight 0 on its diagonal and a_1 - a_2 = 2 off it
    cfg = RepConfig("fixture:mixed", _words([Mat.from_rows([[1, 1], [0, -1]])]), (1, -1))
    with pytest.raises(ConfigError, match="not an ad\\(a\\)-eigenvector"):
        check_irreducible(cfg)


def test_build_config_makes_no_fraction_product(monkeypatch):
    """Validation brackets and the action matrices are integer words too."""

    def no_product(self, other):
        raise AssertionError("Fraction matrix product while building a configuration")

    monkeypatch.setattr(Mat, "__matmul__", no_product)
    build_config.cache_clear()
    check_irreducible.cache_clear()
    for desc, pins in CONFIG_PINS.items():
        cfg = build_config(desc)
        assert (_sha(_config_json(cfg)), _sha(_verdict_json(check_irreducible(cfg)))) == pins


def test_algebra_closure_spans_no_more_than_a_weight_block(monkeypatch):
    # so_pq:3,2 has n = 14: its 196 matrix units fall in 9 ad(a)-weight blocks, the largest of 56
    cfg, lengths = build_config("so_pq:3,2"), []

    class RecordingRowSpan(RowSpan):
        def __init__(self, length):
            lengths.append(length)
            super().__init__(length)

    monkeypatch.setattr(reps, "RowSpan", RecordingRowSpan)
    check_irreducible.cache_clear()
    assert check_irreducible(cfg).algebra_dim == 196
    assert (len(lengths), max(lengths), sum(lengths)) == (9, 56, 196)


class TestProximal:
    def test_so21(self):
        assert check_proximal(weight_decompose(build_config("so_pq:2,1")))

    def test_sp4(self):
        dec = weight_decompose(build_config("sp2n:2"))
        assert dec.eigenvalues[-1] == 3 and dec.multiplicities[-1] == 1
        assert check_proximal(dec)

    def test_duplicated_top_weight_fixture(self):
        assert not check_proximal(weight_decompose(_direct_sum_fixture()))

    @pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_so_family_always_proximal(self, p, q):
        assert check_proximal(weight_decompose(build_config(f"so_pq:{p},{q}")))


class TestHorospherical:
    def test_u_plus_dims(self):
        assert len(build_config("so_pq:2,1").u_plus_indices) == 1
        assert len(build_config("sp2n:2").u_plus_indices) == 4
        assert len(build_config("sl2_sym:3").u_plus_indices) == 1

    @pytest.mark.parametrize("desc", ALL_DESCRIPTORS + ["so_pq:3,2"])
    def test_nilpotent_and_signed(self, desc):
        cfg = build_config(desc)
        for x in [cfg.h_basis[i] for i in cfg.u_plus_indices + cfg.u_minus_indices]:
            cur = x
            for _ in range(cfg.n):
                cur = cur @ x
            assert not any(cur.entries)
        wts = list(cfg.generator_weights)
        for x, w in zip(cfg.h_basis, wts):
            # the bracket [a, x] is the reference for the weight read off a's diagonal
            assert cfg.a_action @ x - x @ cfg.a_action == x.scale(w)
        assert cfg.u_plus_indices == tuple(i for i, w in enumerate(wts) if w > 0)
        assert cfg.u_minus_indices == tuple(i for i, w in enumerate(wts) if w < 0)


def _eight_key_doc(cfg: RepConfig) -> dict:
    """A config document in the earlier eight-key format, which stored n, h_dim,
    u+ / u- and ||a||^2 beside the generators and a."""
    return {
        **config_to_json(cfg),
        "n": cfg.n,
        "h_dim": cfg.h_dim,
        "u_plus_indices": list(cfg.u_plus_indices),
        "u_minus_indices": list(cfg.u_minus_indices),
        "a_norm_sq": "2",
    }


# Every family build_config makes, at least once, with a few larger members.
BUILT_DESCRIPTORS = ALL_DESCRIPTORS + [
    "so_pq:3,2", "so_pq:4,3", "sp2n:3", "diagonal:sl4", "tensor:2,3", "tensor_std:2,3", "sl2_sym:9",
]


@pytest.mark.parametrize("desc", BUILT_DESCRIPTORS)
def test_config_json_round_trip(desc):
    cfg = build_config(desc)
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_json_round_trip_keeps_a_scaled_generator():
    """A file generator with denominators loads as its (L, word) pair, with
    gcd(L, word) = 1, and writes back the strings it was read from."""
    doc = config_to_json(build_config("so_pq:2,1"))
    doc["h_basis"][0] = mat_to_json(config_from_json(doc).h_basis[0].scale(F(1, 3)))
    cfg = config_from_json(doc)
    s, word = cfg.words[0]
    assert s == 3 and math.gcd(s, *word) == 1
    assert config_to_json(cfg) == doc


@pytest.mark.parametrize("desc", BUILT_DESCRIPTORS)
def test_built_configs_pass_the_file_validation(desc):
    """build_config does not validate its families; the check that
    config_from_json runs on a file proves them here instead."""
    reps._validate_config(build_config(desc))


def test_build_config_never_validates(monkeypatch):
    def refuse(cfg):
        raise AssertionError(f"build_config validated {cfg.name}")

    monkeypatch.setattr(reps, "_validate_config", refuse)
    build_config.cache_clear()
    for desc in BUILT_DESCRIPTORS:
        assert build_config(desc).n > 0


def _calls_while_building(monkeypatch, name: str) -> list[tuple]:
    """The arguments of every call of reps.<name> made while building
    BUILT_DESCRIPTORS afresh."""
    calls, real = [], getattr(reps, name)

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reps, name, record)
    build_config.cache_clear()
    for desc in BUILT_DESCRIPTORS:
        build_config(desc)
    build_config.cache_clear()
    return calls


def _intersected_weight_pieces(span: Subspace, a_diag: list[Fraction]) -> tuple[list[tuple[Fraction, ...]], list[Fraction]]:
    """The reference for `_weight_adapt`: the canonical basis of span's
    intersection with each coordinate block on which ad(a) acts by one weight,
    by descending weight, and the weights."""
    grading = [x - y for x in a_diag for y in a_diag]
    vectors, weights = [], []
    for lam in sorted(set(grading), reverse=True):
        block = Subspace.coordinate(len(grading), [c for c, w in enumerate(grading) if w == lam])
        piece = subspace_intersect(span, block)
        vectors += [tuple(F(x, piece.scale) for x in col) for col in piece.columns]
        weights += [lam] * piece.dim
    return vectors, weights


def test_weight_adapt_reads_the_intersected_weight_pieces(monkeypatch):
    """Sorting a stable span's canonical columns by the weight at their pivot
    gives the canonical bases of its weight pieces, on every span a built
    family weight-adapts."""
    weight_adapt = reps._weight_adapt
    calls = _calls_while_building(monkeypatch, "_weight_adapt")
    assert len(calls) == 21  # 2 for each of 7 complements, 1 for each of 3 adjoints and 4 tensor factors
    for span, a_diag in calls:
        words, weights = weight_adapt(span, a_diag)
        assert ([tuple(F(x, t) for x in w) for t, w in words], weights) == _intersected_weight_pieces(span, a_diag)


def _solved_action_matrices(basis, generators) -> list[list[list[Fraction]]]:
    """The reference for `_action_matrices`: every bracket [X, Y_j] solved
    against the basis by sympy's Gauss-Jordan, the columns of ad X."""
    d = math.isqrt(len(basis[0][1]))

    def mat(pair):
        return sympy.Matrix(d, d, [sympy.Rational(x, pair[0]) for x in pair[1]])

    ys = [mat(y) for y in basis]
    span = sympy.Matrix.hstack(*[y.reshape(d * d, 1) for y in ys])
    brackets = [(x * y - y * x).reshape(d * d, 1) for x in map(mat, generators) for y in ys]
    solution, free = span.gauss_jordan_solve(sympy.Matrix.hstack(*brackets))
    assert free.shape[0] == 0  # the basis is independent
    k = len(basis)
    return [[[F(int(c.p), int(c.q)) for c in solution[r, i * k : (i + 1) * k]] for r in range(k)]
            for i in range(len(generators))]


def test_action_matrices_match_a_sympy_solve(monkeypatch):
    """Reading each coordinate at a pivot agrees with solving the brackets
    against the basis, on every family that builds action matrices."""
    action_matrices = reps._action_matrices
    calls = _calls_while_building(monkeypatch, "_action_matrices")
    assert len(calls) == 14  # 7 complements, 3 adjoints and 4 tensor factors
    for basis, generators in calls:
        k = len(basis)
        got = [[[F(x, s) for x in w[r * k : (r + 1) * k]] for r in range(k)] for s, w in action_matrices(basis, generators)]
        assert got == _solved_action_matrices(basis, generators)


# tensor:n,m reads each factor's ad action off diagonal:slK, whose zero-weight
# basis is E_ii - E_kk for the last index k.  These invariants do not depend on
# that basis, and were read off the earlier E_ii - E_{i+1,i+1} one: n, sha256
# of a_action, u+ / u-, and the verdict's kind and algebra dimension.
TENSOR_INVARIANTS = {
    "tensor:2,3": (24, "4a20e1cca88d5f5cb4c7994478d94d49e39ad114f389aa76ebdcd3c026da2044",
                   (0, 3, 4, 5), (2, 8, 9, 10), "absolutely_irreducible", 576),
    "tensor:2,4": (45, "4a66b72446124ca7bfda32b8c161d7f251c0de4e24d11ffc0e311fe9f9db19bb",
                   (0, 3, 4, 5, 6, 7, 8), (2, 12, 13, 14, 15, 16, 17), "absolutely_irreducible", 2025),
    "tensor:3,3": (64, "44a09b47f25e7808f651a8b23460ac8fd90697aa930d6bb5dd96f6a19d5f9ad3",
                   (0, 1, 2, 8, 9, 10), (5, 6, 7, 13, 14, 15), "absolutely_irreducible", 4096),
}


@pytest.mark.parametrize("desc", sorted(TENSOR_INVARIANTS))
def test_tensor_invariants_pinned(desc):
    cfg = build_config(desc)
    verdict = check_irreducible(cfg)
    got = (cfg.n, _sha(mat_to_json(cfg.a_action)), cfg.u_plus_indices, cfg.u_minus_indices, verdict.kind, verdict.algebra_dim)
    assert got == TENSOR_INVARIANTS[desc]


def test_config_from_json_rejects_sl2_without_h():
    # [e, f] = h leaves span{e, f}
    doc = config_to_json(build_config("sl2_sym:2"))
    doc["h_basis"] = [doc["h_basis"][0], doc["h_basis"][2]]
    with pytest.raises(ConfigError, match="closed under brackets"):
        config_from_json(doc)


def test_config_from_json_rejects_an_empty_space():
    doc = {"name": "fixture:empty", "h_basis": [], "a_action": mat_to_json(Mat(0, 0, ()))}
    with pytest.raises(ConfigError, match="dimension at least 1"):
        config_from_json(doc)


@pytest.mark.parametrize("extra", ["repeated", "zero"])
def test_config_from_json_rejects_a_dependent_generator(extra):
    # a repeated e would count twice in h_dim and in the u+ round-robin
    doc = config_to_json(build_config("sl2_sym:2"))
    doc["h_basis"].append(doc["h_basis"][0] if extra == "repeated" else mat_to_json(Mat.zeros(3, 3)))
    with pytest.raises(ConfigError, match="span of the ones before it"):
        config_from_json(doc)


def test_config_from_json_rejects_a_generator_with_trace():
    # diag(1, 0, 0) has ad(a)-weight 0 but trace 1
    doc = config_to_json(build_config("sl2_sym:2"))
    doc["h_basis"][1] = mat_to_json(Mat.diagonal([1, 0, 0]))
    with pytest.raises(ConfigError, match="nonzero trace"):
        config_from_json(doc)


@pytest.mark.parametrize(
    "desc, canonical", [("tensor:02,2", "tensor:2,2"), ("tensor_std: 2 ,+2", "tensor_std:2,2")]
)
def test_tensor_names_come_from_the_parsed_fields(desc, canonical):
    assert build_config(desc).name == canonical
    assert build_config(desc) == build_config(canonical)


def test_config_from_json_checks_every_bracket_whatever_h_dim_says():
    # without its weight-0 generator so(2,1) is not bracket closed: [u+, u-] lies in the weight-0 space
    cfg = build_config("so_pq:2,1")
    assert list(cfg.generator_weights) == [1, 0, -1]
    doc = _eight_key_doc(cfg)
    doc["h_basis"] = [doc["h_basis"][0], doc["h_basis"][2]]
    doc["h_dim"], doc["u_minus_indices"] = 0, [1]
    with pytest.raises(ConfigError, match="closed under brackets"):
        config_from_json(doc)


@pytest.mark.parametrize(
    "plus, minus", [([2], [0]), ([], []), ([0, 1], [2]), ([7], [])], ids=["swapped", "empty", "stale", "out-of-range"]
)
def test_config_from_json_derives_horospherical_indices(plus, minus):
    cfg = build_config("so_pq:2,1")
    doc = _eight_key_doc(cfg)
    doc["u_plus_indices"], doc["u_minus_indices"], doc["n"], doc["h_dim"] = plus, minus, 9, 7
    loaded = config_from_json(doc)
    assert loaded == cfg
    assert (loaded.n, loaded.h_dim, loaded.u_plus_indices, loaded.u_minus_indices) == (5, 3, (0,), (2,))


@pytest.mark.parametrize("plus", [0, 1, 2])
@pytest.mark.parametrize("minus", [5, 6, 7])
def test_config_from_json_rejects_mixed_weight_generator(plus, minus):
    # h_basis[plus] + h_basis[minus] spans the same algebra and can be nilpotent,
    # but its entries carry a positive and a negative ad(a)-weight.
    cfg = build_config("diagonal:sl3")
    assert cfg.u_plus_indices == (0, 1, 2) and cfg.u_minus_indices == (5, 6, 7)
    doc = config_to_json(cfg)
    mixed = cfg.h_basis[plus] + cfg.h_basis[minus]
    doc["h_basis"][plus] = mat_to_json(mixed)
    with pytest.raises(ConfigError):
        config_from_json(doc)


@pytest.mark.parametrize(
    "make_a, error",
    [
        (lambda cfg: cfg.a_action + cfg.h_basis[0], RationalityError),
        # one diagonal entry too many: the weights of n x n generators cannot be read off it
        (lambda cfg: Mat.diagonal(cfg.a_diag + (7,)), DimensionMismatch),
        # the n x n generators fit its n rows, but a non-square a has no diagonal
        (lambda cfg: Mat.from_rows([list(cfg.a_action.row(i)) + [0] for i in range(cfg.n)]), RationalityError),
    ],
    ids=["off-diagonal", "n+1 x n+1", "n x n+1"],
)
def test_config_from_json_rejects_bad_a_action(make_a, error):
    cfg = build_config("so_pq:2,1")
    doc = config_to_json(cfg)
    doc["a_action"] = mat_to_json(make_a(cfg))
    with pytest.raises(error):
        config_from_json(doc)


def test_config_stores_and_writes_only_generators_and_a():
    assert [f.name for f in dataclasses.fields(RepConfig)] == ["name", "words", "a_diag"]
    assert [f.name for f in dataclasses.fields(reps.WeightDecomposition)] == ["eigenvalues", "eigenbases"]
    assert sorted(config_to_json(build_config("so_pq:2,1"))) == ["a_action", "h_basis", "name"]


def test_horospherical_indices_read_the_diagonal_once():
    cfg = build_config("diagonal:sl3")
    weights = list(cfg.generator_weights)
    unvalidated = RepConfig(cfg.name, cfg.words, cfg.a_diag)
    assert (unvalidated.u_plus_indices, unvalidated.u_minus_indices) == ((0, 1, 2), (5, 6, 7))
    assert list(unvalidated.generator_weights) == weights
    assert "a_action" not in vars(unvalidated)
