"""Configuration builders, weight decompositions, hypothesis checks."""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from repverify import reps
from repverify.qlinalg import DimensionMismatch, Mat, RowSpan, Subspace, mat_to_json, subspace_intersect, subspace_sum, subspace_to_json
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
            assert x.trace() == 0
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
            for col in basis.column_vectors():
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
                for col in fp.flag.column_vectors():
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
        n=4,
        h_dim=3,
        h_basis=tuple(two_blocks(m) for m in base.h_basis),
        a_action=Mat.diagonal([F(1), F(-1), F(1), F(-1)]),
        u_plus_indices=(0,),
        u_minus_indices=(2,),
        a_norm_sq=F(2),
    )


def _fixture(name: str, generator) -> RepConfig:
    """An unvalidated one-generator configuration, for the closure test only."""
    n = len(generator)
    return RepConfig(
        name=name,
        n=n,
        h_dim=1,
        h_basis=(Mat.from_rows(generator),),
        a_action=Mat.zeros(n, n),
        u_plus_indices=(),
        u_minus_indices=(),
        a_norm_sq=F(0),
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


# sha256 of config_to_json(build_config(d)) and of the check_irreducible verdict
# (kind, algebra dimension, witness), pinned before qlinalg's elimination moved
# to integer rows: building a configuration runs kernel_basis, solve_exact,
# subspace_intersect and RowSpan, and the closure test runs RowSpan.
CONFIG_PINS = {
    "so_pq:2,1": ("78c422c7bf0076a14da51dbd0c78d7d52d0b4667576d1174710bf143e9f938d9", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "so_pq:2,2": ("8bac25cd2556fa942642c768d28be53ccb5b0415ce1de92b318d79de018da70b", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "so_pq:3,1": ("4d59ab1f011e7ff78ca55a74939f659af1c5594ea153db1747de70577b5db028", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "sp2n:2": ("8396b3459b458083c3e2481f142b92e8cf2cd602ecd2bea96786901d6ecff770", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "tensor:2,2": ("02359979ffe3119e4ec41eb6715a60ef3d941cfec331f72f2d07d0d9235bcc71", "bb2cac08dc711cc2628278040ed6fcd6d44927ad983f49d9022086818ae4b781"),
    "tensor_std:2,2": ("339bc3e39e8064d249b202b24841b4902883795eafc80654510da04a3eb649e6", "74d94bb4a956079287d1c9dd7eda8beb5e9cf955e38517fb07bd672de54352de"),
    "sl2_sym:1": ("020b8e15ec9347710bf7652ece3dbc0881a4dbf55dcc37e4b44c8bbff79b80e4", "ec961b7d9aa83114e2a308147fd45ded18f2fa130eda08830d5950ff53e49c71"),
    "sl2_sym:2": ("26807cb994013cd3902f24c0b9c87c973cf6e5c0980d774ac1288160f8c43805", "a6ba5ddda4dec1f8ad80b191c4fcb01fc0e98364d7e54f58a4a2e55fbe073d52"),
    "sl2_sym:4": ("9dd7b47e838064ea664e2a92de304b6aea4fec3d45e60f5fbfc8356259605f4a", "e2bc9e92bab6630d63bb4c188d9c83d1989a3ee0d3e64f836d4ecd9d52998f79"),
    "diagonal:sl2": ("0233df94abafbabbc350ba95ec2abbcb15cb0f4de26ddb554d1b7b65c6efcdaa", "a6ba5ddda4dec1f8ad80b191c4fcb01fc0e98364d7e54f58a4a2e55fbe073d52"),
    "diagonal:sl3": ("16a443599cecf62f5facb5ab874dce58b0fecc3b831404bb033b4b25ebc8f533", "d50d2bd90bb4fecf2c6815c4c5485e52dfedc9dc77fa229231682b48af76e8fb"),
    "so_pq:3,2": ("7b627121429366f01347718df1ba78ce0b9a9325294855bcf167553e28e6d63c", "753bd17e1eafd088f76e562b93f9ebf64b54aa4aaf31de7e5273ee519f2fc238"),
}
FIXTURE_VERDICT_PIN = "b7bed8b129c62dbb5ca4f558fb673d3462f6b071745d5ec997eda1a0dae4d38f"


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _verdict_json(v) -> dict:
    witness = None if v.witness is None else subspace_to_json(v.witness)
    return {"kind": v.kind, "algebra_dim": v.algebra_dim, "witness": witness}


@pytest.mark.parametrize("desc", sorted(CONFIG_PINS))
def test_config_and_verdict_pinned(desc):
    cfg = build_config(desc)
    assert (_sha(config_to_json(cfg)), _sha(_verdict_json(check_irreducible(cfg)))) == CONFIG_PINS[desc]


def test_reducible_verdict_pinned():
    assert _sha(_verdict_json(check_irreducible(_direct_sum_fixture()))) == FIXTURE_VERDICT_PIN


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
            assert cur.is_zero()
        wts = [cfg.a_eigenvalue_of_generator(i) for i in range(cfg.h_dim)]
        for x, w in zip(cfg.h_basis, wts):
            # the bracket [a, x] is the reference for the weight read off a's diagonal
            assert cfg.a_action @ x - x @ cfg.a_action == x.scale(w)
        assert cfg.u_plus_indices == tuple(i for i, w in enumerate(wts) if w > 0)
        assert cfg.u_minus_indices == tuple(i for i, w in enumerate(wts) if w < 0)


def test_config_json_round_trip():
    cfg = build_config("so_pq:2,1")
    assert config_from_json(config_to_json(cfg)) == cfg


def test_config_from_json_validates_ad_signs():
    doc = config_to_json(build_config("so_pq:2,1"))
    doc["u_plus_indices"], doc["u_minus_indices"] = doc["u_minus_indices"], doc["u_plus_indices"]
    with pytest.raises(ConfigError):
        config_from_json(doc)


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
    "key, indices",
    [("u_plus_indices", [0]), ("u_plus_indices", [0, 0, 1, 2]), ("u_plus_indices", [0, 1]), ("u_minus_indices", [])],
    ids=["plus-one", "plus-repeated", "plus-two", "minus-empty"],
)
def test_config_from_json_rejects_partial_horospherical_indices(key, indices):
    # every listed generator has the right sign, but u+ / u- must be all of them, once each
    doc = config_to_json(build_config("diagonal:sl3"))
    assert (doc["u_plus_indices"], doc["u_minus_indices"]) == ([0, 1, 2], [5, 6, 7])
    doc[key] = indices
    with pytest.raises(ConfigError):
        config_from_json(doc)


def test_config_from_json_rejects_bad_a_action():
    cfg = build_config("so_pq:2,1")
    doc = config_to_json(cfg)
    doc["a_action"] = mat_to_json(cfg.a_action + cfg.h_basis[0])
    with pytest.raises(RationalityError):
        config_from_json(doc)
    # one diagonal entry too many: the weights of n x n generators cannot be read off it
    doc["a_action"] = mat_to_json(Mat.diagonal([cfg.a_action.at(i, i) for i in range(cfg.n)] + [F(7)]))
    with pytest.raises(DimensionMismatch):
        config_from_json(doc)
