"""Sampling and the generic position bounds."""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest
import sympy

from repverify import generic
from repverify.generic import (
    IrreducibilityViolation,
    PreconditionError,
    SampledElement,
    TrialReport,
    check_intersection_bound,
    check_projection_bound,
    default_complexity,
    find_spanning_q,
    random_subspace,
    replay_recipe,
    sample_element,
    sample_elements,
    submodularity_check,
    translate,
)
from repverify.qlinalg import (
    MODULUS,
    Mat,
    RowSpan,
    Subspace,
    canonicalize,
    mat_to_json,
    rank,
    subspace_intersect,
    subspace_sum,
)
from repverify.reps import build_config, check_irreducible, flag_projector, weight_decompose

F = Fraction


def flags_of(name):
    cfg = build_config(name)
    dec = weight_decompose(cfg)
    return cfg, dec, [flag_projector(dec, mu).flag for mu in dec.eigenvalues[1:]]


class TestSampling:
    def test_determinism(self):
        cfg = build_config("sl2_sym:1")
        a = sample_element(cfg, 7, 4)
        b = sample_element(cfg, 7, 4)
        assert a.matrix == b.matrix and a.recipe == b.recipe

    def test_single_factor_unitriangular(self):
        cfg = build_config("sl2_sym:1")
        el = sample_element(cfg, 3, 1)
        assert el.matrix.at(1, 0) == 0  # one u+ factor raises weights only
        assert el.matrix.at(0, 0) == 1 and el.matrix.at(1, 1) == 1

    def test_exact_determinant_one(self):
        cfg = build_config("sl2_sym:1")
        m = sample_element(cfg, 7, 4).matrix
        assert sympy.Matrix(m.rows, m.cols, m.entries).det() == 1
        cfg2 = build_config("sp2n:2")
        m = sample_element(cfg2, 11, default_complexity(cfg2)).matrix
        assert sympy.Matrix(m.rows, m.cols, m.entries).det() == 1

    def test_complexity_zero_disallowed(self):
        with pytest.raises(PreconditionError):
            sample_element(build_config("sl2_sym:1"), 1, 0)

    def test_recipe_replays(self):
        cfg = build_config("so_pq:2,1")
        el = sample_element(cfg, 5, default_complexity(cfg))
        assert replay_recipe(cfg, el.recipe) == el.matrix

    @pytest.mark.parametrize("name", ["so_pq:2,1", "sp2n:2", "so_pq:3,2"])
    def test_residues_are_the_matrix_mod_p(self, name):
        cfg = build_config(name)
        for el in sample_elements(cfg, 9, 3):
            assert el.residues.tolist() == [[x.numerator * pow(x.denominator, -1, MODULUS) % MODULUS
                                             for x in el.matrix.row(i)] for i in range(cfg.n)]


# sha256 of the first 5 elements of sample_elements(cfg, 42, 5): their matrices
# (mat_to_json) and recipes, pinned before sampling moved to qlinalg.exp_product.
SAMPLE_PINS = {
    ("so_pq:2,1", 9999): "424bea6d8dc795d8f84aa299d385c2f14f34750aebde64e51c1f15b3f5b19ba5",
    ("so_pq:2,1", 5): "82ecf4b40d311f06d654052b2771733a990fea11e471da446e760c8c0c2fb589",
    ("so_pq:2,2", 9999): "b3a628d686cf9b83999437392b4c6a4066f1d75c75ec5fc406673c8e3f185665",
    ("so_pq:2,2", 5): "7479959306765058f135c1f87d4acd113cf231c091663bd8c70116b6d7386eef",
    ("so_pq:3,1", 9999): "fd90203bd29cca4c6409f34f3fb70868878911e9066185097794d7ccc773f47b",
    ("so_pq:3,1", 5): "b7093ff1c2027d199ca58e985211fd9094629f570e992b48b46f570a816069df",
    ("sp2n:2", 9999): "0c1457f9b854552459911fddf918c721704c79c5e93ef566e63d077fb819c96b",
    ("sp2n:2", 5): "f2fed3e0369756e35e72b773f9c07a83a61f5cac15e1ea06951ad1ec99b66c8f",
    ("tensor:2,2", 9999): "67aa4a5d669552259d113cce1631968bffe78bafe155494f1abdac07463bff49",
    ("tensor:2,2", 5): "49b3bbf2cbccce205c77c131b792fcfbaf525274c742fa61f07ca865cbbc5490",
    ("sl2_sym:4", 9999): "d33433e3a35f2b554a76369a8ff2d9de0e98326ce7444f3044ddd7bc65372224",
    ("sl2_sym:4", 5): "1492bdcbe09750d76f83d935e6ff5657986c5fe12c50066210cf2d7a5d8ccf5f",
    ("so_pq:3,2", 9999): "d5d6a9d18f6eb8a663bdf72f281e74632973e41e196ad864da5f1cedd6db58dc",
    ("so_pq:3,2", 5): "2d71ca68db69b0c516102d5670cde7b94637095dea72bf23d3776292d5d066e3",
    ("tensor_std:2,2", 9999): "08050d19d43ff9a6b06cb7a2e632a6f6d2d1b269f7c2c44e5de7d824cc2d4509",
    ("tensor_std:2,2", 5): "b00542291f0df317a0c2915830adb78fa294d0aef7877c6088f904eff6f49220",
}


@pytest.mark.parametrize("name, height", sorted(SAMPLE_PINS))
def test_sampled_elements_pinned(name, height):
    cfg = build_config(name)
    els = sample_elements(cfg, 42, 5, height=height)
    payload = json.dumps([[mat_to_json(el.matrix), [[i, str(t)] for i, t in el.recipe]] for el in els])
    assert hashlib.sha256(payload.encode()).hexdigest() == SAMPLE_PINS[(name, height)]
    for el in els:
        assert replay_recipe(cfg, el.recipe) == el.matrix


def test_translate_commutes_with_sum_and_intersection():
    cfg = build_config("so_pq:2,1")
    rng = random.Random(2)
    w1 = random_subspace(5, 2, rng)
    w2 = random_subspace(5, 3, rng)
    h = sample_element(cfg, 21, default_complexity(cfg)).matrix
    w3 = random_subspace(5, 3, rng)
    lhs = subspace_intersect(subspace_sum(translate(h, w1), translate(h, w2)), translate(h, w3))
    rhs = translate(h, subspace_intersect(subspace_sum(w1, w2), w3))
    assert lhs == rhs


@pytest.mark.parametrize("name", ["so_pq:2,1", "so_pq:2,2", "so_pq:3,1", "sp2n:2", "sl2_sym:4", "tensor:2,2"])
def test_two_translates_of_a_flag_are_in_general_position(name):
    # independent generic translates of a d-dimensional flag in Q^n span min(n, 2d)
    # and meet in max(0, 2d - n) dimensions
    cfg, _, flags = flags_of(name)
    complexity = default_complexity(cfg)
    for w in flags:
        for t in range(3):
            a = translate(sample_element(cfg, 2 * t, complexity).matrix, w)
            b = translate(sample_element(cfg, 2 * t + 1, complexity).matrix, w)
            assert subspace_sum(a, b).dim == min(cfg.n, 2 * w.dim)
            assert subspace_intersect(a, b).dim == max(0, 2 * w.dim - cfg.n)


def test_record_keeps_the_witness_of_each_failed_trial():
    rep = TrialReport()
    rep.record(2, True, (1, ()))
    rep.record(3, False, (2, ((0, F(1, 2)),)))
    rep.record(2, False, (3, ()))
    assert (rep.trials, rep.passes, rep.dimension_histogram) == (3, 1, {2: 2, 3: 1})
    assert rep.witness_failures == [(2, ((0, F(1, 2)),)), (3, ())]
    assert not rep.all_passed
    with pytest.raises(TypeError):
        rep.record(1, True)


class TestIntersectionBound:
    def test_tensor_plane_equality_case(self):
        cfg = build_config("tensor_std:2,2")
        w = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
        wp = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        rep = check_intersection_bound(cfg, w, wp, trials=50, seed=7)
        assert rep.dimension_histogram == {1: 50}
        assert rep.all_passed  # 1 = (2/4) * 2, equality on every trial

    def test_adjoint_line_avoids_plane(self):
        cfg = build_config("sl2_sym:2")
        dec = weight_decompose(cfg)
        top = flag_projector(dec, 2).flag
        flag2 = flag_projector(dec, 0).flag
        rep = check_intersection_bound(cfg, top, flag2, trials=60, seed=3)
        assert rep.all_passed
        assert rep.dimension_histogram == {0: 60}

    def test_full_space_trivial(self):
        cfg = build_config("sl2_sym:2")
        dec = weight_decompose(cfg)
        flag2 = flag_projector(dec, 0).flag
        rep = check_intersection_bound(cfg, Subspace.full(3), flag2, trials=10, seed=1)
        assert rep.all_passed
        assert rep.dimension_histogram == {2: 10}

    def test_rejects_trivial_subspace(self):
        cfg = build_config("sl2_sym:2")
        with pytest.raises(PreconditionError):
            check_intersection_bound(cfg, Subspace.zero(3), Subspace.full(3), 5, 0)


def _intersection_cases():
    for name in ("so_pq:2,1", "sl2_sym:4"):
        cfg, _, flags = flags_of(name)
        yield from ((cfg, w, wp) for w in flags for wp in flags)
    plane = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    yield build_config("tensor_std:2,2"), plane, Subspace.from_columns(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


@pytest.mark.parametrize("height", [9999, 1])
def test_intersection_trials_match_subspace_intersect(height):
    # every trial's rank-only dimension equals the canonical subspace calculus;
    # at height 1 (t in {-1, 0, 1}) half the elements are non-generic, so the
    # mod-p rank falls short and Bareiss decides
    cases = list(_intersection_cases())
    elements = {cfg.name: sample_elements(cfg, 17, 8, height=height) for cfg, _, _ in cases}
    for cfg, w, wp in cases:
        for el in elements[cfg.name]:
            rep = check_intersection_bound(cfg, w, wp, 1, 0, elements=[el])
            assert rep.dimension_histogram == {subspace_intersect(translate(el.matrix, w), wp).dim: 1}


def _identity_element(cfg):
    """h = I, as the recipe of one factor with t = 0."""
    return SampledElement(cfg, ((cfg.u_plus_indices[0], F(0)),), 0)


class TestUncertifiedModP:
    """Columns whose mod-p rank falls short of the minimum, so a RowSpan over Z decides."""

    def test_intersection_decided_over_z(self):
        # [h.W | W'] = [e1 | e1 + p e2] has rank 2, but rank 1 mod p
        cfg = build_config("sl2_sym:2")
        w = Subspace.from_columns(3, [[1, 0, 0]])
        wp = Subspace.from_columns(3, [[1, MODULUS, 0]])
        rep = check_intersection_bound(cfg, w, wp, 1, 0, elements=[_identity_element(cfg)])
        assert rep.dimension_histogram == {0: 1}

    def test_projection_decided_over_z(self, monkeypatch):
        # (h.W)^T W' = e1 . (p e1 + e2) = p: rank 1, but rank 0 mod p
        cfg = build_config("sl2_sym:2")
        monkeypatch.setattr(generic, "sample_element", lambda cfg, seed, complexity: _identity_element(cfg))
        w = Subspace.from_columns(3, [[1, 0, 0]])
        wp = Subspace.from_columns(3, [[MODULUS, 1, 0]])
        rep = check_projection_bound(cfg, w, wp, 2, 0)
        assert rep.dimension_histogram == {1: 2}


def test_one_certificate_per_check(monkeypatch):
    # each check certifies all of its trials in one batched call
    calls, certify = [], generic.certified_columns
    monkeypatch.setattr(generic, "certified_columns", lambda batch: calls.append(len(batch)) or certify(batch))
    cfg, _, flags = flags_of("so_pq:2,1")
    check_intersection_bound(cfg, flags[1], flags[2], 200, 3)
    assert calls == [200]
    check_projection_bound(cfg, flags[0], flags[2], 30, 3)
    assert calls == [200, 30]
    find_spanning_q(cfg, flags[1], 20, 3)
    assert calls == [200, 30, 20]


# Criterion 3's configs at seed 11, pinned before the checks moved to integer
# ranks; configs of equal n agree.  PROJECTION_PINS[n][i][j] is the rank of
# every one of 10 projection trials on flags i, j; SPANNING_PINS[n][i] is
# find_spanning_q on flag i with 10 trials.
CRITERION_3_CONFIGS = ("so_pq:2,1", "so_pq:2,2", "so_pq:3,1", "sp2n:2", "tensor:2,2", "sl2_sym:4")
PROJECTION_PINS = {
    5: [[4, 3, 2, 1], [3, 3, 2, 1], [2, 2, 2, 1], [1, 1, 1, 1]],
    9: [[8, 6, 3, 1], [6, 6, 3, 1], [3, 3, 3, 1], [1, 1, 1, 1]],
}
SPANNING_PINS = {
    5: [(2, (3,)), (2, (1,)), (3, (0, 1)), (5, (0, 0, 0, 0))],
    9: [(2, (7,)), (2, (3,)), (4, (0, 1, 2)), (9, (0, 0, 0, 0, 0, 0, 0, 0))],
}


@pytest.mark.parametrize("name", CRITERION_3_CONFIGS)
def test_projection_and_spanning_pinned(name):
    cfg, _, flags = flags_of(name)
    for i, w in enumerate(flags):
        assert find_spanning_q(cfg, w, trials=10, seed=11) == SPANNING_PINS[cfg.n][i]
        for j, wp in enumerate(flags):
            rep = check_projection_bound(cfg, w, wp, 10, 11)
            assert rep.dimension_histogram == {PROJECTION_PINS[cfg.n][i][j]: 10}
            assert rep.all_passed


@pytest.mark.parametrize("name", ["so_pq:2,1", "so_pq:2,2"])
def test_spanning_replayed_over_z_matches_pins(name, monkeypatch):
    # no head batch certifies, so every trial runs the spanning run over Z; at
    # n = 9 the dim-3 flag replays its deficit (4, (0, 1, 2)) on ~380-bit entries
    monkeypatch.setattr(generic, "certified_columns", lambda batch: [None] * len(batch))
    cfg, _, flags = flags_of(name)
    assert [find_spanning_q(cfg, w, trials=4, seed=11) for w in flags] == SPANNING_PINS[cfg.n]


@pytest.mark.parametrize("forced_z", [False, True])
def test_spanning_structural_deficit_at_n14_pinned(forced_z, monkeypatch):
    # the dim-4 flag of so_pq:3,2 replays over Z on every trial: its outcome
    # (5, (0, 1, 2, 3)) exceeds q0 = 4, so no head batch certifies it
    if forced_z:
        monkeypatch.setattr(generic, "certified_columns", lambda batch: [None] * len(batch))
    cfg, _, flags = flags_of("so_pq:3,2")
    w = next(w for w in flags if w.dim == 4)
    assert find_spanning_q(cfg, w, trials=2, seed=11) == (5, (0, 1, 2, 3))


def test_spanning_run_builds_no_matrix_and_stops_at_full_span(monkeypatch):
    # the dim-3 flag of so_pq:2,2 replays (4, (0, 1, 2)) over Z from the
    # elements' recipes; its RowSpan takes 3 + 3 + 3 columns, then one more
    # fills Q^9, and the fourth translate's last two columns are not reduced
    monkeypatch.setattr(generic, "certified_columns", lambda batch: [None] * len(batch))
    cfg, _, flags = flags_of("so_pq:2,2")
    w = flags[2]
    check_irreducible(cfg)  # cached; its algebra closure runs RowSpans of its own

    def no_matrix(self):
        raise AssertionError("full element matrix built")

    dims, add = [], RowSpan.add
    monkeypatch.setattr(SampledElement, "matrix", property(no_matrix))
    monkeypatch.setattr(RowSpan, "add", lambda self, vec: dims.append(self.dim) or add(self, vec))
    assert find_spanning_q(cfg, w, trials=2, seed=11) == (4, (0, 1, 2))
    assert len(dims) == 2 * 10 and max(dims) < cfg.n


def test_spanning_tie_goes_to_the_first_outcome(monkeypatch):
    # two trials, two distinct outcomes that both satisfy sum k_q' = qk - n:
    # the modal outcome of a tie is the one seen first
    monkeypatch.setattr(generic, "certified_columns", lambda batch: [None] * len(batch))
    cfg, _, flags = flags_of("so_pq:2,1")
    w = flags[2]
    assert w.dim == 2
    for outcomes in ([(3, (0, 1)), (3, (1, 0))], [(3, (1, 0)), (3, (0, 1))]):
        runs = iter(outcomes)
        monkeypatch.setattr(generic, "_spanning_run", lambda n, wc, elements: next(runs))
        assert find_spanning_q(cfg, w, trials=2, seed=0) == outcomes[0]


class TestZeroTrials:
    def test_every_monte_carlo_check_needs_a_trial(self):
        cfg, _, flags = flags_of("so_pq:2,1")
        w = flags[1]
        for check in (
            lambda: find_spanning_q(cfg, w, 0, 0),
            lambda: check_intersection_bound(cfg, w, w, 0, 0),
            lambda: check_intersection_bound(cfg, w, w, 0, 0, elements=[]),
            lambda: check_projection_bound(cfg, w, w, 0, 0),
        ):
            with pytest.raises(PreconditionError):
                check()


class TestProjectionBound:
    def test_full_space_projects_fully(self):
        cfg = build_config("sl2_sym:2")
        dec = weight_decompose(cfg)
        flag2 = flag_projector(dec, 0).flag
        rep = check_projection_bound(cfg, Subspace.full(3), flag2, trials=10, seed=5)
        assert rep.all_passed and rep.dimension_histogram == {2: 10}

    def test_top_line_sees_everything(self):
        cfg = build_config("so_pq:2,1")
        dec = weight_decompose(cfg)
        top = flag_projector(dec, 2).flag
        rep = check_projection_bound(cfg, top, Subspace.full(5), trials=40, seed=9)
        assert rep.all_passed
        assert rep.dimension_histogram == {1: 40}  # r = 1 >= (1/5) * 5

    def test_duality_identity_random_instances(self):
        # rank(pi_W o h|_{W'}) = rank(pi_{h^t.W}|_{W'}): plain linear algebra,
        # asserted on random exact data in n = 4
        cfg = build_config("tensor_std:2,2")
        rng = random.Random(123)
        for t in range(100):
            w = random_subspace(4, rng.randint(1, 3), rng)
            wp = random_subspace(4, rng.randint(1, 3), rng)
            h = sample_element(cfg, 1000 + t, default_complexity(cfg)).matrix
            lhs = rank(w.basis.transpose() @ h @ wp.basis)
            rhs = rank(translate(h.transpose(), w).basis.transpose() @ wp.basis)
            assert lhs == rhs


class TestSpanning:
    def test_sl2_sym2_top_line(self):
        cfg = build_config("sl2_sym:2")
        dec = weight_decompose(cfg)
        top = flag_projector(dec, 2).flag
        assert find_spanning_q(cfg, top, trials=20, seed=3) == (3, (0, 0))

    def test_so21_mid_flag(self):
        cfg = build_config("so_pq:2,1")
        dec = weight_decompose(cfg)
        flag2 = flag_projector(dec, 1).flag
        assert find_spanning_q(cfg, flag2, trials=20, seed=4) == (3, (0, 1))

    def test_hyperplane_pair(self):
        cfg = build_config("so_pq:2,1")
        dec = weight_decompose(cfg)
        hyper = flag_projector(dec, -1).flag
        assert hyper.dim == 4
        q, k_list = find_spanning_q(cfg, hyper, trials=20, seed=8)
        assert (q, k_list) == (2, (3,))  # n - 2 = 3 = 2(n-1) - n

    def test_identity_always_holds(self):
        for name in ("so_pq:2,1", "sp2n:2", "sl2_sym:4"):
            cfg = build_config(name)
            dec = weight_decompose(cfg)
            for mu in dec.eigenvalues[1:]:
                w = flag_projector(dec, mu).flag
                q, k_list = find_spanning_q(cfg, w, trials=10, seed=11)
                assert sum(k_list) == q * w.dim - cfg.n
                assert all(kq < w.dim for kq in k_list)


@pytest.mark.parametrize("dim", [-1, 4])
def test_random_subspace_rejects_impossible_dimension(dim):
    with pytest.raises(PreconditionError):
        random_subspace(3, dim, random.Random(0))


def _fraction_random_subspace(n, dim, rng):
    """random_subspace as first written: Fraction draws spanned by Subspace.from_columns."""
    while True:
        cols = [[F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(dim)]
        s = Subspace.from_columns(n, cols)
        if s.dim == dim:
            return s


@pytest.mark.parametrize("seed", [0, 1, 5, 17, 2024])
def test_random_subspace_matches_fraction_draws(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for n, dim in [(1, 1), (3, 0), (3, 2), (5, 3), (5, 5), (9, 4)] * 3:
        assert random_subspace(n, dim, rng) == _fraction_random_subspace(n, dim, ref)
        assert rng.getstate() == ref.getstate()


def test_translate_matches_fraction_product():
    # the reference is translate as first written, canonicalize(h @ s.basis)
    cfg, _, flags = flags_of("so_pq:3,2")
    rng = random.Random(3)
    subspaces = flags + [Subspace.full(cfg.n)] + [random_subspace(cfg.n, d, rng) for d in (1, 6, 13)]
    for el in sample_elements(cfg, 8, 2):
        for s in subspaces:
            assert translate(el.matrix, s) == canonicalize(el.matrix @ s.basis)


class TestSubmodularity:
    def test_equal_arguments(self):
        rng = random.Random(1)
        w = random_subspace(4, 2, rng)
        wp = random_subspace(4, 3, rng)
        assert submodularity_check(wp, w, w)

    def test_hand_example(self):
        wp = Subspace.from_columns(3, [[1, 0, 0], [0, 1, 0]])
        w1 = Subspace.from_columns(3, [[1, 0, 0]])
        w2 = Subspace.from_columns(3, [[0, 1, 0]])
        # 0 + 2 >= 1 + 1 with equality
        assert submodularity_check(wp, w1, w2)

    def test_random_triples(self):
        rng = random.Random(77)
        for _ in range(300):
            n = 6
            wp = random_subspace(n, rng.randint(0, n), rng)
            w1 = random_subspace(n, rng.randint(0, n), rng)
            w2 = random_subspace(n, rng.randint(0, n), rng)
            assert submodularity_check(wp, w1, w2)
