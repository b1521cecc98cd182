"""Brascamp-Lieb feasibility and constant estimation."""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from repverify import brascamp_lieb
from repverify.brascamp_lieb import (
    BLDatum,
    BLMap,
    CapExceeded,
    InvalidExponent,
    SingularForm,
    build_datum_from_rep,
    certify_feasible,
    check_feasibility,
    datum_from_json,
    datum_to_json,
    estimate_bl_constant,
    gaussian_ratio,
    holder_datum,
    loomis_whitney_datum,
)
from repverify.generic import sample_elements, translate
from repverify.harness import _corpus_pair, derive_seed
from repverify.qlinalg import MODULUS, Mat, Subspace, _pivot_columns, kernel_basis, subspace_intersect, subspace_sum
from repverify.reps import build_config

F = Fraction


def quadrature_ratio(datum: BLDatum, m_list, L=7.0, num=71) -> float:
    """Independent oracle: Riemann quadrature of the inequality on Gaussians.

    Returns (integral of prod f_j(pi_j x)^{p_j}) / (prod (integral f_j)^{p_j})
    for f_j(y) = exp(-pi y . M_j y); trapezoid sums on centered Gaussians
    converge far below the tolerances used here.
    """
    assert datum.n <= 3
    grid = np.linspace(-L, L, num)
    h = grid[1] - grid[0]
    axes = np.meshgrid(*([grid] * datum.n), indexing="ij")
    pts = np.stack([a.ravel() for a in axes])  # n x N
    mats = datum.numpy_maps()
    integrand = np.ones(pts.shape[1])
    denom = 1.0
    for p, pi, mj in zip(datum.exponents, mats, m_list):
        y = pi @ pts
        fj = np.exp(-np.pi * np.einsum("iN,ij,jN->N", y, mj, y))
        integrand *= fj ** float(p)
        denom *= float(np.linalg.det(mj)) ** (-float(p) / 2.0)
    lhs = integrand.sum() * h**datum.n
    return lhs / denom


class TestDatum:
    def test_holder_scaling(self):
        d = holder_datum(3, 2)
        assert d.scaling_holds()
        assert d.exponents == (F(1, 2), F(1, 2))

    def test_loomis_whitney_scaling(self):
        d = loomis_whitney_datum()
        assert d.scaling_holds()  # 3 = 3 * (1/2) * 2

    def test_non_surjective_rejected(self):
        with pytest.raises(ValueError):
            BLDatum(2, (BLMap(2, Mat.from_rows([[1, 0], [2, 0]])),), (F(1),))

    def test_json_round_trip(self):
        d = loomis_whitney_datum()
        assert datum_from_json(datum_to_json(d)) == d


class TestBuildFromRep:
    def test_flag_mode_exponents(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=5, height=5))
        d = build_datum_from_rep(cfg, els, mu=2)
        assert d.exponents == (F(1),) * 5  # 5 / (1 * 5)
        assert all(m.n_j == 1 for m in d.maps)
        assert d.scaling_holds()

    def test_subspace_mode_exponents(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=5, height=5))
        from repverify.generic import random_subspace

        w = random_subspace(5, 2, random.Random(4))
        d = build_datum_from_rep(cfg, els, w=w)
        assert d.exponents == (F(1, 2),) * 5  # 5 / (2 * 5)

    def test_m_too_small(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=2, count=3, height=5))
        with pytest.raises(InvalidExponent):
            build_datum_from_rep(cfg, els, mu=2)  # p = 5/3 > 1


class TestFeasibility:
    def test_holder_passes(self):
        cert = check_feasibility(holder_datum(3, 2), "lattice")
        assert cert.scaling_ok and cert.status == "certified"

    def test_single_projection_violated(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        cert = check_feasibility(d, "lattice")
        assert cert.scaling_ok  # 2 = 2 * 1
        assert cert.status == "violated"
        assert cert.witness is not None and cert.witness.dim == 1
        # witness is the kernel: 1 > 2 * 0
        assert cert.witness.contains_vector([0, 1])

    def test_common_kernel_found_despite_big_lattice(self):
        cfg = build_config("so_pq:2,1")
        els = tuple(sample_elements(cfg, seed=17, count=5, height=5))
        d = build_datum_from_rep(cfg, els, mu=2)
        proj = Mat.diagonal([F(1)] * 4 + [F(0)])
        stuffed = BLDatum(
            d.n, tuple(BLMap(m.n_j, m.matrix @ proj) for m in d.maps), d.exponents
        )
        cert = check_feasibility(stuffed, "lattice")
        assert cert.status == "violated"

    def test_lattice_sums_each_pair_once(self, monkeypatch):
        pairs = Counter()
        real_sum = brascamp_lieb.subspace_sum

        def counting_sum(a, b):
            pairs[frozenset((a, b))] += 1
            return real_sum(a, b)

        monkeypatch.setattr(brascamp_lieb, "subspace_sum", counting_sum)
        cert = brascamp_lieb._walk_lattice(loomis_whitney_datum())
        assert cert.status == "passed_lattice"
        assert pairs and max(pairs.values()) == 1

    @pytest.mark.parametrize(
        "datum, mode",
        [
            (BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),)), "bogus"),
            (BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),)), "lattice_plus_random"),
            (BLDatum(17, (BLMap(1, Mat.from_rows([[1] + [0] * 16])),), (F(17),)), "coordinate_exhaustive"),
        ],
        ids=["unknown-mode", "removed-random-mode", "coordinate-exhaustive-n17"],
    )
    def test_bad_mode_rejected_before_lattice_walk(self, datum, mode):
        # both data violate the criterion on their kernel, the first lattice element
        with pytest.raises(ValueError):
            check_feasibility(datum, mode)


def _pinned_data() -> dict[str, BLDatum]:
    data = {
        "holder": holder_datum(3, 2),
        "loomis_whitney": loomis_whitney_datum(),
        "violating": BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),)),
    }
    for idx, (name, mu, m) in enumerate((("so_pq:2,1", 2, 5), ("sl2_sym:4", 4, 5), ("sl2_sym:2", 2, 3))):
        data[f"corpus{idx}"], data[f"stuffed{idx}"] = _corpus_pair(build_config(name), 0, idx, mu, m)
    return data


PINNED_DATA = _pinned_data()
LATTICE_PASS = {"holder": 2, "loomis_whitney": 8, "corpus0": 32, "corpus1": 32, "corpus2": 8}
LATTICE_WITNESS = {"violating": (1, ((0, 1),)), "stuffed0": (20, ((0, 0, 0, 0, 1),)),
                   "stuffed1": (20, ((0, 0, 0, 0, 1),)), "stuffed2": (5, ((0, 0, 1),))}
# (status, lattice_size, witness columns) of the walk, _walk_lattice(d)
FEASIBILITY_PINS = {
    **{(name, "lattice"): ("passed_lattice", size, None) for name, size in LATTICE_PASS.items()},
    **{(name, "lattice"): ("violated", size, cols) for name, (size, cols) in LATTICE_WITNESS.items()},
}
# sha256 of the columns of every subspace checked by the walk, in order
CANDIDATE_PINS = {
    "holder": "f022158491a135a88637014f662c8ff262e300c336d351b28eaa4642de25ca33",
    "loomis_whitney": "01f5ad0edfa1c8e05c9a6ee1a9fdabb43bf52b9ba67ab59a8dd2b064a023d742",
    "violating": "84ff3ba1744224ede8e0ecf1e8cdd3029c0ff8000c319d78ca0d7fceed183155",
    "corpus0": "87b318222961b46965024ae64fa60ef8ae571c839cc388144f280220b9236fe9",
    "stuffed0": "c633afb65f77bd521db1944114af947340c1cc753598ce8fb3c3fbfd79037aaa",
    "corpus1": "28fda34504e3964b073230d059dc9ea9077a7a72484f53bd7ffdb007e9429fd1",
    "stuffed1": "e14ba4f04918cd1911b8a861a836d726885c9ca47c4157a20e102e6657abcebb",
    "corpus2": "c884886fb11f78a0b21c3a51a5c02d614de1739e7b67eff5468e304ad6f1b289",
    "stuffed2": "703db0d2e09d008e7b59303b6d0d04d158561fdf28a143979bb81c0109a4b154",
}


class TestFeasibilityPins:
    """Walk certificates and candidate order recorded before the integer rank path."""

    @pytest.mark.parametrize("name, mode", sorted(FEASIBILITY_PINS))
    def test_certificate(self, name, mode):
        cert = brascamp_lieb._walk_lattice(PINNED_DATA[name])
        witness = cert.witness.columns if cert.witness else None
        assert (cert.status, cert.lattice_size, witness) == FEASIBILITY_PINS[(name, mode)]

    @pytest.mark.parametrize("name", sorted(CANDIDATE_PINS))
    def test_candidate_order(self, name, monkeypatch):
        seen, real = [], brascamp_lieb._criterion_deficit

        def record(d, u):
            seen.append(u.columns)
            return real(d, u)

        monkeypatch.setattr(brascamp_lieb, "_criterion_deficit", record)
        brascamp_lieb._walk_lattice(PINNED_DATA[name])
        assert hashlib.sha256(json.dumps(seen).encode()).hexdigest() == CANDIDATE_PINS[name]

# N of the nonsingular lift at seed LIFT_SEED: the exponents' common denominator c
LIFT_PASS = {"holder": 2, "loomis_whitney": 2, "corpus0": 1, "corpus1": 1, "corpus2": 1}
# (status, lattice_size, witness columns, lift) of check_feasibility(d, mode):
# the lift certifies each feasible datum before any walk; each violated one has a nonzero
# common kernel K, returned as the one member checked, and each walk's witness was K already
CHECK_PINS = {
    **{(name, "lattice"): ("certified", 0, None, (n_copies, brascamp_lieb.LIFT_SEED))
       for name, n_copies in LIFT_PASS.items()},
    **{(name, "lattice"): ("violated", 1, cols, None) for name, (_, cols) in LATTICE_WITNESS.items()},
}


@pytest.mark.parametrize("name, mode", sorted(CHECK_PINS))
def test_check_feasibility_pinned(name, mode):
    cert = check_feasibility(PINNED_DATA[name], mode)
    witness = cert.witness.columns if cert.witness else None
    assert (cert.status, cert.lattice_size, witness, cert.lift) == CHECK_PINS[(name, mode)]
    assert cert.scaling_ok


@pytest.mark.parametrize("name", sorted(PINNED_DATA))
def test_walk_agrees_with_check(name):
    # the lift and the common kernel decide before any walk; the walk alone reaches the
    # same verdict, and its witness violates the criterion
    walked, checked = brascamp_lieb._walk_lattice(PINNED_DATA[name]), check_feasibility(PINNED_DATA[name])
    assert {"passed_lattice": "certified"}.get(walked.status, walked.status) == checked.status
    if walked.status == "violated":
        assert brascamp_lieb._criterion_deficit(PINNED_DATA[name], walked.witness) > 0
        assert walked.witness.contains_subspace(checked.witness)


@pytest.mark.parametrize("name", sorted(LIFT_PASS))
def test_removed_mode_rejected_before_lift(name, monkeypatch):
    def never(*args):
        raise AssertionError("a rejected mode reached the lift or the walk")

    monkeypatch.setattr(brascamp_lieb, "_lift_residues", never)
    monkeypatch.setattr(brascamp_lieb, "_iter_kernel_lattice", never)
    with pytest.raises(ValueError, match="unknown feasibility mode 'coordinate_exhaustive'"):
        check_feasibility(PINNED_DATA[name], "coordinate_exhaustive")


def _q3_datum(scale: int = 1) -> BLDatum:
    """Five maps of Q^3 whose kernel lattice is infinite, exponents scale * 3 / (5 n_j):
    feasible at scale 1, where the scaling condition holds, and not at scale 2."""
    rows = ([[0, 2, 1]], [[2, -1, 1]], [[2, 0, 0], [1, 2, 2]], [[1, 0, 0], [0, 2, 1]], [[-1, 0, 2]])
    maps = tuple(BLMap(len(r), Mat.from_rows(r)) for r in rows)
    return BLDatum(3, maps, tuple(F(3 * scale, 5 * m.n_j) for m in maps))


def _lift_over_z(d: BLDatum, n_copies: int, seed: int) -> list[list[int]]:
    """The lift stack_j (B_j (x) Z_j) as Python ints, rows and columns in np.kron's order."""
    return [
        [b * z for b in brow for z in zrow]
        for rows, zs in brascamp_lieb._lift_factors(d, n_copies, seed)
        for brow in rows
        for zrow in zs
    ]


class TestLift:
    def test_infinite_lattice_datum_certified(self, monkeypatch):
        # the walk passes any cap on this datum (4096 after about 0.7 s); the lift at
        # N = c = 10 certifies it, first or, past LIFT_FIRST_MAX, once the cap is passed
        d = _q3_datum()
        assert check_feasibility(d).status == "certified"
        assert check_feasibility(d).lift == (10, brascamp_lieb.LIFT_SEED)
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        with pytest.raises(CapExceeded):
            brascamp_lieb._walk_lattice(d)
        monkeypatch.setattr(brascamp_lieb, "LIFT_FIRST_MAX", 0)
        assert check_feasibility(d) == brascamp_lieb.FeasibilityCertificate(
            True, "certified", lift=(10, brascamp_lieb.LIFT_SEED)
        )

    def test_cap_without_certificate_raises(self, monkeypatch):
        # at scale 2 the criterion holds on every subspace but the scaling condition fails
        d = _q3_datum(2)
        assert not d.scaling_holds() and certify_feasible(d) is None
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        with pytest.raises(CapExceeded, match="cap 64"):
            check_feasibility(d)

    def test_lift_after_cap_bounded_by_lift_max(self, monkeypatch):
        # n c = 30 on the Q^3 datum: lifted after the cap at LIFT_MAX 30, not at 29
        d = _q3_datum()
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        monkeypatch.setattr(brascamp_lieb, "LIFT_FIRST_MAX", 0)
        monkeypatch.setattr(brascamp_lieb, "LIFT_MAX", 30)
        assert check_feasibility(d).lift == (10, brascamp_lieb.LIFT_SEED)
        monkeypatch.setattr(brascamp_lieb, "LIFT_MAX", 29)
        with pytest.raises(CapExceeded, match="cap 64"):
            check_feasibility(d)

    def test_map_onto_q0(self):
        # a 0 x n map has no integer rows and adds no rows to the lift
        line, empty = BLMap(1, Mat.from_rows([[1, 0]])), BLMap(0, Mat.zeros(0, 2))
        d = BLDatum(2, (line, empty), (F(2), F(1, 3)))
        assert d.scaling_holds() and empty.integer_rows == []
        assert brascamp_lieb._lift_residues(d, 3, 0).shape == (6, 6)
        cert = check_feasibility(d)
        assert cert == brascamp_lieb._walk_lattice(d) and cert.status == "violated"
        d = BLDatum(1, (BLMap(1, Mat.from_rows([[1]])), BLMap(0, Mat.zeros(0, 1))), (F(1), F(1, 2)))
        assert check_feasibility(d) == brascamp_lieb.FeasibilityCertificate(
            True, "certified", lift=(2, brascamp_lieb.LIFT_SEED)
        )

    @pytest.mark.parametrize("name", [*LIFT_PASS, "q3"])
    def test_lift_replays_over_z(self, name):
        d = _q3_datum() if name == "q3" else PINNED_DATA[name]
        n_copies, seed = check_feasibility(d).lift
        m = _lift_over_z(d, n_copies, seed)
        assert len(m) == len(m[0]) == d.n * n_copies
        pivots, last = _pivot_columns(m)
        assert len(pivots) == d.n * n_copies and last != 0  # the determinant

    def test_big_rows_reduced_in_python_ints(self):
        big = 2**64 + 12345
        maps = (BLMap(1, Mat.from_rows([[big, 3]])), BLMap(1, Mat.from_rows([[-(2**70) - 1, big]])))
        d = BLDatum(2, maps, (F(1), F(1)))
        assert max(abs(x) for m in d.maps for row in m.integer_rows for x in row) > 2**63
        expected = [[x % MODULUS for x in row] for row in _lift_over_z(d, 2, 5)]
        assert brascamp_lieb._lift_residues(d, 2, 5).tolist() == expected
        n_copies, seed = certify_feasible(d)
        assert _pivot_columns(_lift_over_z(d, n_copies, seed))[1] != 0

    def test_violated_data_never_certified(self, monkeypatch):
        # the walk decides at cap 64; every datum it finds violated keeps its verdict, with
        # the walk's certificate when the maps share no kernel and else their common kernel,
        # and no lift at N = c certifies it where check_feasibility lifts
        monkeypatch.setattr(brascamp_lieb, "LATTICE_CAP", 64)
        rng = random.Random(0)
        data = [PINNED_DATA[name] for name in LATTICE_WITNESS]
        for _ in range(200):
            d = _random_datum(rng)
            data += [d, BLDatum(d.n, d.maps, tuple(F(d.n, d.m * m.n_j) for m in d.maps))]
        verdicts = Counter()
        for d in data:
            try:
                walked = brascamp_lieb._walk_lattice(d)
            except CapExceeded:
                verdicts["cap"] += 1
                continue
            cert = check_feasibility(d)
            verdicts[walked.status, cert.status] += 1
            common = reduce(subspace_intersect, [kernel_basis(m.matrix) for m in d.maps])
            if common.dim:
                verdicts["common-kernel"] += 1
                assert walked.status == "violated"
                assert cert == brascamp_lieb.FeasibilityCertificate(walked.scaling_ok, "violated", common, 1)
            elif walked.status == "violated":
                assert cert == walked
            if walked.status == "violated":
                if d.n * d.exponent_numerators[0] <= brascamp_lieb.LIFT_FIRST_MAX:
                    assert certify_feasible(d) is None
        assert verdicts["violated", "certified"] == 0 and verdicts["violated", "violated"] > 200
        assert 50 < verdicts["common-kernel"] < verdicts["violated", "violated"]  # both branches run
        assert verdicts["passed_lattice", "certified"] > 50  # many data are lifted, not vacuously


def _tensor_datum() -> BLDatum:
    """tensor_std:2,2 on the coordinate plane of e_1, e_3, three elements at height 5."""
    rc = build_config("tensor_std:2,2")
    plane = Subspace.from_columns(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    return build_datum_from_rep(rc, tuple(sample_elements(rc, 0, 3, height=5)), w=plane)


def _stuffed_tensor_datum() -> BLDatum:
    """`_tensor_datum` with every map composed with the projection killing e_4: the
    walk stops at the first map kernel, a plane, while the common kernel is <e_4>."""
    d, proj = _tensor_datum(), Mat.diagonal([F(1)] * 3 + [F(0)])
    return BLDatum(d.n, tuple(BLMap(m.n_j, m.matrix @ proj) for m in d.maps), d.exponents)


def _fresh(d: BLDatum) -> BLDatum:
    """An equal datum with nothing cached yet."""
    return datum_from_json(datum_to_json(d))


class TestCommonKernel:
    def test_walk_stops_at_a_map_kernel_above_k(self):
        d = _stuffed_tensor_datum()
        walked = brascamp_lieb._walk_lattice(d)
        assert (walked.status, walked.lattice_size, walked.witness.dim) == ("violated", 1, 2)
        k = Subspace.coordinate(4, [3])
        assert d.common_kernel == k and walked.witness.contains_subspace(k)
        assert check_feasibility(d) == brascamp_lieb.FeasibilityCertificate(True, "violated", k, 1)

    @pytest.mark.parametrize("name", ["violating", "stuffed0", "stuffed1", "stuffed2", "tensor"])
    def test_no_lift_and_no_walk(self, name, monkeypatch):
        def never(*args):
            raise AssertionError("a datum with a common kernel reached the lift or the walk")

        monkeypatch.setattr(brascamp_lieb, "_lift_residues", never)
        monkeypatch.setattr(brascamp_lieb, "_iter_kernel_lattice", never)
        d = _fresh(_stuffed_tensor_datum() if name == "tensor" else PINNED_DATA[name])
        with pytest.raises(ValueError, match="unknown feasibility mode"):
            check_feasibility(d, "bogus")
        cert = check_feasibility(d)
        assert (cert.status, cert.witness, cert.lattice_size, cert.lift) == ("violated", d.common_kernel, 1, None)
        assert cert.witness.dim > 0

    def test_one_sweep_for_check_and_estimate(self, monkeypatch):
        calls, real = [], brascamp_lieb.kernel_of_rows

        def counting(rows, n):
            calls.append(n)
            return real(rows, n)

        monkeypatch.setattr(brascamp_lieb, "kernel_of_rows", counting)
        d = _fresh(PINNED_DATA["stuffed0"])
        assert check_feasibility(d).status == "violated"
        est = estimate_bl_constant(d, budget=10, seed=0)
        assert est.bl_infinite and est.cause == "common-kernel"
        assert calls == [d.n]

    def test_map_onto_q0_adds_no_rows(self):
        empty = BLMap(0, Mat.zeros(0, 2))
        d = BLDatum(2, (BLMap(2, Mat.identity(2)), empty), (F(1), F(1, 3)))
        assert d.common_kernel == Subspace.zero(2)
        assert check_feasibility(d).status == "certified"
        d = BLDatum(2, (empty,), (F(1),))
        assert d.common_kernel == Subspace.full(2)
        assert check_feasibility(d) == brascamp_lieb.FeasibilityCertificate(False, "violated", Subspace.full(2), 1)

    def test_scaling_fails_with_a_common_kernel(self):
        # sum p_j n_j = 2 != 3: violated on K = <e_3>, where the walk stops at the plane
        # ker B_1 = <e_2, e_3>, with scaling_ok False; the estimator refuses the datum
        d = BLDatum(3, (BLMap(1, Mat.from_rows([[1, 0, 0]])), BLMap(1, Mat.from_rows([[0, 1, 0]]))), (F(1), F(1)))
        k = Subspace.coordinate(3, [2])
        assert brascamp_lieb._walk_lattice(d).witness == Subspace.coordinate(3, [1, 2])
        cert = check_feasibility(d)
        assert cert == brascamp_lieb.FeasibilityCertificate(False, "violated", k, 1)
        assert not cert.feasible_so_far
        with pytest.raises(InvalidExponent):
            estimate_bl_constant(d, budget=10, seed=0)


def _reference_lattice(d: BLDatum, cap: int):
    """The kernel-lattice walk that sums and intersects every pair, comparable or not."""
    seen: dict[Subspace, bool] = {}
    for s in [kernel_basis(m.matrix) for m in d.maps] + [Subspace.full(d.n)]:
        if s not in seen:
            seen[s] = True
            yield s
    old: list[Subspace] = []
    frontier = list(seen)
    while frontier:
        new: list[Subspace] = []
        for i, a in enumerate(frontier):
            for b in old + frontier[i + 1 :]:
                for c in (subspace_sum(a, b), subspace_intersect(a, b)):
                    if c not in seen:
                        seen[c] = True
                        new.append(c)
                        if len(seen) > cap:
                            raise CapExceeded(f"kernel lattice exceeded cap {cap}")
                        yield c
        old += frontier
        frontier = new


def _walk(lattice, d: BLDatum, cap: int) -> tuple[list[tuple], bool]:
    """The columns of every element yielded, and whether the cap was passed."""
    out: list[tuple] = []
    try:
        for u in lattice(d, cap):
            out.append(u.columns)
    except CapExceeded:
        return out, True
    return out, False


def _walk_datum(name: str) -> BLDatum:
    """A pinned datum, the Q^3 datum or one of the two tensor_std:2,2 data."""
    extra = {"q3": _q3_datum, "tensor": _tensor_datum, "stuffed_tensor": _stuffed_tensor_datum}
    return extra[name]() if name in extra else PINNED_DATA[name]


WALK_DATA = [*sorted(PINNED_DATA), "q3", "tensor", "stuffed_tensor"]


@pytest.mark.parametrize("name", WALK_DATA)
def test_lattice_walk_matches_every_pair_reference(name, monkeypatch):
    # stuffed0 (so_pq:2,1), stuffed1 (sl2_sym:4) and the Q^3 datum, whose lattice is
    # infinite, pass the cap; the others close below it
    d, cap = _walk_datum(name), 64
    expected = _walk(_reference_lattice, d, cap)
    assert expected[1] == (name in ("stuffed0", "stuffed1", "q3"))
    summed, real_sum = [], brascamp_lieb.subspace_sum

    def recording_sum(a, b):
        summed.append((a, b))
        return real_sum(a, b)

    monkeypatch.setattr(brascamp_lieb, "subspace_sum", recording_sum)
    assert _walk(brascamp_lieb._iter_kernel_lattice, d, cap) == expected
    assert not any(a.contains_subspace(b) or b.contains_subspace(a) for a, b in summed)


def _random_datum(rng: random.Random) -> BLDatum:
    """1-5 surjective maps of Q^n, n = 2..6, with entries in -1..2: small
    entries put the kernels in special position, so many lattices pass 64."""
    n = rng.randint(2, 6)
    maps = []
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(1, n - 1)
        m = Mat.from_rows([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(k)])
        while brascamp_lieb.rank(m) < k:
            m = Mat.from_rows([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(k)])
        maps.append(BLMap(k, m))
    return BLDatum(n, tuple(maps), (F(1),) * len(maps))


def test_lattice_walk_matches_reference_on_random_data():
    rng, capped = random.Random(0), 0
    for _ in range(200):
        d = _random_datum(rng)
        expected = _walk(_reference_lattice, d, 64)
        assert _walk(brascamp_lieb._iter_kernel_lattice, d, 64) == expected
        capped += expected[1]
    assert 0 < capped < 200


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_lattice_walk_matches_reference_at_more_seeds(seed):
    rng = random.Random(seed)
    for _ in range(200):
        d = _random_datum(rng)
        assert _walk(brascamp_lieb._iter_kernel_lattice, d, 64) == _walk(_reference_lattice, d, 64)


@pytest.mark.parametrize("name", WALK_DATA)
def test_lattice_walk_builds_new_sums_and_tests_each_pair_once(name, monkeypatch):
    # no sum of dimension n is built: it is the full space, read off the sweep; so corpus0
    # builds no sum of two of its hyperplanes, only of their meets, and holder, violating,
    # stuffed2 and tensor, whose pairs are comparable or span Q^n, build none
    summed, swept = [], Counter()
    real_sum, real_sweep = brascamp_lieb.subspace_sum, brascamp_lieb._meet_kernel

    def recording_sum(a, b):
        summed.append(real_sum(a, b))
        return summed[-1]

    def counting_sweep(a, b):
        swept[frozenset((a, b))] += 1
        return real_sweep(a, b)

    def no_containment(self, other):
        raise AssertionError("the walk tested a containment")

    monkeypatch.setattr(brascamp_lieb, "subspace_sum", recording_sum)
    monkeypatch.setattr(brascamp_lieb, "_meet_kernel", counting_sweep)
    monkeypatch.setattr(Subspace, "contains_subspace", no_containment)
    d = _walk_datum(name)
    yielded, _ = _walk(brascamp_lieb._iter_kernel_lattice, d, 64)
    assert bool(summed) == (name not in ("holder", "violating", "stuffed2", "tensor"))
    assert all(c.dim < d.n and c.columns in yielded for c in summed)
    assert max(swept.values()) == 1


def test_rank_paths_make_no_fraction_product(monkeypatch):
    """The BCCT ranks and generic translates run on integer products only."""
    cfg = build_config("so_pq:2,1")
    h = sample_elements(cfg, 4, 1)[0].matrix
    w = Subspace.from_columns(cfg.n, [[1, 0, 0, 0, 0], [0, 2, 0, 1, 0]])
    expected = translate(h, w)

    def no_product(self, other):
        raise AssertionError("Fraction matrix product on a rank path")

    monkeypatch.setattr(Mat, "__matmul__", no_product)
    assert check_feasibility(PINNED_DATA["corpus0"]).status == "certified"
    assert brascamp_lieb._walk_lattice(PINNED_DATA["corpus0"]).status != "violated"
    assert check_feasibility(PINNED_DATA["stuffed0"], "lattice").status == "violated"
    assert translate(h, w) == expected


class TestGaussianRatio:
    def test_holder_identity(self):
        assert gaussian_ratio(holder_datum(3, 2), [np.eye(3)] * 2) == pytest.approx(1.0)

    def test_loomis_whitney_identity(self):
        assert gaussian_ratio(loomis_whitney_datum(), [np.eye(2)] * 3) == pytest.approx(1.0)

    def test_scaling_invariance(self):
        # simultaneous rescaling leaves the ratio unchanged when the scaling
        # condition holds
        d = loomis_whitney_datum()
        rng = np.random.default_rng(5)
        ms = []
        for _ in range(3):
            a = rng.normal(size=(2, 2))
            ms.append(a @ a.T + 0.5 * np.eye(2))
        base = gaussian_ratio(d, ms)
        for c in (0.25, 3.0, 17.0):
            assert gaussian_ratio(d, [c * m for m in ms]) == pytest.approx(base, rel=1e-9)

    def test_singular_aggregate(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        with pytest.raises(SingularForm):
            gaussian_ratio(d, [np.eye(1)])

    def test_ratio_is_lower_bound_against_quadrature(self):
        # closed form vs direct numerical integration on random Gaussians
        rng = np.random.default_rng(11)
        for d in (holder_datum(3, 2), loomis_whitney_datum()):
            for _ in range(3):
                ms = []
                for m in d.maps:
                    a = rng.normal(size=(m.n_j, m.n_j))
                    ms.append(a @ a.T + 0.6 * np.eye(m.n_j))
                closed = gaussian_ratio(d, ms)
                quad = quadrature_ratio(d, ms)
                assert quad == pytest.approx(closed, rel=1e-6)


class TestEstimate:
    def test_holder_reaches_one(self):
        est = estimate_bl_constant(holder_datum(3, 2), budget=200, seed=1)
        assert est.lower_bound_variational >= 0.999
        assert est.lower_bound_gaussian >= 0.999
        assert not est.bl_infinite and est.cause is None

    def test_loomis_whitney_reaches_one(self):
        est = estimate_bl_constant(loomis_whitney_datum(), budget=200, seed=1)
        assert est.lower_bound_variational >= 0.999
        assert est.lower_bound_gaussian >= 0.999
        assert est.converged

    def test_maps_converted_to_floats_once(self, monkeypatch):
        calls, real = [], Mat.to_float_rows

        def counting(self):
            calls.append(self)
            return real(self)

        monkeypatch.setattr(Mat, "to_float_rows", counting)
        d = _tensor_datum()
        est = estimate_bl_constant(d, budget=200, seed=0)
        assert est.iterations > 5 and len(calls) == d.m
        mats = d.numpy_maps()
        assert mats is d.numpy_maps() and not any(a.flags.writeable for a in mats)

    @pytest.mark.parametrize("datum", [BLDatum(2, (BLMap(2, Mat.identity(2)),), (F(1),)), _tensor_datum()])
    def test_map_onto_q0_contributes_factor_one(self, datum):
        # appending a 0 x n map with any exponent leaves both bounds unchanged
        empty = BLMap(0, Mat.zeros(0, datum.n))
        d = BLDatum(datum.n, datum.maps + (empty,), datum.exponents + (F(1, 3),))
        assert d.numpy_maps()[-1].shape == (0, datum.n)
        assert estimate_bl_constant(d, budget=200, seed=0) == estimate_bl_constant(datum, budget=200, seed=0)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            estimate_bl_constant(holder_datum(3, 2), budget, 0)

    @pytest.mark.parametrize("e", [8, 10])
    def test_nearly_dependent_maps_converge(self, e):
        # maps [1, 0] and [1, 10^-e] at p = (1, 1): the constant is 1/|det| = 10^e;
        # the aggregate form's determinant (about 10^-2e) is small only in scale
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])), BLMap(1, Mat.from_rows([[1, F(1, 10**e)]]))), (F(1), F(1)))
        est = estimate_bl_constant(d, budget=200, seed=0)
        assert est.converged and not est.bl_infinite
        assert est.lower_bound_variational == pytest.approx(10.0**e, rel=1e-6)
        assert est.lower_bound_gaussian == pytest.approx(10.0**e, rel=1e-6)

    def test_infeasible_signals_infinite(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        est = estimate_bl_constant(d, budget=300, seed=2)
        assert est.bl_infinite and est.cause == "common-kernel"

    def test_infeasible_without_common_kernel_signals_infinite(self):
        # U = span(e_2) violates the criterion (1 > 2/3), yet no direction is
        # killed by every map, so only the scaling can see the infinite constant
        d = BLDatum(
            2,
            (BLMap(1, Mat.from_rows([[1, 0]])), BLMap(1, Mat.from_rows([[1, 0]])), BLMap(1, Mat.from_rows([[0, 1]]))),
            (F(2, 3),) * 3,
        )
        assert check_feasibility(d, "lattice").status == "violated"
        est = estimate_bl_constant(d, budget=10, seed=0)
        assert est.bl_infinite and not est.converged
        assert est.cause == "unconverged"

    def test_overflowing_bound_is_infinite(self):
        d = BLDatum(2, (BLMap(1, Mat.from_rows([[1, 0]])),), (F(2),))
        est = estimate_bl_constant(d, budget=200, seed=derive_seed(0, "bl", "violating"))
        assert est.bl_infinite
        assert est.lower_bound_variational == math.inf

    def test_deterministic(self):
        a = estimate_bl_constant(loomis_whitney_datum(), budget=100, seed=9)
        b = estimate_bl_constant(loomis_whitney_datum(), budget=100, seed=9)
        assert a.lower_bound_variational == b.lower_bound_variational
        assert a.lower_bound_gaussian == b.lower_bound_gaussian
