"""Exact Monte Carlo verification of generic subspace-position statements.

Group elements are sampled as products of unipotent exponentials with random
rational parameters, so every trial stays in exact arithmetic.  The minimal
spanning count is read off as the modal value over independent trials.

A sampled element is its recipe; its exact matrix is built only for outside
readers.  The bound checks need only ranks, so they compute the residues mod
the prime MODULUS of all their elements in one batch, straight from the
recipes, and certify the ranks of all their trials in one `certified_columns`
call on that batch.  A mod-p rank that reaches min(#columns, length) is the
exact rank; every trial whose mod-p rank falls short is decided over Z, by a
`RowSpan`, on the exact translates h.W.  Each comes from h's recipe through the
exp kernel `exp_product_columns`, applied to W's columns only, so no trial
builds a full element matrix.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, count, islice
from typing import Iterable, Sequence

import numpy as np

from .qlinalg import (
    MODULUS,
    ExpTerms,
    Mat,
    RowSpan,
    Subspace,
    _integer,
    _meet_kernel,
    apply_rows,
    certified_columns,
    exp_product,
    exp_product_columns,
    exp_product_residues,
    independent_columns,
    matmul_mod,
    subspace_intersect,
    subspace_sum,
    word_exp_terms,
)
from .reps import RepConfig, check_irreducible

class PreconditionError(Exception):
    pass


class IrreducibilityViolation(Exception):
    """A spanning run exceeded n translates without filling V."""


@dataclass(frozen=True)
class SampledElement:
    """Determinant-one element of cfg given by its recipe of (generator index, t)
    factors.  Its exact matrix, replay_recipe(cfg, recipe), is built on first
    read, for outside readers; translates and BL maps are built without it."""

    cfg: RepConfig = field(repr=False)
    recipe: tuple[tuple[int, Fraction], ...]
    seed: int

    @cached_property
    def matrix(self) -> Mat:
        return replay_recipe(self.cfg, self.recipe)

    def translate_columns(self, cols: Sequence[Sequence[int]]) -> list[list[int]]:
        """The matrix times each integer column of cols, by `exp_product_columns`
        on those columns alone, each product over its gcd: the columns span h.W
        for W the span of cols."""
        return _primitive(exp_product_columns(self.cfg.n, _factors(self.cfg, self.recipe), cols)[0])

    @cached_property
    def residues(self) -> np.ndarray:
        """The (n, n) int64 residues of the matrix mod MODULUS, from the recipe."""
        return _residues(self.cfg, [self])[0]


@dataclass
class TrialReport:
    trials: int = 0
    passes: int = 0
    dimension_histogram: dict[int, int] = field(default_factory=dict)
    witness_failures: list[tuple[int, tuple[tuple[int, Fraction], ...]]] = field(default_factory=list)

    def record(self, dim: int, passed: bool, witness):
        self.trials += 1
        self.dimension_histogram[dim] = self.dimension_histogram.get(dim, 0) + 1
        if passed:
            self.passes += 1
        else:
            self.witness_failures.append(witness)

    @property
    def all_passed(self) -> bool:
        return self.passes == self.trials


def default_complexity(cfg: RepConfig) -> int:
    return 2 * (len(cfg.u_plus_indices) + len(cfg.u_minus_indices))


PARAM_HEIGHT = 9999


def sample_element(cfg: RepConfig, seed: int, complexity: int, height: int = PARAM_HEIGHT) -> SampledElement:
    """Product of `complexity` unipotent factors exp(t N): draws the recipe of
    (generator index, t) pairs; the matrix is built from it on first use.

    The generators N alternate between the u+ and u- lists on a round-robin
    schedule, so every expanding and contracting generator of every simple
    factor contributes; the parameters t are uniform rationals of height at
    most `height`.  Deterministic in (seed, complexity, height).  At the
    default height, draws on a proper Zariski-closed locus came out around
    1e-8 per trial (coarser grids measurably hit codimension-one strata); that
    is an empirical rate, not a bound.  The bound is Schwartz-Zippel's: a locus
    cut out by a nonzero polynomial of total degree D in the numerators of the
    t's is hit with probability at most D / (2 height + 1).
    """
    if complexity < 1:
        raise PreconditionError("complexity must be >= 1")
    rng = random.Random(seed)
    recipe: list[tuple[int, Fraction]] = []
    for step in range(complexity):
        pool = cfg.u_plus_indices if step % 2 == 0 else cfg.u_minus_indices
        t = Fraction(rng.randint(-height, height), rng.randint(1, height))
        recipe.append((pool[(step // 2) % len(pool)], t))
    return SampledElement(cfg, tuple(recipe), seed)


@lru_cache(maxsize=None)
def _generator_terms(cfg: RepConfig, idx: int) -> ExpTerms:
    return word_exp_terms(cfg.n, *cfg.words[idx])


def _factors(cfg: RepConfig, recipe) -> list[tuple[ExpTerms, Fraction]]:
    return [(_generator_terms(cfg, idx), Fraction(t)) for idx, t in recipe]


def replay_recipe(cfg: RepConfig, recipe) -> Mat:
    return exp_product(cfg.n, _factors(cfg, recipe))


def _residues(cfg: RepConfig, elements: Sequence[SampledElement]) -> np.ndarray:
    """(len(elements), n, n) int64 residues mod MODULUS of the elements.

    Those not yet known are computed in one batch per generator schedule
    (sample_element gives all elements of one complexity the same schedule) and
    kept as each element's cached `residues`, so checks that share elements
    reduce each one once.
    """
    batches: dict[tuple[int, ...], list[SampledElement]] = {}
    for el in elements:
        if "residues" not in vars(el):
            batches.setdefault(tuple(idx for idx, _ in el.recipe), []).append(el)
    for schedule, members in batches.items():
        params = [[t for _, t in el.recipe] for el in members]
        batch = exp_product_residues(cfg.n, [_generator_terms(cfg, idx) for idx in schedule], params)
        for el, r in zip(members, batch):
            vars(el)["residues"] = r
    return np.array([el.residues for el in elements], dtype=np.int64).reshape(-1, cfg.n, cfg.n)


def _mod_p(cols: Sequence[Sequence[int]]) -> np.ndarray:
    """The integer columns cols as an (n, len(cols)) int64 array of residues."""
    return np.array([[x % MODULUS for x in col] for col in cols], dtype=np.int64).T


def _primitive(cols: Iterable[Sequence[int]]) -> list[list[int]]:
    """The nonzero integer columns, each over its gcd; their span is unchanged."""
    return [[x // g for x in col] for col in cols if (g := math.gcd(*col))]


def translate(h: Mat, s: Subspace) -> Subspace:
    """h.s, spanned by h's rows times the lcm of its denominators applied to each
    column of s, each product column over its gcd to keep the span's sweep small."""
    _, ents = _integer(h.entries)
    rows = [ents[i * h.cols : (i + 1) * h.cols] for i in range(h.rows)]
    return Subspace.from_columns(h.rows, _primitive(apply_rows(rows, s.columns)))


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise PreconditionError("need at least 1 trial")


def _require_bound_inputs(cfg: RepConfig, w: Subspace, w_prime: Subspace) -> None:
    for s in (w, w_prime):
        if s.ambient_dim != cfg.n:
            raise PreconditionError("subspace ambient dimension does not match config")
        # the full space is allowed: the bound is then trivial but still checked
        if s.dim == 0:
            raise PreconditionError("subspaces must be nontrivial")
    verdict = check_irreducible(cfg)
    if not verdict.is_absolutely_irreducible:
        raise PreconditionError(f"configuration is not certified irreducible ({verdict.kind})")


def sample_elements(cfg: RepConfig, seed: int, count: int, height: int = PARAM_HEIGHT) -> list[SampledElement]:
    complexity = default_complexity(cfg)
    return [sample_element(cfg, seed * 9_999_991 + t, complexity, height) for t in range(count)]


def check_intersection_bound(
    cfg: RepConfig,
    w: Subspace,
    w_prime: Subspace,
    trials: int,
    seed: int,
    elements: list[SampledElement] | None = None,
) -> TrialReport:
    """Per trial: dim((h.W) cap W') <= (dim W / n) dim W', compared exactly.

    The dimension is dim W + dim W' - rank [h.W | W'], the rank over Q: certified
    on the batch's residues mod p, else by `independent_columns` on the exact
    columns.  A pre-sampled element list may be shared across (W, W') pairs;
    each pair still gets one exact check per trial.
    """
    _require_trials(trials)
    _require_bound_inputs(cfg, w, w_prime)
    if elements is None:
        elements = sample_elements(cfg, seed, trials)
    if len(elements) < trials:
        raise PreconditionError("not enough pre-sampled elements")
    elements = elements[:trials]
    k, n = w.dim, cfg.n
    wc, wpc = list(w.columns), list(w_prime.columns)
    hw = matmul_mod(_residues(cfg, elements), _mod_p(wc))
    wp = np.broadcast_to(_mod_p(wpc), (len(elements), n, len(wpc)))
    report = TrialReport()
    for h, sel in zip(elements, certified_columns(np.concatenate([hw, wp], axis=2))):
        if sel is None:
            sel = independent_columns(h.translate_columns(wc) + wpc)
        d = k + w_prime.dim - len(sel)
        report.record(d, d * n <= k * w_prime.dim, witness=(h.seed, h.recipe))
    return report


def check_projection_bound(cfg: RepConfig, w: Subspace, w_prime: Subspace, trials: int, seed: int) -> TrialReport:
    """Per trial: rank(pi_{h.W}|_{W'}) >= (dim W / n) dim W', with the rank of
    the k x k' integer matrix (h.W)^T W' taken over Q: certified on residues mod
    p, else by `independent_columns` on its exact columns."""
    _require_trials(trials)
    _require_bound_inputs(cfg, w, w_prime)
    complexity = default_complexity(cfg)
    k, n = w.dim, cfg.n
    wc, wpc = list(w.columns), list(w_prime.columns)
    elements = [sample_element(cfg, seed * 7_777_777 + t, complexity) for t in range(trials)]
    products = matmul_mod(_mod_p(wpc).T, matmul_mod(_residues(cfg, elements), _mod_p(wc)))
    report = TrialReport()
    for h, sel in zip(elements, certified_columns(products)):
        if sel is None:
            sel = independent_columns(apply_rows(h.translate_columns(wc), wpc))
        r = len(sel)
        report.record(r, r * n >= k * w_prime.dim, witness=(h.seed, h.recipe))
    return report


def _spanning_run(n: int, wc: list[list[int]], elements: Iterable[SampledElement]) -> tuple[int, tuple[int, ...]]:
    """(q, k_list) of one spanning run over Z: the columns of each h.W, from
    `SampledElement.translate_columns`, join one RowSpan of the sum, and k_{q'}
    is dim W minus the rows that h_{q'}.W added.  No column enlarges a full
    span, so the run reduces none once the span has dimension n."""
    span, added = RowSpan(n), []
    for h in islice(elements, n + 1):
        added.append(0)
        for col in h.translate_columns(wc):
            added[-1] += span.add(col)
            if span.dim == n:
                return len(added), tuple(len(wc) - a for a in added[1:])
    raise IrreducibilityViolation("translates never span V; configuration looks reducible")


def find_spanning_q(cfg: RepConfig, w: Subspace, trials: int, seed: int) -> tuple[int, tuple[int, ...]]:
    """Minimal q with generic h_1.W + ... + h_q.W = V, and the intersection
    dimensions k_{q'} = dim((sum_{i<q'} h_i.W) cap h_{q'}.W).

    The columns of each h_i.W join one RowSpan of the sum, and k_{q'} is dim W
    minus the rows that h_{q'}.W adds to it.  Since q >= q0 = ceil(n / dim W),
    the first q0 elements of every trial are reduced mod p in one batch.  A trial
    whose q0 translates certify rank n mod p, with their first (q0 - 1) dim W
    columns independent, reads (q0, (0, ..., 0, q0 dim W - n)) exactly as over
    Q; every other trial replays over Z.  Asserts every k_{q'} < dim W on the
    modal outcome.  sum k_{q'} = q k - n needs no check: the first translate
    adds all dim W of its rows, and the rows added sum to n.
    """
    _require_trials(trials)
    if w.dim == cfg.n:
        raise PreconditionError("w must be a proper subspace")
    _require_bound_inputs(cfg, w, w)
    complexity = default_complexity(cfg)
    n, k = cfg.n, w.dim
    wc = list(w.columns)
    first = -(-n // k)
    certified = (first, (0,) * (first - 2) + (first * k - n,))

    def draw(t: int, step: int) -> SampledElement:
        return sample_element(cfg, seed * 31_337 + 7919 * t + (step if step > 1 else 0), complexity)

    heads = [[draw(t, step) for step in range(1, first + 1)] for t in range(trials)]
    head = matmul_mod(_residues(cfg, [h for hs in heads for h in hs]), _mod_p(wc))
    head = head.reshape(trials, first, n, k).transpose(0, 2, 1, 3).reshape(trials, n, first * k)
    outcomes: Counter = Counter()
    for t, (drawn, sel) in enumerate(zip(heads, certified_columns(head))):
        if sel is not None and sel[: (first - 1) * k] == list(range((first - 1) * k)):
            outcomes[certified] += 1
            continue
        outcomes[_spanning_run(n, wc, chain(drawn, (draw(t, step) for step in count(first + 1))))] += 1
    (q, k_list), _ = outcomes.most_common(1)[0]
    if any(kq >= k for kq in k_list):
        raise IrreducibilityViolation("an intersection dimension reached dim W")
    return q, tuple(k_list)


def submodularity_check(w_prime: Subspace, w1: Subspace, w2: Subspace) -> bool:
    """dim W' cap W1 cap W2 + dim W' cap (W1+W2) >= dim W' cap W1 + dim W' cap W2.

    W1 cap W2 and W1 + W2 are built canonical; each of the four dimensions is
    the length of a meet kernel (`_meet_kernel`), with no canonical form built."""
    if not (w_prime.ambient_dim == w1.ambient_dim == w2.ambient_dim):
        raise PreconditionError("ambient dimension mismatch")

    def meet_dim(w: Subspace) -> int:
        return len(_meet_kernel(w_prime, w)[1])

    lhs = meet_dim(subspace_intersect(w1, w2)) + meet_dim(subspace_sum(w1, w2))
    return lhs >= meet_dim(w1) + meet_dim(w2)


def random_subspace(n: int, dim: int, rng: random.Random) -> Subspace:
    """Random rational subspace of the given dimension (exact)."""
    if not 0 <= dim <= n:
        raise PreconditionError(f"no subspace of dimension {dim} in Q^{n}")
    while True:
        # each entry is a draw a / b, times lcm(1, ..., 9) = 2520 to clear b
        cols = [[rng.randint(-9, 9) * (2520 // rng.randint(1, 9)) for _ in range(n)] for _ in range(dim)]
        s = Subspace.from_columns(n, cols)
        if s.dim == dim:
            return s

