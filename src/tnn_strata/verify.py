"""Named verification suites.

Each suite replays one family of identities from the library's contract:
exact-arithmetic checks run with Fractions, flow checks with the float
integrator.  A suite returns a VerificationReport; an empty failure list
is the pass condition for both the CLI and the acceptance tests.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .cells import TNN_GUARD, cell_of, is_tnn, lusztig_point
from .errors import InvalidArgument, RankTooLarge, TnnStrataError
from .fiber import conj_d, factor_u, fiber_A, pi_u, psi, recover_shift, rho, sign_lemma_check, str_of
from .flow import (
    LEVEL_TOL,
    cell_of_float,
    default_base,
    fiber_points,
    flow,
    link_census,
    link_point,
    random_cell_point,
    retraction,
)
from .perms import (
    Permutation,
    all_permutations,
    all_reduced_words,
    bruhat_leq,
    bruhat_leq_subword,
    bruhat_less,
    mobius,
    reduced_word,
    word_product,
)
from .ratmat import (
    RatMatrix,
    gauss_decompose,
    gauss_minus,
    gauss_plus,
    in_N_of_w,
    in_Nminus_of_w,
    is_in_G0,
    is_in_N_minus,
    conj_by_perm,
    perm_matrix,
)

SUITES: dict = {}

# verma compares the rank tables of every pair of S_n at once: n = 6 takes
# about 1 s and 50 MB, n = 7 would take about 1.8 GB.
VERMA_GUARD = 6
# The most cases one suite may draw, psi-positivity's default and the
# largest.  At n = 4 and this size the slowest suite, param-cell, takes
# about 30 s.  link-census and retraction also keep flow.LINK_POINT_BUDGET,
# which at n = 4 holds link-census to 434 points per stratum, about 90 s.
SAMPLES_GUARD = 10_000


@dataclass(frozen=True)
class RunConfig:
    n: int = 4
    seed: int = 0
    samples: int = 0  # 0 means each suite's spec-mandated default


@dataclass(frozen=True)
class Failure:
    case: str
    detail: str
    repro: str


@dataclass
class VerificationReport:
    suite: str
    cases: int = 0
    failures: list[Failure] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        """A suite passes when it checked some case and none failed."""
        return self.cases > 0 and not self.failures

    def to_json_obj(self, timings: bool = False) -> dict:
        obj = {
            "suite": self.suite,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [
                {"case": f.case, "detail": f.detail, "repro": f.repro}
                for f in sorted(self.failures, key=lambda f: f.case)
            ],
        }
        if timings:
            obj["wall_time"] = self.wall_time
        return obj


def _suite(name: str, samples: int = 0):
    """Register fn(run, rng, samples) as the suite ``name``: suite(config)
    checks into one _Run, draws from random.Random(config.seed) and passes
    config.samples, or the default size ``samples`` when that is 0."""

    def wrap(fn):
        def suite(config: RunConfig) -> VerificationReport:
            run = _Run(name, config)
            fn(run, random.Random(config.seed), config.samples or samples)
            return run.done()

        SUITES[name] = suite
        return fn

    return wrap


class _Run:
    """Case counter + failure collector for one suite."""

    def __init__(self, name: str, config: RunConfig):
        self.report = VerificationReport(name)
        self.config = config
        self._t0 = time.perf_counter()

    def check(self, ok: bool, case: str, detail: str = ""):
        self.report.cases += 1
        if not ok:
            repro = (
                f"tnn-strata verify {self.report.suite} --n {self.config.n} "
                f"--seed {self.config.seed}"
            )
            if self.config.samples:
                repro += f" --samples {self.config.samples}"
            self.report.failures.append(Failure(case, detail, repro))

    def done(self) -> VerificationReport:
        self.report.wall_time = time.perf_counter() - self._t0
        return self.report


def _rand_rat(rng, lo=-9, hi=9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _rand_pos_rat(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def _rand_matrix(rng, n) -> RatMatrix:
    return RatMatrix.from_rows(
        [[_rand_rat(rng) for _ in range(n)] for _ in range(n)]
    )


def _rand_g0(rng, n) -> RatMatrix:
    while True:
        m = _rand_matrix(rng, n)
        if is_in_G0(m):
            return m


def _rand_lower_unipotent(rng, n) -> RatMatrix:
    return RatMatrix.from_rows(
        [
            [_rand_rat(rng) if j < i else int(i == j) for j in range(n)]
            for i in range(n)
        ]
    )


def _leq_matrix(perms: tuple[Permutation, ...]) -> np.ndarray:
    ranks = np.array([p.rank_table for p in perms], dtype=np.int16)
    ge = (ranks[:, None, :, :] >= ranks[None, :, :, :]).all(axis=(2, 3))
    return ge  # ge[a, b] True iff perms[a] <= perms[b] in Bruhat order


# ----------------------------------------------------------------------


@_suite("gauss", samples=500)
def suite_gauss(run, rng, samples):
    for i in range(samples):
        n = 2 + i % 5  # ranks 2..6
        x = _rand_g0(rng, n)
        f = gauss_decompose(x)
        run.check(
            f.lower @ f.diag @ f.upper == x, f"roundtrip[{i}]", f"n={n}"
        )

    for i in range(100):
        n = 4
        w = rng.choice(all_permutations(n))
        # conjugating N_- by a permutation stays inside G_0 with unit diagonal
        nm = _rand_lower_unipotent(rng, n)
        z = conj_by_perm(w, nm)
        ok = is_in_G0(z) and gauss_decompose(z).diag == RatMatrix.identity(n)
        run.check(ok, f"perm-conj-lower[{i}]", f"w={w.serialize()}")
        # Gaussian factors of w^-1 B_- w land in w^-1 N_- w
        b_minus = _rand_lower_unipotent(rng, n) @ RatMatrix.from_rows(
            [
                [_rand_pos_rat(rng) if i2 == j2 else 0 for j2 in range(n)]
                for i2 in range(n)
            ]
        )
        z2 = conj_by_perm(w, b_minus)
        if is_in_G0(z2):
            f2 = gauss_decompose(z2)
            winv = w.inverse()
            ok = all(is_in_N_minus(conj_by_perm(winv, f)) for f in (f2.lower, f2.upper))
            run.check(ok, f"factors-in-conj-lower[{i}]", f"w={w.serialize()}")

    for i in range(100):
        n = rng.randint(2, 5)
        x = _rand_g0(rng, n)
        y = _rand_matrix(rng, n)
        try:
            lhs = gauss_plus(gauss_plus(x) @ y)
            rhs = gauss_plus(x @ y)
        except TnnStrataError:
            continue  # one side undefined; identity only claimed otherwise
        run.check(lhs == rhs, f"plus-absorb[{i}]", f"n={n}")


@_suite("bruhat")
def suite_bruhat(run, rng, samples):
    perms = all_permutations(4)
    for u in perms:
        run.check(u.length == u.inverse().length, f"len-inv[{u.serialize()}]")
    for u in perms:
        for v in perms:
            lhs = bruhat_leq(u, v)
            run.check(
                lhs == bruhat_leq_subword(u, v),
                f"subword[{u.serialize()};{v.serialize()}]",
            )
            run.check(
                lhs == bruhat_leq(u.inverse(), v.inverse()),
                f"inverse[{u.serialize()};{v.serialize()}]",
            )
    # reduced words: canonical word valid, exhaustive set correct on w_o(S3)
    for w in perms:
        word = reduced_word(w)
        run.check(
            word_product(word.letters, 4) == w and len(word.letters) == w.length,
            f"word[{w.serialize()}]",
        )
    w0 = Permutation.longest(3)
    run.check(
        all_reduced_words(w0) == {(1, 2, 1), (2, 1, 2)}, "all-words-s3"
    )
    # permutation representatives multiply like the group
    for i in range(50):
        u, v = rng.choice(perms), rng.choice(perms)
        run.check(
            perm_matrix(u) @ perm_matrix(v) == perm_matrix(u * v),
            f"perm-matrix[{i}]",
        )


@_suite("verma")
def suite_verma(run, rng, samples):
    n = run.config.n
    if n > VERMA_GUARD:
        raise RankTooLarge(f"verma suite guarded at n <= {VERMA_GUARD}")
    perms = all_permutations(n)
    leq = _leq_matrix(perms)
    signs = np.array([(-1) ** p.length for p in perms], dtype=np.int64)
    # alternating sum over [u,v] = row of (leq * sign) @ leq
    sums = (leq * signs[None, :]).astype(np.int64) @ leq.astype(np.int64)
    for a, u in enumerate(perms):
        for b, v in enumerate(perms):
            if leq[a, b] and a != b:
                run.check(
                    sums[a, b] == 0,
                    f"verma[{u.serialize()};{v.serialize()}]",
                    f"sum={sums[a, b]}",
                )
    # Mobius alternates by length on S4
    perms4 = all_permutations(4)
    for u in perms4:
        for v in perms4:
            if bruhat_leq(u, v):
                mu = mobius(u, v)
                run.check(
                    mu == (-1) ** (v.length - u.length),
                    f"mobius[{u.serialize()};{v.serialize()}]",
                    f"mu={mu}",
                )


@_suite("param-cell", samples=3)
def suite_param_cell(run, rng, reps):
    n = run.config.n
    if n > TNN_GUARD:
        raise RankTooLarge(f"param-cell suite guarded at n <= {TNN_GUARD}")
    for w in all_permutations(n):
        word = reduced_word(w)
        for i in range(reps):
            params = [_rand_pos_rat(rng) for _ in word.letters]
            pt = lusztig_point(word, params)
            run.check(
                cell_of(pt.matrix) == w,
                f"cell[{w.serialize()}#{i}]",
                f"params={params}",
            )
            run.check(
                is_tnn(pt.matrix), f"tnn[{w.serialize()}#{i}]", f"params={params}"
            )


@functools.cache
def _pairs_below(n: int) -> dict[Permutation, list[Permutation]]:
    """Each w != e of S_n with every u <= w, both in all_permutations order."""
    perms = all_permutations(n)
    return {w: [u for u in perms if bruhat_leq(u, w)] for w in perms if w.length >= 1}


def _rand_pair_below(rng, n: int):
    """Random (x in a cell w, u <= w) from S_n."""
    below = _pairs_below(n)
    w = rng.choice(list(below))
    return w, rng.choice(below[w])


@_suite("factorization", samples=500)
def suite_factorization(run, rng, samples):
    for i in range(samples):
        w, u = _rand_pair_below(rng, 4)
        x = random_cell_point(w, rng)
        fr = factor_u(x, u)
        run.check(fr.x_u @ fr.x_upper_u == x, f"product[{i}]")
        run.check(cell_of(fr.x_u) == u, f"base-cell[{i}]")
        run.check(in_N_of_w(fr.x_upper_u, u), f"complement[{i}]")
        run.check(is_tnn(fr.x_u), f"base-tnn[{i}]")
        run.check(fr.A == fr.y @ fr.x_upper_u, f"A-split[{i}]")
        run.check(in_Nminus_of_w(fr.y, u), f"y-shape[{i}]")
        # uniqueness: re-factoring the product returns the same pair
        fr2 = factor_u(fr.x_u @ fr.x_upper_u, u)
        run.check(
            fr2.x_u == fr.x_u and fr2.x_upper_u == fr.x_upper_u,
            f"unique[{i}]",
        )
        run.check(pi_u(fr.x_u, u) == fr.x_u, f"idempotent[{i}]")


@_suite("rho", samples=500)
def suite_rho(run, rng, samples):
    for i in range(samples):
        w, u = _rand_pair_below(rng, 4)
        xt = random_cell_point(w, rng)
        base = random_cell_point(u, rng)
        xp = rho(xt, base, u)
        run.check(pi_u(xp, u) == base, f"fiber[{i}]")
        run.check(cell_of(xp) == cell_of(xt), f"cell[{i}]")
        run.check(is_tnn(xp), f"tnn[{i}]")
        # inverse pair back over the original base
        back = rho(xp, pi_u(xt, u), u)
        run.check(back == xt, f"inverse[{i}]")
        # fixed point when already in the fiber
        run.check(rho(xp, base, u) == xp, f"fixed[{i}]")
    # closed forms for rank 3, u = s_1
    u = Permutation((2, 1, 3))
    for i in range(50):
        a = _rand_pos_rat(rng)
        x12, x23 = _rand_pos_rat(rng), _rand_pos_rat(rng)
        x13 = x12 * x23 * Fraction(rng.randint(0, 9), 10)  # keeps the 2x2 minor >= 0
        xt = RatMatrix.from_rows([[1, x12, x13], [0, 1, x23], [0, 0, 1]])
        base = RatMatrix.from_rows([[1, a, 0], [0, 1, 0], [0, 0, 1]])
        expect = RatMatrix.from_rows(
            [
                [1, a, a * x13 / x12],
                [0, 1, (x12 * x23 - x13) / a + x13 / x12],
                [0, 0, 1],
            ]
        )
        run.check(rho(xt, base, u) == expect, f"closed-form[{i}]")
        fr = factor_u(xt, u)
        n1 = recover_shift(base, fr.x_u, u)
        nm = gauss_minus(fr.x_upper_u.inverse() @ n1)
        run.check(
            nm[2, 1] == 1 / a - 1 / x12, f"shift-entry[{i}]", f"got={nm[2, 1]}"
        )


@_suite("equivariance", samples=200)
def suite_equivariance(run, rng, samples):
    taus = [Fraction(1, 3), Fraction(2), Fraction(7, 5)]
    for i in range(samples):
        w, u = _rand_pair_below(rng, 4)
        x = random_cell_point(w, rng)
        tau = taus[i % len(taus)]
        fr = factor_u(x, u)
        fr_t = factor_u(conj_d(tau, x), u)
        # torus conjugation commutes with the factorization
        run.check(fr_t.x_u == conj_d(tau, fr.x_u), f"base[{i}]", f"tau={tau}")
        run.check(
            fr_t.x_upper_u == conj_d(tau, fr.x_upper_u),
            f"complement[{i}]",
            f"tau={tau}",
        )
        # the shift from the base to its torus image is d y^-1 d^-1 y
        n1 = recover_shift(fr.x_u, conj_d(tau, fr.x_u), u)
        run.check(
            n1 == conj_d(tau, fr.y.inverse()) @ fr.y, f"shift[{i}]", f"tau={tau}"
        )
        # rho pulls the torus image back through [d A^-1 d^-1 A]_+
        moved = rho(conj_d(tau, x), fr.x_u, u)
        expr = conj_d(tau, fr.A.inverse()) @ fr.A
        run.check(
            moved == x @ gauss_plus(expr).inverse(), f"pullback[{i}]", f"tau={tau}"
        )


@_suite("signs", samples=1000)
def suite_signs(run, rng, samples):
    for i in range(samples):
        n = 3 if i % 2 == 0 else 4
        w, u = _rand_pair_below(rng, n)
        x = random_cell_point(w, rng)
        rep = sign_lemma_check(fiber_A(x, u), u)
        run.check(
            rep.ok,
            f"pattern[{i}]",
            f"u={u.serialize()} w={w.serialize()} "
            f"violations={[(v.i, v.j, str(v.value)) for v in rep.violations]} "
            f"str={rep.str_value}",
        )


@_suite("psi-positivity", samples=10_000)
def suite_psi_positivity(run, rng, samples):
    zero = {n: RatMatrix.from_rows([[0] * n for _ in range(n)]) for n in (3, 4)}
    for i in range(samples):
        n = 3 if i % 2 == 0 else 4
        w, u = _rand_pair_below(rng, n)
        # x lies in the fiber over its own projection, so rho would return
        # x itself; x is that base point iff it lies in the u-cell: w = u
        x = random_cell_point(w, rng)
        if w == u:
            run.check(psi(x, u) == zero[n], f"stationary[{i}]")
            continue
        s = str_of(psi(x, u))
        run.check(
            s > 0,
            f"strict[{i}]",
            f"u={u.serialize()} w={w.serialize()} str(psi)={s} "
            f"witness={x.to_json()}",
        )
    # the base point is stationary, exactly
    for n in (3, 4):
        for w in all_permutations(n):
            xw = random_cell_point(w, rng)
            run.check(
                psi(xw, w) == zero[n], f"base-stationary[{n}:{w.serialize()}]"
            )


@_suite("flow", samples=100)
def suite_flow(run, rng, samples):
    for i in range(samples):
        w, u = _rand_pair_below(rng, 3)
        x = random_cell_point(w, rng)
        base_f = np.array(pi_u(x, u).to_floats())
        x_f = np.array(x.to_floats())
        try:
            traj = flow(x_f, u, "backward")
        except TnnStrataError as exc:
            run.check(False, f"backward[{i}]", f"{type(exc).__name__}: {exc}")
            continue
        dist = float(np.abs(traj[-1].point - base_f).max())
        run.check(dist < 1e-6, f"backward[{i}]", f"dist={dist}")
        if np.allclose(x_f, base_f):
            continue
        try:
            fwd = flow(x_f, u, "forward", target_str=str_of(x_f) + 2.0)
        except TnnStrataError as exc:
            run.check(False, f"forward[{i}]", f"{type(exc).__name__}: {exc}")
            continue
        strs = [s.str_value for s in fwd]
        run.check(
            all(b > a for a, b in zip(strs, strs[1:])),
            f"monotone[{i}]",
            f"strs={strs[:5]}...",
        )


@_suite("link-census", samples=1)
def suite_link_census(run, rng, count):
    n = min(run.config.n, 4)
    perms = all_permutations(n)
    pairs = [(u, v) for u in perms for v in perms if bruhat_less(u, v)]
    # combinatorial census: strata biject with (u,v], Euler characteristic 1
    censuses = {}
    for u, v in pairs:
        census = censuses[u, v] = link_census(u, v)
        run.check(
            min(census.dimensions.values()) >= 0,
            f"dims[{u.serialize()};{v.serialize()}]",
        )
        run.check(
            census.euler == 1,
            f"euler[{u.serialize()};{v.serialize()}]",
            f"chi={census.euler}",
        )
    # sampled census: link points sit on the level set and land in the
    # stratum they were drawn in (an undecidable label counts as drawn),
    # with per-stratum counts stable across epsilon.  The stratum of w in
    # the link of the u-cell is the same for every v >= w, so each u flows
    # one stack, ``count`` points per w > u, through the radii in turn,
    # labels and measures the landed stack once per radius, and (u, v)
    # reads the rows with w in (u, v].  A radius that fails leaves the next
    # one to start from the last that landed.
    radii = (0.5, 1.0, 2.0)
    landed = {}
    for u in perms:
        above = [w for w in perms if bruhat_less(u, w)]
        if not above:
            continue
        x, labels = fiber_points(u, above, count, rng, radii[0])
        for eps in radii:
            try:
                x = link_point(x, u, eps)
                off = np.abs(str_of(x) - (float(str_of(default_base(u))) + eps))
                landed[u, eps] = list(zip(off.tolist(), cell_of_float(x, labels), labels))
            except TnnStrataError as exc:
                landed[u, eps] = exc
    for u, v in pairs:
        per_eps = {}
        for eps in radii:
            got = landed[u, eps]
            if isinstance(got, TnnStrataError):
                run.check(
                    False,
                    f"sample[{u.serialize()};{v.serialize()};eps={eps}]",
                    f"{type(got).__name__}: {got}",
                )
                continue
            rows = [row for row in got if bruhat_leq(row[2], v)]
            worst = max(off for off, _, _ in rows)
            run.check(
                worst <= LEVEL_TOL,
                f"level[{u.serialize()};{v.serialize()};eps={eps}]",
                f"worst={worst}",
            )
            census = censuses[u, v].counting((got, w) for _, got, w in rows)
            per_eps[eps] = census.counts
            run.check(
                census.labels_ok,
                f"labels[{u.serialize()};{v.serialize()};eps={eps}]",
            )
        if len(per_eps) == 3:
            vals = list(per_eps.values())
            run.check(
                vals[0] == vals[1] == vals[2],
                f"eps-stable[{u.serialize()};{v.serialize()}]",
            )


@_suite("retraction", samples=20)
def suite_retraction(run, rng, samples):
    u = Permutation.identity(3)
    v = Permutation.longest(3)
    z = default_base(v)
    eps = 1.0
    drawn, _ = fiber_points(u, [v], samples, rng, eps)
    pts = link_point(drawn, u, eps)
    for i, (x, r0) in enumerate(zip(pts, retraction(pts, 0.0, u, v, z, eps))):
        d0 = float(np.abs(r0 - x).max())
        run.check(d0 < 1e-6, f"tau0[{i}]", f"dist={d0}")
    ends = retraction(pts, 1.0, u, v, z, eps)
    spread = float((ends.max(axis=0) - ends.min(axis=0)).max())  # the largest pairwise max|a - b|
    run.check(spread < 1e-6, "tau1-constant", f"spread={spread}")
    # continuity along a tau grid for one point
    x = pts[0]
    prev = None
    for k in range(0, 11):
        tau = k / 10
        r = retraction(x, tau, u, v, z, eps)
        if prev is not None:
            jump = float(np.abs(r - prev).max())
            run.check(jump < 0.5, f"grid[{k}]", f"jump={jump}")
        prev = r


def run_suite(name: str, config: RunConfig) -> list[VerificationReport]:
    if config.n < 2:
        raise InvalidArgument("n must be at least 2")
    if config.samples < 0:
        raise InvalidArgument("samples must be at least 0")
    if config.samples > SAMPLES_GUARD:
        raise RankTooLarge(f"samples {config.samples} exceed the guard of {SAMPLES_GUARD}")
    if name == "all":
        return [fn(config) for key, fn in SUITES.items()]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](config)]
