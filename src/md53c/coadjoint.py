"""Coadjoint orbit geometry: Kirillov form ranks, coadjoint flows, closed-form
orbit charts, and the same-leaf membership test.

Points of the dual are 5-vectors F = (alpha, beta, gamma, delta, sigma) in the
basis dual to X1..X5.  Orbits are parametrized by (b, a): b is the free second
coordinate and a is the time along the X2 coadjoint flow.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import _structure_grid, ad2_block
from .errors import InvalidParams
from .lie_core import derived_subalgebra, jacobi_defect, mat_exp

__all__ = [
    "kirillov_form_rank",
    "coadjoint_flow",
    "OrbitChart",
    "orbit_chart",
    "same_leaf",
    "CheckReport",
    "flow_check_grid",
    "md_property_grid",
]


def _skew5_ranks(B, tol):
    """Ranks of the skew forms stacked on the last axis of B (5, 5, N), without an SVD."""
    return _triu_ranks(B[np.triu_indices(5, 1)], tol)


def _triu_ranks(u, tol):
    """Ranks of the skew 5x5 forms whose 10 upper-triangle entries, row by
    row, lie on the first axis of u (10, ...), from their singular values
    s1, s1, s2, s2, 0: s1^2 + s2^2 = |B|_F^2 / 2, s1^2 s2^2 = sum of squared
    4x4 principal Pfaffians.  u is scaled in place."""
    # max |B_ij|, read without an array of the absolute values
    scale = np.maximum(np.maximum(u.max(axis=0), -u.min(axis=0)), np.finfo(float).tiny)
    u /= scale  # so that no square over- or underflows
    b = dict(zip(itertools.combinations(range(5), 2), u))
    p = 0.5 * np.einsum("i...,i...->...", u, u)
    q = sum((b[i, j] * b[k, l] - b[i, k] * b[j, l] + b[i, l] * b[j, k]) ** 2
            for i, j, k, l in itertools.combinations(range(5), 4))
    s1 = np.sqrt(p + np.sqrt(np.maximum(p * p - q, 0.0)))
    s2 = np.sqrt(q) / np.maximum(s1, np.finfo(float).tiny)  # not p - sqrt(disc), which cancels
    thr = tol * np.maximum(1.0 / scale, s1)  # tol * max(1, s1) before scaling
    return 2 * (s1 > thr) + 2 * (s2 > thr)


def kirillov_form_rank(sc, F, tol=1e-9):
    """Kirillov form B[i,j] = <F, [Xi, Xj]> at F and its rank: how many of its
    singular values s1, s1, s2, s2, 0, in closed form, exceed tol * max(1, s1).
    The rank is the dimension of the coadjoint orbit through F."""
    F = np.asarray(F, dtype=float)
    if F.shape != (sc.dim,) or sc.dim != 5:
        raise InvalidParams("need a 5-dimensional algebra and a point of 5 coordinates")
    B = np.einsum("ijk,k->ij", sc.c, F)
    return B, int(_skew5_ranks(B[..., None], tol)[0])


def coadjoint_flow(sc, F, word):
    """Apply the coadjoint action of exp(t X_i) for each (i, t) step, left to
    right.  Directions are 1-based; each step sends F to exp(-t ad_i)^T F.
    An (N, 5) stack F takes one word per row, of any length, and the
    exponentials of all steps are taken in one mat_exp call."""
    F = np.asarray(F, dtype=float)
    words = [word] if F.ndim == 1 else list(word)
    if F.ndim not in (1, 2) or F.shape[-1] != sc.dim or (F.ndim == 2 and len(words) != len(F)):
        raise InvalidParams(f"need one word per point of {sc.dim} coordinates")
    i = np.array([int(i) for w in words for i, _ in w], dtype=int)
    t = np.array([float(t) for w in words for _, t in w])
    bad = (i < 1) | (i > sc.dim)
    if bad.any():
        raise InvalidParams(f"flow direction {i[bad][0]} outside 1..{sc.dim}")
    return _flow(sc.c, np.atleast_2d(F), i, t, [len(w) for w in words]).reshape(F.shape)


def _flow(c, F, i, t, lengths):
    """The coadjoint flow of each row of F (N, 5) along its word, under the
    structure array c (n, n, n), or under each array of a stack c (M, n, n, n)
    into (M, N, 5); the words are given flat: directions i and times t of all
    steps, word after word, and the number of steps of each word.  The
    exponentials of every step under every structure come from one mat_exp
    call, where the steps whose matrix squares to zero cost no Taylor series."""
    out = np.empty(c.shape[:-3] + F.shape)
    out[...] = F
    if len(i):
        rows = np.repeat(np.arange(len(F)), lengths)
        # each step's place in its word
        order = np.arange(len(i)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        # C-ordered as ad_matrix gives them, so each step matches it bit for bit
        E = mat_exp(c[..., i - 1, :, :].swapaxes(-1, -2).copy(), -t)
        for k in range(order.max() + 1):
            at = order == k
            out[..., rows[at], :] = (E[..., at, :, :].swapaxes(-1, -2)
                                     @ out[..., rows[at], :, None])[..., 0]
    return out


def _phi(lam, a):
    # (1 - e^{lam a}) / lam, continued to -a at lam = 0, elementwise
    zero = lam == 0.0
    return np.where(zero, -a, -np.expm1(lam * a) / np.where(zero, 1.0, lam))


def _rot(m):
    # e^{i phi} of family 8's rotation block, or of each of a stack of them
    return m[..., 0, 0] + 1j * m[..., 1, 0]


def _chart(m, base, b, a):
    """The point reached from each row of ``base`` (shape (..., 5)) by the X2
    coadjoint flow for time ``a``, with the free second coordinate set to
    ``b``; ``b`` and ``a`` broadcast against the rows.  ``m`` is the ad_X2
    block M, read as m[..., i, j]: one (3, 3) block, or blocks (..., 3, 3)
    whose leading axes broadcast against those of the rows.

    (gamma, delta, sigma) moves by exp(a M^T).  For families 1..7 M is upper
    triangular and each coupling joins two equal rates, so a coupling adds a
    polynomial factor in a; for family 8, the blocks with a (1, 0) entry, the
    (gamma, delta) pair rotates and scales as a complex number by
    e^{i phi} = M[0, 0] + i M[1, 0].  The blocks of one call share their zero
    pattern, as the members of one family do, so it is read off the first.
    """
    al, g, d, s = base[..., 0], base[..., 2], base[..., 3], base[..., 4]
    pattern = m.reshape(-1, 3, 3)[0]
    if pattern[1, 0]:
        rot = _rot(m)
        w = g + 1j * d
        w2 = w * np.exp(a / rot)
        x = al - (np.conj(w) * (np.exp(a * rot) - 1.0) / rot).real
        z, t = w2.real, w2.imag
    else:
        x = al + _phi(m[..., 0, 0], a) * g
        z = np.exp(m[..., 0, 0] * a) * g
        t = d
        if pattern[1, 2]:
            s = s + m[..., 1, 2] * a * (d + 0.5 * m[..., 0, 1] * a * g)
        if pattern[0, 1]:
            t = d + m[..., 0, 1] * a * g
        t = np.exp(m[..., 1, 1] * a) * t
    out = np.empty(np.broadcast(x, b).shape + (5,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x, b, z, t
    out[..., 4] = np.exp(m[..., 2, 2] * a) * s
    return out


@dataclass(frozen=True)
class OrbitChart:
    """Closed-form (b, a) parametrization of the orbit through ``base``.

    eval(b, a) is the point reached from base by the X2 coadjoint flow for
    time a, with the free second coordinate set to b.  When the base point
    has (gamma, delta, sigma) = 0 the orbit is the single point {base}: dim
    is 0 and eval is constant.
    """

    spec: object
    base: tuple
    dim: int = 2

    def eval(self, b, a):
        if self.dim == 0:
            return np.array(self.base)
        return _chart(ad2_block(self.spec), np.array(self.base), b, a)


def orbit_chart(spec, F, tol=1e-9):
    """Chart of the orbit through F: two-dimensional when (gamma, delta,
    sigma) != 0, otherwise the constant chart of the point orbit {F}."""
    F = np.asarray(F, dtype=float)
    if F.shape != (5,):
        raise InvalidParams("point must have 5 coordinates")
    point = np.linalg.norm(F[2:]) <= tol * max(1.0, float(np.abs(F).max()))
    return OrbitChart(spec, tuple(float(x) for x in F), 0 if point else 2)


def _leaf_times(spec, pq, eps_pq):
    """Candidate flow times a with exp(a M^T) f_p = f_q for the stacked
    points pq = (p, q) of shape (2, N, 5), one column per coordinate that
    evolves as a plain exponential: NaN in the rows where that coordinate is
    unusable, and columns unusable in every row are left out.

    A coordinate is usable when it is nonzero with equal signs at both
    points, each measured against its own point's scale, and is pure when
    every coordinate that couples into it vanishes at both points.
    """
    m = ad2_block(spec)
    vp, vq = pq[..., 2:]
    big_p, big_q = np.abs(pq[..., 2:]) > eps_pq[..., None]
    usable = big_p & big_q & (vp * vq > 0.0)
    if spec.family == "F8":
        # (gamma, delta) rotates as one complex coordinate, handled below
        rates = np.array([0.0, 0.0, m[2, 2]])
    else:
        rates = m.diagonal()
        zero = ~big_p & ~big_q
        if m[0, 1]:
            # gamma feeds delta
            usable[:, 1] &= zero[:, 0]
        if m[1, 2]:
            # delta feeds sigma, and so does gamma when it feeds delta
            usable[:, 2] &= zero[:, 1] & (zero[:, 0] | (m[0, 1] == 0.0))
    usable &= rates != 0.0
    times = np.where(usable, np.log(vq / vp) / rates, np.nan)[:, usable.any(axis=0)]
    if spec.family != "F8":
        return times.T
    wp, wq = vp[:, 0] + 1j * vp[:, 1], vq[:, 0] + 1j * vq[:, 1]
    c = math.cos(spec.phi)
    if abs(c) > 1e-12:
        a = np.log(np.abs(wq) / np.abs(wp)) / c
    else:
        # phi = pi/2: the flow is periodic in a, the principal angle is the
        # only candidate needed
        a = -np.angle(wq / wp)
    ok = (np.abs(wp) > eps_pq[0]) & (np.abs(wq) > eps_pq[1])
    return [np.where(ok, a, np.nan), *times.T]


def same_leaf(spec, p, q, tol=1e-8):
    """True when p and q lie on the same coadjoint orbit; for (N, 5) stacks
    of points, a boolean array with one entry per row.

    Solves for the flow time from a pure-exponential coordinate, then checks
    all five coordinates against the chart through p with relative
    tolerance tol.  Whether a point is a point orbit, and which coordinates
    are usable, is decided at that point's own scale.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.shape[-1:] != (5,) or p.ndim > 2:
        raise InvalidParams("points must have 5 coordinates")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _same_leaf(spec, p.reshape(-1, 5), q.reshape(-1, 5), tol)
    return bool(out[0]) if p.ndim == 1 else out


def _same_leaf(spec, p, q, tol):
    pq = np.concatenate((p, q)).reshape(2, -1, 5)
    # each point's own scale decides whether it is a point orbit and which of
    # its coordinates count as zero
    eps_pq = tol * np.maximum(1.0, np.abs(pq).max(axis=2))
    eps = eps_pq.max(axis=0)
    point = np.sqrt(np.square(pq[..., 2:]).sum(axis=2)) <= eps_pq
    # point orbits: same leaf means same point
    decided = point[0] | point[1]
    out = point.all(axis=0) & (np.abs(p - q) <= eps[:, None]).all(axis=1)
    if spec.is_halfplane:
        # frozen (gamma, 0, 0) slice: the orbit is the whole (alpha, beta)
        # plane over that gamma
        flat = np.abs(pq[..., 3:]).max(axis=2) <= eps_pq
        frozen = ~decided & flat[0]
        out |= frozen & flat[1] & (np.abs(p[:, 2] - q[:, 2]) <= eps)
        decided |= frozen
    for a in _leaf_times(spec, pq, eps_pq):
        if decided.all():
            break
        r = _chart(ad2_block(spec), p, q[:, 1], a)
        bound = tol * np.maximum(1.0, np.maximum(np.abs(q), np.abs(r)))
        hit = ~decided & (np.abs(q - r) <= bound).all(axis=1)
        out |= hit
        decided |= hit
    return out


_FAILURES_SHOWN = 50


@dataclass
class CheckReport:
    """Result of one sampled check: every failure entry, of which the payload
    lists the first _FAILURES_SHOWN and counts all in failures_total."""

    check: str
    source: str
    target: str
    n: int
    seed: int
    tol: float
    failures: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)

    @property
    def failures_total(self):
        return len(self.failures)

    @property
    def ok(self):
        return not self.failures

    def to_json(self):
        return {**vars(self), "failures": self.failures[:_FAILURES_SHOWN],
                "failures_total": self.failures_total, "ok": self.ok}


def _collect(rep, checks):
    """Append the failures of (kind, failed, fields) checks, whose mask and
    fields have one row per sample: by sample, then in check order."""
    for i in np.flatnonzero(functools.reduce(np.logical_or, [bad for _, bad, _ in checks])):
        rep.failures.extend({"kind": kind, **{k: v[i].tolist() for k, v in fields.items()}}
                            for kind, bad, fields in checks if bad[i])


# samples per kernel call of a grid check, summed over the members of the
# call, unless one member has more: every member at small n, and at large n
# few enough that the samples held at once stay few and the calls'
# temporaries stay small; a _flow call holds about 3 KB a sample, no more
# than one member's flow at n = 1000 did
_STACK_SAMPLES = 1024


def flow_check_grid(grid, n=1000, seed=1729, tol=1e-8):
    """For every member of grid, a list of FamilySpecs (one spec is the grid
    [spec]), flow n random points along random coadjoint flow words of 1..6
    steps and check that each stays on its leaf as the closed-form chart
    predicts.  The points, the word lengths, then the directions and times
    of all steps are drawn as arrays from the seeded stream.

    One pass: every member's stream draws the same points and words, so they
    are drawn once; one _flow call, so one mat_exp call, flows every step of
    every member, _STACK_SAMPLES samples of members at a time, and each member
    then makes one same_leaf call.  One CheckReport per member, in order."""
    n = int(n)
    if n < 1:
        # a check over no samples would pass vacuously
        raise InvalidParams("n must be >= 1")
    rng = np.random.default_rng(seed)
    start = rng.uniform(-2.0, 2.0, (n, 5))
    lengths = rng.integers(1, 7, n)
    steps = int(lengths.sum())
    i, t = rng.integers(1, 6, steps), rng.uniform(-1.0, 1.0, steps)
    c = _structure_grid(grid)
    ends = np.empty((len(c), n, 5))
    # each word's first step, and the samples of one _flow call
    first = np.concatenate(([0], np.cumsum(lengths)))
    size = max(1, _STACK_SAMPLES // max(1, len(c)))
    for lo in range(0, n, size):
        rows, at = slice(lo, lo + size), slice(first[lo], first[min(lo + size, n)])
        ends[:, rows] = _flow(c, start[rows], i[at], t[at], lengths[rows])
    reports = []
    for spec, end in zip(grid, ends):
        reports.append(CheckReport("flow", spec.label(), "closed-form chart", n, int(seed),
                                   float(tol)))
        _collect(reports[-1], [("flow", ~same_leaf(spec, start, end, tol),
                                {"p": start, "q": end})])
    return reports


def _structure_ok(c):
    """Per structure array of the stack c (M, 5, 5, 5): the Jacobi identity
    holds, and the derived subalgebra is span{X3, X4, X5}, commutative and
    killed by ad_X1."""
    rank, vt = derived_subalgebra(c)
    small = [jacobi_defect(c), np.abs(vt[:, :3, :2]).max(axis=(1, 2)),
             np.abs(c[:, 2:, 2:]).max(axis=(1, 2, 3)), np.abs(c[:, 0, 2:]).max(axis=(1, 2))]
    return (rank == 3) & np.all(np.less_equal(small, 1e-12), axis=0)


# sample columns per block of the grid's Kirillov forms: a block's temporaries
# stay small, so the grid check peaks below the per-member one in memory
_RANK_BLOCK = 256


def md_property_grid(grid, n=10000, seed=1729, tol=1e-9):
    """Sample n points of the dual and verify, for every member of grid, a
    list of FamilySpecs (one spec is the grid [spec]), its structure and the
    dichotomy: the Kirillov form has rank 2 where (gamma, delta, sigma) != 0
    and rank 0 exactly on the zero slice.  A twentieth of the samples is
    forced onto thin slices (full zero, gamma = 0, delta = sigma = 0) so both
    branches are hit.  Ranks are kirillov_form_rank's:
    2 [s1 > thr] + 2 [s2 > thr], thr = tol * max(1, s1).

    One pass: the points are drawn once, since every member draws the same
    ones, and the Kirillov forms of all members come from one product of the
    grid's structure tensor with the points, upper triangles only, in fixed
    blocks of sample columns.  One CheckReport per member, in grid order."""
    if int(n) < 1:
        # a check over no samples would pass vacuously
        raise InvalidParams("n must be >= 1")
    c = _structure_grid(grid)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-3.0, 3.0, size=(max(int(n), 4), 5))
    k = max(1, pts.shape[0] // 20)
    pts[:k, 2:] = 0.0
    pts[k:2 * k, 2] = 0.0
    pts[2 * k:3 * k, 3:] = 0.0
    # row (e, m) holds entry e of the upper triangle of member m's form
    upper = c.transpose(1, 2, 0, 3)[np.triu_indices(5, 1)].reshape(-1, 5)
    ranks = np.empty((len(grid), len(pts)), dtype=np.int8)
    for lo in range(0, len(pts), _RANK_BLOCK):
        block = pts[lo:lo + _RANK_BLOCK]
        ranks[:, lo:lo + len(block)] = _triu_ranks(
            (upper @ block.T).reshape(10, len(grid), len(block)), tol)
    expected = np.where(np.linalg.norm(pts[:, 2:], axis=1) > tol, 2, 0)
    reports = []
    for spec, ok, got in zip(grid, _structure_ok(c), ranks):
        reports.append(CheckReport("dichotomy", spec.label(), "rank 0 or 2", len(pts),
                                   int(seed), float(tol), [] if ok else [{"kind": "structure"}]))
        _collect(reports[-1], [("rank", got != expected,
                                {"F": pts, "expected": expected, "got": got})])
    return reports

