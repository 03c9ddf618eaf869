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
from .lie_core import _integers, exact_rank, mat_exp

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


def kirillov_form_rank(sc, F):
    """Kirillov form B[i,j] = <F, [Xi, Xj]> at F, and its exact rank, the
    dimension of the orbit through F: that of the form built in integers from
    c and F, both times one power of two, which no rounding of B can change."""
    F = np.asarray(F, dtype=float)
    if F.shape != (sc.dim,) or not np.isfinite(F).all():
        raise InvalidParams(f"need a finite point of {sc.dim} coordinates")
    B = np.einsum("ijk,k->ij", sc.c, F)
    *c, f = _integers(np.vstack([sc.c.reshape(-1, sc.dim), F]))
    return B, exact_rank((np.array(c, object) @ np.array(f, object)).reshape(sc.dim, -1).tolist())


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


def _scale(f, v):
    # f * v, where a coordinate v that is 0 stays 0 however far the flow
    # goes, even where the factor f has overflowed
    return np.where(v == 0.0, v, f * v)


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
    e^{i phi} = M[0, 0] + i M[1, 0].  The blocks of one call share their
    kind, rotation or triangular, so it is read off the first; a coupling
    term applies, through a mask, only on the rows whose own block has it,
    since a zero coupling times an unbounded time is NaN and a zero term
    would turn -0.0 into 0.0.
    """
    al, g, d, s = base[..., 0], base[..., 2], base[..., 3], base[..., 4]
    if m.reshape(-1, 3, 3)[0, 1, 0]:
        rot = _rot(m)
        w = g + 1j * d
        w2 = _scale(np.exp(a / rot), w)
        x = al - (_scale(np.exp(a * rot) - 1.0, np.conj(w)) / rot).real
        z, t = w2.real, w2.imag
    else:
        x = al + _scale(_phi(m[..., 0, 0], a), g)
        z = _scale(np.exp(m[..., 0, 0] * a), g)
        t = d
        m01, m12 = m[..., 0, 1], m[..., 1, 2]
        if m12.any():
            s = np.where(m12 != 0.0, s + m12 * a * (d + 0.5 * m01 * a * g), s)
        if m01.any():
            t = np.where(m01 != 0.0, d + m01 * a * g, d)
        t = _scale(np.exp(m[..., 1, 1] * a), t)
    out = np.empty(np.broadcast(x, b).shape + (5,))
    out[..., 0], out[..., 1], out[..., 2], out[..., 3] = x, b, z, t
    out[..., 4] = _scale(np.exp(m[..., 2, 2] * a), s)
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


def orbit_chart(spec, F):
    """Chart of the orbit through F: two-dimensional exactly when (gamma,
    delta, sigma) != 0, with no threshold, as md_property_grid certifies for
    every valid spec; otherwise the constant chart of the point orbit {F}."""
    F = np.asarray(F, dtype=float)
    if F.shape != (5,) or not np.isfinite(F).all():
        raise InvalidParams("need a finite point of 5 coordinates")
    return OrbitChart(spec, tuple(float(x) for x in F), 2 if F[2:].any() else 0)


def _leaf_times(m, pq):
    """Candidate flow times a with exp(a M^T) f_p = f_q for the stacked
    points pq = (p, q) of shape (2, N, 5) under the ad_X2 block m, one (3, 3)
    block or one per row (N, 3, 3) of one kind, one column per candidate:
    NaN in the rows where it is unusable, and columns unusable in every row
    are left out.

    Each (gamma, delta, sigma) coordinate with a nonzero rate gives
    log(v_q / v_p) / rate where it is nonzero with one sign at both points.
    That is the time where nothing nonzero feeds the coordinate; elsewhere
    the chart through p misses q at it, so a candidate can fail to decide a
    pair but never decides it wrongly.  Family 8's (gamma, delta) pair gives
    two, from its modulus and from its angle; where gamma has rate 0 and
    nothing rotates, alpha moves by -a gamma and gives one more.
    """
    vp, vq = pq[..., 2:]
    usable = np.sign(vp) * np.sign(vq) > 0.0
    rates = np.diagonal(m, axis1=-2, axis2=-1)
    if m.reshape(-1, 3, 3)[0, 1, 0]:
        # family 8: w = gamma + i delta scales by e^{a cos(phi)} and turns by
        # -a sin(phi), and only sigma has a rate of its own; the angle gives
        # a up to whole turns, and the time from the modulus picks the turn
        c, sn = m[..., 0, 0], m[..., 1, 0]
        wp, wq = vp[:, 0] + 1j * vp[:, 1], vq[:, 0] + 1j * vq[:, 1]
        ok = (wp != 0.0) & (wq != 0.0)
        a, turn = np.log(np.abs(wq) / np.abs(wp)) / c, -np.angle(wq / wp)
        turn += 2.0 * np.pi * np.round((a * sn - turn) / (2.0 * np.pi))
        cols = [(ok, a), (ok, turn / sn)]
        rates = rates * [0.0, 0.0, 1.0]
    else:
        # gamma frozen where its rate is 0: alpha moves by -a gamma
        cols = [(usable[:, 0] & (rates[..., 0] == 0.0), (pq[0, :, 0] - pq[1, :, 0]) / vp[:, 0])]
    cols += zip((usable & (rates != 0.0)).T, (np.log(vq / vp) / rates).T)
    return [np.where(use, t, np.nan) for use, t in cols if use.any()]


def same_leaf(spec, p, q, tol=1e-8):
    """True when p and q lie on the same coadjoint orbit; for (N, 5) stacks
    of points, a boolean array with one entry per row.  spec is a FamilySpec,
    or a list of K FamilySpecs of one block kind (family 8's rotation, or
    triangular) that decide the stacks' rows in K equal runs, in order: one
    call for the rows of several members.

    A point is a point orbit exactly when its (gamma, delta, sigma) is 0, and
    then its leaf is itself.  Otherwise each candidate flow time of
    _leaf_times takes p along its chart, and the pair is on one leaf when
    some candidate lands on q.  Every comparison is entrywise,
    |u - v| <= tol * max(1, |u|, |v|) with u - v finite: tol is the only
    number read.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.shape[-1:] != (5,) or p.ndim > 2:
        raise InvalidParams("points must have 5 coordinates")
    m = _row_blocks(spec, len(p.reshape(-1, 5)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = _same_leaf(m, p.reshape(-1, 5), q.reshape(-1, 5), tol)
    return bool(out[0]) if p.ndim == 1 else out


def _row_blocks(spec, n):
    # the ad_X2 block of one spec, or that of each of n rows for a list of specs
    if not isinstance(spec, (list, tuple)):
        return ad2_block(spec)
    m = np.array([ad2_block(s) for s in spec]).reshape(-1, 3, 3)
    if len({bool(r) for r in m[:, 1, 0]}) != 1 or n % len(m):
        raise InvalidParams("a list of specs must hold one block kind and share the rows equally")
    return np.repeat(m, n // len(m), axis=0)


def _rel_ok(u, v, tol):
    # |u - v| <= tol * max(1, |u|, |v|) entry by entry, for real or complex u,
    # v; a difference that is not finite is never close, or inf would be
    # close to every finite value
    d = np.abs(u - v)
    return (d <= tol * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))) & np.isfinite(d)


def _close(u, v, tol):
    # each row of u within tol of that of v
    return _rel_ok(u, v, tol).all(axis=1)


def _same_leaf(m, p, q, tol):
    pq = np.concatenate((p, q)).reshape(2, -1, 5)
    point = ~pq[..., 2:].any(axis=2)
    decided = point[0] | point[1]
    out = point.all(axis=0) & _close(q, p, tol)
    for a in _leaf_times(m, pq):
        if decided.all():
            break
        hit = ~decided & _close(q, _chart(m, p, q[:, 1], a), tol)
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


def _json_row(row):
    # a failure field's row, each non-finite float as the marker "inf",
    # "-inf" or "nan": a payload holds finite numbers only
    return [x if math.isfinite(x) else str(x) for x in row.tolist()]


def _collect(rep, checks):
    """Append the failures of (kind, failed, fields) checks, whose mask and
    fields have one row per sample: by sample, then in check order."""
    for i in np.flatnonzero(functools.reduce(np.logical_or, [bad for _, bad, _ in checks])):
        rep.failures.extend({"kind": kind, **{k: _json_row(v[i]) for k, v in fields.items()}}
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
    every member, _STACK_SAMPLES samples of members at a time.  The members
    of one block kind (family 8's rotation, or triangular) then make one
    same_leaf call, each member's rows read with its own block: two calls
    for a grid of every family.  One CheckReport per member, in order."""
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
    kinds = {}
    for k, spec in enumerate(grid):
        kinds.setdefault(bool(ad2_block(spec)[1, 0]), []).append(k)
    reports = [CheckReport("flow", spec.label(), "closed-form chart", n, int(seed), float(tol))
               for spec in grid]
    for members in kinds.values():
        ok = same_leaf([grid[k] for k in members], np.tile(start, (len(members), 1)),
                       ends[members].reshape(-1, 5), tol)
        for k, row in zip(members, ok.reshape(len(members), n)):
            _collect(reports[k], [("flow", ~row, {"p": start, "q": ends[k]})])
    return reports


# the pairs i < j, and the components of [Xi, Xj] that must be 0: all off
# X2's row, the X1 and X2 ones on it
_PAIRS = np.array(list(itertools.combinations(range(5), 2)))
_VANISH = (_PAIRS != 1).all(axis=1)[:, None] | (np.arange(5) < 2)
# the 3x3 minors tried, in order, as 0-based rows of F -> <F, [X2, .]>: the
# ad_X2 block's own rows X3, X4, X5 first, then those with X1's
_MINOR_ROWS = ((2, 3, 4), (0, 3, 4), (0, 2, 4), (0, 2, 3))


def md_property_grid(grid):
    """Certify the structure and the dichotomy of each member of grid, a list
    of FamilySpecs: every bracket of a pair without X2 is exactly 0, so the
    Kirillov form is B(F) = e2 ^ v(F), v_j(F) = <F, [X2, Xj]>; no [X2, Xj]
    has an X1 or X2 component, and the (gamma, delta, sigma) columns of
    F -> v(F) have a nonzero 3x3 minor, one of exact_rank 3.  So B(F) has
    rank 2 where (gamma, delta, sigma) != 0, else 0.  It certifies the MD(5,3C)
    structure too, with no float check: each Jacobi term [Xa, [Xb, Xc]] is
    0, as [Xb, Xc] is off X2's row or lies in span{X3, X4, X5} with Xa not
    X2; the brackets on X2's row span the derived ideal, so it is exactly
    span{X3, X4, X5}, commutative and killed by ad_X1.  One payload record
    per member: the rows of its first nonzero minor, and failures naming
    what broke."""
    c = _structure_grid(grid)
    reports = [{"check": "dichotomy", "source": spec.label(), "failures": []} for spec in grid]
    i, j = _PAIRS.T
    for m, e in np.argwhere(((c[:, i, j] != 0.0) & _VANISH).any(axis=2)).tolist():
        reports[m]["failures"].append({"kind": "kernel" if 1 in _PAIRS[e] else "bracket",
                                       "pair": (_PAIRS[e] + 1).tolist(),
                                       "bracket": _json_row(c[m, i[e], j[e]])})
    for rep, cols in zip(reports, _integers(c[:, 1, :, 2:])):
        rows = next((r for r in _MINOR_ROWS if exact_rank([cols[k] for k in r]) == 3), None)
        rep["minor"] = rows and [k + 1 for k in rows]
        if rows is None:
            rep["failures"].append({"kind": "kernel", "minor": 0.0})
        rep["ok"] = not rep["failures"]
    return reports
