"""The foliated manifold V of two-dimensional orbits, leaf invariants, the
topological equivalences h1..h8 onto the two type representatives, the
rho-action realizing the second type, and the batch verifiers.

Points use the (x, y, z, t, s) names for the five dual coordinates; V is the
open set z^2 + t^2 + s^2 > 0.  Type-one foliations (families 1..7) compare
against the family-4 representative, type-two (family 8) against F8(1, pi/2).
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import _REPRESENTATIVE, ad2_block
from .coadjoint import (_STACK_SAMPLES, CheckReport, _chart, _collect, _rel_ok, _rot, orbit_chart,
                        same_leaf)
from .errors import DomainError, InvalidParams, UnsupportedMap

__all__ = [
    "in_V",
    "LeafInvariant",
    "leaf_invariant",
    "printed_u_submersion",
    "EquivalenceMap",
    "equivalence_map",
    "apply_equivalence",
    "rho_apply",
    "verify_classification_grid",
    "fibration_check",
]


def in_V(p):
    """True iff the point lies on a two-dimensional orbit: (z,t,s) != 0; for
    an (N, 5) stack of points, a boolean array with one entry per row: max
    |(z, t, s)| > 0, with no square to over- or underflow; NaN rows lie outside."""
    p = np.asarray(p, dtype=float)
    out = np.maximum(np.maximum(np.abs(p[..., 2]), np.abs(p[..., 3])), np.abs(p[..., 4])) > 0.0
    return bool(out) if p.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class LeafInvariant:
    """Complete invariant of the leaf through a point of V, or of each row of
    an (N, 5) stack, for type "F1" or "F2"; the fields are scalars for one
    point and arrays with one row per point for a stack.

    "F1": c = x + z, u the unit direction of (z, t, s), eps = 0.
    "F2": c = x - t; where s != 0, u is the twisted coordinate
    (z + it) e^{i ln|s|} and eps = sign(s); where s = 0, u is the radius
    |z + it| and eps = 0, so the two regions never compare equal.
    """

    kind: str
    c: object
    u: object
    eps: object

    def approx_eq(self, other, tol=1e-8):
        """c to tol at its own scale, eps exactly, and u to tol: absolutely
        for the "F1" direction, at its own scale for "F2".  A bool for one
        point, a boolean array with one entry per row for stacks."""
        if other.kind != self.kind:
            raise InvalidParams("leaf invariants of different kinds do not compare")
        if self.kind == "F1":
            close = (np.abs(self.u - other.u) <= tol).all(axis=-1)
        else:
            close = _rel_ok(self.u, other.u, tol)
        out = _rel_ok(self.c, other.c, tol) & close & (self.eps == other.eps)
        return bool(out) if np.ndim(out) == 0 else out


def leaf_invariant(kind, p):
    """The LeafInvariant of type kind ("F1" or "F2") of a point, or row by row
    of an (N, 5) stack of points; every row must lie in V."""
    p = np.asarray(p, dtype=float)
    _require_V(p)
    x, _, z, t, s = np.moveaxis(p, -1, 0)
    if kind == "F1":
        # scaled by its largest modulus first, so the norm neither under- nor overflows
        v = p[..., 2:] / np.maximum(np.maximum(np.abs(z), np.abs(t)), np.abs(s))[..., None]
        return LeafInvariant(kind, x + z, v / np.linalg.norm(v, axis=-1, keepdims=True), 0)
    if kind == "F2":
        w = z + 1j * t
        u = np.where(s != 0.0, w * np.exp(1j * _log_abs(s)), np.abs(w))
        # [()] reads the 0-d array of one point as a scalar
        return LeafInvariant(kind, x - t, u[()], np.sign(s))
    raise InvalidParams("invariant kind must be 'F1' or 'F2'")


def printed_u_submersion(p):
    """The untwisted projection (x - t, z, t, sgn s) of the s != 0 region.

    Its fibers hold z + it fixed, so they are strictly finer than leaves
    (which rotate z + it); kept for the documented comparison against the
    twisted invariant.
    """
    p = np.asarray(p, dtype=float)
    x, _, z, t, s = (float(v) for v in p)
    return (x - t, z, t, 0 if s == 0 else (1 if s > 0 else -1))


def rho_apply(g, p):
    """The abelian R^2-action rho((r,a), (x,y,z+it,s)) =
    (x - (sin a) z - (1 - cos a) t, y + r, (z+it)e^{-ia}, e^a s), for one
    group element g and point p, or row by row for (N, 2) and (N, 5) stacks."""
    r, a = np.moveaxis(np.asarray(g, dtype=float), -1, 0)
    x, y, z, t, s = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    c, sn = np.cos(a), np.sin(a)
    return np.stack([x - sn * z - (1.0 - c) * t, y + r, c * z + sn * t, c * t - sn * z,
                     np.exp(a) * s], axis=-1)


# ---------------------------------------------------------------------------
# the equivalence maps


# Each map takes its source's ad_X2 blocks m and the five coordinates as
# arrays of one shape, against which the blocks' leading axes broadcast, and
# reads lambda1, lambda2, lambda and e^{i phi} from the blocks' entries: one
# formula serves a point, a stack, or the rows of several members of a
# family.  The exact-zero tests pick the branch per entry.


def _pw(v, lam):
    # sgn(v) |v|^{1/lam}, with sgn(0) := 0
    return np.where(v == 0.0, 0.0, np.copysign(_abs_pow(v, 1.0 / lam), v))


def _pw_inv(v, lam):
    return np.where(v == 0.0, 0.0, np.copysign(_abs_pow(v, lam), v))


def _abs_pow(v, e):
    # |v|^e through pow, with e as an array of v's shape: numpy takes a scalar
    # exponent 2, 0.5 or -1 as a square, square root or reciprocal, which can
    # round apart from pow, and one block must give a stack's bits
    return np.power(np.abs(v), np.full(np.shape(v), e))


def _log_abs(v):
    # log|v|, with 0 at v = 0, where every use multiplies it by zero or
    # discards it
    return np.log(np.abs(np.where(v == 0.0, 1.0, v)))


def _xlog(v):
    # v log|v|, continued by 0 at v = 0
    return v * _log_abs(v)


# h1..h6 straighten the block M on (z, t, s) step by step, each step read
# off M's pattern, row by row: a call may hold the blocks of several
# families, and each step applies, through a mask, only on the rows whose
# own block takes it (a step that is an identity on paper, a rate of 1 or a
# coupling of 0, still moves bits: -0.0, inf and NaN do not pass through it):
# - a rate step for each diagonal entry other than 1, v -> sgn(v)|v|^{1/rate},
#   which for z also sets x -> m00 x + z - z', so that x + z is kept;
# - a coupling step for each nonzero superdiagonal entry c = M[i, i+1],
#   v_{i+1} -> v_{i+1} - c v_i log|v_i|.
# A coupling only joins two rates equal to 1, so couplings and rate steps
# touch different coordinates and their order moves no bit.  The forward map
# runs the couplings, then the rates; the inverse undoes them in reverse.
# The seams are the rate coordinates and the coupling sources; a coordinate
# that is no seam of a row's block reads inf there.


def _steps(m):
    # (rate coordinates, coupling sources) that some block of m takes
    m = m.reshape(-1, 3, 3)
    return ([k for k in range(3) if (m[:, k, k] != 1.0).any()],
            [k for k in range(2) if m[:, k, k + 1].any()])


def _straighten(m, x, y, *v):
    rates, couplings = _steps(m)
    v = list(v)
    for k in couplings:
        c = m[..., k, k + 1]
        v[k + 1] = np.where(c != 0.0, v[k + 1] - c * _xlog(v[k]), v[k + 1])
    for k in rates:
        lam = m[..., k, k]
        vk = _pw(v[k], lam)
        if k == 0:
            x = np.where(lam != 1.0, lam * x + v[0] - vk, x)
        v[k] = np.where(lam != 1.0, vk, v[k])
    return (x, y, *v)


def _unstraighten(m, x, y, *v):
    rates, couplings = _steps(m)
    v = list(v)
    for k in reversed(rates):
        lam = m[..., k, k]
        vk = _pw_inv(v[k], lam)
        if k == 0:
            x = np.where(lam != 1.0, (x - vk + v[0]) / lam, x)
        v[k] = np.where(lam != 1.0, vk, v[k])
    for k in reversed(couplings):
        c = m[..., k, k + 1]
        v[k + 1] = np.where(c != 0.0, v[k + 1] + c * _xlog(v[k]), v[k + 1])
    return (x, y, *v)


def _seams(m, *v):
    rates, couplings = _steps(m)
    seam = [m[..., k, k] != 1.0 for k in range(3)]
    for k in couplings:
        seam[k] = seam[k] | (m[..., k, k + 1] != 0.0)
    return tuple(np.where(seam[k], v[k], np.inf) for k in sorted({*rates, *couplings}))


def _h7_fwd(m, x, y, z, t, s):
    # written out: the full Jordan block's straightening has 1/2 terms that
    # no coupling step gives; on z = 0 only the (t, s) pair is straightened
    lz = _log_abs(z)
    u = t - z * lz
    s2 = np.where(z == 0.0, s - _xlog(t), s - 0.5 * t * lz - 0.5 * _xlog(u))
    return (x, y, z, u, s2)


def _h7_inv(m, x, y, z, t, s):
    lz = _log_abs(z)
    t0 = t + z * lz
    s0 = np.where(z == 0.0, s + _xlog(t), s + 0.5 * t0 * lz + 0.5 * _xlog(t))
    return (x, y, z, t0, s0)


def _pow_log(w, m):
    # exp(m Log w) on the principal branch, with 0 at w = 0
    return np.where(w == 0.0, 0.0, np.exp((_log_abs(w) + 1j * np.angle(w)) * m))


def _h8_fwd(m, x, y, z, t, s):
    # written out: a complex power of w = z + it, which no real step gives
    w = z + 1j * t
    w2 = _pow_log(w, -1j * _rot(m))
    x2 = x + (w * _rot(m)).real + w2.imag
    return (x2, y, w2.real, w2.imag, _pw(s, m[..., 2, 2]))


def _h8_inv(m, x, y, z, t, s):
    w2 = z + 1j * t
    w = _pow_log(w2, 1j * np.conj(_rot(m)))
    x0 = x - (w * _rot(m)).real - w2.imag
    return (x0, y, w.real, w.imag, _pw_inv(s, m[..., 2, 2]))


def _h8_seams(m, z, t, s):
    # |w| and s, then the distances of arg w and of the image angle from the
    # principal-argument cut at pi, the latter read as 0 when the image angle
    # lies past the cut; log|w| is read as 0 at w = 0, where the first
    # quantity already fails
    w = z + 1j * t
    arg = np.angle(w)
    th2 = ((_log_abs(w) + 1j * arg) * (-1j * _rot(m))).imag
    return (np.abs(w), s, np.pi - np.abs(arg), np.maximum(0.0, np.pi - np.abs(th2)))


# Per family: the forward map, its inverse, and the quantities of the
# coordinates (z, t, s), arrays of one shape, that vanish on the seams of the
# maps' piecewise branches.  h1..h6 are the one straightening rule above.
_MAPS = {
    **dict.fromkeys(("F1", "F2", "F3", "F4", "F5", "F6"), (_straighten, _unstraighten, _seams)),
    # u = t - z log|z| is the straightened t of h7 (log|z| read as 0 at z = 0)
    "F7": (_h7_fwd, _h7_inv, lambda m, z, t, s: (z, t, t - z * _log_abs(z))),
    "F8": (_h8_fwd, _h8_inv, _h8_seams),
}


@dataclass(frozen=True)
class EquivalenceMap:
    """Leaf-to-leaf homeomorphism from a family's foliation onto its type
    representative (F4, or F8(1, pi/2) for family 8)."""

    source: object
    target: object

    @property
    def name(self):
        # h1(-2, 3) for the map of F1(-2, 3)
        return "h" + self.source.label()[1:]


def equivalence_map(spec):
    return EquivalenceMap(spec, _REPRESENTATIVE[spec.family])


def apply_equivalence(emap, p, direction="fwd"):
    """Apply the printed piecewise formula (or its analytic inverse) to a
    point, or row by row to an (N, 5) stack of points."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1:] != (5,) or p.ndim > 2:
        raise InvalidParams("point must have 5 coordinates")
    _require_V(p)
    _require_formula(emap)
    if direction not in ("fwd", "inv"):
        raise InvalidParams("direction must be 'fwd' or 'inv'")
    fwd, inv, _ = _MAPS[emap.source.family]
    return _equivalence(fwd if direction == "fwd" else inv, ad2_block(emap.source),
                        p.reshape(-1, 5)).reshape(p.shape)


def _require_V(p):
    if not np.all(in_V(p)):
        raise DomainError("point lies outside V: (z, t, s) = 0")


def _require_formula(emap):
    if emap.source.is_halfplane:
        raise UnsupportedMap(
            f"{emap.name} has no printed formula at lambda = 0; those leaves are "
            "half-planes and no map is checked for them"
        )


def _equivalence(fn, m, p):
    """The formula fn of _MAPS at each row of p (..., 5), read with the ad_X2
    blocks m: one (3, 3) block for every row, or blocks (..., 3, 3) whose
    leading axes broadcast against those of p."""
    out = np.empty_like(p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, col in enumerate(fn(m, *(p[..., k] for k in range(5)))):
            out[..., i] = col
    return out


# ---------------------------------------------------------------------------
# batch verifiers


_AMAX = 1.5  # chart-parameter sweep, matching the flow-word time range
_CUT_MARGIN = 1e-3


def _signed(rng, low, high, shape):
    # |v| uniform on [low, high), with a fair random sign
    return rng.uniform(low, high, shape) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def _sample_base(rng, spec, n):
    """n base points of two-dimensional orbits, O(1) coordinates, drawn field
    by field as an (n, 5) array.  Family 8 keeps the angular sweep theta0 -/+
    amax*sin(phi) inside the principal branch with a fixed margin, with shares
    0.1 of w = 0 and 0.2 of s = 0; other families zero one of (z, t, s) at
    rate 0.3 and, given that, the next too at rate 0.3 (piecewise branches)."""
    xy = rng.uniform(-2.0, 2.0, (n, 2))
    if spec.family == "F8":
        u = rng.random(n)
        th_max = math.pi - _CUT_MARGIN - _AMAX * math.sin(spec.phi)
        w = rng.uniform(0.05, 2.0, n) * np.exp(1j * rng.uniform(-th_max, th_max, n))
        w[u < 0.1] = 0.0
        s = _signed(rng, np.where(u < 0.1, 0.1, 0.05), 2.0, n)
        s[(u >= 0.1) & (u < 0.3)] = 0.0
        return np.column_stack([xy, w.real, w.imag, s])
    f = _signed(rng, 0.05, 2.0, (n, 3))
    one = rng.random(n) < 0.3
    two = one & (rng.random(n) < 0.3)
    k = rng.integers(0, 3, n)
    f[one, k[one]] = 0.0
    f[two, (k[two] + 1) % 3] = 0.0
    return np.hstack([xy, f])


def _roundtrip_safe(family, m, p):
    # per row of p (..., 5) under the blocks m, which broadcast against its
    # leading axes: every seam quantity at least 1e-3 in modulus, so not 0
    seams = _MAPS[family][2](m, p[..., 2], p[..., 3], p[..., 4])
    return np.abs([np.full(p.shape[:-1], np.inf), *seams]).min(axis=0) >= 1e-3


def _draw_samples(rng, spec, n):
    """Draw n samples field by field in a fixed stream order: the base
    points, b1..b3, a1..a3, then the alpha offsets, one row per sample.
    Returns the _chart inputs of p at (b1, a1) and q at (b2, a2) on each
    base's orbit and r at (b3, a3) on the alpha-shifted one, stacked.  Reads
    spec only by family and phi."""
    n = int(n)
    if n < 1:
        # a check over no samples would pass vacuously
        raise InvalidParams("n must be >= 1")
    base = _sample_base(rng, spec, n)
    b = rng.uniform(-2.0, 2.0, (n, 3))
    a = rng.uniform(-_AMAX, _AMAX, (n, 3))
    shifted = base.copy()
    shifted[:, 0] += _signed(rng, 0.1, 1.0, n)
    # _sample_base never returns a point orbit, so every chart is 2-dimensional
    return np.concatenate((base, base, shifted)), b.T.ravel(), a.T.ravel()


def _member_draws(streams, n, seed):
    """Per (map, report) of streams, which lists them by the key of their
    draw, their phi (None for families 1..7, which share one draw): the map,
    the report, and the _chart inputs of the draw, which is made once per
    key, one key at a time."""
    for members in streams.values():
        chart_in = _draw_samples(np.random.default_rng(seed), members[0][0].source, n)
        for emap, rep in members:
            yield emap, rep, chart_in


def _row_max(v):
    # max(axis=-1) of v (..., 5), NaN included, column by column: at thousands
    # of rows several times faster than numpy's reduction over five entries
    return functools.reduce(np.maximum, np.moveaxis(v, -1, 0))


def _joined(arrays):
    # the arrays joined on their first axis, one array as a view: no copy at large n
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _map_group(members):
    """The chart points (p, q, r), their images, their inverse images and the
    range and round-trip failure masks of members that share a _MAPS entry,
    _member_draws items, from one _chart, one forward-map and one inverse-map
    call on a (member, sample) stack, each member's rows reading its own
    ad_X2 block; each of shape (member, 3, sample, ...).  The round trip is
    checked on the chart rows that _roundtrip_safe passes under their
    member's block: on seeds 0..299 each of the 34 mapped sources keeps at
    least 23 at n = 20, but at n = 3, 98 of the 10,200 runs keep none (at
    n = 1, 23%) and check no round trip."""
    family = members[0][0].source.family
    fwd, inv, _ = _MAPS[family]
    m = np.array([ad2_block(emap.source) for emap, *_ in members])[:, None]
    base, b, a = (_joined([x[None] for x in xs]) for xs in zip(*(c for *_, c in members)))
    pqr = _chart(m, base, b, a)
    _require_V(pqr)
    images = _equivalence(fwd, m, pqr)
    # an image off V or not finite has no inverse to check
    fits = np.isfinite(images).all(axis=2) & in_V(images)
    safe = _roundtrip_safe(family, m, pqr)
    checked = safe & fits
    back = np.where(checked[..., None], _equivalence(inv, m, images), np.nan)
    # fails closed: a checked row whose drift is NaN fails; the unchecked
    # rows are NaN by design and stay out
    drift = checked & ~(_row_max(np.abs(back - pqr))
                        <= 1e-9 * np.maximum(1.0, _row_max(np.abs(pqr))))
    return [v.reshape(len(members), 3, -1, *v.shape[2:])
            for v in (pqr, images, back, safe & ~fits, drift)]


def _classification_stack(target, members, tol):
    """Map members, _member_draws items of one target, in one call per _MAPS
    entry; test their positive and negative pairs in one same_leaf call; fill
    in the reports of the members with a failing row."""
    groups = {}
    for member in members:
        groups.setdefault(_MAPS[member[0].source.family], []).append(member)
    reps = [rep for group in groups.values() for _, rep, _ in group]
    pts, images, back, off, drift = map(_joined, zip(*map(_map_group, groups.values())))
    hp, hq, hr = (images[:, k].reshape(-1, 5) for k in range(3))
    # same_leaf decides each row alone, so each relation gets its own mask
    pos, neg = same_leaf(target, np.concatenate((hp, hp)), np.concatenate((hq, hr)),
                         tol).reshape(2, len(reps), -1)
    fails = np.hstack((~pos, neg, off.reshape(len(reps), -1), drift.reshape(len(reps), -1)))
    for i in np.flatnonzero(fails.any(axis=1)):
        p, q, r = pts[i]
        # the checks of p, q and r in turn, each a range then a roundtrip check
        _collect(reps[i], [("positive", ~pos[i], {"p": p, "q": q}),
                           ("negative", neg[i], {"p": p, "q": r}),
                           *(check for j, pt in enumerate(pts[i]) for check in
                             [("range", off[i, j], {"p": pt, "image": images[i, j]}),
                              ("roundtrip", drift[i, j], {"p": pt, "back": back[i, j]})])])


def verify_classification_grid(sources, n=1000, seed=1729, tol=1e-6):
    """For each source, sample n same-leaf and n different-leaf pairs in its
    family and check that its equivalence map onto its type representative
    preserves both relations, plus forward/inverse round trips to 1e-9 on
    the branch-safe rows of the same chart points; one source is the grid
    [source].  The samples are drawn as arrays from one seeded stream.

    One pass: the draw reads a source only through phi and whether it is of
    family 8, so it is made once per phi: one draw serves families 1..7.
    The sources of one target are taken in stacks of _STACK_SAMPLES samples,
    so memory stays flat.  Within a stack, the sources of one map kind, one
    _MAPS entry (h1..h6, h7, h8), make one chart, one forward-map and one
    inverse-map call, each reading every source's parameters from its ad_X2
    block, row by row; the positive and negative same-leaf tests of the
    stack run in one call.  One CheckReport per source, in order.  A
    half-plane source, F3(0) or F5(0), has no map: UnsupportedMap, before
    anything is drawn."""
    reports, groups = [], {}
    for source in sources:
        emap = equivalence_map(source)
        _require_formula(emap)
        reports.append(CheckReport("classification", source.label(), emap.target.label(),
                                   int(n), int(seed), float(tol)))
        streams = groups.setdefault(emap.target, {})
        streams.setdefault(source.phi, []).append((emap, reports[-1]))
    size = max(1, _STACK_SAMPLES // max(int(n), 1))
    for target, streams in groups.items():
        draws = _member_draws(streams, n, seed)
        while stack := list(itertools.islice(draws, size)):
            _classification_stack(target, stack, tol)
            del stack  # free its samples before the next stack is drawn
    return reports


def _hard_negatives(kind, p):
    # per row of p, a point of the same c on another leaf, drawing nothing:
    # "F1" cycles (z, t, s) and keeps x + z; "F2" negates s or, where s = 0,
    # doubles z + it and keeps x - t
    x, y, z, t, s = p.T
    if kind == "F1":
        return np.column_stack([x + z - t, y, t, s, z])
    k = np.where(s == 0.0, 2.0, 1.0)
    return np.column_stack([x + (k - 1.0) * t, y, k * z, k * t, -s])


def fibration_check(kind, n=1000, seed=1729, tol=1e-8):
    """Type "F1": the (x+z, direction) invariant is complete for the family-4
    foliation.  Type "F2": rho-orbits coincide with F8(1, pi/2) leaves (group
    axioms to 1e-12, images stay on leaves, (r, a) recovered from invariants
    reaches every sampled chart point), the twisted invariant is complete on
    both regions, and the untwisted projection is probed and reported as
    strictly finer than the leaves (one discrepancy entry).  Each sampled p
    is also paired with a point of the same c on another leaf, which an
    invariant cut down to c alone would match.

    Samples are drawn as arrays as in verify_classification_grid, F2 then
    drawing g1, g2 and a chart parameter (b, a) as one (n, 6) array from the
    same stream; all are checked at once, the leaf invariant of the stack p
    computed once and compared with those of q, r and the paired points, and
    p tested against the three in one same_leaf call."""
    if kind not in ("F1", "F2"):
        raise InvalidParams("fibration kind must be 'F1' or 'F2'")
    spec = _REPRESENTATIVE["F4" if kind == "F1" else "F8"]
    rep = CheckReport(f"fibration-{kind}", spec.label(),
                      "R x S2 base" if kind == "F1" else "rho-action on V",
                      int(n), int(seed), float(tol))
    rng = np.random.default_rng(seed)
    p, q, r = _chart(ad2_block(spec), *_draw_samples(rng, spec, n)).reshape(3, -1, 5)
    h = _hard_negatives(kind, p)
    itol = max(tol, 1e-8)
    ip = leaf_invariant(kind, p)
    def same(v):
        # p's invariant, computed once, against each row of v
        return ip.approx_eq(leaf_invariant(kind, v), itol)

    # the three relations' rows in one same_leaf call, each row decided alone
    pos, neg, hard = np.split(same_leaf(spec, np.concatenate((p, p, p)),
                                        np.concatenate((q, r, h)), tol), 3)
    checks = [
        ("positive", ~(pos & same(q)), {"p": p, "q": q}),
        ("negative", neg | same(r), {"p": p, "q": r}),
        ("hard-negative", hard | same(h), {"p": p, "q": h}),
    ]
    if kind == "F1":
        _collect(rep, checks)
        return rep
    g = rng.uniform([-2.0, -_AMAX] * 3, [2.0, _AMAX] * 3, (len(p), 6))
    g1, g2 = g[:, 0:2], g[:, 2:4]
    scale = np.maximum(1.0, np.abs(p).max(axis=1))
    lhs, rhs = rho_apply(g1, rho_apply(g2, p)), rho_apply(g1 + g2, p)
    # (r, a) recovered from coordinates: a from sigma where it is nonzero,
    # else from the angle of z + it
    qab = _chart(ad2_block(spec), p, g[:, 4], g[:, 5])
    with np.errstate(divide="ignore", invalid="ignore"):
        a_rec = np.where(p[:, 4] != 0.0, np.log(qab[:, 4] / p[:, 4]),
                         -np.angle((qab[:, 2] + 1j * qab[:, 3]) / (p[:, 2] + 1j * p[:, 3])))
    back = rho_apply(np.stack([qab[:, 1] - p[:, 1], a_rec], axis=1), p)
    _collect(rep, checks + [
        # each bound test fails closed: a NaN residual or bound fails
        ("identity-axiom", ~(np.abs(rho_apply((0.0, 0.0), p) - p).max(axis=1) <= 1e-12 * scale),
         {"p": p}),
        ("additivity-axiom", ~(np.abs(lhs - rhs).max(axis=1)
                               <= 1e-12 * np.maximum(scale, np.abs(rhs).max(axis=1))), {"p": p}),
        ("rho-image", ~same_leaf(spec, p, rho_apply(g1, p), itol), {"p": p, "g": g1}),
        ("recovery", ~(np.abs(back - qab).max(axis=1)
                       <= itol * np.maximum(1.0, np.abs(qab).max(axis=1))), {"p": p, "q": qab}),
    ])
    # the printed untwisted projection, probed once on a rotating leaf
    pbase = np.array([0.3, -0.7, 1.1, 0.4, 0.8])
    q = orbit_chart(spec, pbase).eval(0.5, 1.0)
    rot = abs(complex(*printed_u_submersion(pbase)[1:3]) -
              complex(*printed_u_submersion(q)[1:3]))
    twisted_const = leaf_invariant("F2", pbase).approx_eq(leaf_invariant("F2", q), 1e-8)
    if same_leaf(spec, pbase, q, 1e-8) and rot > 1e-3 and twisted_const:
        rep.discrepancies.append({
            "claim": "the region s != 0 fibers over R^3 x {-1,+1} by "
                     "(x - t, z + it, sgn s) with fibers equal to leaves",
            "paper_location": "classification theorem proof, item 2.2 "
                              "(printed submersion for the region s != 0)",
            "observed": "z + it rotates along leaves while the printed map holds it "
                        "fixed, so its fibers are strictly finer than leaves; twisting "
                        "by e^{i ln|s|} gives the leaf-complete invariant",
        })
    else:
        rep.failures.append({"kind": "untwisted-probe", "p": list(pbase), "q": list(q)})
    return rep
