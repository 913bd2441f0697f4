"""Certified maximization of two cyclic quadratics over their polytopes.

Both objectives live on five variables with the cyclic feasibility pattern
x_i >= 0, x_i + x_{i+1} <= 1 (indices mod 5):

  * the ten-variable quadratic ``f`` over pairs (x, y) with
    x_i + x_{i+1} + y_i <= 1 reduces exactly to five variables because every
    y_i enters linearly with positive coefficient 1/5 + x_{i+2}, forcing
    y_i = 1 - x_i - x_{i+1} at any maximum;
  * ``g`` is already five-variable.

The maximum is decided exactly: the polytope has 12 vertices and 153
non-empty faces, and on every face whose reduced Hessian is negative
definite the unique stationary point is a candidate; these points and the
vertices contain a maximum (see ``_face_candidates``), all found by
fraction-free elimination on integers (Bareiss).  A float search
cross-checks the exact value: pattern ascent from the 25 best points of the
step-1/10 lattice, with no random starts.  Disagreement beyond 1e-6 raises
instead of being papered over.  Both certificates are pure and memoized.

Exact values take one integer pass: the coordinates become Fractions once
(``_fractions``), the point is scaled to integer numerators over its least
common denominator, the domain test and the objective (the homogeneous
integer form of a triple ``_F``/``_G``, or ``eval_f`` written out) run on
those integers, and one ``Fraction`` is built at the end.  ``_value``
evaluates a triple on floats for the cross-check.  The feasibility test, the
tight masks and the faces read one ``_constraints``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

Fr = Fraction

# unordered index pairs at cyclic distance two; both quadratics use them
_PAIRS = tuple(sorted((i, (i + 2) % 5) if i < (i + 2) % 5 else ((i + 2) % 5, i)
                      for i in range(5)))


class InfeasiblePointError(ValueError):
    """A point violates its domain; the message names the constraint."""


class CertificationError(RuntimeError):
    """The two maximization methods disagree beyond tolerance."""


@dataclass(frozen=True)
class QpPoint:
    """Rational point: five x coordinates, optionally five y coordinates."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", _fractions(self.x))
        if self.y is not None:
            object.__setattr__(self, "y", _fractions(self.y))
        if len(self.x) != 5 or (self.y is not None and len(self.y) != 5):
            raise ValueError("points have 5 x (and optionally 5 y) coordinates")


def _fractions(values) -> tuple[Fraction, ...]:
    """Each value kept if it is exactly a Fraction, else made one by Fraction(v)."""
    return tuple([v if type(v) is Fr else Fr(v) for v in values])


def _numerators(coords):
    """(X, d) with coords[i] = X[i] / d and d the least common denominator."""
    ratios = [v.as_integer_ratio() for v in coords]
    d = math.lcm(*[q for _, q in ratios])
    return [p * (d // q) for p, q in ratios], d


def _check_domain(x, y=None):
    """(X, Y, d): the point's numerators over their common denominator d,
    Y None when y is.  The domain is tested on them (x_i >= 0 iff X_i >= 0,
    x_i + x_{i+1} + y_i <= 1 iff X_i + X_{i+1} + Y_i <= d); if it fails,
    raise on the first violated constraint: x_i >= 0 then y_i >= 0 for each
    i, then each x_i + x_{i+1} (+ y_i) <= 1."""
    nums, d = _numerators(x if y is None else (*x, *y))
    x1, x2, x3, x4, x5, *Y = nums
    y1, y2, y3, y4, y5 = Y or (0,) * 5
    if min(nums) >= 0 and max(x1 + x2 + y1, x2 + x3 + y2, x3 + x4 + y3, x4 + x5 + y4,
                              x5 + x1 + y5) <= d:
        return nums[:5], Y or None, d
    signs = [(f"{c}{i + 1}", v[i]) for i in range(5) for c, v in zip("xy", (x, y)) if v]
    for name, value in signs:
        if value < 0:
            raise InfeasiblePointError(f"{name} = {value} violates {name} >= 0")
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)):
        s, term = (x[i] + x[j], "") if y is None else (x[i] + x[j] + y[i], f" + y{i + 1}")
        if s > 1:
            raise InfeasiblePointError(f"x{i + 1} + x{j + 1}{term} = {s} violates <= 1")


def _five(x) -> tuple[Fraction, ...]:
    """x as five Fractions; any other length is rejected."""
    x = _fractions(x)
    if len(x) != 5:
        raise ValueError(f"points have 5 x coordinates, not {len(x)}")
    return x


# Each five-variable objective is a triple (constant, linear coefficients,
# sign): its value at x is constant + lin.x + sign * (sum of the distance-two
# products x_a x_b).  _F is f with y at its forced optimum,
# 1 + (9/10) sum(x) - sum x_a x_b; _G is g.
_F = (Fr(1), (Fr(9, 10),) * 5, -1)
_G = (Fr(0), (Fr(0), Fr(0), Fr(1, 2), Fr(1, 2), Fr(1, 2)), 1)


def _value(objective, x):
    """The triple's value at the float point x, for the float cross-check."""
    const, lin, sign = objective
    s = const + sum(map(operator.mul, lin, x))
    q = sum(x[a] * x[b] for a, b in _PAIRS)
    return s + q if sign > 0 else s - q


def _quad_matrix(sign: int) -> list[list[Fraction]]:
    q = [[Fr(0)] * 5 for _ in range(5)]
    for a, b in _PAIRS:
        q[a][b] += Fr(sign, 2)
        q[b][a] += Fr(sign, 2)
    return q


def _integer_form(quad, lin, const):
    """const + lin.x + x'Qx homogenized in (x, 1), the 1 at index 5: (L, terms)
    with integer terms (q, a, b), a <= b, zero terms dropped, such that at
    x = X / d the value is sum q X_a X_b / (L d^2), X extended by X_5 = d."""
    terms = [(const, 5, 5), *((v, i, 5) for i, v in enumerate(lin)),
             *((quad[a][b] + quad[b][a] if a < b else quad[a][a], a, b)
               for a in range(5) for b in range(a, 5))]
    scale = math.lcm(*(q.denominator for q, _, _ in terms))
    return scale, tuple((int(q * scale), a, b) for q, a, b in terms if q)


def _form_value(form, X, d) -> Fraction:
    """The exact value of an ``_integer_form`` at the point X / d."""
    scale, terms = form
    X, num = [*X, d], 0
    for q, a, b in terms:
        num += q * X[a] * X[b]
    return Fr(num, scale * d * d)


_F_FORM, _G_FORM = (_integer_form(_quad_matrix(sign), lin, const)
                    for const, lin, sign in (_F, _G))


def _float_objective(objective):
    """The triple in floats, for ``_value`` in the float cross-check."""
    const, lin, sign = objective
    return float(const), tuple(map(float, lin)), sign


def eval_f(pt: QpPoint) -> Fraction:
    """Exact value of the ten-variable quadratic on its domain."""
    if pt.y is None:
        raise ValueError("this objective needs y coordinates")
    # 10 d^2 f = d (3 sum X + 2 sum Y) + 10 sum X_i (X_{i+2} + Y_{i+2})
    (x1, x2, x3, x4, x5), (y1, y2, y3, y4, y5), d = _check_domain(pt.x, pt.y)
    cross = x1 * (x3 + y3) + x2 * (x4 + y4) + x3 * (x5 + y5) + x4 * (x1 + y1) + x5 * (x2 + y2)
    lin = 3 * (x1 + x2 + x3 + x4 + x5) + 2 * (y1 + y2 + y3 + y4 + y5)
    return Fr(d * lin + 10 * cross, 10 * d * d)


def eval_g(pt: QpPoint) -> Fraction:
    """Exact value of the five-variable quadratic on its domain."""
    if pt.y is not None:
        raise ValueError("this objective takes no y coordinates")
    X, _, d = _check_domain(pt.x)
    return _form_value(_G_FORM, X, d)


def optimal_y(x) -> tuple[Fraction, ...]:
    """The y filling that is optimal for any fixed x; an infeasible x is
    rejected as ``reduce_f_over_y`` rejects it."""
    X, _, d = _check_domain(_five(x))
    return tuple([Fr(d - a - b, d) for a, b in zip(X, X[1:] + X[:1])])


def reduce_f_over_y(x) -> Fraction:
    """max over feasible y of f(x, y), in closed form.

    This is ``_F``; the identity is unit-tested against direct evaluation
    at the filled-in y.
    """
    X, _, d = _check_domain(_five(x))
    return _form_value(_F_FORM, X, d)


@dataclass(frozen=True)
class QpCertificate:
    """A certified maximum; ``faces`` counts the polytope faces examined and
    ``candidates`` the feasible points whose exact values were compared."""

    max_value: Fraction
    argmax: QpPoint
    method: str
    agreement_gap: float
    implied_bound: str
    faces: int
    candidates: int


# ----------------------------------------------------------------------
# method (a): exact stationary points over the faces of the polytope


def _definite_solve(rows):
    """(det A, det A * A^-1 b) for an integer [A | b], A symmetric; None
    unless A is positive definite.  Fraction-free Gauss-Jordan (Bareiss), no
    row exchanges: the k-th pivot is the k-th leading principal minor of A,
    which must be > 0 (Sylvester's criterion), and every division is exact."""
    prev = 1
    for k, row in enumerate(rows):
        pivot = row[k]
        if pivot <= 0:
            return None
        for i, other in enumerate(rows):
            if i != k:
                rows[i] = [(pivot * a - other[k] * b) // prev for a, b in zip(other, row)]
        prev = pivot
    return prev, [row[-1] for row in rows]


@functools.cache
def _constraints():
    """Rows (a, b) of a.x <= b for the shared five-variable polytope: the
    five pair sums x_i + x_{i+1} <= 1, then the five -x_i <= 0."""
    pairs = [(tuple(int(j in (i, (i + 1) % 5)) for j in range(5)), 1) for i in range(5)]
    return tuple(pairs + [(tuple(-int(j == i) for j in range(5)), 0) for i in range(5)])


def _slacks(X, d) -> list[int]:
    """d (b - a.x) for each row (a, b) of ``_constraints()``, x = X / d."""
    return [b * d - sum(map(operator.mul, a, X)) for a, b in _constraints()]


def _vertices() -> list[tuple[Fraction, ...]]:
    """The 12 vertices: 0, each e_i, each e_i + e_{i+2}, and all-1/2."""
    unit = [tuple(Fr(int(j == i)) for j in range(5)) for i in range(5)]
    out = [(Fr(0),) * 5] + unit
    out += [tuple(a + b for a, b in zip(unit[i], unit[(i + 2) % 5])) for i in range(5)]
    out.append((Fr(1, 2),) * 5)
    return out


def _scaled_vertices():
    """(V, d): the vertices as integer rows V over their common denominator d."""
    nums, d = _numerators([c for v in _vertices() for c in v])
    return [nums[i:i + 5] for i in range(0, len(nums), 5)], d


def _tight_mask(X, d) -> int:
    """Bit k set when constraint k of ``_constraints()`` is tight at X / d."""
    return sum(1 << k for k, slack in enumerate(_slacks(X, d)) if slack == 0)


@functools.cache
def _faces() -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """Every non-empty face as (tight mask, vertex indices, direction basis).

    A face is cut out by making a constraint set tight, and its tight mask is
    the AND of the masks of its vertices, so the faces are exactly the ANDs
    of non-empty sets of vertex masks (the whole polytope is the AND of all
    twelve).  The basis rows span the face's affine hull from its first
    vertex; their count is the dimension.  They are the differences of the
    scaled vertices from it that fraction-free elimination finds independent
    of the rows kept before.  Sorted by dimension, then mask.
    """
    verts, d = _scaled_vertices()
    masks = [_tight_mask(v, d) for v in verts]
    tights: set[int] = set()
    for m in masks:
        tights |= {m & t for t in tights}
        tights.add(m)
    faces = []
    for t in tights:
        members = tuple(i for i, m in enumerate(masks) if m & t == t)
        basis, echelon = [], []
        for i in members[1:]:
            row = diff = tuple(map(operator.sub, verts[i], verts[members[0]]))
            for c, e in echelon:
                if row[c]:
                    row = [e[c] * a - row[c] * b for a, b in zip(row, e)]
            c = next((c for c, v in enumerate(row) if v), None)
            if c is not None:
                basis.append(diff)
                echelon.append((c, row))
        faces.append((t, members, tuple(basis)))
    faces.sort(key=lambda face: (len(face[2]), face[0]))
    return tuple(faces)


def _face_candidates(quad: list[list[Fraction]], lin: list[Fraction]):
    """Finitely many feasible points that include a maximum of c.x + x'Qx.

    A maximum x* lies in the relative interior of exactly one face F, so it
    is a local maximum on F's affine hull x0 + span(N) (N's rows are the
    face's basis): the gradient along N vanishes and the reduced Hessian
    N Q N' is negative semidefinite.  If that Hessian is singular, the
    objective is constant on the line through x* along a null direction,
    and the line leaves the bounded face F at a maximum on a lower face.
    Repeating this ends at a maximum on a face whose reduced Hessian is
    negative definite (at worst a vertex), where it is the unique stationary
    point.  So faces whose Hessian is not negative definite are skipped,
    every other face yields its stationary point when that is feasible, and
    the vertices are always candidates.  Any other basis M = T N of the
    face gives M Q M' = T (N Q N') T', congruent to N Q N', so by
    Sylvester's law of inertia the skip does not depend on the basis.

    On integers (s the common denominator of Q and c, d that of the
    vertices, x = (v0 + sum z_r u_r) / d), the gradient along u_r vanishes
    iff -2 sum_k u_r.(sQ)u_k z_k = u_r.(d s c + 2 sQ v0); ``_definite_solve``
    tests -2 N(sQ)N' and solves this, trivially at a vertex.
    """
    verts, d = _scaled_vertices()
    coeffs, s = _numerators([*lin, *(v for row in quad for v in row)])
    c, sq = coeffs[:5], [coeffs[i:i + 5] for i in range(5, 30, 5)]
    out = []
    for _, members, basis in _faces():
        v0 = verts[members[0]]
        grad = [d * ci + 2 * sum(map(operator.mul, row, v0)) for ci, row in zip(c, sq)]
        qn = [[sum(map(operator.mul, row, u)) for row in sq] for u in basis]
        solved = _definite_solve([[-2 * sum(map(operator.mul, u, w)) for w in qn]
                                  + [sum(map(operator.mul, u, grad))] for u in basis])
        if solved is None:
            continue
        det, z = solved
        X = [det * v0[i] + sum(zr * u[i] for zr, u in zip(z, basis)) for i in range(5)]
        if min(_slacks(X, d * det)) >= 0:
            out.append(tuple(Fr(v, d * det) for v in X))
    return out


def _pick_argmax(cands):
    """Deterministic representative: highest value, then most active facet
    constraints, then lexicographically largest point."""
    best_value = max(v for v, _ in cands)
    tied = [x for v, x in cands if v == best_value]
    # the pair-sum facets x_i + x_{i+1} <= 1 are the low five constraint bits
    tied.sort(key=lambda x: ((_tight_mask(*_numerators(x)) & 0b11111).bit_count(), x),
              reverse=True)
    return best_value, tied[0]


def _exact_max(quad, lin, const):
    """(maximum, representative argmax, candidate count) of
    const + lin.x + x'Qx over the polytope, in exact rationals: each
    candidate is scored by ``_form_value``, the evaluator of ``eval_g`` and
    ``reduce_f_over_y``."""
    form = _integer_form(quad, lin, const)
    cands = [(_form_value(form, *_numerators(x)), x) for x in _face_candidates(quad, lin)]
    return (*_pick_argmax(cands), len(cands))


# ----------------------------------------------------------------------
# method (b): float lattice search + pattern ascent


def _feasible_float(x, slack=1e-9) -> bool:
    return all(v >= -slack for v in x) and all(
        x[i] + x[(i + 1) % 5] <= 1 + slack for i in range(5)
    )


def _lattice() -> list[tuple[float, ...]]:
    """Feasible points of the step-1/10 lattice in lexicographic order, each
    pair sum tested exactly as ``_feasible_float(x, slack=0.0)`` tests it."""
    levels = [k / 10 for k in range(11)]
    return [
        (a, b, c, d, e)
        for a in levels
        for b in levels if a + b <= 1
        for c in levels if b + c <= 1
        for d in levels if c + d <= 1
        for e in levels if d + e <= 1 and e + a <= 1
    ]


def _grid_ascent(objective) -> tuple[float, tuple[float, ...]]:
    """Feasible-lattice scan refined by sign-pattern ascent at 1/100 scale.

    The 25 best points of the coordinate lattice (step 1/10) are the starts;
    each is refined by trying all +-step sign patterns on the five
    coordinates, with the step shrinking from 1/100 once no pattern improves.
    """
    starts = [(objective(x), x) for x in _lattice()]
    starts.sort(reverse=True)
    patterns = [s for s in itertools.product((-1, 0, 1), repeat=5) if any(s)]
    best_val, best_x = starts[0]
    for _, start in starts[:25]:
        x = list(start)
        val = objective(x)
        step = 1 / 100
        while step > 1e-6:
            improved = False
            for s in patterns:
                cand = tuple(x[i] + step * s[i] for i in range(5))
                if not _feasible_float(cand):
                    continue
                cv = objective(cand)
                if cv > val + 1e-15:
                    x, val = list(cand), cv
                    improved = True
                    break
            if not improved:
                step /= 2
        if val > best_val:
            best_val, best_x = val, tuple(x)
    return best_val, best_x


def _certify(objective, implied_bound, to_point):
    """Exact maximum of the triple ``objective``, cross-checked by the float
    ascent on the same triple; ``to_point`` maps the argmax to a QpPoint."""
    const, lin, sign = objective
    value, x, candidates = _exact_max(_quad_matrix(sign), lin, const)
    grid_value, _ = _grid_ascent(functools.partial(_value, _float_objective(objective)))
    gap = abs(float(value) - grid_value)
    if gap > 1e-6:
        raise CertificationError(
            f"stationary-point maximum {float(value)} and lattice maximum "
            f"{grid_value} disagree by {gap}"
        )
    return QpCertificate(
        max_value=value,
        argmax=to_point(x),
        method="kkt-faces + lattice-pattern-ascent",
        agreement_gap=gap,
        implied_bound=implied_bound,
        faces=len(_faces()),
        candidates=candidates,
    )


@functools.cache
def maximize_f() -> QpCertificate:
    """Certified maximum of the ten-variable quadratic.

    Runs on the exact five-variable reduction (y filled at its forced
    optimum) and re-expands the argmax to ten coordinates.
    """
    cert = _certify(_F, "mixed-block edge bound: e <= cap*|part|/2 + max_f*cap^2",
                    lambda x: QpPoint(x, optimal_y(x)))
    check = eval_f(cert.argmax)
    if check != cert.max_value:
        raise CertificationError(
            f"reduced maximum {cert.max_value} does not re-evaluate ({check})"
        )
    return cert


@functools.cache
def maximize_g() -> QpCertificate:
    """Certified maximum of the five-variable quadratic."""
    return _certify(_G, "independent-block edge bound: e <= cap*|part|/2 + max_g*cap^2",
                    QpPoint)
