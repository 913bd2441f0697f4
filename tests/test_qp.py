import functools
import itertools
import math
import operator
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramsey_turan import (
    InfeasiblePointError,
    QpPoint,
    eval_f,
    eval_g,
    maximize_f,
    maximize_g,
    optimal_y,
    reduce_f_over_y,
)
from ramsey_turan import qp

H = Fr(1, 2)
# 0, e_i, e_i + e_{i+2}, all-1/2
VERTICES = [
    (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
    (1, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1), (1, 0, 0, 1, 0), (0, 1, 0, 0, 1),
    (H, H, H, H, H),
]

PRINTED_POINT = QpPoint(
    (Fr("0.45"), Fr("0.55"), Fr("0.45"), 0, 0),
    (0, 0, Fr("0.55"), 1, 0),
)
CORRECTED_POINT = QpPoint(
    (Fr("0.45"), Fr("0.55"), Fr("0.45"), 0, 0),
    (0, 0, Fr("0.55"), 1, Fr("0.55")),
)


def random_feasible_x(rng: random.Random) -> tuple[Fr, ...]:
    while True:
        x = tuple(Fr(rng.randrange(0, 101), 100) for _ in range(5))
        if all(x[i] + x[(i + 1) % 5] <= 1 for i in range(5)):
            return x


def random_feasible_y(rng: random.Random, x) -> tuple[Fr, ...]:
    return tuple(
        Fr(rng.randrange(0, 101), 100) * (1 - x[i] - x[(i + 1) % 5])
        for i in range(5)
    )


class TestEvalF:
    def test_zero(self):
        assert eval_f(QpPoint((0,) * 5, (0,) * 5)) == 0

    def test_printed_point(self):
        assert eval_f(PRINTED_POINT) == Fr(349, 200)
        assert float(eval_f(PRINTED_POINT)) == 1.745

    def test_corrected_point(self):
        assert eval_f(CORRECTED_POINT) == Fr(841, 400)

    def test_domain_violation_names_constraint(self):
        with pytest.raises(InfeasiblePointError, match="y3"):
            eval_f(QpPoint((0,) * 5, (0, 0, -1, 0, 0)))
        with pytest.raises(InfeasiblePointError, match="x1 \\+ x2"):
            eval_f(QpPoint((1, 1, 0, 0, 0), (0,) * 5))

    def test_missing_y_rejected(self):
        with pytest.raises(ValueError):
            eval_f(QpPoint((0,) * 5))

    @pytest.mark.parametrize("x, y, f_message, x_message", [
        ((-1, 0, 0, 0, 0), (-1, 0, 0, 0, 0),
         "x1 = -1 violates x1 >= 0", "x1 = -1 violates x1 >= 0"),
        ((0, -1, 0, 0, 0), (-1, 0, 0, 0, 0),
         "y1 = -1 violates y1 >= 0", "x2 = -1 violates x2 >= 0"),
        ((0, 0, -1, 0, 0), (0, -1, 0, 0, 0),
         "y2 = -1 violates y2 >= 0", "x3 = -1 violates x3 >= 0"),
        ((1, 1, 0, 0, 0), (0, 0, -1, 0, 0),
         "y3 = -1 violates y3 >= 0", "x1 + x2 = 2 violates <= 1"),
        ((0, 0, 0, 1, H), (0,) * 5,
         "x4 + x5 + y4 = 3/2 violates <= 1", "x4 + x5 = 3/2 violates <= 1"),
        ((0, 0, 0, 1, 0), (0, 0, 0, Fr(1, 3), 0),
         "x4 + x5 + y4 = 4/3 violates <= 1", None),
    ])
    def test_first_violation_named(self, x, y, f_message, x_message):
        # x_i then y_i for each index, then the sums
        with pytest.raises(InfeasiblePointError) as err:
            eval_f(QpPoint(x, y))
        assert str(err.value) == f_message
        if x_message is None:
            reduce_f_over_y(x)
            return
        with pytest.raises(InfeasiblePointError) as err:
            reduce_f_over_y(x)
        assert str(err.value) == x_message


class TestEvalG:
    def test_all_half(self):
        assert eval_g(QpPoint((Fr(1, 2),) * 5)) == 2

    def test_zero(self):
        assert eval_g(QpPoint((0,) * 5)) == 0

    def test_alternating(self):
        assert eval_g(QpPoint((0, 1, 0, 1, 0))) == Fr(3, 2)

    def test_y_rejected(self):
        with pytest.raises(ValueError):
            eval_g(QpPoint((0,) * 5, (0,) * 5))

    def test_infeasible(self):
        with pytest.raises(InfeasiblePointError):
            eval_g(QpPoint((2, 0, 0, 0, 0)))


class TestReduction:
    def test_reference_values(self):
        assert reduce_f_over_y((Fr("0.45"), Fr("0.55"), Fr("0.45"), 0, 0)) == Fr(841, 400)
        assert reduce_f_over_y((0,) * 5) == 1
        assert reduce_f_over_y((Fr(1, 2),) * 5) == 2

    def test_identity_against_direct_eval(self):
        rng = random.Random(42)
        for _ in range(200):
            x = random_feasible_x(rng)
            filled = optimal_y(x)
            assert reduce_f_over_y(x) == eval_f(QpPoint(x, filled))

    def test_dominates_every_feasible_y(self):
        rng = random.Random(43)
        for _ in range(100):
            x = random_feasible_x(rng)
            cap = reduce_f_over_y(x)
            y = random_feasible_y(rng, x)
            assert eval_f(QpPoint(x, y)) <= cap

    def test_infeasible_x_rejected(self):
        with pytest.raises(InfeasiblePointError):
            reduce_f_over_y((1, 1, 0, 0, 0))

    @pytest.mark.parametrize("x", [(1, 1, 0, 0, 0), (0, -1, 0, 0, 0), (0, 0, 0, H, Fr(2, 3)),
                                   (Fr(-1, 3), 1, 1, 0, 0)])
    def test_optimal_y_rejects_infeasible_x(self, x):
        with pytest.raises(InfeasiblePointError) as err:
            reduce_f_over_y(x)
        with pytest.raises(InfeasiblePointError) as y_err:
            optimal_y(x)
        assert str(y_err.value) == str(err.value)

    @pytest.mark.parametrize("length", [4, 6])
    def test_wrong_length_x_rejected(self, length):
        message = f"points have 5 x coordinates, not {length}"
        with pytest.raises(ValueError) as err:
            reduce_f_over_y((0, 0, 0, 0, 0, 5)[:length])
        assert str(err.value) == message
        assert not isinstance(err.value, InfeasiblePointError)
        with pytest.raises(ValueError) as err:
            optimal_y((0,) * length)
        assert str(err.value) == message


# Reference: the Fraction formulas the integer evaluators replaced, term by term.
def ref_check_domain(x, y=None):
    for i in range(5):
        if x[i] < 0:
            raise InfeasiblePointError(f"x{i + 1} = {x[i]} violates x{i + 1} >= 0")
        if y is not None and y[i] < 0:
            raise InfeasiblePointError(f"y{i + 1} = {y[i]} violates y{i + 1} >= 0")
    for i in range(5):
        j = (i + 1) % 5
        s = x[i] + x[j] if y is None else x[i] + x[j] + y[i]
        if s > 1:
            term = "" if y is None else f" + y{i + 1}"
            raise InfeasiblePointError(f"x{i + 1} + x{j + 1}{term} = {s} violates <= 1")


def ref_eval_f(x, y):
    x, y = tuple(map(Fr, x)), tuple(map(Fr, y))
    ref_check_domain(x, y)
    return (Fr(3, 10) * sum(x) + Fr(1, 5) * sum(y)
            + sum(x[i] * y[(i + 2) % 5] for i in range(5))
            + sum(x[i] * x[(i + 2) % 5] for i in range(5)))


def ref_eval_g(x):
    x = tuple(map(Fr, x))
    ref_check_domain(x)
    return H * (x[2] + x[3] + x[4]) + sum(x[i] * x[(i + 2) % 5] for i in range(5))


def ref_reduce_f_over_y(x):
    x = tuple(map(Fr, x))
    ref_check_domain(x)
    return 1 + Fr(9, 10) * sum(x) - sum(x[i] * x[(i + 2) % 5] for i in range(5))


def ref_optimal_y(x):
    x = tuple(map(Fr, x))
    ref_check_domain(x)
    return tuple(1 - x[i] - x[(i + 1) % 5] for i in range(5))


def outcome(fn, *args):
    """The value, or the exception's type and text."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as err:
        return type(err), str(err)


# small and huge denominators, binary floats such as Fraction(0.1), the boundary
SMALL = st.one_of(
    st.fractions(min_value=0, max_value=Fr(1, 3), max_denominator=60),
    st.fractions(min_value=0, max_value=Fr(1, 3)),
    st.floats(min_value=0, max_value=1 / 3).map(Fr),
    st.sampled_from([Fr(0), Fr(1, 3), Fr(0.1), Fr(1, 10**30)]),
)
WILD = st.one_of(
    SMALL,
    st.fractions(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2).map(Fr),
    st.integers(min_value=-2, max_value=2).map(Fr),
    st.sampled_from([Fr(1), Fr(1, 2), Fr(2, 3), -Fr(0.1)]),
)


@st.composite
def points(draw, with_y):
    """Feasible (every coordinate <= 1/3) or arbitrary rational points."""
    coord = SMALL if draw(st.booleans()) else WILD
    x = tuple(draw(coord) for _ in range(5))
    return (x, tuple(draw(coord) for _ in range(5))) if with_y else (x, None)


@st.composite
def first_violation(draw, with_y, k):
    """A point whose first violated constraint, in the domain check's order,
    is number k: x1 >= 0, (y1 >= 0,) x2 >= 0, ..., then the five sums."""
    x = [draw(SMALL) for _ in range(5)]
    y = [draw(SMALL) for _ in range(5)] if with_y else None
    coords = [(x, i) for i in range(5)] if y is None else [
        c for i in range(5) for c in ((x, i), (y, i))]
    over = draw(st.fractions(min_value=0, max_value=Fr(1, 6)).filter(bool))
    if k < len(coords):
        # later signs may fail too: a negative coordinate breaks no sum
        for j, (vec, i) in enumerate(coords[k:]):
            if j == 0 or draw(st.booleans()):
                vec[i] = -draw(WILD.map(abs)) - over
    else:
        i = k - len(coords)
        if y is None:
            x[i] = x[(i + 1) % 5] = H + over
        else:
            y[i] = 1 + over
            for j in range(i + 1, 5):
                if draw(st.booleans()):
                    y[j] = 1 + draw(SMALL)
    return tuple(x), None if y is None else tuple(y)


class FractionSubclass(Fr):
    pass


def as_inputs(draw, x):
    """Each coordinate as a Fraction, a Fraction subclass, int, str or float
    with that value."""
    kinds = [lambda v: v, FractionSubclass, str, lambda v: int(v) if v.denominator == 1 else v]
    out = []
    for v in x:
        kind = draw(st.sampled_from(kinds + ([float] if float(v) == v else [])))
        out.append(kind(v))
    return tuple(out)


class TestExactEvaluatorsMatchReference:
    @given(points(with_y=True))
    @settings(max_examples=100, deadline=None)
    def test_eval_f(self, point):
        x, y = point
        assert outcome(eval_f, QpPoint(x, y)) == outcome(ref_eval_f, x, y)

    @given(points(with_y=False))
    @settings(max_examples=100, deadline=None)
    def test_eval_g(self, point):
        x, _ = point
        assert outcome(eval_g, QpPoint(x)) == outcome(ref_eval_g, x)

    @given(points(with_y=False), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduce_f_over_y_any_input_type(self, point, data):
        raw = as_inputs(data.draw, point[0])
        assert outcome(reduce_f_over_y, raw) == outcome(ref_reduce_f_over_y, raw)

    @given(points(with_y=False), st.data())
    @settings(max_examples=100, deadline=None)
    def test_optimal_y_any_input_type(self, point, data):
        raw = as_inputs(data.draw, point[0])
        filled = outcome(optimal_y, raw)
        assert filled == outcome(ref_optimal_y, raw)
        reduced = outcome(reduce_f_over_y, raw)
        if isinstance(reduced, tuple):
            assert filled == reduced
        else:
            assert all(type(v) is Fr for v in filled)

    @given(points(with_y=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_points_of_any_input_type(self, point, data):
        x, y = point
        raw_x, raw_y = as_inputs(data.draw, x), as_inputs(data.draw, y)
        for raw, exact in ((QpPoint(raw_x, raw_y), QpPoint(x, y)), (QpPoint(raw_x), QpPoint(x))):
            assert raw == exact
            assert all(type(v) is Fr for v in raw.x + (raw.y or ()))
        assert outcome(eval_f, QpPoint(raw_x, raw_y)) == outcome(eval_f, QpPoint(x, y))
        assert outcome(eval_g, QpPoint(raw_x)) == outcome(eval_g, QpPoint(x))

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_each_constraint_violated_first_in_f(self, data):
        names = [f"{v}{i + 1} =" for i in range(5) for v in "xy"]
        names += [f"x{i + 1} + x{(i + 1) % 5 + 1} + y{i + 1} =" for i in range(5)]
        for k, name in enumerate(names):
            x, y = data.draw(first_violation(True, k))
            expected = outcome(ref_eval_f, x, y)
            assert expected[0] is InfeasiblePointError
            assert expected[1].startswith(name)
            assert outcome(eval_f, QpPoint(x, y)) == expected

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_each_constraint_violated_first_in_g_and_reduction(self, data):
        names = [f"x{i + 1} =" for i in range(5)]
        names += [f"x{i + 1} + x{(i + 1) % 5 + 1} =" for i in range(5)]
        for k, name in enumerate(names):
            x, _ = data.draw(first_violation(False, k))
            expected = outcome(ref_eval_g, x)
            assert expected[0] is InfeasiblePointError
            assert expected[1].startswith(name)
            assert outcome(eval_g, QpPoint(x)) == expected
            raw = as_inputs(data.draw, x)
            assert outcome(reduce_f_over_y, raw) == outcome(ref_reduce_f_over_y, raw) == expected

    @given(st.lists(st.one_of(st.just(Fr(0)), st.fractions(-3, 3, max_denominator=40)),
                    min_size=31, max_size=31),
           st.tuples(*[WILD] * 5))
    @settings(max_examples=40, deadline=None)
    def test_integer_form_of_a_general_quadratic(self, entries, x):
        # the scoring of _exact_max against the 25-term Fraction form
        quad = [entries[5 * i:5 * i + 5] for i in range(5)]
        lin, const = entries[25:30], entries[30]
        expected = (const + sum(lin[i] * x[i] for i in range(5))
                    + sum(x[i] * quad[i][j] * x[j] for i in range(5) for j in range(5)))
        value = qp._form_value(qp._integer_form(quad, lin, const), *qp._numerators(x))
        assert value == expected
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


class TestMaximize:
    def test_f_value_and_structure(self, f_cert):
        assert f_cert.max_value == Fr(841, 400)
        assert float(f_cert.max_value) == 2.1025
        assert f_cert.agreement_gap <= 1e-6
        # every y constraint is tight at the maximum
        assert f_cert.argmax.y == optimal_y(f_cert.argmax.x)
        assert eval_f(f_cert.argmax) == f_cert.max_value

    def test_f_argmax_and_counts(self, f_cert):
        assert f_cert.argmax.x == (Fr(11, 20), Fr(9, 20), 0, 0, Fr(9, 20))
        assert (f_cert.faces, f_cert.candidates) == (153, 27)
        assert f_cert.method == "kkt-faces + lattice-pattern-ascent"

    def test_g_counts(self, g_cert):
        assert (g_cert.faces, g_cert.candidates) == (153, 12)

    def test_memoized(self, f_cert, g_cert):
        assert maximize_f() is f_cert
        assert maximize_g() is g_cert

    def test_g_value_and_argmax(self, g_cert):
        assert g_cert.max_value == 2
        assert g_cert.argmax.x == (Fr(1, 2),) * 5
        assert g_cert.argmax.y is None
        assert g_cert.agreement_gap <= 1e-6
        assert eval_g(g_cert.argmax) == 2

    def test_no_sampled_point_beats_certified_max(self, f_cert, g_cert):
        rng = random.Random(7)
        fmax = float(f_cert.max_value)
        gmax = float(g_cert.max_value)
        for _ in range(100_000):
            x = [rng.random() for _ in range(5)]
            for i in range(5):
                over = x[i] + x[(i + 1) % 5]
                if over > 1:
                    x[i] /= over
                    x[(i + 1) % 5] /= over
            fy = [(1 - x[i] - x[(i + 1) % 5]) * rng.random() for i in range(5)]
            fv = (
                0.3 * sum(x)
                + 0.2 * sum(fy)
                + sum(x[i] * fy[(i + 2) % 5] for i in range(5))
                + sum(x[i] * x[(i + 2) % 5] for i in range(5))
            )
            gv = 0.5 * (x[2] + x[3] + x[4]) + sum(
                x[i] * x[(i + 2) % 5] for i in range(5)
            )
            assert fv <= fmax + 1e-9
            assert gv <= gmax + 1e-9


# Reference: the Fraction face enumeration the integer one replaced.
def ref_eliminate(rows, cols):
    """Gauss-Jordan elimination on the first ``cols`` columns, in place.

    Returns the pivot columns; row r holds the pivot of the r-th of them.
    """
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / Fr(rows[r][c])
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return pivot_cols


def rank(rows) -> int:
    rows = [list(r) for r in rows]
    return len(ref_eliminate(rows, 5))


def ref_solve_rational(rows):
    """Solve a square augmented rational system [M | b]; ValueError when M
    is singular."""
    rows = [row[:] for row in rows]
    if ref_eliminate(rows, len(rows)) != list(range(len(rows))):
        raise ValueError("singular system")
    return [row[-1] for row in rows]


def ref_slacks(x):
    return [b - sum(ai * xi for ai, xi in zip(a, x)) for a, b in qp._constraints()]


def ref_feasible(x):
    return min(ref_slacks(x)) >= 0


def ref_tight_mask(x):
    return sum(1 << k for k, slack in enumerate(ref_slacks(x)) if slack == 0)


@functools.cache
def ref_faces():
    """(tight mask, vertex indices, Fraction RREF basis) per face."""
    verts = qp._vertices()
    masks = [ref_tight_mask(v) for v in verts]
    tights = set()
    for m in masks:
        tights |= {m & t for t in tights}
        tights.add(m)
    faces = []
    for t in tights:
        members = tuple(i for i, m in enumerate(masks) if m & t == t)
        base = verts[members[0]]
        diffs = [[a - b for a, b in zip(verts[i], base)] for i in members[1:]]
        r = len(ref_eliminate(diffs, 5))
        faces.append((t, members, tuple(tuple(row) for row in diffs[:r])))
    faces.sort(key=lambda face: (len(face[2]), face[0]))
    return tuple(faces)


def ref_negative_definite(h):
    """-h is positive definite iff every pivot taken down the diagonal,
    without row exchanges, is positive."""
    m = [[-v for v in row] for row in h]
    for i in range(len(m)):
        if m[i][i] <= 0:
            return False
        for r in range(i + 1, len(m)):
            factor = m[r][i] / m[i][i]
            m[r] = [a - factor * b for a, b in zip(m[r], m[i])]
    return True


def ref_face_candidates(quad, lin):
    verts = qp._vertices()
    out = []
    for _, members, basis in ref_faces():
        x0 = verts[members[0]]
        if not basis:
            out.append(x0)
            continue
        qn = [[sum(quad[i][j] * b[j] for j in range(5)) for i in range(5)] for b in basis]
        h = [[sum(u[i] * w[i] for i in range(5)) for w in qn] for u in basis]
        if not ref_negative_definite(h):
            continue
        grad = [lin[i] + 2 * sum(quad[i][j] * x0[j] for j in range(5)) for i in range(5)]
        rows = [[2 * v for v in h[r]] + [-sum(u * g for u, g in zip(basis[r], grad))]
                for r in range(len(basis))]
        z = ref_solve_rational(rows)
        x = tuple(x0[i] + sum(z[r] * basis[r][i] for r in range(len(basis))) for i in range(5))
        if ref_feasible(x):
            out.append(x)
    return out


def ref_exact_max(quad, lin, const):
    """(maximum, argmax, candidate count), each candidate scored by the
    25-term Fraction form and ties broken as ``qp._pick_argmax`` breaks them."""
    cands = [(const + sum(lin[i] * x[i] for i in range(5))
              + sum(x[i] * quad[i][j] * x[j] for i in range(5) for j in range(5)), x)
             for x in ref_face_candidates(quad, lin)]
    best = max(v for v, _ in cands)
    tied = sorted((x for v, x in cands if v == best),
                  key=lambda x: ((ref_tight_mask(x) & 0b11111).bit_count(), x), reverse=True)
    return best, tied[0], len(cands)


class TestFaces:
    def test_vertices_pinned_and_complete(self):
        assert qp._vertices() == [tuple(Fr(v) for v in x) for x in VERTICES]
        # every basic feasible solution of five tight constraints is listed
        cons = qp._constraints()
        found = set()
        for subset in itertools.combinations(cons, 5):
            try:
                x = ref_solve_rational([list(a) + [b] for a, b in subset])
            except ValueError:
                continue
            if min(qp._slacks(*qp._numerators(x))) >= 0:
                found.add(tuple(x))
        assert found == set(qp._vertices())

    def test_face_lattice(self):
        faces = qp._faces()
        assert len(faces) == 153
        dims = [len(basis) for _, _, basis in faces]
        fvec = tuple(dims.count(d) for d in range(6))
        assert fvec == (12, 40, 55, 35, 10, 1)
        assert sum((-1) ** d * fvec[d] for d in range(5)) == 2
        verts = qp._vertices()
        masks = [qp._tight_mask(*qp._numerators(v)) for v in verts]
        cons = qp._constraints()
        for tight, members, basis in faces:
            assert tight == functools.reduce(operator.and_, (masks[i] for i in members))
            assert members == tuple(i for i, m in enumerate(masks) if m & tight == tight)
            # the basis spans the solutions of the tight constraints
            tight_rows = [cons[k][0] for k in range(len(cons)) if tight >> k & 1]
            assert len(basis) == 5 - rank(tight_rows) == rank(basis)
            for a in tight_rows:
                assert all(sum(ai * ui for ai, ui in zip(a, u)) == 0 for u in basis)
        # the faces are the closures of the 1024 constraint sets: the AND of
        # the masks of the vertices where the set is tight, if there are any
        closures = set()
        for s in range(1 << len(cons)):
            sat = [m for m in masks if m & s == s]
            if sat:
                closures.add(functools.reduce(operator.and_, sat))
        assert closures == {tight for tight, _, _ in faces}

    def test_flat_ridge_maximum_from_lower_face(self):
        # -(x0 + x1 - 1)^2 is maximal on the facet x0 + x1 = 1, where the
        # reduced Hessian is singular, so a lower face has to carry it
        quad = [[Fr(0)] * 5 for _ in range(5)]
        for i in (0, 1):
            for j in (0, 1):
                quad[i][j] = Fr(-1)
        lin = [Fr(2), Fr(2), Fr(0), Fr(0), Fr(0)]
        facet = next(f for f in qp._faces() if f[0] == 1)
        assert len(facet[2]) == 4
        h = [[sum(u[i] * quad[i][j] * w[j] for i in range(5) for j in range(5))
              for w in facet[2]] for u in facet[2]]
        assert not ref_negative_definite(h)
        assert qp._definite_solve([[-int(v) for v in row] + [0] for row in h]) is None
        value, x, _ = qp._exact_max(quad, lin, Fr(-1))
        assert value == 0
        assert x[0] + x[1] == 1

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_centroid_of_face_is_certified(self, dim):
        verts = qp._vertices()
        _, members, _ = next(f for f in qp._faces() if len(f[2]) == dim)
        p = tuple(sum(verts[i][k] for i in members) / len(members) for k in range(5))
        quad = [[Fr(-int(i == j)) for j in range(5)] for i in range(5)]
        lin = [2 * v for v in p]
        value, x, _ = qp._exact_max(quad, lin, -sum(v * v for v in p))
        assert (value, x) == (0, p)


COEF = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def quadratics(draw):
    """(Q, lin) with Q symmetric: zero, negative definite (-(A'A + D)
    with D a positive diagonal), singular negative semidefinite (-A'A with
    fewer than five rows in A) or indefinite (diagonal entries of both signs)."""
    kind = draw(st.sampled_from(["zero", "definite", "singular", "indefinite"]))
    lin = [draw(COEF) for _ in range(5)]
    q = [[Fr(0)] * 5 for _ in range(5)]
    if kind == "indefinite":
        for i, j in itertools.combinations_with_replacement(range(5), 2):
            q[i][j] = q[j][i] = draw(COEF)
        q[0][0], q[1][1] = draw(COEF.filter(lambda v: v > 0)), draw(COEF.filter(lambda v: v < 0))
    elif kind != "zero":
        rows = draw(st.integers(1, 4 if kind == "singular" else 5))
        a = [[draw(COEF) for _ in range(5)] for _ in range(rows)]
        diag = [draw(COEF.filter(lambda v: v > 0)) if kind == "definite" else 0 for _ in range(5)]
        q = [[-sum(r[i] * r[j] for r in a) - (diag[i] if i == j else 0) for j in range(5)]
             for i in range(5)]
    return q, lin


class TestIntegerFacesMatchReference:
    def test_faces(self):
        faces, ref = qp._faces(), ref_faces()
        assert len(faces) == len(ref) == 153
        for (tight, members, basis), (ref_tight, ref_members, ref_basis) in zip(faces, ref):
            assert (tight, members) == (ref_tight, ref_members)
            assert all(isinstance(v, int) for u in basis for v in u)
            # the same dimension and the same span
            assert len(basis) == len(ref_basis) == rank(basis) == rank(basis + ref_basis)

    @pytest.mark.parametrize("objective, count", [(qp._F, 27), (qp._G, 12)], ids=["f", "g"])
    def test_candidates_and_maximum(self, objective, count):
        const, lin, sign = objective
        quad = qp._quad_matrix(sign)
        cands = qp._face_candidates(quad, lin)
        assert cands == ref_face_candidates(quad, lin)
        assert len(cands) == count
        assert qp._exact_max(quad, lin, const) == ref_exact_max(quad, lin, const)

    @given(quadratics(), COEF)
    @settings(max_examples=30, deadline=None)
    def test_general_quadratics(self, problem, const):
        quad, lin = problem
        assert qp._face_candidates(quad, lin) == ref_face_candidates(quad, lin)
        assert qp._exact_max(quad, lin, const) == ref_exact_max(quad, lin, const)

    @given(st.integers(0, 5).flatmap(lambda n: st.tuples(
        st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n),
        st.lists(st.integers(-9, 9), min_size=n, max_size=n), st.booleans())))
    @settings(max_examples=100, deadline=None)
    def test_definite_solve(self, drawn):
        entries, b, gram = drawn
        n = len(b)
        m = [entries[n * i:n * i + n] for i in range(n)]
        # M'M + I is positive definite; M + M' usually is not
        a = [[sum(r[i] * r[j] for r in m) + (i == j) if gram else m[i][j] + m[j][i]
              for j in range(n)] for i in range(n)]
        system = [row + [v] for row, v in zip(a, b)]
        solved = qp._definite_solve([row[:] for row in system])
        assert (solved is not None) == ref_negative_definite([[-v for v in row] for row in a])
        if solved is not None:
            det, z = solved
            assert det > 0
            assert [Fr(v, det) for v in z] == ref_solve_rational(system)


def linear(const, coeffs):
    """The polynomial const + coeffs.x as {exponent tuple: coefficient}."""
    poly = {(0,) * 5: Fr(const)}
    for i, c in enumerate(coeffs):
        poly[tuple(int(j == i) for j in range(5))] = Fr(c)
    return poly


def poly_add(*polys):
    """The sum, zero coefficients dropped, so equal polynomials are equal dicts."""
    out = {}
    for poly in polys:
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def poly_mul(p, q):
    return poly_add(*({tuple(map(operator.add, a, b)): c * d} for a, c in p.items()
                      for b, d in q.items()))


def poly_at(poly, x):
    return sum(c * math.prod(v ** e for v, e in zip(x, mono)) for mono, c in poly.items())


class TestGIdentity:
    """2 - g is a nonnegative combination of products of the polytope's
    slacks s_i = 1 - x_i - x_{i+1} and coordinates x_i, so g <= 2 on it;
    checked by expanding polynomials, with nothing of the face enumeration."""

    X = [(0, tuple(int(j == i) for j in range(5))) for i in range(5)]
    S = [(1, tuple(-int(j in (i, (i + 1) % 5)) for j in range(5))) for i in range(5)]
    # (coefficient, factors) per term, each factor (constant, coefficients)
    TERMS = [
        (H, [S[1]]), (H, [S[4]]), (H, [S[0], S[1]]), (H, [X[1], S[0]]), (H, [X[2], S[1]]),
        (H, [S[2], S[2]]), (1, [X[0], S[2]]), (H, [X[3], S[2]]), (1, [X[1], S[3]]),
        (H, [X[2], S[3]]), (H, [X[2], S[4]]),
    ]

    def two_minus_g(self):
        # g = (x_2 + x_3 + x_4) / 2 + sum of x_i x_{i+2}
        pairs = (poly_mul(linear(*self.X[i]), linear(*self.X[(i + 2) % 5])) for i in range(5))
        g = poly_add(linear(0, (0, 0, H, H, H)), *pairs)
        return poly_add(linear(2, (0,) * 5), {mono: -c for mono, c in g.items()})

    def test_identity(self):
        expanded = poly_add(*(functools.reduce(poly_mul, [linear(*f) for f in factors],
                                               linear(c, (0,) * 5))
                              for c, factors in self.TERMS))
        assert len(self.TERMS) == 11
        assert expanded == self.two_minus_g()

    def test_terms_are_products_of_slacks_and_coordinates(self):
        # the polytope x_i >= 0, 1 - x_i - x_{i+1} >= 0, written out again
        slacks = {(0, tuple(int(j == i) for j in range(5))) for i in range(5)}
        slacks |= {(1, tuple(-1 if j in (i, (i + 1) % 5) else 0 for j in range(5)))
                   for i in range(5)}
        for c, factors in self.TERMS:
            assert c > 0
            assert factors and all(f in slacks for f in factors)

    def test_vanishes_at_all_half(self):
        assert poly_at(self.two_minus_g(), (H,) * 5) == 0
        assert eval_g(QpPoint((H,) * 5)) == 2

    def test_polynomial_is_eval_g(self):
        rng = random.Random(11)
        for _ in range(50):
            x = random_feasible_x(rng)
            assert poly_at(self.two_minus_g(), x) == 2 - eval_g(QpPoint(x))


class TestLattice:
    @pytest.mark.parametrize("objective, form", [(qp._F, qp._F_FORM), (qp._G, qp._G_FORM)],
                             ids=["f", "g"])
    def test_float_objective_matches_exact_value(self, objective, form):
        floats = qp._float_objective(objective)
        for x in qp._lattice():
            exact = qp._form_value(form, *qp._numerators([Fr(round(10 * v), 10) for v in x]))
            assert abs(qp._value(floats, x) - exact) <= 1e-12

    def test_nested_loops_match_filtered_product(self):
        levels = [k / 10 for k in range(11)]
        filtered = [
            x for x in itertools.product(levels, repeat=5)
            if qp._feasible_float(x, slack=0.0)
        ]
        assert len(filtered) == 21031
        assert qp._lattice() == filtered


class TestSymmetry:
    def test_quadratic_term_rotation_invariant(self):
        rng = random.Random(9)
        for _ in range(50):
            x = random_feasible_x(rng)

            def q(v):
                return sum(v[i] * v[(i + 2) % 5] for i in range(5))

            for shift in range(5):
                rotated = tuple(x[(i + shift) % 5] for i in range(5))
                assert q(rotated) == q(x)

    def test_g_itself_not_rotation_invariant(self):
        x = (Fr(1), Fr(0), Fr(0), Fr(0), Fr(0))
        rotated = (Fr(0), Fr(0), Fr(1), Fr(0), Fr(0))
        assert eval_g(QpPoint(x)) != eval_g(QpPoint(rotated))
