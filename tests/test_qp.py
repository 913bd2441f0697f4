import random
from fractions import Fraction as Fr

import pytest

from ramsey_turan import (
    InfeasiblePointError,
    QpPoint,
    eval_f,
    eval_g,
    optimal_y,
    reduce_f_over_y,
)

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


class TestMaximize:
    def test_f_value_and_structure(self, f_cert):
        assert f_cert.max_value == Fr(841, 400)
        assert float(f_cert.max_value) == 2.1025
        assert f_cert.agreement_gap <= 1e-6
        # every y constraint is tight at the maximum
        assert f_cert.argmax.y == optimal_y(f_cert.argmax.x)
        assert eval_f(f_cert.argmax) == f_cert.max_value

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
