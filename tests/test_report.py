from fractions import Fraction as Fr

import pytest

from ramsey_turan import (
    ReportRow,
    bound_gap_report,
    edge_formula_check,
    pentagonlike,
    reference_table,
)
from ramsey_turan.report import (
    bounds_36,
    bounds_37,
    gap_report_csv,
    reference_table_csv,
    single_clique_density,
)


class TestReferenceTable:
    def test_fixed_constants(self):
        rows = {(r.p, r.q): r for r in reference_table() if r.source == "Table1"}
        assert rows[(3, 3)].lb_coeff == Fr(1, 4)
        assert rows[(3, 6)].lb_coeff == rows[(3, 6)].ub_coeff == Fr(5, 12)
        assert rows[(3, 7)].lb_coeff == Fr(7, 16)
        assert rows[(4, 4)].lb_coeff == Fr(11, 28)
        assert all(r.delta == 0 for r in rows.values())

    def test_two_clique_rows_at_delta(self):
        delta = Fr(1, 10)
        rows = reference_table(deltas=[delta])
        row36 = next(r for r in rows if (r.p, r.q, r.delta) == (3, 6, delta))
        base = Fr(5, 12) + delta / 2
        assert row36.lb_coeff == base + 2 * delta**2
        assert row36.ub_coeff == base + Fr(841, 400) * delta**2
        row37 = next(r for r in rows if (r.p, r.q, r.delta) == (3, 7, delta))
        assert row37.lb_coeff == row37.ub_coeff == Fr(7, 16) + delta / 2

    def test_single_clique_formulas(self):
        # odd clique: 2s+1 at s=2
        assert single_clique_density(5, Fr(1, 10)) == Fr(1, 2) * (Fr(1, 2) + Fr(1, 10))
        # even clique: 2s at s=2, constant (3s-5)/(3s-2) = 1/4
        d = Fr(1, 10)
        assert single_clique_density(4, d) == Fr(1, 2) * (Fr(1, 4) + d - d * d)
        assert single_clique_density(4, Fr(1, 10**6)) == pytest.approx(Fr(1, 8), abs=1e-6)
        rows = reference_table(single_cliques=[(5, Fr(1, 10))])
        row = next(r for r in rows if r.q is None)
        assert row.p == 5 and row.source == "Formula"
        assert row.lb_coeff == Fr(3, 10)

    def test_bounds_ordered_everywhere(self):
        rows = reference_table(
            deltas=[Fr(1, 100), Fr(1, 10)], single_cliques=[(4, Fr(1, 10))]
        )
        assert all(r.lb_coeff <= r.ub_coeff for r in rows)

    def test_table1_delta_enforced(self):
        with pytest.raises(ValueError):
            ReportRow(3, 3, Fr(1, 10), Fr(1, 4), Fr(1, 4), "Table1")

    def test_36_bounds_at_one_tenth(self):
        lower, upper = bounds_36(Fr(1, 10))
        base = Fr(5, 12) + Fr(1, 20)
        assert lower == base + Fr(2, 100)
        assert upper == base + Fr(841, 40000)

    def test_row_rejects_lower_above_upper(self):
        with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
            ReportRow(3, 6, Fr(0), Fr(1, 2), Fr(1, 3), "Construction")

    @pytest.mark.parametrize("delta", [Fr(0), Fr(1), Fr(2), Fr(-1, 10)])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(ValueError, match="outside"):
            reference_table(deltas=[delta])
        with pytest.raises(ValueError, match="outside"):
            reference_table(single_cliques=[(5, delta)])
        with pytest.raises(ValueError, match="outside"):
            bound_gap_report([delta])


class TestBoundGapReport:
    def test_gap_is_exact_quadratic(self):
        grid = [Fr(1, 1000), Fr(1, 100), Fr(1, 20), Fr(1, 10)]
        for delta, lb, ub, gap in bound_gap_report(grid):
            assert gap == Fr(41, 400) * delta**2
            assert gap == ub - lb

    def test_reference_value(self):
        ((_, _, _, gap),) = bound_gap_report([Fr(1, 100)])
        assert gap == Fr(41, 4_000_000)
        assert float(gap) == 1.025e-05

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bound_gap_report([Fr(0)])
        with pytest.raises(ValueError):
            bound_gap_report([Fr(1)])

    def test_consistency_with_36_bounds(self):
        # the gap report and the formula check read the one copy in report
        cg = pentagonlike(range(5))
        n2 = cg.n * cg.n
        for delta in (Fr(1, 100), Fr(3, 100), Fr(1, 15), Fr(1, 10)):
            (_, lb, ub, _), = bound_gap_report([delta])
            assert (lb, ub) == bounds_36(delta)
            assert bounds_37(delta)[0] == Fr(7, 16) + delta / 2
            for formula, bounds in (("kkl36", bounds_36), ("c37", bounds_37)):
                cert = edge_formula_check(cg, formula, delta, 1)
                assert cert.params["target"] == bounds(delta)[0] * n2


class TestCsv:
    def test_gap_csv_shape(self):
        text = gap_report_csv([Fr(1, 100)])
        header, row = text.strip().splitlines()
        assert header == "delta,lb,ub,gap,delta_dec,lb_dec,ub_dec,gap_dec"
        cells = row.split(",")
        assert cells[0] == "1/100"
        assert float(cells[4]) == 0.01
        assert Fr(cells[3]) == Fr(41, 4_000_000)
        assert float(cells[7]) == pytest.approx(float(Fr(41, 4_000_000)))

    def test_table_csv_parses(self):
        text = reference_table_csv(deltas=[Fr(1, 10)])
        lines = text.strip().splitlines()
        assert lines[0].startswith("p,q,delta,lb,ub,source")
        assert any(",Construction," in line for line in lines[1:])
        for line in lines[1:]:
            cells = line.split(",")
            assert Fr(cells[3]) <= Fr(cells[4])
