"""Reference-table verification: every stored cell is recomputed."""

import pytest

from cuntzalg import tables
from cuntzalg.tables import VERIFIERS, classify_table, verify_theorem14


@pytest.mark.parametrize("name", sorted(n for n in VERIFIERS
                                        if n != "theorem14"))
def test_table(name):
    report = classify_table(name)
    assert report.ok, str(report)


def test_theorem14():
    report = verify_theorem14()
    assert report.ok, str(report)


def test_unknown_table():
    with pytest.raises(ValueError):
        classify_table("table5")


def test_a_key_error_inside_a_verifier_is_not_an_unknown_table(monkeypatch):
    def broken():
        raise KeyError("cell")
    monkeypatch.setitem(VERIFIERS, "table2", broken)
    with pytest.raises(KeyError, match="cell"):
        classify_table("table2")


def test_report_formatting():
    report = classify_table("table4")
    text = str(report)
    assert "table4" in text
    assert all(cell.ok for cell in report.cells)


def test_table3_automorphism_status_is_derived(monkeypatch):
    # psi_13 is no involution, so a reference row that calls it an
    # automorphism must fail its property cell; the fingerprint cells of
    # the row are the true ones and still pass
    row = next(r for r in tables.TABLE3 if r[0] == "13")
    monkeypatch.setattr(tables, "TABLE3", [row[:-1] + ("out.aut",)])
    report = tables.verify_table3()
    assert [c.ok for c in report.cells] == [True] * 4 + [False]
    assert report.cells[-1].computed == "not.involutive"
