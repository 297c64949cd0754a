"""Reference-table verification: every stored cell is recomputed."""

from fractions import Fraction

import pytest

from cuntzalg import tables
from cuntzalg.classify import UHF_TESTS, fingerprint
from cuntzalg.exprs import as_cuntz, parse_expr
from cuntzalg.fermions import CarExpr, apply_endo, mixture, psi_map
from cuntzalg.morphisms import lookup_morphism
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
    assert report.cells[-1].computed == "irr.end"


def test_table3_the_claimed_property_chooses_no_question(monkeypatch):
    # the identity is an involution: a row calling it an irreducible
    # endomorphism fails, though its relative commutant is trivial
    row = next(r for r in tables.TABLE3 if r[0] == "id")
    monkeypatch.setattr(tables, "TABLE3", [row[:-1] + ("irr.end",)])
    report = tables.verify_table3()
    assert [c.ok for c in report.cells] == [True] * 4 + [False]
    assert report.cells[-1].computed == "inn.aut"


def test_table3_inner_and_outer_are_derived(monkeypatch):
    # the Klein maps id and (14)(23) are Ad 1 and Ad u, the other two move
    # P[1]; each row is checked against the other qualifier too
    rows = [(name,) + tuple(fingerprint(lookup_morphism("psi:" + name),
                                        UHF_TESTS).values())
            for name in ("id", "(14)(23)", "(12)(34)", "(13)(24)")]
    kinds = ["inn.aut", "inn.aut", "out.aut", "out.aut"]
    monkeypatch.setattr(tables, "TABLE3", [
        row + (kind,) for row, kind in zip(rows, kinds)])
    assert tables.verify_table3().ok
    swap = {"inn.aut": "out.aut", "out.aut": "inn.aut"}
    monkeypatch.setattr(tables, "TABLE3", [
        row + (swap[kind],) for row, kind in zip(rows, kinds)])
    assert [c.ok for c in tables.verify_table3().cells
            if c.column == "property"] == [False] * 4


@pytest.mark.parametrize("table, which", [
    ("TABLE1", "table1"), ("TABLE2", "table2"), ("TABLE3", "table3"),
    ("TABLE4", "table4"), ("TABLE8", "table8")])
def test_every_field_of_a_stored_row_is_read(monkeypatch, table, which):
    # each field of the first row in turn takes another row's value of the
    # same column, a plausible cell that is not the row's own
    rows = getattr(tables, table)
    first = rows[0]
    for field, value in enumerate(first):
        wrong = next(row[field] for row in rows if row[field] != value)
        changed = first[:field] + (wrong,) + first[field + 1:]
        monkeypatch.setattr(tables, table, [changed] + rows[1:])
        assert not classify_table(which).ok, (table, field, wrong)


@pytest.mark.parametrize("table, which", [
    ("NAKANISHI_O", "nakanishi"), ("NAKANISHI_UHF", "nakanishi"),
    ("THEOREM14", "theorem14")])
def test_a_stored_entry_is_read(monkeypatch, table, which):
    cells = getattr(tables, table)
    key, value = next(iter(cells.items()))
    monkeypatch.setitem(cells, key,
                        next(v for v in cells.values() if v != value))
    assert not classify_table(which).ok


def test_a_table6_formula_is_read(monkeypatch):
    name, formula = next(iter(tables.TABLE6.items()))
    monkeypatch.setitem(tables.TABLE6, name, lambda n: -formula(n))
    assert not classify_table("table6").ok


def test_a_table7_formula_is_read(monkeypatch):
    stored = tables._t7

    def negated():
        rows = stored()
        name = next(iter(rows))
        rows[name][0] = -rows[name][0]
        return rows
    monkeypatch.setattr(tables, "_t7", negated)
    assert not classify_table("table7").ok


def test_stored_images_are_printed_normal_forms():
    texts = ([text for _, *images, _ in tables.TABLE1 for text in images]
             + [image for image, _ in tables.TABLE4])
    assert len(texts) == 54
    for text in texts:
        assert str(as_cuntz(parse_expr(text))) == text


def test_psi142_sends_a_n_to_the_mixture_beyond_table6_modes():
    # psi_142(a_{2j-1}) = b_{-(j-1/2)} and psi_142(a_{2j}) = b_{j-1/2}
    endo = lookup_morphism("psi:142")
    assert tables.TABLE6_MODES < 12
    for j in range(1, 7):
        k = Fraction(2 * j - 1, 2)
        assert (apply_endo(endo, CarExpr.generator(2 * j - 1))
                == psi_map(mixture(-k))), j
        assert (apply_endo(endo, CarExpr.generator(2 * j))
                == psi_map(mixture(k))), j
