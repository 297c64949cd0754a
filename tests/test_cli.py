"""Command-line front end: dispatch, exit codes, JSON determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuntzalg import classify, cli, morphisms, reps
from cuntzalg.tables import VERIFIERS
from cuntzalg.algebra import CuntzPoly
from cuntzalg.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_normal(capsys):
    code, out, _ = run(capsys, "normal", "s1' s1")
    assert code == 0
    assert out.strip() == "1"


def test_normal_json(capsys):
    code, out, _ = run(capsys, "normal", "s1 s2' + s2 s1'", "--json")
    assert code == 0
    assert json.loads(out) == {"n": 2,
                               "terms": [["1", "2", "1"], ["2", "1", "1"]]}


def test_json_deterministic(capsys):
    _, first, _ = run(capsys, "normal", "1/2 (s1+s2)(s1'+s2')", "--json")
    _, second, _ = run(capsys, "normal", "1/2 (s1+s2)(s1'+s2')", "--json")
    assert first == second


def test_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "eq", "s1' s1", "1")
    assert (code, out.strip()) == (0, "true")
    code, out, _ = run(capsys, "eq", "s1", "s2")
    assert (code, out.strip()) == (1, "false")


def test_usage_error(capsys):
    code, _, err = run(capsys, "normal", "")
    assert code == 2
    assert "position 0" in err


def test_bad_morphism_name(capsys):
    code, _, err = run(capsys, "apply", "s1", "--endo", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_apply(capsys):
    code, out, _ = run(capsys, "apply", "s1s1'", "--endo", "psi:142",
                       "--json")
    assert code == 0
    assert json.loads(out)["terms"] == [["11", "11", "1"], ["22", "22", "1"]]


@pytest.mark.parametrize("endo, err", [
    ("nakanishi.phi", "cannot apply nakanishi (on O_3) after phi (on O_2)"),
    ("psi:13.nakanishi",
     "cannot apply psi_13 (on O_2) after nakanishi (on O_3)")])
def test_composing_maps_of_two_ranks_names_both(capsys, endo, err):
    code, out, got = run(capsys, "apply", "s1", "--endo", endo)
    assert (code, out) == (2, "")
    assert got == f"error: {err}: rank mismatch\n"


@pytest.mark.parametrize("argv, err", [
    (("apply", "s1", "--endo", "nakanishi"),
     "nakanishi acts on O_3, not on an element of O_2: rank mismatch"),
    (("branch", "--rep", "P(1)", "--endo", "phi"),
     "P(1) branches under permutative endomorphisms only, and phi is not "
     "one")])
def test_a_map_taking_refusal_names_the_map(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_branch(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "P(12)", "--endo",
                       "psi:142")
    assert code == 0
    assert out.strip() == "P(11) (+) P(22)"


def test_branch_uhf(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "P[12]", "--endo",
                       "psi:14")
    assert code == 0
    assert out.strip() == "P[12] (+) P[12]"


def test_branch_power_decomposition(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "P(11)")
    assert code == 0
    assert out.strip() == "P(1) (+) P(1;1/2)"


def test_branch_nakanishi(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "P(1)", "--endo",
                       "nakanishi", "--n", "3")
    assert code == 0
    assert out.strip() == "P(12) (+) P(3)"


def test_restrict_cycle(capsys):
    code, out, _ = run(capsys, "restrict", "--rep", "P(12)")
    assert code == 0
    assert out.strip() == "P[12] (+) P[21]"


def test_restrict_chain(capsys):
    code, out, _ = run(capsys, "restrict", "--rep", "(12)^inf",
                       "--eta-min", "-2", "--eta-max", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "(+)_eta P[shift((12)^inf, eta)]"
    assert [s["label"] for s in payload["shifts"]] == \
        ["11(12)^inf", "1(12)^inf", "(12)^inf", "(21)^inf", "(12)^inf"]


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "P((12)^inf;1/2)", "--endo", "psi:12"),
    ("restrict", "--rep", "P(2(1)^inf;7)"),
])
def test_a_phase_on_a_chain_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: a chain takes no phase: {argv[2]}\n"


def test_a_fermion_expression_is_embedded_in_o2_alone(capsys):
    refused = (2, "", "error: fermion expressions live on O_2, not on O_3\n")
    assert run(capsys, "normal", "a1", "--embed", "--n", "3",
               "--json") == refused
    assert run(capsys, "eq", "a1", "a1", "--n", "3") == refused
    # a mixed expression is refused where its right operand begins
    assert run(capsys, "normal", "s1 a1", "--n", "3") == (
        2, "", refused[2].replace("\n", " (at position 3)\n"))
    # without --embed the formal expression is printed, in any rank
    assert run(capsys, "normal", "a1", "--n", "3") == (0, "a1\n", "")


def test_gp(capsys):
    code, out, _ = run(capsys, "branch", "--rep", "GP(+)", "--endo",
                       "psi:132")
    assert code == 0
    assert out.strip() == "GP(+) (+) GP(-).theta"
    code, out, _ = run(capsys, "branch", "--rep", "GP(+)", "--endo", "psi:13")
    assert code == 0
    assert out.strip() == "not derivable"


def test_car(capsys):
    code, out, _ = run(capsys, "car", "--check-modes", "4")
    assert (code, out.strip()) == (0, "pass")
    code, out, _ = run(capsys, "normal", "a1", "--embed")
    assert code == 0
    assert out.strip() == "s1s2'"


def test_mixture(capsys):
    code, out, _ = run(capsys, "mixture", "1/2")
    assert code == 0
    assert "a3" in out
    code, out, _ = run(capsys, "mixture", "-3/2", "--json")
    assert code == 0
    assert json.loads(out)["index"] == "-3/2"
    code, out, _ = run(capsys, "mixture", "3/2", "--check")
    assert (code, out.strip()) == (0, "pass")


def test_vacuum(capsys):
    code, out, _ = run(capsys, "vacuum", "fock", "--max-mode", "4")
    assert (code, out.strip()) == (0, "pass")


def test_verify(capsys):
    code, out, _ = run(capsys, "verify", "table4")
    assert code == 0
    assert "table4" in out
    code, out, _ = run(capsys, "verify", "nakanishi", "--json")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_unknown_table(capsys):
    code, out, err = run(capsys, "verify", "table5")
    assert (code, out) == (2, "")
    assert err.startswith("error: argument which: invalid choice: 'table5'")
    assert err.count("\n") == 1


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--level", "2", "--json")
    assert code == 0
    counts = json.loads(out)["counts"]
    assert counts["classes"] == 12
    assert counts["restrictions"] == 20


@pytest.mark.parametrize("argv", [("normal", "1/0"), ("normal", "b[1/0]"),
                                  ("mixture", "1/0"), ("normal", "1 / 0")])
def test_zero_denominator_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("text, out", [("2 + s1", "2 + s1\n"),
                                       ("2 + a1", "(2)*1 + a1\n")])
def test_scalar_summand_is_a_multiple_of_the_unit(capsys, text, out):
    assert run(capsys, "normal", text) == (0, out, "")


def test_matrix_unit_of_unequal_lengths_is_usage_error(capsys):
    assert run(capsys, "normal", "E[1,12]") == (
        2, "", "error: matrix unit needs |J| = |K| (at position 0)\n")


@pytest.mark.parametrize("text, letter, pos", [
    ("s3", 3, 1), ("s10", 0, 1), ("s1 s23", 3, 4), ("E[13,21]", 3, 2)])
def test_letter_outside_alphabet_is_usage_error_at_its_digits(
        capsys, text, letter, pos):
    assert run(capsys, "normal", text) == (
        2, "", f"error: letter {letter} outside alphabet 1..2 "
               f"(at position {pos})\n")


def test_repeated_cycle_entry_is_usage_error(capsys):
    code, _, err = run(capsys, "branch", "--rep", "P(12)", "--endo",
                       "psi:1122")
    assert code == 2
    assert "repeats" in err


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "P(1" + "2" * 100000 + ")", "--endo", "psi:142"),
    ("branch", "--rep", "2" * 99999 + "(1)^inf", "--endo", "psi:142"),
    ("classify", "--level", "0"),
    ("classify", "--level", "-1"),
    ("vacuum", "fock", "--max-mode", "-1"),
    ("car", "--check-modes", "0"),
    ("vacuum", "fock", "--max-mode", "513"),
    ("car", "--check-modes", "17"),
    ("restrict", "--rep", "2(12)^inf", "--eta-min", "-1001"),
    ("restrict", "--rep", "2(12)^inf", "--eta-max", "1001"),
    ("mixture", "17/2", "--check"),
    ("classify", "--level", "-5"),
])
def test_out_of_range_option_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


BELOW = "classify --level is only echoed and must be at least 1, got {}"


@pytest.mark.parametrize("target", ["all", "table1", "nakanishi",
                                    "theorem14"])
def test_verify_takes_no_level(capsys, monkeypatch, target):
    """verify has no --level: it is refused before any table is computed,
    and without it every target, theorem14 too, is one classify_table."""
    computed = []
    monkeypatch.setattr(cli, "classify_table", computed.append)
    code = main(["verify", target, "--level", "5"])
    assert (code, computed) == (2, [])
    assert "unrecognized arguments: --level 5" in capsys.readouterr().err
    monkeypatch.setattr(cli, "classify_table", tables_by_name(computed))
    assert main(["verify", target]) == 0
    assert computed == (sorted(VERIFIERS) if target == "all" else [target])


def tables_by_name(computed):
    """A stand-in for classify_table that records the names it is given
    and reports each table as verified."""
    def fake(name):
        computed.append(name)
        return cli.TableReport(name)
    return fake


@pytest.mark.parametrize("level", ["1", "5", "15", "100"])
def test_classify_level_is_only_echoed(capsys, level):
    code, out, _ = run(capsys, "classify", "--level", level, "--json")
    assert (code, json.loads(out)) == (0, {
        "level": int(level), "counts": {
            "restrictions": 20, "classes": 12, "klein": 4,
            "irreducible": 4, "reducible": 6}})
    code, out, _ = run(capsys, "classify", "--level", level)
    assert out.splitlines()[0] == (f"level {level} (echoed; restrictions "
                                   f"are compared at every depth)")


@pytest.mark.parametrize("level", ["0", "-5"])
def test_classify_refuses_a_level_below_1_before_any_count(
        capsys, monkeypatch, level):
    computed = []
    monkeypatch.setattr(cli, "theorem14_counts", computed.append)
    code, out, err = run(capsys, "classify", "--level", level)
    assert (code, out, computed) == (2, "", [])
    assert err == f"error: {BELOW.format(level)}\n"


def test_classify_past_the_orbit_bound_is_usage_error(capsys, monkeypatch):
    # the equal pairs of Theorem 14 close at depth 2, 8 entries composed
    monkeypatch.setattr(classify, "MAX_ORBIT_ENTRIES", 7)
    code, out, err = run(capsys, "classify", "--json")
    assert (code, out) == (2, "")
    assert err == ("error: restriction equality: the orbit of w did not "
                   "close within 7 entries composed, 4 a depth\n")


@pytest.mark.parametrize("argv, text", [
    (("branch", "--rep", "P(12;1;2)", "--endo", "psi:12"), "bad phase '1;2'"),
    (("branch", "--rep", "P(1;x)", "--endo", "psi:12"), "bad phase 'x'"),
    (("branch", "--rep", "P(a)", "--endo", "psi:12"), "bad word 'a'"),
    (("branch", "--rep", "P[1a]", "--endo", "psi:12"), "bad word '1a'"),
    (("branch", "--rep", "P(,)", "--endo", "psi:12"), "bad word ','"),
    (("restrict", "--rep", "1a(2)^inf"), "bad word '1a'"),
    (("branch", "--rep", "P(\uff11)", "--endo", "psi:12"),
     "bad word '\uff11'"),
    (("branch", "--rep", "P[1,\u0662]", "--endo", "psi:12"),
     "bad word '1,\u0662'"),
    (("branch", "--rep", "P(1_0,2)", "--n", "3", "--endo", "nakanishi"),
     "bad word '1_0,2'"),
    (("branch", "--rep", "P(1, 2)", "--endo", "psi:12"), "bad word '1, 2'"),
])
def test_malformed_representation_names_its_text(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {text}\n")


@pytest.mark.parametrize("text, message", [
    ("\u0663 s1", "unexpected character '\u0663' (at position 0)"),
    ("a\u0663", "expected digits (at position 1)"),
    ("2/\u0663 s1", "expected digits (at position 2)"),
    ("s\u0663", "expected digits (at position 1)"),
    ("E[1,\u0662]", "expected digits (at position 4)"),
    ("s1 \u0663", "unexpected trailing input (at position 3)"),
    ("\u00b2", "unexpected character '\u00b2' (at position 0)"),
    ("a\u00b2", "expected digits (at position 1)"),
    ("s1 s\uff12'", "expected digits (at position 4)"),
    ("b[\u0663/2]", "bad mixture index '\u0663/2' (at position 2)"),
])
def test_non_ascii_digit_is_refused_at_its_position(capsys, text, message):
    code, out, err = run(capsys, "normal", text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("mixture", "\u0663/2"), "bad mixture index '\u0663/2'"),
    (("mixture", "1_1/2"), "bad mixture index '1_1/2'"),
    (("mixture", "1.5"), "bad mixture index '1.5'"),
    (("mixture", "x"), "bad mixture index 'x'"),
    (("mixture", "-\u0661/2"), "bad mixture index '-\u0661/2'"),
    (("classify", "--level", "\u0663"), "bad --level value '\u0663'"),
    (("classify", "--level", "x"), "bad --level value 'x'"),
    (("classify", "--level", "5/1"), "bad --level value '5/1'"),
    (("vacuum", "fock", "--max-mode", "\u0663"),
     "bad --max-mode value '\u0663'"),
    (("car", "--check-modes", "1_0"), "bad --check-modes value '1_0'"),
    (("branch", "--rep", "P(12)", "--endo", "psi:142", "--n", "\u0662"),
     "bad --n value '\u0662'"),
    (("restrict", "--rep", "2(12)^inf", "--eta-min", "\u0661"),
     "bad --eta-min value '\u0661'"),
    (("restrict", "--rep", "2(12)^inf", "--eta-max", "4 0"),
     "bad --eta-max value '4 0'"),
    (("normal", "b[1.5]"), "bad mixture index '1.5' (at position 2)"),
    (("normal", "b[1_1/2]"), "bad mixture index '1_1/2' (at position 2)"),
    (("apply", "s1", "--endo", "psi:1\u066324"),
     "bad cycle notation: '1\u066324'"),
    (("branch", "--rep", "P(1;\u0661/2)", "--endo", "psi:12"),
     "bad phase '\u0661/2'"),
    (("branch", "--rep", "P(1;0.5)", "--endo", "psi:12"), "bad phase '0.5'"),
    (("branch", "--rep", "P(1;1_0/20)", "--endo", "psi:12"),
     "bad phase '1_0/20'"),
    (("branch", "--rep", "P(1;1/0)", "--endo", "psi:12"), "bad phase '1/0'"),
    (("branch", "--rep", "P(1;1 /2)", "--endo", "psi:12"),
     "bad phase '1 /2'"),
])
def test_numbers_are_signed_ascii_digits_with_an_optional_slash(
        capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, out", [
    (("mixture", "-3/2"), "(-1)*a1a1'a4 + a1'a1a4'\n"),
    (("mixture", "+3/2"), "(-1)*a1a1'a5' + (-1)*a1'a1a5\n"),
    (("normal", "b[ -1/2 ]"), "a1a1'a2 + (-1)*a1'a1a2'\n"),
    (("branch", "--rep", "P(1;-1/2)", "--endo", "psi:12"), "P(12)\n"),
    (("branch", "--rep", "P(12; 1/2)", "--endo", "psi:12"),
     "P(1122)\n"),
    (("mixture", " 3/2"), "(-1)*a1a1'a5' + (-1)*a1'a1a5\n"),
    (("restrict", "--rep", "2(12)^inf", "--eta-min=-1", "--eta-max", "+0"),
     "(+)_eta P[shift((21)^inf, eta)]\n  eta=-1: P[(12)^inf]\n"
     "  eta=0: P[(21)^inf]\n"),
    (("car", "--check-modes", "003"), "pass\n"),
    (("vacuum", "fock", "--max-mode", " 3 "), "pass\n"),
])
def test_signed_numbers_are_read(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_seed_bound_at_level_minus_one(capsys):
    """branch seeds at the level minus one of the map; the seed bound is
    not an option."""
    code, out, _ = run(capsys, "branch", "--rep", "P(12)", "--endo",
                       "psi:142")
    assert (code, out.strip()) == (0, "P(11) (+) P(22)")
    code, out, _ = run(capsys, "branch", "--rep", "P(12)", "--endo",
                       "psi:142", "--json")
    assert json.loads(out) == {"components": [{"label": "P(11)"},
                                              {"label": "P(22)"}]}
    assert main(["branch", "--rep", "P(12)", "--endo", "psi:142",
                 "--seed-bound", "1"]) == 2
    assert "unrecognized arguments: --seed-bound 1" in capsys.readouterr().err


def test_level_one_chain_prefix(capsys):
    """A level-1 map seeds chain labels with word parts of one letter, so
    the seed positions start at -1 and the first ray, which names the
    chain, starts there."""
    code, out, _ = run(capsys, "branch", "--rep", "2(1)^inf", "--endo",
                       "beta2")
    assert (code, out) == (0, "P(12(1)^inf)\n")


def test_branch_step_budget_is_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(reps, "MAX_BRANCH_STEPS", 1)
    code, out, err = run(capsys, "branch", "--rep", "P(1)", "--endo",
                         "psi:1324")
    assert (code, out) == (2, "")
    assert err == ("error: branch of P(1) under psi_1324 exceeded its total "
                   "of 1 predecessor steps over 2 seed labels\n")


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "P(1;1/0)", "--endo", "psi:12"),
    ("branch", "--rep", "P[12]", "--n", "3", "--endo", "psi:12"),
    ("branch", "--rep", "2(12)^inf", "--n", "3", "--endo", "psi:12"),
    ("branch", "--rep", "P(1)", "--endo", "nakanishi"),
])
def test_bad_branch_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_oversized_seed_set_is_refused_at_once(capsys):
    # a cycle word of 100001 letters has 200002 seed labels under a
    # level-2 map
    word = "1" + "2" * 100000
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", "--rep", f"P({word})", "--endo",
                         "psi:1324")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    # the word is named by its first 12 letters and its length
    assert err == ("error: branch of P(122222222222...[100001 letters]) under "
                   "psi_1324 exceeded its total of 200000 predecessor steps "
                   "over 200002 seed labels\n")
    assert len(err) < 160


@pytest.mark.parametrize("text, same_as", [
    ("1 / 2", "1/2"), ("1/ 2", "1/2"), ("E[1, 2]", "E[1,2]"), ("a 3", "a3"),
    ("E[ 12 , 21 ]", "E[12,21]"), ("s 12", "s12"), ("s1 2", "2 s1")])
def test_whitespace_before_digits(capsys, text, same_as):
    code, out, err = run(capsys, "normal", text)
    assert (code, err) == (0, "")
    assert out == run(capsys, "normal", same_as)[1]


@pytest.mark.parametrize("argv", [
    ("normal", "--embed", "a30"),
    ("eq", "a30", "a30"),
    ("normal", "a17", "--embed"),
    ("car", "--check-modes", "40"),
    ("apply", "a17", "--endo", "alpha"),
    ("mixture", "61/2", "--json"),
    ("mixture", "61/2", "--check"),
])
def test_fermion_mode_above_limit_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: fermion mode ") and err.count("\n") == 1
    assert "above the limit of 16" in err


@pytest.mark.parametrize("text, error", [
    ("s1*", "expected an expression (at position 3)"),
    ("s1 * + s2", "unexpected character '+' (at position 5)"),
    ("s1 a21", "fermion mode 21 is above the limit of 16: a_n has 2^(n-1) "
               "terms in O_2 (at position 3)"),
    ("a17 + s1", "fermion mode 17 is above the limit of 16: a_n has "
                 "2^(n-1) terms in O_2 (at position 6)")])
def test_refusals_inside_an_expression_name_their_position(capsys, text,
                                                           error):
    assert run(capsys, "normal", text) == (2, "", f"error: {error}\n")


def test_vacuum_has_a_mode_limit_of_its_own(capsys):
    # the vacuum equations act on labels and build no a_n, so they pass
    # MAX_MODE (16) and stop at MAX_VACUUM_MODE (512)
    assert run(capsys, "vacuum", "fock", "--max-mode", "40") == \
        (0, "pass\n", "")
    code, out, err = run(capsys, "vacuum", "iw", "--max-mode", "513")
    assert (code, out) == (2, "")
    assert err == ("error: max mode 513 is above the limit of 512 for the "
                   "vacuum equations\n")


def test_huge_mixture_check_is_refused_at_once(capsys):
    # the top mode is refused before the indices +-1/2 .. +-K are listed
    start = time.perf_counter()
    code, out, err = run(capsys, "mixture", "2000001/2", "--check")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: fermion mode 2000003 is above the limit of 16: "
                   "a_n has 2^(n-1) terms in O_2\n")


def test_formal_fermion_words_need_no_embedding(capsys):
    # printing a30 or b_{61/2} as a formal word builds no a_n in O_2
    assert run(capsys, "normal", "a30") == (0, "a30\n", "")
    assert run(capsys, "normal", "a21") == (0, "a21\n", "")
    assert run(capsys, "mixture", "61/2") == (0, "a1a1'a63' + a1'a1a63\n", "")


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "P(1)", "--n", "1"),
    ("restrict", "--rep", "P(1)", "--n", "1"),
    ("normal", "s1", "--n", "0"),
    ("eq", "1", "1", "--n", "-1"),
])
def test_rank_below_two_is_usage_error(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: need at least two "
                                         "isometries\n")


@pytest.mark.parametrize("cycles", ["(12", "1a", "12)", "()", "(12)()"])
def test_bad_cycle_notation_names_the_input(capsys, cycles):
    code, out, err = run(capsys, "apply", "s1", "--endo", f"psi:{cycles}")
    assert (code, out) == (2, "")
    assert err == f"error: bad cycle notation: {cycles!r}\n"


@pytest.mark.parametrize("argv", [
    ("branch", "--rep", "P()", "--endo", "psi:12"),
    ("branch", "--rep", "P[]", "--endo", "psi:12"),
    ("branch", "--rep", "P(0)", "--endo", "psi:12"),
    ("restrict", "--rep", "P()"),
])
def test_empty_cycle_word_is_refused_as_empty(capsys, argv):
    assert run(capsys, *argv) == (2, "", "error: cycle word must be "
                                         "nonempty\n")


def test_empty_shift_range_is_usage_error(capsys):
    code, out, err = run(capsys, "restrict", "--rep", "2(12)^inf",
                         "--eta-min", "3", "--eta-max", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: empty shift range") and err.count("\n") == 1


@pytest.mark.parametrize("bounds", [("--eta-max", "100000000"),
                                    ("--eta-min", "-1001"),
                                    ("--eta-min", "1001", "--eta-max", "1002")])
def test_shift_range_beyond_the_limit_is_usage_error(capsys, bounds):
    code, out, err = run(capsys, "restrict", "--rep", "(12)^inf", *bounds)
    assert (code, out) == (2, "")
    assert err.startswith("error: shift range") and err.count("\n") == 1
    assert "limit |eta| <= 1000" in err


def test_shift_range_at_the_limit(capsys):
    code, out, _ = run(capsys, "restrict", "--rep", "(12)^inf",
                       "--eta-min", "-1000", "--eta-max", "-1000")
    assert code == 0
    assert out.splitlines()[1] == f"  eta=-1000: P[{'1' * 1000}(12)^inf]"


def test_nesting_beyond_the_limit_is_usage_error(capsys):
    deep = "(" * 260 + "s1" + ")" * 260
    code, out, err = run(capsys, "normal", deep)
    assert (code, out) == (2, "")
    assert err == ("error: parentheses nested deeper than 100 "
                   "(at position 100)\n")


def test_nesting_at_the_limit(capsys):
    assert run(capsys, "normal", "(" * 100 + "s1" + ")" * 100) == \
        (0, "s1\n", "")


def test_apply_to_a_long_word(capsys):
    # psi_13(s_1) = s_12 s_2' + s_21 s_1'; the image of s_1^1200 is built
    # one letter at a time, one product per letter
    code, out, err = run(capsys, "apply", "s" + "1" * 1200, "--endo",
                         "psi:13")
    assert (code, err) == (0, "")
    assert out == ("s" + "12" * 600 + "1s1' + s" + "21" * 600 + "2s2'\n")


def test_image_above_the_limit_is_refused_at_once(capsys):
    # phi doubles the terms of the image with every letter; the image of
    # s_1^30 would have 2^30, and the 16th letter already passes the limit
    start = time.perf_counter()
    code, out, err = run(capsys, "apply", "s" + "1" * 30, "--endo", "phi")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (2, "")
    assert err == (f"error: the image of s{'1' * 30} under phi is above the "
                   "limit of 32768 terms (reached at letter 16)\n")


@pytest.mark.parametrize("argv, shown", [
    (("apply", "a12", "--endo", "phi"), "a 2048-term polynomial"),
])
def test_image_product_above_the_limit_is_refused_at_once(capsys, argv, shown):
    # the term pairs of every product m(s_J) m(s_K)^* are added up before
    # the first product is made: a12 under phi would ask for 2048 products
    # of up to 4096 x 4096 terms
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == (f"error: applying phi to {shown} needs more than "
                   "262144 term pairs\n")


def test_gp_of_a_long_signed_composite_makes_no_product(capsys):
    # psi_1324^7 is signed permutative at level 8, so GP branching takes
    # its Walsh twist on words instead of composing phi o m o phi by
    # products
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", "--rep", "GP(+)", "--endo",
                         ".".join(["psi:1324"] * 7))
    assert time.perf_counter() - start < 2.0
    assert (code, out, err) == (0, "not derivable\n", "")


@pytest.mark.parametrize("factors", [5, 6])
def test_gp_of_a_phi_composite_makes_no_product(capsys, monkeypatch,
                                                factors):
    # psi_1324^k o phi has entries +-1/sqrt(2) in its matrix u, and a map
    # GP can answer has a dyadic rational u, so branch reads "not
    # derivable" off the images; no phi o m o phi is composed, so k = 6
    # is not refused by the term-pair limit of that product
    products = []
    inside = []
    mul, gp = CuntzPoly.__mul__, reps.gp_branch

    def counted(self, other):
        products.extend(inside)
        return mul(self, other)

    def traced(m, sign):
        inside.append(m)
        try:
            return gp(m, sign)
        finally:
            inside.pop()

    monkeypatch.setattr(CuntzPoly, "__mul__", counted)
    monkeypatch.setattr(reps, "gp_branch", traced)
    name = ".".join(["psi:1324"] * factors + ["phi"])
    assert run(capsys, "branch", "--rep", "GP(+)", "--endo", name) == \
        (0, "not derivable\n", "")
    assert products == []


def test_gp_twist_above_the_level_limit_is_refused_at_once(capsys):
    name = ".".join(["psi:1324"] * 9)
    start = time.perf_counter()
    code, out, err = run(capsys, "branch", "--rep", "GP(+)", "--endo", name)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (f"error: the GP twist of {name} needs the Walsh "
                   "transform at level 10, above the limit of 9\n")


def test_composite_above_the_word_map_limit_is_refused(capsys, monkeypatch):
    # each psi_1324 factor raises the level by one, and the composite is
    # refused before its word map is built; at the real limit (2^18
    # words) the 18th factor is refused, after about 6 s and 480 MB
    monkeypatch.setattr(morphisms, "MAX_IMAGE_PAIRS", 2 ** 6)
    code, out, err = run(capsys, "branch", "--rep", "GP(+)", "--endo",
                         ".".join(["psi:1324"] * 9))
    assert (code, out) == (2, "")
    assert err == ("error: the composite " + ".".join(["psi_1324"] * 6)
                   + " has level 7, a word map of 2^7 words above the limit "
                   "of 64\n")
    # five factors: 2^6 words, at the limit
    code, out, err = run(capsys, "apply", "s1", "--endo",
                         ".".join(["psi:1324"] * 5))
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("endo, shown", [("alpha", "P(2)"),
                                         ("psi:13.alpha", "P(1)")])
def test_branch_under_a_named_signed_map(capsys, endo, shown):
    # alpha is a PermEndo of level 1, and psi_13 o alpha = psi_24 one of
    # level 2
    code, out, err = run(capsys, "branch", "--rep", "P(1)", "--endo", endo)
    assert (code, out, err) == (0, f"{shown}\n", "")


@pytest.mark.parametrize("rep", ["P(1)", "GP(+)", "GP[-]"])
def test_branch_refuses_a_rank_mismatch_for_every_name(capsys, rep):
    code, out, err = run(capsys, "branch", "--rep", rep, "--endo", "psi:14",
                         "--n", "3")
    assert (code, out) == (2, "")
    assert err == (f"error: {rep} is read on O_3 and psi_14 acts on O_2: "
                   "rank mismatch\n")
    code, out, err = run(capsys, "branch", "--rep", rep, "--endo",
                         "nakanishi")
    assert (code, out) == (2, "")
    assert err == (f"error: {rep} is read on O_2 and nakanishi acts on O_3: "
                   "rank mismatch\n")


@pytest.mark.parametrize("rep, shown", [("fock", "Fock"), ("iw*", "IW*")])
def test_branch_refuses_a_fermion_name_outside_o2(capsys, rep, shown):
    code, out, err = run(capsys, "branch", "--rep", rep, "--endo",
                         "nakanishi", "--n", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {shown} lives on O_2, not on O_3\n"


def test_gp_names_a_map_that_does_not_act_on_o2(capsys):
    code, out, err = run(capsys, "branch", "--rep", "GP(+)", "--endo",
                         "nakanishi", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: GP(+/-) live on O_2, but nakanishi acts on O_3\n"


@pytest.mark.parametrize("index", ["0", "1/3", "5/4"])
def test_mixture_check_refuses_a_bad_index(capsys, index):
    # the index is checked before the range +-1/2 .. +-|K| is built, so
    # no index gives a check over an empty or a different set
    code, out, err = run(capsys, "mixture", index, "--check", "--json")
    assert (code, out) == (2, "")
    assert err == f"error: index must be a half-integer, got {index}\n"


def test_car_refuses_an_expression_with_check_modes(capsys):
    # the check reads no expression, so car takes none: normal --embed
    # embeds one
    for argv in (["car", "a1 a1", "--check-modes", "2"],
                 ["car", "--check-modes", "2", "a1 a1", "--json"]):
        assert run(capsys, *argv) == (
            2, "", "error: unrecognized arguments: a1 a1\n")


@pytest.mark.parametrize("shifts", [("--eta-min", "-1"), ("--eta-max", "1"),
                                    ("--eta-min", "5", "--eta-max", "1")])
def test_restrict_cycle_refuses_the_shift_options(capsys, shifts):
    code, out, err = run(capsys, "restrict", "--rep", "P(12)", *shifts)
    assert (code, out) == (2, "")
    assert err == ("error: --eta-min and --eta-max shift a chain; "
                   "a cycle P(J) has no shifts\n")


def test_restrict_chain_shifts_default_to_four_each_way(capsys):
    code, out, _ = run(capsys, "restrict", "--rep", "(12)^inf")
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[1:]] == \
        [f"  eta={e}" for e in range(-4, 5)]
    code, out, err = run(capsys, "restrict", "--rep", "(12)^inf",
                         "--eta-min", "5")
    assert (code, out) == (2, "")
    assert err == "error: empty shift range: --eta-min 5 is above " \
                  "--eta-max 4\n"


@pytest.mark.parametrize("argv, text", [
    (("apply", "s1", "--endo", "alpha."), "alpha."),
    (("apply", "s1", "--endo", "."), "."),
    (("branch", "--rep", "GP(+)", "--endo", "alpha..phi"), "alpha..phi"),
    (("branch", "--rep", "P(1)", "--endo", " . alpha"), " . alpha"),
])
def test_empty_factor_names_the_whole_morphism_name(capsys, argv, text):
    assert run(capsys, *argv) == (
        2, "", f"error: empty factor in morphism name {text!r}\n")


CAR_WORKLOAD = [["car", "--check-modes", "10", "--json"],
                ["mixture", "7/2", "--check", "--json"]] + \
               [["vacuum", rep, "--max-mode", "9", "--json"]
                for rep in ("fock", "fock*", "iw", "iw*")]


def test_the_car_workload_loads_no_argument_parser():
    """A new interpreter runs the car workload's command lines through
    main: none of them imports argparse, or gettext and locale, which
    argparse pulls in to print its messages."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    code = ("import contextlib, io, sys\n"
            "from cuntzalg.cli import main\n"
            f"for argv in {CAR_WORKLOAD!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert [name for name in ("argparse", "gettext", "locale")
            if name in out.split()] == []


@pytest.mark.parametrize("argv, out", [
    (("normal", "-s1"), "-s1\n"),
    (("eq", "-s1", "-(s1)"), "true\n"),
    (("mixture", "-3/2", "--json"),
     '{"car":"(-1)*a1a1\'a4 + a1\'a1a4\'","index":"-3/2","terms":'),
    (("mixture", "--check", "-1/2"), "pass\n"),
])
def test_a_positional_may_start_with_a_minus(capsys, argv, out):
    """The expression grammar starts with an optional '-': a token that
    starts with one '-' is a positional, with no '--' before it."""
    code, text, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert text.startswith(out) and text.count("\n") == 1


def test_an_option_value_may_follow_an_equals_sign(capsys):
    assert run(capsys, "vacuum", "fock", "--max-mode=3") == \
        (0, "pass\n", "")
    assert run(capsys, "apply", "s1", "--endo=psi:12", "--n=2") == \
        run(capsys, "apply", "s1", "--endo", "psi:12")
    # the last occurrence of an option wins
    assert run(capsys, "vacuum", "fock", "--max-mode", "x",
               "--max-mode", "3") == (0, "pass\n", "")


@pytest.mark.parametrize("argv, message", [
    ((), "the following arguments are required: command"),
    (("nope",), "argument command: invalid choice: 'nope' (choose from "
                "'normal', 'eq', 'apply', 'branch', 'restrict', 'car', "
                "'mixture', 'vacuum', 'verify', 'classify')"),
    (("apply",), "the following arguments are required: expr, --endo"),
    (("eq", "s1"), "the following arguments are required: right"),
    (("vacuum", "x", "--max-mode", "3"),
     "argument rep: invalid choice: 'x' (choose from 'fock', 'fock*', "
     "'iw', 'iw*')"),
    (("car", "--check-modes", "3", "--check"),
     "unrecognized arguments: --check"),
    (("car", "--check-modes", "3", "--check-mode"),
     "unrecognized arguments: --check-mode"),
    (("vacuum", "fock", "--max-mode"),
     "argument --max-mode: expected one argument"),
    (("vacuum", "fock", "--max-mode", "--json"),
     "argument --max-mode: expected one argument"),
    (("vacuum", "fock", "--max-mode", "--", "3"),
     "argument --max-mode: expected one argument"),
    (("vacuum", "fock", "--json=1"), "unrecognized arguments: --json=1"),
    (("normal", "s1", "--bogus", "s2", "--", "--json"),
     "unrecognized arguments: --bogus s2 --json"),
    (("car", "--check-modes", "2", "--n", "3"),
     "unrecognized arguments: --n 3"),
    (("vacuum", "fock", "--max-mode", "3x"), "bad --max-mode value '3x'"),
    (("car", "-a1", "--check-modes=2", "--"), "unrecognized arguments: -a1"),
    # after "--" a help token is a positional like any other
    (("normal", "--", "-h"), "unexpected character 'h' (at position 1)"),
    # a required option is missed before an unrecognized one is named
    (("car", "--check", "3"),
     "the following arguments are required: --check-modes"),
    # GP answers come from branch --rep GP(...), embeddings from
    # normal --embed
    (("gp", "--endo", "psi:12"), "argument command: invalid choice: 'gp' "
     "(choose from 'normal', 'eq', 'apply', 'branch', 'restrict', 'car', "
     "'mixture', 'vacuum', 'verify', 'classify')"),
    (("car", "a1"), "the following arguments are required: --check-modes"),
])
def test_a_usage_error_is_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, first", [
    (("--help",), "usage: cuntzalg COMMAND ..."),
    (("-h", "vacuum"), "usage: cuntzalg COMMAND ..."),
    (("nope", "--help"), "usage: cuntzalg COMMAND ..."),
    (("vacuum", "x", "-h"), "usage: cuntzalg vacuum rep [OPTIONS]"),
    (("apply", "--endo", "--help"),
     "usage: cuntzalg apply expr --endo [OPTIONS]"),
    (("car", "--help", "--check-modes", "0"),
     "usage: cuntzalg car --check-modes [OPTIONS]"),
])
def test_help_anywhere_before_the_end_of_options(capsys, argv, first):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first
    if argv[0] == "vacuum":
        assert "  --max-mode=INT" in out.splitlines()


@pytest.mark.parametrize("first, then, check", [
    (("vacuum", "fock", "--max-mode", "3", "--json"),
     ("vacuum", "fock", "--json"),
     lambda out: json.loads(out)["max_mode"] == 7),
    (("classify", "--level", "3", "--json"), ("classify", "--json"),
     lambda out: json.loads(out)["level"] == 5),
    (("classify", "--level", "1", "--json"), ("classify", "--level", "1"),
     lambda out: out.startswith("level 1 (echoed; ")),
    (("mixture", "-3/2"), ("mixture", "3/2"),
     lambda out: out == "(-1)*a1a1'a5' + (-1)*a1'a1a5\n"),
    (("--help",), ("eq", "s1' s1", "1"), lambda out: out == "true\n"),
    (("verify", "table9"), ("verify", "table1"),
     lambda out: out == "table1: all cells verified\n"),
])
def test_no_call_carries_state_into_the_next(capsys, first, then, check):
    main(list(first))
    capsys.readouterr()
    code, out, err = run(capsys, *then)
    assert (code, err) == (0, "")
    assert check(out), out
    assert run(capsys, *then) == (code, out, err)


def test_every_readme_example_reads_without_a_usage_error():
    """Each command line of README's "Command line" block is read by the
    table of the commands; none is run."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("cuntzalg ")]
    assert len(lines) > 10
    for line in lines:
        cli._read(shlex.split(line, comments=True)[1:])


def test_the_docstring_lists_every_command():
    listed = re.findall(r"^    (\w+)  ", cli.__doc__, re.MULTILINE)
    assert listed == list(cli._COMMANDS)
