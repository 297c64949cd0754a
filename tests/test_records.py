"""The library's value types, built without ``dataclasses``: their value
semantics, their ``repr``, and the modules that importing the package
loads."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cuntzalg import classify, reps, tables
from cuntzalg.words import CycleClass, EvWord, make_ev_word

ROOT = Path(__file__).resolve().parents[1]

# modules that dataclasses pulls in; the command line needs none of them
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", ["cuntzalg.cli", "cuntzalg"])
def test_import_loads_no_heavy_module(module):
    """A new interpreter with the repository's src/ on the path imports
    the module and lists what the import added to sys.modules."""
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    code = ("import sys; before = set(sys.modules); import " + module
            + "; print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = out.split()
    assert module in loaded
    assert [name for name in HEAVY if name in loaded] == []


def frozen_pairs():
    return [(CycleClass((1, 2), Fraction(1, 2)),
             CycleClass((1, 2), Fraction(1, 2))),
            (make_ev_word(2, (2,), (1, 2)), EvWord(2, (), (2, 1)))]


@pytest.mark.parametrize("a, b", frozen_pairs())
def test_frozen_values_compare_and_hash_by_field(a, b):
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # the hash of the tuple of fields, as a frozen dataclass had
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], b[0])


def test_defaults_are_not_shared():
    one, two = reps.Component("chain"), reps.Component("chain")
    assert one.classes == [] and one.cycle_labels == []
    assert one.classes is not two.classes
    assert one.cycle_labels is not two.cycle_labels
    assert tables.TableReport("a").cells is not tables.TableReport("b").cells


def test_positional_constructors():
    """The orders perfbench/selftest.py builds these with.  The classes
    argument is not stored: they follow from the word and the sign."""
    cls = CycleClass((1, 2), Fraction(0))
    comp = reps.Component("cycle", [cls], (1, 2), -1, [((), 1)])
    assert (comp.kind, comp.classes, comp.cycle_word, comp.sign,
            comp.cycle_labels, comp.chain_word) == \
        ("cycle", [CycleClass((1, 2), Fraction(1, 2))], (1, 2), -1,
         [((), 1)], None)
    assert reps.BranchResult([comp]).components == [comp]
    assert reps.UhfCycle((1,)).word == (1,)


def test_records_compare_by_field_and_are_unhashable():
    def result():
        return reps.BranchResult([reps.Component("cycle", [], (1,), 1,
                                                 [((), 1)])])
    assert result() == result()
    assert result() != reps.BranchResult([])
    assert reps.UhfCycle((1,)) != reps.UhfChainFamily((1,))
    assert classify.RestrictionVerdict(True, 5) == \
        classify.RestrictionVerdict(True, 5, None)
    with pytest.raises(TypeError):
        hash(result())


# the repr of each value as the dataclasses printed it
REPRS = [
    (lambda: CycleClass((1, 2), Fraction(1, 2)),
     "CycleClass(representative=(1, 2), phase=Fraction(1, 2))"),
    (lambda: make_ev_word(2, (2,), (1, 2)),
     "EvWord(n=2, prefix=(), period=(2, 1))"),
    (lambda: reps.Component("cycle", cycle_word=(1, 2), sign=-1,
                            cycle_labels=[((), 1), ((2,), 2)]),
     "Component(kind='cycle', cycle_word=(1, 2), sign=-1, "
     "cycle_labels=[((), 1), ((2,), 2)], chain_word=None)"),
    (lambda: reps.Component("chain",
                            chain_word=make_ev_word(2, (2,), (1, 2))),
     "Component(kind='chain', cycle_word=(), sign=1, "
     "cycle_labels=[], chain_word=EvWord(n=2, prefix=(), period=(2, 1)))"),
    (lambda: reps.BranchResult([reps.Component("chain")]),
     "BranchResult(components=[Component(kind='chain', "
     "cycle_word=(), sign=1, cycle_labels=[], chain_word=None)])"),
    (lambda: reps.UhfCycle((1, 2)), "UhfCycle(word=(1, 2))"),
    (lambda: reps.UhfChainFamily(make_ev_word(2, (), (1,))),
     "UhfChainFamily(ev=EvWord(n=2, prefix=(), period=(1,)))"),
    (lambda: tables.CellReport("r", "c", "e", "x"),
     "CellReport(row='r', column='c', expected='e', computed='x')"),
    (lambda: tables.TableReport("t", [tables.CellReport("r", "c", "e", "e")]),
     "TableReport(name='t', cells=[CellReport(row='r', column='c', "
     "expected='e', computed='e')])"),
    (lambda: classify.RestrictionVerdict(False, 3, ((1,), (2, 1))),
     "RestrictionVerdict(equal=False, level=3, witness=((1,), (2, 1)))"),
    (lambda: classify.RestrictionVerdict(True, 5),
     "RestrictionVerdict(equal=True, level=5, witness=None)"),
]


@pytest.mark.parametrize("make, text", REPRS,
                         ids=[text.split("(")[0] for _, text in REPRS])
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text
