"""Shared test set-up."""

import pytest

from cuntzalg import morphisms, reps


@pytest.fixture(autouse=True)
def empty_branching_memo():
    """Each test starts from an empty branching memo, so no test reads an
    answer that an earlier test stored (a lowered budget or a spy on
    ``branch`` would see no call otherwise)."""
    reps._MEMO.clear()


@pytest.fixture(autouse=True)
def empty_leaf_memo():
    """Each test starts from an empty memo of resolved map names, so no
    test reads a map whose word cache an earlier test filled (a lowered
    ``MAX_IMAGE_TERMS`` would see no refusal otherwise)."""
    morphisms._LEAVES.clear()
