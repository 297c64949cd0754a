"""Shared test set-up."""

import pytest

from cuntzalg import reps


@pytest.fixture(autouse=True)
def empty_branching_memo():
    """Each test starts from an empty branching memo, so no test reads an
    answer that an earlier test stored (a lowered budget or a spy on
    ``branch`` would see no call otherwise)."""
    reps._MEMO.clear()
