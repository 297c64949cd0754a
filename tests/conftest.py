"""Shared test set-up."""

import pytest

from cuntzalg import morphisms


@pytest.fixture(autouse=True)
def empty_leaf_memo():
    """Each test starts from an empty memo of resolved map names, so no
    test reads a map whose word cache or branching answers an earlier
    test filled (a lowered ``MAX_IMAGE_TERMS`` would see no refusal, and
    a spy on ``branch`` no call, otherwise)."""
    morphisms._LEAVES.clear()
