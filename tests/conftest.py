"""Fixtures shared by several test modules."""

from itertools import permutations, product

import pytest

from cusplab import errors
from cusplab.surface import build_cover, once_punctured_torus


@pytest.fixture(scope="session")
def degree_three_covers():
    """The once-punctured connected degree-3 covers of the standard torus,
    one per triple of sheet permutations, in lexicographic order."""
    base = once_punctured_torus()
    out = []
    for perms in product(permutations(range(3)), repeat=3):
        try:
            cover = build_cover(base, dict(enumerate(perms)))
        except errors.Intransitive:
            continue
        if len(cover.total.punctures) == 1:
            out.append(cover)
    return out
