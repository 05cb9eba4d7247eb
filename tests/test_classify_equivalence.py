"""The worklist classifier against its three-mask reference.

:meth:`WorklistClassifier.classify` gathers a worklist's degrees once and,
when the largest is below the small/medium separator, returns the whole
worklist as the small list without building a mask. These seeded property
tests pin it, field for field, to :func:`tests.oracles.classify_reference`
for both the push (out-degree) and the pull (in-degree) classifier, on
degree arrays that put vertices at ``separator - 1``, at the separator and
on both sides of the medium/large boundary, and on the empty worklist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.direction import Direction
from repro.core.frontier import WorklistClassifier
from repro.graph.csr import CSRGraph
from tests.oracles import classify_reference

NUM_VERTICES = 320

#: (small/medium, medium/large) separator pairs: the engine's defaults, a
#: narrow pair that mixes all three lists on small degrees, equal ones.
SEPARATORS = [(32, 256), (4, 16), (8, 8)]


def graph_with_degrees(degrees: np.ndarray, direction: Direction) -> CSRGraph:
    """A directed graph whose out-degrees (push) or in-degrees (pull) are
    ``degrees``: vertex ``v`` links to (or is linked from) the next
    ``degrees[v]`` vertices, so no edge repeats or loops."""
    n = degrees.size
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    starts = np.cumsum(degrees) - degrees
    step = np.arange(src.size, dtype=np.int64) - np.repeat(starts, degrees) + 1
    dst = (src + step) % n
    pairs = (src, dst) if direction is Direction.PUSH else (dst, src)
    return CSRGraph.from_edges(n, np.stack(pairs, axis=1), directed=True)


def boundary_degrees(rng, small_medium: int, medium_large: int) -> np.ndarray:
    """Random degrees with every separator boundary present."""
    pinned = [0, 1, small_medium - 1, small_medium, small_medium + 1,
              medium_large - 1, medium_large, medium_large + 1]
    degrees = rng.integers(0, NUM_VERTICES - 20, size=NUM_VERTICES)
    degrees[: len(pinned)] = pinned
    return rng.permutation(degrees)


def worklists(rng, degrees: np.ndarray, small_medium: int):
    """Canonical worklists that take the one-pass path and ones that do
    not, the whole vertex set, the empty worklist and an unsorted one."""
    every = np.arange(degrees.size, dtype=np.int64)
    below = every[degrees < small_medium]
    at_separator = every[degrees == small_medium]
    yield np.zeros(0, dtype=np.int64)
    yield every
    for _ in range(4):
        size = int(rng.integers(1, degrees.size))
        yield np.sort(rng.choice(every, size=size, replace=False))
        size = int(rng.integers(1, below.size + 1))
        # All below the separator, its largest degree separator - 1.
        top = every[degrees == small_medium - 1]
        picked = rng.choice(below, size=size, replace=False)
        yield np.union1d(picked, top[:1])
        # The same plus one vertex at the separator: the general path.
        yield np.union1d(picked, at_separator[:1])
    yield rng.choice(every, size=50)  # unsorted, duplicates


def assert_same_classification(got, want):
    for name in ("small", "medium", "large", "small_degrees"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.sizes == want.sizes
    assert got.max_degree == want.max_degree
    assert type(got.max_degree) is int


@pytest.mark.parametrize("direction", [Direction.PUSH, Direction.PULL],
                         ids=lambda d: d.value)
@pytest.mark.parametrize("separators", SEPARATORS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_classify_equals_the_three_mask_reference(direction, separators, seed):
    small_medium, medium_large = separators
    rng = np.random.default_rng(seed)
    degrees = boundary_degrees(rng, small_medium, medium_large)
    graph = graph_with_degrees(degrees, direction)
    read = graph.out_degrees() if direction is Direction.PUSH else graph.in_degrees()
    assert np.array_equal(read, degrees)
    classifier = WorklistClassifier(
        graph,
        small_medium_separator=small_medium,
        medium_large_separator=medium_large,
        direction=direction,
    )
    one_pass = 0
    for worklist in worklists(rng, degrees, small_medium):
        got = classifier.classify(worklist)
        want = classify_reference(read, worklist, small_medium, medium_large)
        assert_same_classification(got, want)
        one_pass += bool(worklist.size) and got.max_degree < small_medium
    assert one_pass >= 4  # the mask-free path was exercised
