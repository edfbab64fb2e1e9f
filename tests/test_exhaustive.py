"""Every graph on at most 3 nodes, self-loops included, and every
loop-free graph on 4 nodes up to isomorphism, against exact X."""

import itertools

from .exhaustive import isomorphism_classes, labelled_graphs, mismatches


def test_small_graphs_match_exact_x():
    small = [g for n in (1, 2, 3) for g in labelled_graphs(n, loops=True)]
    classes = isomorphism_classes(4)
    assert (len(small), len(classes)) == (530, 218)
    cases, found = mismatches(itertools.chain(small, classes))
    assert cases > 3 * (530 + 218)
    assert found == []
