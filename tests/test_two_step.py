"""The two-step kernel's consumers against the pair loops they replaced.

``graphcore._two_step`` gives, for one vertex u, the vertices sharing at least
one and at least two neighbors with u.  Every common-neighbor count in the
package is built on it; each is checked here against a reference in
``oracles`` that tests one vertex pair at a time.
"""

import random

import c4book as cb
from c4book.graphcore import Graph
from c4book._orderly import _c4_extension_masks

from oracles import (
    complete_graph,
    fan_graph,
    pair_loop_c4_extension_masks,
    pair_loop_friendship_condition,
    pair_loop_good_pairs,
    pair_loop_non_two_path_pairs,
    random_c4_free,
    random_graph,
    shuffled_copy,
)
from paper_claims import GOOD_PAIRS_SAMPLE, good_pairs

MASKS_MAX_ORDER = 12  # an independent-set list can reach 2^n masks


def _graphs():
    rng = random.Random(9)
    graphs = [Graph.empty(0)]
    for _ in range(2000):
        n = rng.randint(1, 30)
        graphs.append(random_graph(rng, n, rng.choice([0.03, 0.08, 0.15, 0.3, 0.6, 0.9, 0.95])))
    for _ in range(150):
        graphs.append(random_c4_free(rng, rng.randint(2, 18), rng.choice([0.2, 0.4])))
    graphs += [complete_graph(n) for n in range(4, 13)]
    for k in range(0, 12):
        graphs += [fan_graph(k), shuffled_copy(fan_graph(k), rng)]
    for q in (2, 3, 4, 5, 7, 8, 9):
        graphs += [shuffled_copy(cb.er_graph(q), rng) for _ in range(2)]
    return rng, graphs


def test_two_step_consumers_match_pair_loops():
    rng, graphs = _graphs()
    least_rng = random.Random(21)  # a stream of its own leaves the caps drawn below as they were
    assert len(graphs) >= 2000
    friendship_verdicts, truncated, masks_checked = set(), 0, 0
    for g in graphs:
        assert cb.non_two_path_pairs(g) == pair_loop_non_two_path_pairs(g), g.rows
        if g.n:
            is_fan = pair_loop_friendship_condition(g)
            assert (cb.is_friendship(g) is not None) == is_fan, g.rows
            friendship_verdicts.add(is_fan)
        degs = g.degrees()
        for cap in {0, g.n, rng.choice(degs) if degs else 0}:
            gp = good_pairs(g, cap)
            want = pair_loop_good_pairs(g, cap, GOOD_PAIRS_SAMPLE)
            assert (gp.count, gp.sample) == want, (g.rows, cap)
            truncated += gp.count > len(gp.sample)
        if g.n <= MASKS_MAX_ORDER:
            # the size bound keeps the masks of at least `least` vertices, in order
            top = max(degs, default=0)
            masks = pair_loop_c4_extension_masks(g)
            for least in {0, top, top + 1, least_rng.randint(0, g.n + 1)}:
                want = [m for m in masks if m.bit_count() >= least]
                assert _c4_extension_masks(g, least) == want, (g.rows, least)
            masks_checked += 1
    assert friendship_verdicts == {True, False}
    assert truncated > 0
    assert masks_checked >= 500

