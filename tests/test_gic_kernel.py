"""Property tests for the all-terms conditional-entropy walk.

The walk hangs every term under one parent (a spanning tree) and adds
the ancestors the other parents bring; the DAGs drawn here have
multi-parent terms whose extra parents carry ancestors the tree parent
lacks, so both halves of the update run. On DAGs this small every term
is wide (a packed descendant row), so the tests also force the wide rule
to each extreme, and to a mix, to run the narrow terms' lists.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagic import build_ontology, conditional_entropy_given, dag, gic, ontology_entropy
from dagic import metrics
from dagic.metrics import conditional_entropies_all

from test_metrics import brute


@st.composite
def dags(draw, max_nodes=14, min_nodes=2):
    """Single-rooted DAG as (n, parent lists); node 0 is the root and
    every other node takes 1-3 parents among lower-numbered nodes."""
    n = draw(st.integers(min_nodes, max_nodes))
    parents = [draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=3))
               for i in range(1, n)]
    return n, parents


def build(spec):
    n, parents = spec
    ids = [f"n{i:02d}" for i in range(n)]
    edges = [(ids[i], ids[p]) for i, ps in enumerate(parents, start=1) for p in ps]
    return build_ontology(ids, edges)


# n04 hangs under n03 (three ancestors) while n02 adds itself; n05 then
# takes n04 as tree parent and inherits that extra ancestor
EXTRA_ANCESTOR = (6, [{0}, {0}, {1}, {2, 3}, {4}])
# each kind of walk step: n05, a leaf under n03 alone, whose only new
# ancestor is itself, takes the scalar step; n04, a leaf under n01 that
# n02 also brings, reduces two rows; n02 and n03, inner terms whose only
# new ancestor is themselves, each subtract one row with no reduce
STEP_KINDS = (6, [{0}, {0}, {1}, {1, 2}, {3}])

common = settings(max_examples=150, deadline=None)

# dag._is_wide forced to each extreme, and to a mix that puts wide and
# narrow new ancestors side by side in one term's list
WIDE_RULES = {
    "every term wide": lambda sizes, n: np.ones(len(sizes), dtype=bool),
    "every term narrow": lambda sizes, n: np.zeros(len(sizes), dtype=bool),
    "odd sizes wide": lambda sizes, n: sizes % 2 == 1,
}


def under_each_wide_rule(run):
    """run() under the real wide rule and under each of WIDE_RULES."""
    results = [run()]
    for rule in WIDE_RULES.values():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dag, "_is_wide", rule)
            results.append(run())
    return results


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_walk_matches_brute_force(spec):
    o = build(spec)
    results = under_each_wide_rule(lambda: conditional_entropies_all(o))
    for zi, z in enumerate(o.ids):
        assert abs(results[0][zi] - brute(o, z)) <= 1e-9
    for cond in results[1:]:
        assert np.array_equal(cond, results[0])


@common
@given(dags())
@example(EXTRA_ANCESTOR)
def test_walk_identical_across_workers(spec):
    o = build(spec)
    single = conditional_entropies_all(o, workers=1)
    for workers in (2, 3):
        assert np.array_equal(single, conditional_entropies_all(o, workers=workers))


@common
@given(dags())
@example(EXTRA_ANCESTOR)
def test_gic_at_most_one(spec):
    # conditional entropies are non-negative, so (H - H(.|z)) / H <= 1
    table = gic(build(spec))
    assert np.all(table.raw <= 1.0) and np.all(table.normalized <= 1.0)
    assert table.raw[table.ontology.root_index] == 0.0


# A chain r -> n01 over a star of leaves: assigning n01 only takes n01,
# whose second draw is {root} alone, out of the first draw, so the mean
# second-draw entropy rises more than log2 of the first draw falls.
CHAIN_OVER_STAR = (6, [{0}, {1}, {1}, {1}, {1}])
# n02 sits under n01 and the root, yet is less informative than n01.
NON_MONOTONE = (7, [{0}, {0, 1}, {2}, {0, 1, 2}, {0, 1, 2}, {0, 2}])


def test_gic_not_bounded_below_or_monotone_on_every_dag():
    """gIC is a relative entropy drop, and the drop can be negative or
    shrink along an edge; the brute-force sets agree with the kernel."""
    o = build(CHAIN_OVER_STAR)
    h = ontology_entropy(o).total_bits
    assert brute(o, "n01") > h
    assert gic(o).raw_of("n01") == pytest.approx((h - brute(o, "n01")) / h, abs=1e-12)
    assert gic(o).raw_of("n01") < 0.0

    o = build(NON_MONOTONE)
    assert brute(o, "n02") > brute(o, "n01")
    assert gic(o).raw_of("n02") < gic(o).raw_of("n01")


@common
@given(dags())
@example(EXTRA_ANCESTOR)
def test_root_conditional_is_total_entropy(spec):
    o = build(spec)
    cond = conditional_entropies_all(o)
    assert cond[o.root_index] == ontology_entropy(o).total_bits


def two_chains():
    """r with two disjoint 260-term chains below it, a and b; z sits
    under both chains' ends, z1 under z, and a leaf under each chain's
    top, which the chain's other terms are not over."""
    chains = [f"{c}{i:03d}" for c in "ab" for i in range(260)]
    ids = ["r", *chains, "z", "z1", "sa", "sb"]
    edges = [("a000", "r"), ("b000", "r"), ("z", "a259"), ("z", "b259"), ("z1", "z"),
             ("sa", "a000"), ("sb", "b000")]
    edges += [(f"{c}{i:03d}", f"{c}{i - 1:03d}") for c in "ab" for i in range(1, 260)]
    return build_ontology(ids, edges)


def test_more_new_ancestors_than_a_byte_lane_holds():
    """z sits under the ends of two disjoint 260-term chains, so whichever
    end is its tree parent, the other chain and z itself are new: more
    rows than one uint8 lane can sum without wrapping, and, with every
    term narrow, more narrow ancestors than one lane counts."""
    o = two_chains()
    for p in o.parents("z"):
        assert len(o.ancestors("z") - o.ancestors(p)) > 255
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    for workers in (1, 2):
        for got in under_each_wide_rule(lambda: conditional_entropies_all(o, workers=workers)):
            assert np.array_equal(got, expected)


def assert_small_blocks_match(o, lanes):
    """Blocks of 1-3 terms put tree parents in earlier blocks, so the
    carried path rows are read, and make windows of a few blocks; lanes
    below a term's new-ancestor count make it sit alone and be summed
    lane by lane. Each case runs under every wide rule."""
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    for terms, lane_max in itertools.product((1, 2, 3), lanes):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_CELLS", terms * len(o))
            mp.setattr(metrics, "_LANE_MAX", lane_max)
            for workers in (1, 2):
                for rule, got in enumerate(under_each_wide_rule(
                        lambda: conditional_entropies_all(o, workers=workers))):
                    assert np.array_equal(got, expected), (terms, lane_max, workers, rule)


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_small_blocks_match_per_term(spec):
    assert_small_blocks_match(build(spec), lanes=(255, 2))


def test_small_blocks_match_per_term_past_a_lane():
    assert_small_blocks_match(two_chains(), lanes=(255,))
