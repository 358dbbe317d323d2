"""Property tests for the all-terms conditional-entropy walk.

The walk hangs every term under one parent (a spanning tree) and adds
the ancestors the other parents bring; the DAGs drawn here have
multi-parent terms whose extra parents carry ancestors the tree parent
lacks, so both halves of the update run. On DAGs this small every term
is wide (a packed descendant row), so the tests also force the wide rule
to each extreme, and to a mix, to run the narrow terms' lists. A term
with more new ancestors than metrics._LANE_MAX is walked in several
steps; the chain fixtures and a shrunk _LANE_MAX make such terms. The
schedule tests check the walk's layout (_Sweep) against sets, and the
share test its cut into contiguous runs of whole subtrees of the root.
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
# each branch of a walk step, across the wide rules (every term is wide
# under the real rule at this size): n05, a leaf under n03 alone whose
# only new ancestor is itself, subtracts one wide lane, or, where it is
# narrow, a scalar with no scatter (a leaf has no strict descendant);
# n01, n02 and n03, inner terms whose only new ancestor is themselves,
# subtract one wide lane, or, where narrow, a scalar plus a scatter of
# their strict descendants; n04, a leaf under n01 that n02 also brings,
# reduces two wide lanes, and under "odd sizes wide" reduces its own
# lane from initial=1 for the narrow n02 and scatters n02's descendant
# n04 (test_step_kinds_run_every_branch_of_the_walk)
STEP_KINDS = (6, [{0}, {0}, {1}, {1, 2}, {3}])

common = settings(max_examples=150, deadline=None)

# metrics._is_wide forced to each extreme, and to a mix that puts wide
# and narrow new ancestors side by side in one term's list
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
            mp.setattr(metrics, "_is_wide", rule)
            results.append(run())
    return results


@settings(max_examples=40, deadline=None)
@given(dags(min_nodes=65, max_nodes=200))
def test_descendant_store_matches_sets(spec):
    """The store read off uint16 ancestor lists and off int32 ones,
    under the real wide rule and each of WIDE_RULES: a wide term's
    complemented row has bit x clear exactly for its reflexive
    descendants x, one row per wide term; a narrow term's slot is past
    the last row and it lists its strict descendants ascending, in the
    ancestor lists' type; a wide term lists none. The same pass gives
    each term's ancestors missing from its tree parent's, ascending and
    term by term."""
    n, parents = spec
    anc = [{0}]  # reflexive ancestors by node number
    for i, ps in enumerate(parents, start=1):
        anc.append({i}.union(*(anc[p] for p in ps)))
    rules = (metrics._is_wide, *WIDE_RULES.values())
    for narrow, dtype in ((dag._NARROW_TERMS, np.uint16), (n - 1, np.int32)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dag, "_NARROW_TERMS", narrow)
            o = build(spec)
        node = [int(t[1:]) for t in o.ids]
        below = [[x for x in range(n) if node[a] in anc[node[x]]] for a in range(n)]
        sizes = np.array([len(b) for b in below])
        _, tp, new_sets, _ = set_schedule(o)
        stores = under_each_wide_rule(lambda: metrics._descendant_store(o, np.array(tp)))
        for rule, (slot, comp, ptr, idx, new) in zip(rules, stores):
            wide = rule(sizes, n)
            count = int(wide.sum())
            assert np.array_equal(slot != count, wide) and slot[wide].tolist() == list(range(count))
            assert comp.shape == (count, (n + 7) // 8) and comp.dtype == np.uint8
            rows = np.unpackbits(comp, axis=1, bitorder="little")[:, :n]
            assert [np.flatnonzero(r == 0).tolist() for r in rows] == [
                below[a] for a in np.flatnonzero(wide)]
            assert idx.dtype == dtype
            assert [idx[ptr[a]:ptr[a + 1]].tolist() for a in range(n)] == [
                [] if wide[a] else [x for x in below[a] if x != a] for a in range(n)]
            assert new.tolist() == [a for z in range(n) for a in new_sets[z]]


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
@example(STEP_KINDS)
def test_rows_mask_each_terms_ancestors(spec):
    """The row that sets each term z's value, the root's included, holds
    |Y_xz| = n + 1 - |desc(x) | anc(x) | anc(z)| for every x outside
    anc(z) and at most 0 for every x in anc(z), under every wide rule,
    with blocks of one step and with terms cut into steps of two lanes.
    The root's entry reads 0 from the table either way, so only the rows
    show its mask. The rows are read where they are summed (_log2_sums):
    at one worker the root's row comes first, then one row per step in
    the schedule's order."""
    o = build(spec)
    n = len(o)
    anc = [{o.index(a) for a in o.ancestors(t)} for t in o.ids]
    desc = [{x for x in range(n) if a in anc[x]} for a in range(n)]
    real, rows = metrics._log2_sums, []

    def record(tab, u):
        rows.extend(u.copy())
        return real(tab, u)

    def check():
        rows.clear()
        conditional_entropies_all(o)
        terms = [o.root_index, *metrics._Sweep(o).zs.tolist()]
        assert len(rows) == len(terms)
        # a term's last step comes last, so its row is the one kept
        final = dict(zip(terms, rows))
        assert sorted(final) == list(range(n))
        for z, row in final.items():
            for x in range(n):
                if x in anc[z]:
                    assert row[x] <= 0, (z, x)
                else:
                    assert row[x] == n + 1 - len(desc[x] | anc[x] | anc[z]), (z, x)

    for cells, lane_max in ((metrics._BLOCK_CELLS, metrics._LANE_MAX), (n, 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_log2_sums", record)
            mp.setattr(metrics, "_BLOCK_CELLS", cells)
            mp.setattr(metrics, "_LANE_MAX", lane_max)
            under_each_wide_rule(check)


@common
@given(dags())
@example(EXTRA_ANCESTOR)
def test_walk_identical_across_workers(spec):
    o = build(spec)
    single = conditional_entropies_all(o, workers=1)
    for workers in (0, 2, 3):
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


def two_chains(length=260):
    """r with two disjoint chains of `length` terms below it, a and b; z
    sits under both chains' ends, z1 under z, and a leaf under each
    chain's top, which the chain's other terms are not over. Whichever
    end is z's tree parent, the other chain and z itself are new: length
    + 1 new ancestors."""
    chains = [f"{c}{i:03d}" for c in "ab" for i in range(length)]
    end = length - 1
    ids = ["r", *chains, "z", "z1", "sa", "sb"]
    edges = [("a000", "r"), ("b000", "r"), ("z", f"a{end:03d}"), ("z", f"b{end:03d}"),
             ("z1", "z"), ("sa", "a000"), ("sb", "b000")]
    edges += [(f"{c}{i:03d}", f"{c}{i - 1:03d}") for c in "ab" for i in range(1, length)]
    return build_ontology(ids, edges)


def test_more_new_ancestors_than_a_byte_lane_holds():
    """z has more new ancestors than one uint8 lane can sum without
    wrapping, and, with every term narrow, more narrow ancestors than one
    lane counts, so it is walked in two steps."""
    o = two_chains()
    for p in o.parents("z"):
        assert len(o.ancestors("z") - o.ancestors(p)) > 255
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    for workers in (1, 2):
        for got in under_each_wide_rule(lambda: conditional_entropies_all(o, workers=workers)):
            assert np.array_equal(got, expected)


def assert_small_blocks_match(o, lanes):
    """Blocks of 1-3 steps put tree parents in earlier blocks, so the
    carried path rows are read, and make windows of a few blocks; lanes
    below a term's new-ancestor count cut it into several steps, each
    starting from the one before. Each case runs under every wide rule."""
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
    assert_small_blocks_match(two_chains(), lanes=(255, 1, 3))


@pytest.mark.parametrize("extra", [0, 1])
def test_new_ancestors_fill_a_step_exactly_or_by_one_more(extra):
    """z has exactly _LANE_MAX new ancestors, one full step, or one more,
    a full step and a step of one; z1 then reads z's last row."""
    o = two_chains(metrics._LANE_MAX - 1 + extra)
    for p in o.parents("z"):
        assert len(o.ancestors("z") - o.ancestors(p)) == metrics._LANE_MAX + extra
    assert_small_blocks_match(o, lanes=(metrics._LANE_MAX,))


def test_walk_across_schedule_windows():
    """walk reads the per-step schedule and lays out the scatter entries a
    window of whole blocks at a time: at most _BLOCK_CELLS // 64 steps and
    _BLOCK_CELLS entries, or one block. Shrunk here to a few blocks per
    window, or one, on a 150-term DAG, the walk crosses many window bounds
    and still matches the one-term reference exactly, under every wide
    rule, with terms cut into steps of one or two lanes, and at 1 to 3
    workers."""
    rng = np.random.default_rng(7)
    spec = (150, [set(rng.choice(i, size=min(i, 3), replace=False).tolist())
                  for i in range(1, 150)])
    o = build(spec)
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    for cells, lane_max in itertools.product((64, 64 * 7, 4 * len(o)), (255, 2, 1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_CELLS", cells)
            mp.setattr(metrics, "_LANE_MAX", lane_max)
            sweep = metrics._Sweep(o)
            b, ends = sweep.bounds, [0]
            while ends[-1] < len(b) - 1:
                ends.append(int(sweep.window[ends[-1]]))
            for w0, w1 in zip(ends, ends[1:]):
                e0, e1 = sweep.new_at[[b[w0], b[w1]]]
                sizes = np.diff(sweep.desc_ptr)[sweep.new[e0:e1]]
                assert w1 == w0 + 1 or (b[w1] - b[w0] <= cells // 64 and sizes.sum() <= cells)
            assert len(ends) - 1 > 3
            if cells > 64:  # some window holds two blocks or more
                assert (np.diff(ends) >= 2).any()
            for workers in (1, 2, 3):
                for rule, got in enumerate(under_each_wide_rule(
                        lambda: conditional_entropies_all(o, workers=workers))):
                    assert np.array_equal(got, expected), (cells, lane_max, workers, rule)


def test_more_steps_than_uint16_holds():
    """256 terms under both ends of two 255-term chains, walked one lane
    per step, make more steps than a uint16 counts, while the ancestor
    lists are uint16. As in two_chains, a leaf under each chain's top is
    outside the chain's other terms."""
    length, below = 255, 256
    chains = [f"{c}{i:03d}" for c in "ab" for i in range(length)]
    zs = [f"z{i:03d}" for i in range(below)]
    edges = [("a000", "r"), ("b000", "r"), ("sa", "a000"), ("sb", "b000")]
    edges += [(f"{c}{i:03d}", f"{c}{i - 1:03d}") for c in "ab" for i in range(1, length)]
    edges += [(z, f"{c}{length - 1:03d}") for z in zs for c in "ab"]
    o = build_ontology(["r", *chains, *zs, "sa", "sb"], edges)
    assert o.anc_idx.dtype == np.uint16
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_LANE_MAX", 1)
        assert np.array_equal(conditional_entropies_all(o), expected)


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_walk_on_int32_lists_matches_uint16(spec):
    """Above dag._NARROW_TERMS terms the ancestor and descendant lists are
    int32; forced below n here, the walk matches brute force and the
    uint16 run under every wide rule."""
    short = under_each_wide_rule(lambda: conditional_entropies_all(build(spec)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dag, "_NARROW_TERMS", spec[0] - 1)
        o = build(spec)
        long = under_each_wide_rule(lambda: conditional_entropies_all(o))
    assert o.anc_idx.dtype == np.int32
    for zi, z in enumerate(o.ids):
        assert abs(long[0][zi] - brute(o, z)) <= 1e-9
    for got, want in zip(long, short):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_walk_on_int32_rows_matches_int16(spec):
    """The walk's rows are int16 below metrics._NARROW_ROWS terms and
    int32 from it on; forced to int32 here, with blocks of one or three
    steps and terms cut into steps of two lanes or not, the walk matches
    the int16 run and the one-term reference exactly at 1 to 3 workers
    under every wide rule."""
    o = build(spec)
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])

    def runs(bound, dtype):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_NARROW_ROWS", bound)
            assert metrics._Sweep(o).u_root.dtype == dtype
            return [got for workers in (1, 2, 3) for got in under_each_wide_rule(
                lambda: conditional_entropies_all(o, workers=workers))]

    for terms, lane_max in itertools.product((1, 3), (metrics._LANE_MAX, 2)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_CELLS", terms * len(o))
            mp.setattr(metrics, "_LANE_MAX", lane_max)
            short = runs(metrics._NARROW_ROWS, np.int16)
            long = runs(len(o), np.int32)
        for case, (got, want) in enumerate(zip(long, short)):
            assert np.array_equal(got, want), (terms, lane_max, case)
            assert np.array_equal(got, expected), (terms, lane_max, case)


def set_schedule(o):
    """The walk's tree from Python sets: each term's reflexive
    descendants, tree parent (the parent with the most ancestors, lowest
    index on ties), new ancestors (ascending) and the tree's depth-first
    preorder, children by ascending index, without the root."""
    n, root = len(o), o.root_index
    anc = [{o.index(a) for a in o.ancestors(t)} for t in o.ids]
    tp = [min((-len(anc[o.index(p)]), o.index(p)) for p in o.parents(t))[1] if i != root else root
          for i, t in enumerate(o.ids)]
    new = [sorted(anc[z] - anc[tp[z]]) for z in range(n)]
    children = [[z for z in range(n) if tp[z] == p and z != root] for p in range(n)]
    order, stack = [], children[root][::-1]
    while stack:
        z = stack.pop()
        stack.extend(reversed(children[z]))
        order.append(z)
    desc = [{x for x in range(n) if a in anc[x]} for a in range(n)]
    return desc, tp, new, order


def schedules(o):
    """(schedule, steps per block, new ancestors per step) of the walk over
    o under the real wide rule and each of WIDE_RULES, at the real block
    and step sizes, at blocks of two steps of at most two new ancestors,
    and at blocks of one step of one."""
    sizes = [(metrics._BLOCK_CELLS, metrics._LANE_MAX), (2 * len(o), 2), (len(o), 1)]
    out = []
    for cells, lane_max in sizes:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "_BLOCK_CELLS", cells)
            mp.setattr(metrics, "_LANE_MAX", lane_max)
            sweeps = under_each_wide_rule(lambda: metrics._Sweep(o))
        out += [(s, max(1, cells // len(o)), lane_max) for s in sweeps]
    return out


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_schedule_steps_follow_the_preorder(spec):
    """Each non-root term has ceil(|new ancestors| / _LANE_MAX)
    consecutive steps in the tree's preorder, at least one since the term
    itself is new; its first step starts from its tree parent and each
    later one from the term."""
    o = build(spec)
    _, tp, new, order = set_schedule(o)
    for sweep, _, lane_max in schedules(o):
        want_zs, want_source = [], []
        for z in order:
            steps = -(-len(new[z]) // lane_max)
            want_zs += [z] * steps
            want_source += [tp[z]] + [z] * (steps - 1)
        assert sweep.zs.tolist() == want_zs
        assert sweep.source.tolist() == want_source


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_schedule_lanes_sum_to_the_new_ancestors_rows(spec):
    """Each step's change to its source's row before masking, rebuilt
    from the schedule alone (the sum of its unpacked wide comp rows, plus
    its narrow count c, less one at each of its scatter entries, the
    strict descendant lists of its narrow new ancestors), is the count
    over the step's new ancestors a of 1[x not in desc*(a)] at every x
    but the narrow new ancestors themselves, which lose one more and are
    masked in the same step. No step holds more than _LANE_MAX new
    ancestors, so its uint8 reduce of its wide lanes from initial=c
    cannot wrap."""
    o = build(spec)
    n = len(o)
    desc, _, new, _ = set_schedule(o)
    for sweep, _, lane_max in schedules(o):
        terms, k = sweep.zs.tolist(), 0
        for i, z in enumerate(terms):
            k = k + 1 if i and terms[i - 1] == z else 0
            step_new = new[z][k * lane_max:(k + 1) * lane_max]
            e0, e1 = sweep.new_at[i], sweep.new_at[i + 1]
            assert sweep.new[e0:e1].tolist() == step_new
            lanes = sweep.lane_rows[sweep.lane_at[i]:sweep.lane_at[i + 1]]
            c = (e1 - e0) - len(lanes)
            assert len(lanes) + c <= lane_max
            rows = np.unpackbits(sweep.comp[lanes], axis=1, bitorder="little")[:, :n]
            got = rows.astype(np.int64).sum(axis=0) + c
            for a in sweep.new[e0:e1]:
                np.subtract.at(got, sweep.desc_idx[sweep.desc_ptr[a]:sweep.desc_ptr[a + 1]], 1)
            # a lane's row is its wide term's reflexive descendant set
            wide = [a for a in step_new if any(set(np.flatnonzero(r == 0).tolist()) == desc[a]
                                               for r in rows)]
            assert len(wide) == len(lanes)
            narrow = set(step_new) - set(wide)
            want = [sum(x not in desc[a] for a in step_new) + (x in narrow) for x in range(n)]
            assert got.tolist() == want


def test_step_kinds_run_every_branch_of_the_walk():
    """Across the wide rules, STEP_KINDS's steps take each branch of a
    walk step: a scalar alone, a scalar plus a scatter, one wide lane
    alone, a reduce of two wide lanes, and a reduce of a wide lane from
    initial=c with c > 0."""
    o = build(STEP_KINDS)
    seen = set()
    for sweep, _, _ in schedules(o):
        sizes = np.diff(sweep.desc_ptr)
        for i in range(len(sweep.zs)):
            e0, e1 = sweep.new_at[i], sweep.new_at[i + 1]
            lanes = int(sweep.lane_at[i + 1] - sweep.lane_at[i])
            c, scattered = int(e1 - e0) - lanes, bool(sizes[sweep.new[e0:e1]].sum())
            if lanes == 0:
                seen.add("scalar and scatter" if scattered else "scalar")
            elif lanes == 1 and c == 0:
                seen.add("one lane")
            else:
                seen.add("reduce from initial=c" if c else "reduce")
    assert seen == {"scalar", "scalar and scatter", "one lane", "reduce",
                    "reduce from initial=c"}


@common
@given(dags())
@example(EXTRA_ANCESTOR)
@example(STEP_KINDS)
def test_schedule_blocks_stay_within_their_bounds(spec):
    """No block holds more than max(1, _BLOCK_CELLS // n) steps or more
    than _LANE_MAX new ancestors, and none spans two subtrees of the
    root."""
    o = build(spec)
    for sweep, per_block, lane_max in schedules(o):
        b = sweep.bounds
        assert b[0] == 0 and b[-1] == len(sweep.zs)
        for b0, b1 in zip(b, b[1:]):
            assert 1 <= b1 - b0 <= per_block
            assert sweep.new_at[b1] - sweep.new_at[b0] <= lane_max
            assert o.root_index not in sweep.source[b0 + 1:b1]


def uneven_subtrees():
    """A root over nine subtrees of 1 to 14 terms, each a chain with a
    star at its foot."""
    ids, edges = ["r"], []
    for t, size in enumerate((1, 9, 2, 14, 3, 1, 12, 5, 6)):
        chain = [f"t{t}c{i:02d}" for i in range(size)]
        ids += chain
        edges += [(chain[0], "r")] + [(c, p) for p, c in zip(chain, chain[1:max(2, size // 2)])]
        edges += [(c, chain[max(0, size // 2 - 1)]) for c in chain[max(2, size // 2):]]
    return build_ontology(ids, edges)


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 5])
def test_shares_are_contiguous_runs_of_whole_subtrees(workers):
    """Each share starts at a subtree of the root, the shares cover every
    block once and in order, there are at most min(workers, subtrees) of
    them, and none holds more than total / workers steps plus the largest
    subtree's; the walk gives the same values at every worker count."""
    o = uneven_subtrees()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "_BLOCK_CELLS", 3 * len(o))
        sweep = metrics._Sweep(o)
    b, root = sweep.bounds, o.root_index
    tops = [i for i in range(len(sweep.zs)) if sweep.source[i] == root]
    sizes = np.diff(tops + [len(sweep.zs)])
    shares = sweep.shares(workers)
    assert 1 <= len(shares) <= min(workers, len(tops))
    assert [s.start for s in shares[1:]] == [s.stop for s in shares[:-1]]
    assert shares[0].start == 0 and shares[-1].stop == len(b) - 1
    for s in shares:
        assert sweep.source[b[s.start]] == root
        assert b[s.stop] - b[s.start] <= len(sweep.zs) / workers + sizes.max()
    expected = np.array([conditional_entropy_given(o, t) for t in o.ids])
    assert np.array_equal(conditional_entropies_all(o, workers=workers), expected)
