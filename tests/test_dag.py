import os
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagic import build_ontology, dag, ontology_entropy, parse_obo, sic, to_graph
from dagic.errors import (
    CycleDetected,
    MultipleRoots,
    NoRoot,
    UnknownTerm,
    UnknownTermInEdge,
)

from conftest import DATA_DIR, chain, random_dag
from test_gic_kernel import build, dags


def dfs_reachable(edges, start):
    """Naive reachability oracle over an adjacency built from scratch."""
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(adj.get(node, []))
    return seen


def test_single_node():
    o = build_ontology(["r"], [])
    assert o.ancestors("r") == {"r"}
    assert o.descendants("r") == set()
    assert o.min_depth("r") == 0
    assert o.root == "r"


def test_diamond_closures(diamond):
    assert diamond.ancestors("c") == {"c", "a", "b", "r"}
    assert diamond.descendants("r") == {"a", "b", "c"}
    assert diamond.min_depth("c") == 2
    assert diamond.ancestors("r") == {"r"}


def test_chain_queries():
    o = chain(3)
    t0, t1, t2 = o.ids[0], o.ids[1], o.ids[2]
    assert o.ancestors(t2) == {t0, t1, t2}
    assert o.descendants(t1) == {t2}
    assert o.min_depth(t2) == 2


def test_two_cycle_rejected():
    with pytest.raises(CycleDetected):
        build_ontology(["a", "b"], [("a", "b"), ("b", "a")])


def test_cycle_reports_offenders():
    with pytest.raises(CycleDetected) as err:
        build_ontology(["r", "a", "b", "c"],
                       [("a", "r"), ("b", "a"), ("c", "b"), ("b", "c")])
    assert err.value.cycle == ["b", "c", "b"]


def test_multiple_roots_listed():
    with pytest.raises(MultipleRoots) as err:
        build_ontology(["r1", "r2", "a"], [("a", "r1")])
    assert err.value.roots == ["r1", "r2"]


@st.composite
def any_parents(draw, max_nodes=9):
    """(n, parent lists) where node 0 has no parent and every other node
    takes 1-2 parents among all other nodes, so a cycle may sit apart
    from the root."""
    n = draw(st.integers(1, max_nodes))
    others = [st.sets(st.integers(0, n - 1).filter(lambda p, i=i: p != i),
                      min_size=1, max_size=2) for i in range(1, n)]
    return n, [draw(s) for s in others]


@settings(max_examples=200, deadline=None)
@given(any_parents())
@example((3, [{0}, {0, 1}]))
@example((4, [{0}, {3}, {2}]))  # 0 <- 1 and a cycle 2 <-> 3 out of the root's reach
@example((4, [{0}, {1, 3}, {2}]))  # a cycle 2 <-> 3 the root reaches
def test_root_in_every_ancestor_list(spec):
    """One parentless term and no cycle leave no term out of the root's
    reach: every ontology that builds has its root in every ancestor
    list, and every edge set that leaves a term out raises."""
    n, parents = spec
    ids = [f"n{i:02d}" for i in range(n)]
    edges = [(ids[i], ids[p]) for i, ps in enumerate(parents, start=1) for p in ps]
    reach = dfs_reachable([(p, c) for c, p in edges], ids[0])
    try:
        o = build_ontology(ids, edges)
    except CycleDetected:
        return
    assert reach == set(ids)
    for i in range(n):
        assert o.root_index in o.anc_idx[o.anc_ptr[i]:o.anc_ptr[i + 1]].tolist()


@pytest.mark.parametrize("parents", [
    [{0}, {3}, {2}],      # a cycle n02 <-> n03 out of the root's reach
    [{0}, {1, 3}, {2}],   # a cycle n02 <-> n03 the root reaches
])
def test_cycle_named_from_its_least_term(parents):
    ids = [f"n{i:02d}" for i in range(len(parents) + 1)]
    edges = [(ids[i], ids[p]) for i, ps in enumerate(parents, start=1) for p in ps]
    with pytest.raises(CycleDetected) as err:
        build_ontology(ids, edges)
    assert err.value.cycle == ["n02", "n03", "n02"]


def test_empty_input():
    with pytest.raises(NoRoot, match="no terms"):
        build_ontology([], [])


def test_no_root():
    with pytest.raises((NoRoot, CycleDetected)):
        build_ontology(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_unknown_term_in_edge():
    with pytest.raises(UnknownTermInEdge):
        build_ontology(["r", "a"], [("a", "r"), ("a", "ghost")])


def test_unknown_term_query(diamond):
    with pytest.raises(UnknownTerm):
        diamond.ancestors("nope")
    with pytest.raises(UnknownTerm):
        diamond.min_depth("nope")


def test_indices_lexicographic(diamond):
    assert list(diamond.ids) == sorted(diamond.ids)
    assert all(diamond.index(t) == i for i, t in enumerate(diamond.ids))


def test_closures_match_dfs_on_random_dags(rng):
    for _ in range(100):
        o = random_dag(rng)
        child_to_parent = [(o.ids[c], o.ids[p]) for c, p in o.edges]
        parent_to_child = [(p, c) for c, p in child_to_parent]
        for t in o.ids:
            assert o.ancestors(t) == dfs_reachable(child_to_parent, t) | {t}
            assert o.descendants(t) == dfs_reachable(parent_to_child, t) - {t}


def test_closure_size_identity(rng):
    # strict ancestor pairs counted once from each side
    for _ in range(30):
        o = random_dag(rng)
        total_desc = sum(len(o.descendants(t)) for t in o.ids)
        total_strict_anc = sum(len(o.ancestors(t)) - 1 for t in o.ids)
        assert total_desc == total_strict_anc


def test_depth_properties(rng):
    for _ in range(30):
        o = random_dag(rng)
        assert o.min_depth(o.root) == 0
        for t in o.ids:
            if t != o.root:
                assert o.min_depth(t) >= 1
        for c, p in o.edges:
            assert o.depth[c] <= o.depth[p] + 1


@pytest.mark.parametrize("relations", [frozenset(), frozenset({"part_of"})])
@pytest.mark.parametrize("namespace", ["biological_process", "cellular_component",
                                       "molecular_function"])
def test_edge_queries_match_the_graph(namespace, relations):
    """parents(), children() and term() give back, for every term of the
    GO subset, the edges and ids that to_graph read from the file."""
    with open(os.path.join(DATA_DIR, "go_subset.obo"), encoding="utf-8") as fh:
        ids, edges, _ = to_graph(parse_obo(fh), namespace=namespace, relations=relations)
    o = build_ontology(ids, edges)
    assert sorted(o.term(i) for i in range(len(o))) == sorted(ids)
    assert len(o.edges) == len(set(edges)) > 0
    for t in ids:
        assert o.term(o.index(t)) == t
        assert o.parents(t) == {p for c, p in edges if c == t}
        assert o.children(t) == {c for c, p in edges if p == t}
    assert o.parents(o.root) == frozenset()


def bfs_depth(o):
    depth = {o.root: 0}
    frontier = deque([o.root])
    while frontier:
        t = frontier.popleft()
        for c in sorted(o.children(t)):
            if c not in depth:
                depth[c] = depth[t] + 1
                frontier.append(c)
    return [depth[t] for t in o.ids]


@settings(max_examples=40, deadline=None)
@given(dags(min_nodes=65, max_nodes=150), st.data())
def test_ancestor_queries_match_set_views(spec, data):
    # more than 64 terms, so every closure row spans several words
    o = build(spec)
    n = len(o)
    below = [o.descendants(t) | {t} for t in o.ids]  # reflexive, by index
    term = st.integers(0, n - 1)
    xs = data.draw(st.lists(term, max_size=8))
    for query in ([], [data.draw(term)], xs):
        want = [j for j in range(n) if any(o.ids[x] in below[j] for x in query)]
        assert o.ancestor_union(query).tolist() == want
        if len(query) == 1:
            assert {o.ids[j] for j in want} == o.ancestors(o.ids[query[0]])
    a = data.draw(term)
    assert o.under(a, xs) == [x for x in xs if o.ids[x] in below[a]]
    assert o.under(a, []) == []
    assert o.depth.tolist() == bfs_depth(o)


@settings(max_examples=40, deadline=None)
@given(dags(min_nodes=65, max_nodes=200), st.data())
def test_ancestor_lists_built_in_small_blocks_match_sets(spec, data):
    """Blocks of 64 ancestor ids, so the lists of most terms are pieced
    together from several blocks; the second build also cuts every level
    of the lists and every read-out into chunks of a few rows, and stores
    the lists as int32, the type of ontologies too large for uint16."""
    n, parents = spec
    anc, depth = [{0}], [0]  # reflexive ancestors and min depth, by node number
    for i, ps in enumerate(parents, start=1):
        anc.append({i}.union(*(anc[p] for p in ps)))
        depth.append(1 + min(depth[p] for p in ps))
    for chunk_bytes, narrow, dtype in ((dag._CHUNK_BYTES, dag._NARROW_TERMS, np.uint16),
                                       (64, n - 1, np.int32)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dag, "_ANC_BLOCK", 64)
            mp.setattr(dag, "_CHUNK_BYTES", chunk_bytes)
            mp.setattr(dag, "_NARROW_TERMS", narrow)
            o = build(spec)
        node = [int(t[1:]) for t in o.ids]
        index = {v: i for i, v in enumerate(node)}
        want = [sorted(index[a] for a in anc[v]) for v in node]
        assert (o.anc_idx.dtype, o.anc_ptr.dtype) == (dtype, np.int64)
        assert [o.anc_idx[o.anc_ptr[i]:o.anc_ptr[i + 1]].tolist() for i in range(n)] == want
        assert o.anc_counts.tolist() == [len(w) for w in want]
        assert o.desc_counts.tolist() == [sum(i in w for w in want) - 1 for i in range(n)]
        assert o.depth.tolist() == [depth[v] for v in node]
        xs = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        assert o.ancestor_union(xs).tolist() == sorted(set().union(*(want[x] for x in xs)))
        a = data.draw(st.integers(0, n - 1))
        assert o.under(a, xs) == [x for x in xs if a in want[x]]


@pytest.mark.parametrize("seed", range(4))
def test_many_parents_and_wide_levels_built_in_small_steps(seed):
    """Terms with about 20 parents spread over several levels, and levels
    wider than one OR step: with 64-id blocks and 64-byte chunks a step
    holds 8 terms, so a level's k-th parents run in several steps and k
    reaches 19. The lists and depths match sets and a BFS from the root."""
    rng = np.random.default_rng(seed)
    n = 150
    parents = [set()]
    for i in range(1, n):
        k = min(i, 20 if i % 10 == 9 else int(rng.integers(1, 4)))
        parents.append(set(rng.choice(i, size=k, replace=False).tolist()))
    anc, level = [], []
    for i, ps in enumerate(parents):
        anc.append({i}.union(*(anc[p] for p in ps)))
        level.append(1 + max((level[p] for p in ps), default=-1))
    assert max(len(ps) for ps in parents) == 20
    assert max(np.bincount(level)) > 8
    kids = [[] for _ in range(n)]
    for i, ps in enumerate(parents):
        for p in ps:
            kids[p].append(i)
    depth, frontier = {0: 0}, deque([0])
    while frontier:
        t = frontier.popleft()
        for c in kids[t]:
            if c not in depth:
                depth[c] = depth[t] + 1
                frontier.append(c)
    # ids out of node order, so each block holds terms of many levels
    names = [f"t{(37 * i) % n:03d}" for i in range(n)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dag, "_ANC_BLOCK", 64)
        mp.setattr(dag, "_CHUNK_BYTES", 64)
        o = build_ontology(names, [(names[i], names[p])
                                   for i, ps in enumerate(parents) for p in ps])
    for i, t in enumerate(names):
        x = o.index(t)
        assert o.anc_idx[o.anc_ptr[x]:o.anc_ptr[x + 1]].tolist() == \
            sorted(o.index(names[a]) for a in anc[i])
        assert o.depth[x] == depth[i]


def layered(sizes, seed=5):
    """Layered DAG: each term takes 1-2 parents from the layer above."""
    rng = np.random.default_rng(seed)
    ids = [f"T{i:05d}" for i in range(sum(sizes))]
    edges, above, start = [], [0], 1
    for size in sizes[1:]:
        layer = range(start, start + size)
        for t in layer:
            k = min(len(above), int(rng.integers(1, 3)))
            edges += [(ids[t], ids[int(p)]) for p in rng.choice(above, size=k, replace=False)]
        above, start = list(layer), start + size
    return ids, edges


def test_closure_queries_hold_no_packed_closure():
    """Building the ontology and answering entropy, sIC and ancestor
    unions allocate less than half of one packed n x n closure (36 MiB
    here; a build block of ancestor rows takes 12 MiB of it)."""
    ids, edges = layered([1, 24, 192, 1536, 6144, 9000, 7679])
    n = len(ids)
    assert n == 24576
    tracemalloc.start()
    try:
        o = build_ontology(ids, edges)
        ontology_entropy(o)
        sic(o)
        o.ancestor_union(list(range(0, n, 97)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n / 8 / 2
