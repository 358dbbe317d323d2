"""Immutable single-rooted DAG with precomputed bitset closures.

Edges run child -> parent (subsumption direction). Ancestor sets are
reflexive (a term is its own ancestor); descendant sets are strict.
Closures are stored as packed uint64 bit rows, one |N|-bit row per term
(anc_bits, desc_bits).

Code outside this module asks Ontology for what it needs from the
closures: ancestor_union(indices), the sorted union of the terms'
reflexive ancestors; under(a, xs), the members of xs that have a as a
reflexive ancestor; the anc_counts and desc_counts per term; and the
ancestors/descendants set views. Only this module and the gIC kernel
in metrics (_entropy_rows, conditional_entropy_given,
conditional_entropies_all), which sums descendant rows word-parallel,
read the bit rows themselves.
"""

from collections import deque

import numpy as np

from .errors import (
    CycleDetected,
    MultipleRoots,
    NoRoot,
    UnknownTerm,
    UnknownTermInEdge,
    UnreachableTerms,
)

_WORD = 64


def _n_words(n):
    return (n + _WORD - 1) // _WORD


def _bit_indices(row, n):
    """Sorted indices of the set bits of one packed row of n bits."""
    return np.unpackbits(row.view(np.uint8), bitorder="little")[:n].view(bool).nonzero()[0]


class Ontology:
    """Validated DAG over string term ids with dense integer indices.

    Construction happens in build_ontology; instances are immutable and
    safe to share across threads. Dense indices are assigned in
    lexicographic id order so every emitted table is deterministic.
    """

    def __init__(self, ids, edges, root_index, parents, children,
                 anc_bits, desc_bits, depth):
        self.ids = ids                      # tuple[str], lexicographic
        self.edges = edges                  # tuple[(child_idx, parent_idx)]
        self.root_index = root_index
        self._index = {t: i for i, t in enumerate(ids)}
        self._parents = parents             # tuple[tuple[int]]
        self._children = children
        self.anc_bits = anc_bits            # (n, w) uint64, reflexive
        self.desc_bits = desc_bits          # (n, w) uint64, strict
        self.anc_counts = np.bitwise_count(anc_bits).sum(axis=1, dtype=np.int64)
        self.desc_counts = np.bitwise_count(desc_bits).sum(axis=1, dtype=np.int64)
        self.depth = depth                  # (n,) int64, min edge distance
        for arr in (self.anc_bits, self.desc_bits,
                    self.anc_counts, self.desc_counts, self.depth):
            arr.setflags(write=False)

    def __len__(self):
        return len(self.ids)

    def __contains__(self, term_id):
        return term_id in self._index

    @property
    def root(self):
        return self.ids[self.root_index]

    @property
    def n_edges(self):
        return len(self.edges)

    def index(self, term_id):
        try:
            return self._index[term_id]
        except KeyError:
            raise UnknownTerm(term_id) from None

    def term(self, index):
        return self.ids[index]

    def parents(self, term_id):
        return frozenset(self.ids[i] for i in self._parents[self.index(term_id)])

    def children(self, term_id):
        return frozenset(self.ids[i] for i in self._children[self.index(term_id)])

    def ancestors(self, term_id):
        """Reflexive ancestor set (includes the term itself and the root)."""
        return frozenset(self.ids[j] for j in self.ancestor_union([self.index(term_id)]))

    def descendants(self, term_id):
        """Strict descendant set (excludes the term itself)."""
        row = self.desc_bits[self.index(term_id)]
        return frozenset(self.ids[j] for j in _bit_indices(row, len(self)))

    def ancestor_union(self, indices):
        """Sorted term indices (an intp array) of the union of the
        reflexive ancestors of the terms at indices, a list of term
        indices; empty for an empty list."""
        row = np.bitwise_or.reduce(self.anc_bits[indices], axis=0)
        return _bit_indices(row, len(self))

    def under(self, a, xs):
        """The members of xs, term indices, that have term index a as a
        reflexive ancestor, as a list in the order of xs."""
        word, bit = a >> 6, a & 63
        return [x for x in xs if int(self.anc_bits[x, word]) >> bit & 1]

    def min_depth(self, term_id):
        """Minimum edge distance from the root (root has depth 0)."""
        return int(self.depth[self.index(term_id)])


def _find_cycle(remaining, parents_of):
    # walk parent pointers inside the unprocessed set until a repeat
    start = min(remaining)
    seen = {}
    path = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(p for p in parents_of[node] if p in remaining)
    return path[seen[node]:] + [node]


def build_ontology(terms, edges):
    """Validate terms/edges and build an Ontology with closures and depths.

    terms: iterable of term id strings (non-empty, unique).
    edges: iterable of (child_id, parent_id) pairs.
    """
    ids = tuple(sorted(set(terms)))
    if not ids:
        raise NoRoot()
    index = {t: i for i, t in enumerate(ids)}
    n = len(ids)

    edge_idx = []
    seen_edges = set()
    for child, parent in edges:
        if child not in index:
            raise UnknownTermInEdge(child, (child, parent))
        if parent not in index:
            raise UnknownTermInEdge(parent, (child, parent))
        e = (index[child], index[parent])
        if e not in seen_edges:
            seen_edges.add(e)
            edge_idx.append(e)
    edge_idx.sort()

    parents_of = [[] for _ in range(n)]
    children_of = [[] for _ in range(n)]
    for c, p in edge_idx:
        parents_of[c].append(p)
        children_of[p].append(c)

    parentless = [i for i in range(n) if not parents_of[i]]
    if not parentless:
        # every term has a parent, so some cycle exists; report it
        raise CycleDetected(ids[i] for i in _find_cycle(set(range(n)), parents_of))
    if len(parentless) > 1:
        raise MultipleRoots(ids[i] for i in parentless)
    root = parentless[0]

    # Kahn's algorithm; order guarantees parents precede children, so a
    # term's depth is final once it is taken from the queue
    indeg = [len(parents_of[i]) for i in range(n)]
    depth = [n] * n
    depth[root] = 0
    order = deque([root])
    topo = []
    while order:
        node = order.popleft()
        topo.append(node)
        below = depth[node] + 1
        for c in children_of[node]:
            if below < depth[c]:
                depth[c] = below
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    if len(topo) < n:
        remaining = set(range(n)) - set(topo)
        raise CycleDetected(ids[i] for i in _find_cycle(remaining, parents_of))

    w = _n_words(n)
    self_bit = np.arange(n)
    self_word, self_mask = self_bit >> 6, np.uint64(1) << np.uint64(self_bit & 63)
    anc = np.zeros((n, w), dtype=np.uint64)
    anc[self_bit, self_word] = self_mask
    for node in topo:
        for p in parents_of[node]:
            anc[node] |= anc[p]

    # built reflexive, so each child's row already holds the child's bit;
    # the self bits are cleared once at the end
    desc = np.zeros((n, w), dtype=np.uint64)
    desc[self_bit, self_word] = self_mask
    for node in reversed(topo):
        row = desc[node]
        for c in children_of[node]:
            row |= desc[c]
    desc[self_bit, self_word] ^= self_mask

    # single root + acyclicity already imply reachability; kept as a
    # guard because every metric assumes root \in Pi_t
    root_word, root_mask = root >> 6, np.uint64(1) << np.uint64(root & 63)
    unreachable = np.flatnonzero((anc[:, root_word] & root_mask) == 0)
    if unreachable.size:
        raise UnreachableTerms(ids[i] for i in unreachable)

    return Ontology(
        ids=ids,
        edges=tuple(edge_idx),
        root_index=root,
        parents=tuple(tuple(p) for p in parents_of),
        children=tuple(tuple(c) for c in children_of),
        anc_bits=anc,
        desc_bits=desc,
        depth=np.array(depth, dtype=np.int64),
    )
