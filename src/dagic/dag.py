"""Immutable single-rooted DAG with precomputed ancestor lists.

Edges run child -> parent (subsumption direction). Ancestor sets are
reflexive (a term is its own ancestor); descendant sets are strict.
The closure is stored as CSR ancestor lists: term i's reflexive
ancestors are anc_idx[anc_ptr[i]:anc_ptr[i + 1]], term indices in
ascending order, with anc_ptr an int64 array of n + 1 offsets. The
indices are uint16 while every one fits (up to _NARROW_TERMS terms,
GO's size included) and int32 above: on a dense DAG the lists outgrow
the packed rows they replace, and the narrow type halves them.
anc_counts are the list lengths, and desc_counts count each term's
appearances in the lists, less its own. The edges are held once, as
the sorted (child, parent) rows of an (m, 2) intp array, with CSR
offsets into it for each term's parents and, through one array of
children ordered by parent, for each term's children.

Code outside this module asks Ontology for what it needs from the
closure: ancestor_pairs(indices), the (position, ancestor) pairs of
the terms' lists; ancestor_union(indices), the sorted union of the
terms' reflexive ancestors; under(a, xs), the members of xs that have a
as a reflexive ancestor; the anc_counts and desc_counts per term; and
the ancestors/descendants set views. Only the gIC kernel in metrics
reads anc_ptr and anc_idx directly.

Packed n-bit rows exist in two places only, and neither outlives its
function: build_ontology makes the lists from packed rows over one
block of _ANC_BLOCK ancestor ids at a time (_ancestor_lists), and the
all-terms gIC sweep (metrics.conditional_entropies_all) builds packed
reflexive descendant rows for its walk.
"""

from bisect import bisect_left
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
# ancestor ids per packed block while build_ontology makes the lists, and
# the bytes of one chunk of rows gathered or read out inside a block
_ANC_BLOCK = 4096
_CHUNK_BYTES = 2**19
# the most terms whose ancestor lists hold uint16 indices
_NARROW_TERMS = 2**16


def _n_words(n):
    return (n + _WORD - 1) // _WORD


def _offsets(keys, n):
    """(n + 1,) int64 CSR offsets of one run per value 0..n-1 of keys,
    the runs laid out by ascending value."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr


class Ontology:
    """Validated DAG over string term ids with dense integer indices.

    Construction happens in build_ontology; instances are immutable and
    safe to share across threads. Dense indices are assigned in
    lexicographic id order so every emitted table is deterministic.
    """

    def __init__(self, ids, edges, root_index, parent_ptr, child_idx, child_ptr,
                 anc_ptr, anc_idx, depth):
        self.ids = ids                      # tuple[str], lexicographic
        self.edges = edges                  # (m, 2) intp rows (child, parent), sorted
        self.root_index = root_index
        self._index = {t: i for i, t in enumerate(ids)}
        # CSR over the edges: term i's parents are edges[parent_ptr[i]:
        # parent_ptr[i + 1], 1], and its children child_idx[child_ptr[i]:
        # child_ptr[i + 1]], both ascending
        self._parent_ptr = parent_ptr
        self._child_idx = child_idx
        self._child_ptr = child_ptr
        self.anc_ptr = anc_ptr              # (n + 1,) int64 offsets into anc_idx
        self.anc_idx = anc_idx              # each term's ancestors ascending
        self.anc_counts = np.diff(anc_ptr)
        # a bincount of the lists, without bincount's copy of them to intp
        self.desc_counts = np.full(len(ids), -1, dtype=np.int64)
        np.add.at(self.desc_counts, anc_idx, 1)
        self.depth = depth                  # (n,) int64, min edge distance
        for arr in (self.edges, self._parent_ptr, self._child_idx, self._child_ptr,
                    self.anc_ptr, self.anc_idx, self.anc_counts, self.desc_counts,
                    self.depth):
            arr.setflags(write=False)
        # element access from Python without numpy scalars, for under()
        self._ptr_view = memoryview(anc_ptr)
        self._idx_view = memoryview(anc_idx)

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
        i = self.index(term_id)
        run = self.edges[self._parent_ptr[i]:self._parent_ptr[i + 1], 1]
        return frozenset(self.ids[p] for p in run.tolist())

    def children(self, term_id):
        i = self.index(term_id)
        run = self._child_idx[self._child_ptr[i]:self._child_ptr[i + 1]]
        return frozenset(self.ids[c] for c in run.tolist())

    def ancestors(self, term_id):
        """Reflexive ancestor set (includes the term itself and the root)."""
        return frozenset(self.ids[j] for j in self.ancestor_union([self.index(term_id)]))

    def descendants(self, term_id):
        """Strict descendant set (excludes the term itself)."""
        a = self.index(term_id)
        rows = np.searchsorted(self.anc_ptr, np.flatnonzero(self.anc_idx == a),
                               side="right") - 1
        return frozenset(self.ids[x] for x in rows.tolist() if x != a)

    def ancestor_pairs(self, indices):
        """Two arrays (k, a), intp and of anc_idx's type: for each
        position k of indices, a list of term indices, one pair per
        reflexive ancestor a of the term at indices[k], by ascending k and
        then ascending a."""
        ptr = self._ptr_view
        runs = [self.anc_idx[ptr[i]:ptr[i + 1]] for i in indices]
        if not runs:
            return np.empty(0, dtype=np.intp), self.anc_idx[:0].copy()
        return np.repeat(np.arange(len(runs)), [len(r) for r in runs]), np.concatenate(runs)

    def ancestor_union(self, indices):
        """Sorted term indices (an array of anc_idx's type) of the union
        of the reflexive ancestors of the terms at indices, a list of
        term indices; empty for an empty list."""
        anc = self.ancestor_pairs(indices)[1]
        if len(indices) > 1:
            anc.sort()
            anc = anc[np.append(True, anc[1:] != anc[:-1])]
        return anc

    def under(self, a, xs):
        """The members of xs, term indices, that have term index a as a
        reflexive ancestor, as a list in the order of xs."""
        ptr, anc = self._ptr_view, self._idx_view
        found = []
        for x in xs:
            end = ptr[x + 1]
            k = bisect_left(anc, a, ptr[x], end)
            if k < end and anc[k] == a:
                found.append(x)
        return found

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


def _index_edges(ids, edges):
    """The distinct (child, parent) index pairs of edges as the rows of an
    (m, 2) intp array, sorted; the first edge, in input order, that names
    a term outside ids raises."""
    index = {t: i for i, t in enumerate(ids)}
    n = len(ids)
    found = set()  # child * n + parent, so no pair is held as a tuple
    for child, parent in edges:
        if child not in index:
            raise UnknownTermInEdge(child, (child, parent))
        if parent not in index:
            raise UnknownTermInEdge(parent, (child, parent))
        found.add(index[child] * n + index[parent])
    # sorted in Python: numpy's int sorts would fault in more of its code
    keys = np.fromiter(sorted(found), dtype=np.intp, count=len(found))
    return np.stack(np.divmod(keys, n), axis=1)


def build_ontology(terms, edges):
    """Validate terms/edges and build an Ontology with ancestor lists and depths.

    terms: iterable of term id strings (non-empty, unique).
    edges: iterable of (child_id, parent_id) pairs.
    """
    ids = tuple(sorted(set(terms)))
    if not ids:
        raise NoRoot()
    n = len(ids)
    edge_idx = _index_edges(ids, edges)
    child, parent = edge_idx.T
    parent_ptr = _offsets(child, n)
    child_idx = child[np.argsort(parent, kind="stable")]
    child_ptr = _offsets(parent, n)
    # element access from Python without numpy scalars, and without a
    # list of fresh ints per edge
    up, up_ptr = memoryview(parent), memoryview(parent_ptr)
    down, down_ptr = memoryview(child_idx), memoryview(child_ptr)

    def parents_of():
        return [up[up_ptr[i]:up_ptr[i + 1]] for i in range(n)]

    indeg = np.diff(parent_ptr).tolist()
    parentless = [i for i in range(n) if not indeg[i]]
    if not parentless:
        # every term has a parent, so some cycle exists; report it
        raise CycleDetected(ids[i] for i in _find_cycle(set(range(n)), parents_of()))
    if len(parentless) > 1:
        raise MultipleRoots(ids[i] for i in parentless)
    root = parentless[0]

    # Kahn's algorithm; order guarantees parents precede children, so a
    # term's depth is final once it is taken from the queue
    depth = [n] * n
    depth[root] = 0
    level = [0] * n  # longest edge distance from the root
    order = deque([root])
    topo = []
    while order:
        node = order.popleft()
        topo.append(node)
        below = depth[node] + 1
        for c in down[down_ptr[node]:down_ptr[node + 1]]:
            if below < depth[c]:
                depth[c] = below
            level[c] = max(level[c], level[node] + 1)
            indeg[c] -= 1
            if indeg[c] == 0:
                order.append(c)
    if len(topo) < n:
        remaining = set(range(n)) - set(topo)
        raise CycleDetected(ids[i] for i in _find_cycle(remaining, parents_of()))

    anc_ptr, anc_idx = _ancestor_lists(n, edge_idx, level)
    # single root + acyclicity already imply reachability; kept as a
    # guard because every metric assumes root \in Pi_t
    with_root = np.searchsorted(anc_ptr, np.flatnonzero(anc_idx == root), side="right") - 1
    if len(with_root) < n:
        raise UnreachableTerms(ids[i] for i in np.setdiff1d(np.arange(n), with_root))

    return Ontology(
        ids=ids,
        edges=edge_idx,
        root_index=root,
        parent_ptr=parent_ptr,
        child_idx=child_idx,
        child_ptr=child_ptr,
        anc_ptr=anc_ptr,
        anc_idx=anc_idx,
        depth=np.array(depth, dtype=np.int64),
    )


def _ancestor_lists(n, edges, level):
    """CSR reflexive ancestor lists (ptr, idx) of the DAG with child ->
    parent edges, the sorted (child, parent) rows of an array, where every
    parent's level is below its child's.

    The lists are built one block of _ANC_BLOCK ancestor ids at a time:
    packed rows holding each term's ancestors inside the block start as
    the terms' own bits and take the OR of their parents' rows level by
    level, then their set bits are read out. Blocks run in ascending id
    order, so each term's ancestors come out ascending once its runs
    from the blocks are laid end to end.
    """
    steps = _level_steps(edges, level, _n_words(min(n, _ANC_BLOCK)))
    dtype = np.uint16 if n <= _NARROW_TERMS else np.int32
    runs, counts = [], np.zeros(n, dtype=np.int64)
    for b0 in range(0, n, _ANC_BLOCK):
        own = np.arange(min(_ANC_BLOCK, n - b0))
        rows = np.zeros((n, _n_words(len(own))), dtype=np.uint64)
        rows[b0 + own, own >> 6] = np.uint64(1) << (own & 63).astype(np.uint64)
        for child, parent in steps:
            rows[child] |= rows[parent]
        in_block = np.bitwise_count(rows).sum(axis=1, dtype=np.int64)
        runs.append((_set_bits(rows, in_block, b0, dtype), in_block))
        counts += in_block
        del rows  # before the next block's rows are made

    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    if len(runs) == 1:
        return ptr, runs[0][0]
    idx = np.empty(ptr[-1], dtype=dtype)
    free = ptr[:-1].copy()  # each term's next unfilled slot
    for run, in_block in runs:
        start = np.cumsum(in_block) - in_block
        idx[np.arange(len(run)) + np.repeat(free - start, in_block)] = run
        free += in_block
    return ptr, idx


def _level_steps(edges, level, words):
    """The edges, (child, parent) pairs sorted by child, as (children,
    parents) steps that are each applied as one `rows[children] |=
    rows[parents]`: a step's children are of one level and distinct, so
    a child's k-th parent comes in a later step than its first, and a
    step gathers at most _CHUNK_BYTES of rows of `words` words. Steps go
    by ascending level, so a parent's row is complete before it is read."""
    if not len(edges):
        return []
    child, parent = edges.T
    first = np.flatnonzero(np.diff(child, prepend=-1))  # each child's first edge
    k = np.arange(len(child)) - np.repeat(first, np.diff(first, append=len(child)))
    child_level = np.array(level)[child]
    order = np.lexsort((k, child_level))
    k, child_level = k[order], child_level[order]
    cuts = (np.flatnonzero((np.diff(k) != 0) | (np.diff(child_level) != 0)) + 1).tolist()
    per_step = max(1, _CHUNK_BYTES // (8 * words))
    steps = []
    for start, stop in zip([0, *cuts], [*cuts, len(order)]):
        for lo in range(start, stop, per_step):
            take = order[lo:min(stop, lo + per_step)]
            steps.append((child[take], parent[take]))
    return steps


def _set_bits(rows, counts, base, dtype):
    """base plus the positions of the set bits of packed rows, counts[i]
    of them in row i, as a dtype array in row-major order. Rows are read
    in chunks of about _CHUNK_BYTES // 64 set bits, and only a chunk's
    nonzero words are unpacked, to at most _CHUNK_BYTES bytes."""
    ends = np.cumsum(counts)
    total = int(ends[-1])
    out = np.empty(total, dtype=dtype)
    per_chunk = _CHUNK_BYTES // _WORD
    cuts = np.searchsorted(ends, np.arange(per_chunk, total, per_chunk), side="right")
    bounds = sorted({0, len(rows), *cuts.tolist()})
    for r0, r1 in zip(bounds, bounds[1:]):
        words = rows[r0:r1].ravel()
        at = np.flatnonzero(words)
        bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8),
                                            bitorder="little").view(bool))
        got = at[bits >> 6] % rows.shape[1]
        got <<= 6
        got |= bits & (_WORD - 1)
        got += base
        out[ends[r0] - counts[r0]:ends[r1 - 1]] = got
    return out
