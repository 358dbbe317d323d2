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
the sorted (child, parent) rows of an (m, 2) intp array, with no
offsets into them: parents() and children() select their rows.

Code outside this module asks Ontology for what it needs from the
closure: ancestor_union(indices), the sorted union of the terms'
reflexive ancestors; under(a, xs), the members of xs that have a
as a reflexive ancestor; the anc_counts and desc_counts per term; and
the ancestors/descendants set views. Only metrics reads anc_ptr and
anc_idx directly: conditional_entropy_given, and the all-terms gIC
sweep's _descendant_store (which also finds each term's new ancestors)
and _Sweep schedule.

build_ontology takes the DAG one level at a time from the root (Kahn's
algorithm in rounds): each round settles its level's depths, finds the
next level, and yields the level's OR steps. One kernel, _closure_rows,
runs those steps to build packed rows of the closure over one block of
_ANC_BLOCK ids at a time; a block is n rows of at most _ANC_BLOCK bits,
so no n x n bit array exists above _ANC_BLOCK terms, and no block
outlives its caller. _closure_lists reads the ancestor lists out of the
blocks' set bits; the gIC sweep in metrics reads its descendant sets off
them, as complemented packed rows of reflexive descendants for wide
terms and sorted lists of strict descendants for narrow ones.
"""

from bisect import bisect_left

import numpy as np

from .errors import (
    CycleDetected,
    MultipleRoots,
    NoRoot,
    UnknownTerm,
    UnknownTermInEdge,
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


def _runs(ptr, counts, total):
    """Positions of the runs ptr[i] .. ptr[i] + counts[i] - 1 of a CSR
    array of total entries, laid end to end, and the (len(ptr) + 1,)
    offsets of the runs in that layout. The positions are int32 while
    the array's do fit in it."""
    at = np.zeros(len(ptr) + 1, dtype=np.int64)
    np.cumsum(counts, out=at[1:])
    dtype = np.int32 if total < 2**31 else np.int64
    pos = np.arange(at[-1], dtype=dtype)
    pos += np.repeat((ptr - at[:-1]).astype(dtype), counts)
    return pos, at


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
    lexicographic id order so every emitted table is deterministic. The
    edges are held once, as sorted (child, parent) rows with no CSR
    offsets; parents() and children() select the rows that name the term.
    """

    def __init__(self, ids, index, edges, root_index, anc_ptr, anc_idx, depth):
        self.ids = ids                      # tuple[str], lexicographic
        self._index = index                 # {id: position in ids}
        self.edges = edges                  # (m, 2) intp rows (child, parent), sorted
        self.root_index = root_index
        self.anc_ptr = anc_ptr              # (n + 1,) int64 offsets into anc_idx
        self.anc_idx = anc_idx              # each term's ancestors ascending
        self.anc_counts = np.diff(anc_ptr)
        # a bincount of the lists, without bincount's copy of them to intp
        self.desc_counts = np.full(len(ids), -1, dtype=np.int64)
        np.add.at(self.desc_counts, anc_idx, 1)
        self.depth = depth                  # (n,) int64, min edge distance
        for arr in (self.edges, self.anc_ptr, self.anc_idx, self.anc_counts,
                    self.desc_counts, self.depth):
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
        return frozenset(self.ids[p] for p in self.edges[self.edges[:, 0] == i, 1].tolist())

    def children(self, term_id):
        i = self.index(term_id)
        return frozenset(self.ids[c] for c in self.edges[self.edges[:, 1] == i, 0].tolist())

    def ancestors(self, term_id):
        """Reflexive ancestor set (includes the term itself and the root)."""
        return frozenset(self.ids[j] for j in self.ancestor_union([self.index(term_id)]))

    def descendants(self, term_id):
        """Strict descendant set (excludes the term itself)."""
        a = self.index(term_id)
        rows = np.searchsorted(self.anc_ptr, np.flatnonzero(self.anc_idx == a),
                               side="right") - 1
        return frozenset(self.ids[x] for x in rows.tolist() if x != a)

    def ancestor_union(self, indices):
        """Sorted term indices (an array of anc_idx's type) of the union
        of the reflexive ancestors of the terms at indices, a list of
        term indices; empty for an empty list."""
        ptr, idx = self._ptr_view, self.anc_idx
        anc = np.concatenate([idx[:0], *(idx[ptr[i]:ptr[i + 1]] for i in indices)])
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


def _find_cycle(remaining, parent, parent_ptr):
    # walk parent pointers inside the unprocessed set until a repeat
    start = min(remaining)
    seen = {}
    path = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = next(p for p in parent[parent_ptr[node]:parent_ptr[node + 1]].tolist()
                    if p in remaining)
    return path[seen[node]:] + [node]


def _index_edges(index, edges):
    """The distinct (child, parent) index pairs of edges, under the id ->
    index dict index, as the rows of an (m, 2) intp array, sorted; the
    first edge, in input order, that names a term outside index raises."""
    n = len(index)
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
    index = {t: i for i, t in enumerate(ids)}
    edge_idx = _index_edges(index, edges)
    child, parent = edge_idx.T
    parent_ptr = _offsets(child, n)
    child_idx = child[np.argsort(parent, kind="stable")]
    child_ptr = _offsets(parent, n)
    n_parents, n_children = np.diff(parent_ptr), np.diff(child_ptr)

    parentless = np.flatnonzero(n_parents == 0).tolist()
    if not parentless:
        # every term has a parent, so some cycle exists; report it
        raise CycleDetected(ids[i] for i in _find_cycle(set(range(n)), parent, parent_ptr))
    if len(parentless) > 1:
        raise MultipleRoots(ids[i] for i in parentless)
    root = parentless[0]

    # Kahn's algorithm a level at a time: level r + 1 holds the children
    # whose last parent lies in level r (the longest edge distance from
    # the root is r + 1), so every term's parents, and hence its depth
    # and its closure row, are final before its level is taken
    per_step = max(1, _CHUNK_BYTES // (8 * _n_words(min(n, _ANC_BLOCK))))
    depth = np.full(n, n, dtype=np.int64)
    depth[root] = 0
    waiting = n_parents.copy()  # parents not yet taken; < 0 once taken
    level, steps = np.array([root]), []
    while len(level):
        # the level's k-th parents OR in after its (k - 1)-th, so no step
        # names a term twice; a step gathers at most _CHUNK_BYTES of a
        # block's rows
        counts = n_parents[level]
        for k in range(counts.max()):
            dst = level[counts > k]
            src = parent[parent_ptr[dst] + k]
            steps += [(dst[lo:lo + per_step], src[lo:lo + per_step])
                      for lo in range(0, len(dst), per_step)]
        counts = n_children[level]
        kids = child_idx.take(_runs(child_ptr[level], counts, len(child_idx))[0])
        np.minimum.at(depth, kids, np.repeat(depth[level] + 1, counts))
        np.subtract.at(waiting, kids, 1)
        level = kids[waiting[kids] == 0]
        # a child under two terms of the level comes twice: tag each entry
        # with its own negative slot and keep the entry whose tag stuck
        tags = -1 - np.arange(len(level))
        waiting[level] = tags
        level = level[waiting[level] == tags]
    remaining = np.flatnonzero(waiting > 0).tolist()
    if remaining:
        raise CycleDetected(ids[i] for i in _find_cycle(set(remaining), parent, parent_ptr))
    # the rounds take only the root and children of terms they took, so
    # no term left waiting means every term lies under the root: the root
    # is in every ancestor list, as every metric assumes

    anc_ptr, anc_idx = _closure_lists(n, steps)

    return Ontology(
        ids=ids,
        index=index,
        edges=edge_idx,
        root_index=root,
        anc_ptr=anc_ptr,
        anc_idx=anc_idx,
        depth=depth,
    )


def _closure_lists(n, steps):
    """CSR reflexive ancestor lists (ptr, idx) of the n-term DAG whose
    edges are the (dsts, srcs) steps of build_ontology's rounds: a step
    names no child twice, and a parent's steps all come before its
    child's.

    The lists are built one block of _ANC_BLOCK ids (a multiple of 64) at
    a time: the packed rows of every term inside the block (_closure_rows),
    whose set bits are read out (_set_bits). Blocks run in ascending id
    order, so each list comes out ascending once its runs from the blocks
    are laid end to end.
    """
    dtype = np.uint16 if n <= _NARROW_TERMS else np.int32
    runs, counts = [], np.zeros(n, dtype=np.int64)
    for b0 in range(0, n, _ANC_BLOCK):
        rows = _closure_rows(n, steps, b0, min(_ANC_BLOCK, n - b0))
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
        idx[_runs(free, in_block, len(idx))[0]] = run
        free += in_block
    return ptr, idx


def _closure_rows(n, steps, first, width):
    """(n, words) uint64 packed rows over the ids first .. first + width
    - 1: each row starts as its own bit, if it has one there, and then
    takes `rows[dst] |= rows[src]` for each (dst, src) step in turn."""
    own = np.arange(width)
    rows = np.zeros((n, _n_words(width)), dtype=np.uint64)
    rows[first + own, own >> 6] = np.uint64(1) << (own & 63).astype(np.uint64)
    for dst, src in steps:
        rows[dst] |= rows[src]
    return rows


def _set_bits(rows, counts, base, dtype):
    """base plus the positions of the set bits of packed rows, counts[i]
    of them in row i, as a dtype array in row-major order. Only the rows
    with a bit set are read: they are gathered in chunks of at most
    _CHUNK_BYTES of rows (or one row) and about _CHUNK_BYTES // 64 set
    bits, and only a chunk's nonzero words are unpacked, to at most
    _CHUNK_BYTES bytes."""
    live = np.flatnonzero(counts)
    ends = np.zeros(len(live) + 1, dtype=np.int64)
    np.cumsum(counts[live], out=ends[1:])
    out = np.empty(ends[-1], dtype=dtype)
    per_chunk = _CHUNK_BYTES // _WORD
    cuts = np.searchsorted(ends, np.arange(per_chunk, ends[-1], per_chunk), side="right") - 1
    per_gather = max(1, _CHUNK_BYTES // rows[:1].nbytes)
    bounds = sorted({len(live), *cuts.tolist(), *range(0, len(live), per_gather)})
    for r0, r1 in zip(bounds, bounds[1:]):
        words = rows[live[r0:r1]].ravel()
        at = np.flatnonzero(words)
        bits = np.flatnonzero(np.unpackbits(words[at].view(np.uint8),
                                            bitorder="little").view(bool))
        got = at[bits >> 6] % rows.shape[1]
        got <<= 6
        got |= bits & (_WORD - 1)
        got += base
        out[ends[r0]:ends[r1]] = got
    return out
