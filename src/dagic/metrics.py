"""Information-content metrics over a DAG ontology.

Three per-term metrics:

  gic  -- graph-derived IC: relative drop in the ontology's two-term
          annotation entropy once a term (and hence its ancestors) is
          taken as assigned.
  ric  -- corpus surprisal, -log2 p(t) from propagated frequencies.
  sic  -- descendant-count IC, 1 - log(|desc|+1)/log(|N|).

Entropy H of the ontology is the joint entropy of drawing a two-term
annotation under maximum-entropy selection: the first term x is uniform
over N, the second uniform over Y_x = (N \\ (desc(x) | anc(x))) | {root}.
All entropies are reported in bits. The all-terms gIC sweep is one walk
over a spanning tree of the DAG (conditional_entropies_all).
"""

from dataclasses import dataclass

import numpy as np

from .dag import _runs
from .errors import DegenerateOntology, EmptyCorpus


@dataclass
class EntropyReport:
    total_bits: float           # H = H(first) + mean of conditional_bits
    first_term_entropy: float   # log2 |N|
    conditional_bits: np.ndarray  # per first term x: log2 |Y_x|
    y_sizes: np.ndarray           # per first term x: |Y_x|


@dataclass
class ICTable:
    metric: str                 # "gic" | "ric" | "sic"
    ontology: object
    raw: np.ndarray             # per term index; NaN where undefined
    normalized: np.ndarray      # raw / max_raw; NaN where undefined
    max_raw: float
    undefined_terms: frozenset  # term ids with no defined value (ric only)

    def raw_of(self, term_id):
        return float(self.raw[self.ontology.index(term_id)])

    def normalized_of(self, term_id):
        return float(self.normalized[self.ontology.index(term_id)])

    def is_defined(self, term_id):
        return term_id not in self.undefined_terms


def _second_term_counts(o):
    # |Y_x| = |N| - |blocked(x)| + 1 with blocked(x) = anc(x) | desc(x);
    # reflexive anc and strict desc are disjoint, and the root is always
    # blocked and re-added
    return len(o) + 1 - o.anc_counts - o.desc_counts


def _joint_bits(first_count, conditional_sum):
    # a uniform first draw over first_count terms, then a uniform second
    # draw whose log2 sizes sum to conditional_sum (sizes of 1 add 0
    # bits); one shared formula keeps H(.|root) and H bit-identical
    return np.log2(first_count) + conditional_sum / first_count


def ontology_entropy(o):
    """Two-term annotation entropy of the ontology, in bits."""
    n = len(o)
    y_sizes = _second_term_counts(o)
    conditional = np.log2(y_sizes.astype(np.float64))
    return EntropyReport(
        total_bits=float(_joint_bits(n, conditional.sum())),
        first_term_entropy=float(np.log2(n)),
        conditional_bits=conditional,
        y_sizes=y_sizes,
    )


def conditional_entropy_given(o, z):
    """Joint entropy of the two-term draw once z is assigned: the first
    term ranges over X_z = (N \\ anc(z)) | {root}, the second over
    Y_xz = (N \\ (desc(x) | anc(x) | anc(z))) | {root}."""
    n = len(o)
    zi = o.index(z)
    pairs = o.ancestor_pairs([zi])
    in_anc = np.zeros(n, dtype=np.uint8)
    in_anc[pairs[1]] = 1
    # |anc(x) & anc(z)| for every x, summed over x's ancestor list
    shared = np.add.reduceat(in_anc[o.anc_idx], o.anc_ptr[:-1], dtype=np.intp)
    # |Y_xz| - (2 - n) for x outside anc(z); see _entropy_rows
    u = _second_term_counts(o) + shared - (o.anc_counts[zi] + 2 - n)
    return float(_entropy_rows(o, [zi], pairs, u[None, :], _log2_table(n))[0])


def _log2_table(n):
    """log2 of every |Y_xz| a row can hold, at index |Y_xz| - (2 - n):
    the rows of _entropy_rows arrive as these indices.

    |Y_x| = n + 1 - |anc(x)| - |desc(x)| lies in [1, n + 1 - |anc(x)|]
    and 1 <= S_z[x] <= |anc(x)|, so |Y_x| - |anc(z)| + S_z[x] lies in
    [2 - n, n] and its index in [0, 2n - 2]. Values below 1 occur only
    for x in anc(z), whose entries are zeroed anyway; the table holds 0
    there.
    """
    tab = np.zeros(2 * n - 1)
    tab[n - 1:] = np.log2(np.arange(1, n + 1, dtype=np.float64))
    return tab


def _entropy_rows(o, zs, pairs, u, tab, logs=None):
    """H(X_z, Y_xz | z) for each z in zs from rows that arrive as table
    indices, u[i] = |Y_xz| - (2 - n) for x outside anc(z).

    pairs are the (row, ancestor) pairs of the terms' ancestor lists, as
    o.ancestor_pairs(zs) gives them; u is an intp array; logs, if given,
    is float64 scratch of u's shape.

    S_z[x] = |anc(x) & anc(z)|. For x outside anc(z), desc(x) and anc(z)
    are disjoint (a descendant of x above z would put x above z), so
    |Y_xz| = |Y_x| - |anc(z)| + S_z[x], looked up in tab. The terms of
    anc(z) leave X_z; the root, which is re-admitted, has
    Y_root,z = {root} and adds log2(1) = 0, so every ancestor's entry is
    zeroed. Each row is summed alone, in the order of a 1-D sum, so a
    term's value does not depend on the rows beside it.
    """
    # every index is in range; mode="raise" would buffer the whole output
    logs = tab.take(u, out=logs, mode="clip")
    logs[pairs] = 0.0
    return _joint_bits(len(o) - o.anc_counts[zs] + 1, logs.sum(axis=1))


# a block of the walk holds at most _BLOCK_CELLS // n terms (at least
# one), so its n-wide U and log2 rows stay a few hundred KiB; a window of
# blocks lays out at most _BLOCK_CELLS scatter entries at once
_BLOCK_CELLS = 2**15
# new ancestors per step and per block, and lanes per uint8 reduce: a
# byte lane holds at most 255 (a uint8 reduce runs about twice as fast as
# a uint16 one)
_LANE_MAX = 255


def _is_wide(sizes, n):
    """Which of the terms with `sizes` reflexive descendants keep them as
    a packed row of n bits rather than a list: those with more than
    n / 64, where the row is the smaller form or close to it (Roaring
    bitmaps switch from arrays to bitmaps near the same density)."""
    return sizes * 64 > n


def _descendant_store(o):
    """Every term's reflexive descendants, read off the ancestor lists (x
    is a descendant of a when a is in x's list), as (slot, comp, ptr, idx).

    A wide term a (_is_wide) has the complemented packed row comp[slot[a]]
    of ceil(n / 8) bytes, bit x clear when x is a descendant; comp's last
    row is all ones and is every narrow term's slot. A narrow term lists
    its descendants ascending in idx[ptr[a]:ptr[a + 1]], of anc_idx's
    type; a wide term's list is empty.

    Each list entry (x, a) clears bit x of a bool row: a's own if a is
    wide, else a spare row after the ones row that the packing drops. The
    narrow entries, stably sorted by ancestor, give the lists."""
    n, anc = len(o), o.anc_idx
    sizes = o.desc_counts + 1
    wide = _is_wide(sizes, n)
    ones = int(np.count_nonzero(wide))
    slot = np.full(n, ones, dtype=np.min_scalar_type(ones))
    slot[wide] = np.arange(ones)
    width = -(-n // 8) * 8
    spare = (ones + 1) * width
    dtype = np.int32 if spare + width < 2**31 else np.int64
    first = np.full(n, spare, dtype=dtype)  # each term's row's first bit
    first[wide] = np.arange(0, ones * width, width)
    flat = first.take(anc)
    flat += np.repeat(np.arange(n, dtype=dtype), o.anc_counts)
    bits = np.ones((ones + 2, width), dtype=bool)
    bits.reshape(-1)[flat] = False
    comp = np.packbits(bits[:-1], axis=1, bitorder="little")
    del bits
    narrow = np.flatnonzero(flat >= spare)
    del flat
    x = (np.searchsorted(o.anc_ptr, narrow, side="right") - 1).astype(anc.dtype)
    idx = x.take(np.argsort(anc.take(narrow), kind="stable"))
    sizes[wide] = 0
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    return slot, comp, ptr, idx


def _new_ancestors(o, tp, comp, slot):
    """The entries a of each term z's ancestor list, in list order, that
    are missing from its tree parent tp[z]'s: those whose descendants
    lack tp[z]. slot and comp are _descendant_store's.

    A wide a is tested at bit tp[z] of its row, one byte per list entry.
    For a narrow a, the keys z * n + a of the narrow entries ascend, and
    so do the keys of the parents' narrow entries relabelled to the
    child z; anc(tp[z]) is inside anc(z), so one search finds every one
    of the latter, and the narrow entries it misses are new."""
    n, counts = len(o), o.anc_counts
    row_bytes = comp.shape[1]
    offset = slot.astype(np.int32 if comp.nbytes < 2**31 else np.int64) * row_bytes
    offset = offset.take(o.anc_idx)
    offset += np.repeat((tp >> 3).astype(offset.dtype), counts)
    byte = comp.ravel().take(offset)
    byte &= np.repeat(np.left_shift(1, tp & 7).astype(np.uint8), counts)
    narrow = np.flatnonzero(offset >= (len(comp) - 1) * row_bytes)
    del offset
    narrow_ptr = np.searchsorted(narrow, o.anc_ptr)
    narrow_counts = np.diff(narrow_ptr)
    below = o.anc_idx.take(narrow)
    keys = np.repeat(np.arange(0, n * n, n, dtype=np.int64), narrow_counts)
    keys += below
    inherited = np.repeat(np.arange(0, n * n, n, dtype=np.int64), narrow_counts[tp])
    inherited += below.take(_runs(narrow_ptr[tp], narrow_counts[tp], len(narrow))[0])
    found = np.zeros(len(narrow), dtype=np.uint8)
    found[np.searchsorted(keys, inherited)] = 1
    del keys, inherited
    byte[narrow] = 1 - found
    return o.anc_idx.compress(byte != 0)


def conditional_entropies_all(o, workers=1):
    """H(X_z, Y_xz | z) for every z, deterministic across worker counts.

    One walk over a spanning tree of the DAG carries each term's row as
    the table indices that _entropy_rows reads,
    U_z[x] = |Y_x| + |anc(x) & anc(z)| - |anc(z)| + n - 2, from a term
    to its tree children: each non-root z hangs under its parent p with
    the most ancestors, U_root = |Y_x| + n - 2, and
    U_z = U_p - sum of 1[x not in desc*(a)] over a in new(z) =
    anc(z) \\ anc(p), where desc* is the reflexive descendant set.

    The descendant sets come from _descendant_store(): a complemented
    packed row for each wide term and a sorted list for each narrow one.
    One pass over the ancestor lists gives every term's new ancestors,
    ascending (_new_ancestors).

    Each worker share takes its terms in depth-first preorder of the tree
    and cuts each term's new ancestors into consecutive steps of at most
    _LANE_MAX, as many as a term needs and at least one. A term's first
    step starts from its tree parent's U and each later one from its
    previous step's, so a step before a term's last holds exactly
    _LANE_MAX. The share lays its steps' ancestor and new lists end to
    end and walks them in blocks of consecutive steps: at most
    _BLOCK_CELLS // n steps and at most _LANE_MAX new ancestors per
    block, whose ancestor lists and new ancestors are then contiguous
    slices. A step's lanes are the byte rows it subtracts:
    1[x not in desc*(a)] for each wide new ancestor a, the unpacked
    complemented row, and one lane for all its narrow ones, their number
    less how many of them are over x (a fill, then a scatter of their
    descendant lists). A block unpacks all its lanes at once, and each
    step subtracts its own from its source's U: one lane alone, or a
    uint8 reduce of several, which cannot wrap. A leaf whose only new
    ancestor is itself takes U_p - 1 and no lane (its own entry is masked
    as an ancestor, and no term inherits from it). The block's entropies
    come from one table lookup and one row sum (_entropy_rows); a term's
    last step sets its value. The scatter entries are laid out a window
    of blocks at a time. In preorder every step's source lies on the path
    to the previous step, so only that path's U rows, one per step on it,
    outlive a block.

    Workers take whole subtrees of the root's tree children; every U is
    an exact integer vector and each row is summed alone, so the result
    does not depend on the worker count or the block bounds.
    """
    n = len(o)
    out = np.empty(n, dtype=np.float64)
    tab = _log2_table(n)
    root = o.root_index
    counts = o.anc_counts
    # tree parent: the parent with the most ancestors, lowest index on
    # ties, i.e. each child's first edge by (child, n - count, parent);
    # the edges come sorted by (child, parent), so two stable sorts give it
    child, parent = o.edges.T
    picks = np.argsort(n - counts[parent], kind="stable")
    picks = picks[np.argsort(child[picks], kind="stable")]
    picks = picks[np.diff(child[picks], prepend=-1) != 0]
    tp = np.full(n, root)
    tp[child[picks]] = parent[picks]

    slot, comp, desc_ptr, desc_idx = _descendant_store(o)
    desc_counts = np.diff(desc_ptr)
    ones = len(comp) - 1
    width = 8 * comp.shape[1]  # bytes of an unpacked row: n, then padding
    new_idx = _new_ancestors(o, tp, comp, slot)
    # anc(p) is inside anc(z), so |anc(z) \\ anc(p)| is a difference
    new_counts = counts - counts[tp]
    new_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_ptr[1:])
    # new ancestors whose lanes each term subtracts: none for a leaf whose
    # only new ancestor is itself
    lane_counts = np.where((new_counts == 1) & (o.desc_counts == 0), 0, new_counts)

    tree_children = [[] for _ in range(n)]
    for z, p in enumerate(tp.tolist()):
        if z != root:
            tree_children[p].append(z)
    per_block = max(1, _BLOCK_CELLS // n)
    one = np.uint8(1)  # a uint8 scalar keeps np.subtract.at on its fast path

    def preorder(tops):
        order = []
        stack = list(reversed(tops))
        while stack:
            z = stack.pop()
            stack.extend(reversed(tree_children[z]))
            order.append(z)
        return order

    def blocks(news):
        # (start, stop) of each block of the steps with `news` new
        # ancestors per step; a block closes before the step that would
        # overfill it
        start, used = 0, 0
        for i, r in enumerate(news):
            if i > start and (i - start == per_block or used + r > _LANE_MAX):
                yield start, i
                start, used = i, 0
            used += r
        yield start, len(news)

    def windows(bounds, scattered):
        # runs of whole blocks with at most _BLOCK_CELLS scatter entries,
        # or one block
        first = 0
        for k in range(1, len(bounds)):
            if scattered[bounds[k][1]] - scattered[bounds[first][0]] > _BLOCK_CELLS:
                yield bounds[first:k]
                first = k
        yield bounds[first:]

    u_root = _second_term_counts(o) + (n - 2)

    def walk(tops):
        order = preorder(tops)
        # step k of a term walks its lanes from k * _LANE_MAX on, starting
        # from its tree parent's row if k is 0 and its own otherwise
        term_lanes = lane_counts[order]
        steps = np.maximum(1, -(-term_lanes // _LANE_MAX))
        zs = np.repeat(np.array(order, dtype=np.intp), steps)
        k = np.arange(len(zs)) - np.repeat(np.cumsum(steps) - steps, steps)
        lanes_of = np.minimum(np.repeat(term_lanes, steps) - k * _LANE_MAX, _LANE_MAX)
        terms, source = zs.tolist(), np.where(k == 0, tp[zs], zs).tolist()
        # the steps' ancestor lists, their rows' positions among the steps
        # (which can outnumber the terms), and their new ancestors, each
        # laid end to end
        pos, anc_at = _runs(o.anc_ptr[zs], counts[zs], len(o.anc_idx))
        anc = o.anc_idx.take(pos)
        rank = np.repeat(np.arange(len(zs), dtype=np.min_scalar_type(len(zs))), counts[zs])
        pos, new_at = _runs(new_ptr[zs] + k * _LANE_MAX, lanes_of, len(new_idx))
        new = new_idx.take(pos)
        del pos, k
        bounds = list(blocks(lanes_of.tolist()))
        # a new ancestor starts a lane if it is wide or its step's first
        # narrow one
        heads = slot.take(new) != ones
        narrow = np.flatnonzero(~heads)
        step = np.searchsorted(new_at, narrow, side="right") - 1
        starts = np.diff(step, prepend=-1) != 0
        heads[narrow[starts]] = True
        lane_at = np.zeros(len(new) + 1, dtype=np.int64)
        np.cumsum(heads, out=lane_at[1:])
        lane_rows = slot.take(new.compress(heads))  # each lane's comp row
        # the narrow lanes: each one's index from its block's first lane
        # and its number of narrow new ancestors, each step's first narrow
        # lane, and each narrow new ancestor's lane
        b0s = [b0 for b0, _ in bounds]
        first = np.repeat(lane_at[new_at[b0s]], np.diff(b0s, append=len(zs)))
        lane = lane_at.take(narrow.compress(starts)) - first.take(step.compress(starts))
        narrow_lane = lane.take(np.cumsum(starts) - 1)
        starts = np.flatnonzero(starts)
        fill = np.diff(starts, append=len(narrow)).astype(np.uint8)
        fill_at = np.searchsorted(step.take(starts), np.arange(len(zs) + 1)).tolist()
        # the scatter entries, lane * width + x for each descendant x of a
        # narrow new ancestor, and each narrow lane's first
        narrow = new.take(narrow)
        sizes = desc_counts.take(narrow)
        scattered = np.zeros(len(narrow) + 1, dtype=np.int64)
        np.cumsum(sizes, out=scattered[1:])
        starts = np.append(starts, len(narrow)).tolist()
        hit_at = scattered.take(starts).tolist()
        entry_type = np.int32 if (int(lane.max(initial=0)) + 1) * width < 2**31 else np.int64
        lane_at = lane_at.take(new_at).tolist()  # each step's first lane
        anc_at = anc_at.tolist()

        path = [(root, u_root)]  # (term, U) from the root to the last step
        u_buf = np.empty((per_block, n), dtype=np.intp)
        logs_buf = np.empty((per_block, n))
        for group in windows(bounds, [hit_at[j] for j in fill_at]):
            k0, k1 = fill_at[group[0][0]], fill_at[group[-1][1]]
            e0, e1 = starts[k0], starts[k1]
            pos = _runs(desc_ptr.take(narrow[e0:e1]), sizes[e0:e1], len(desc_idx))[0]
            hits = np.repeat(narrow_lane[e0:e1].astype(entry_type) * width, sizes[e0:e1])
            hits += desc_idx.take(pos)
            del pos
            base = hit_at[k0]
            for b0, b1 in group:
                lo, j0, j1 = lane_at[b0], fill_at[b0], fill_at[b1]
                block = np.unpackbits(comp[lane_rows[lo:lane_at[b1]]], axis=1, bitorder="little")
                if j1 > j0:
                    block[lane[j0:j1]] = fill[j0:j1, None]
                    np.subtract.at(block.reshape(-1), hits[hit_at[j0] - base:hit_at[j1] - base],
                                   one)
                u = u_buf[:b1 - b0]
                for i, u_z in enumerate(u, start=b0):
                    while path[-1][0] != source[i]:
                        path.pop()
                    src, start, stop = path[-1][1], lane_at[i] - lo, lane_at[i + 1] - lo
                    if start == stop:
                        np.subtract(src, 1, out=u_z)
                        continue  # a leaf: no term's tree parent
                    if stop - start == 1:
                        np.subtract(src, block[start, :n], out=u_z)
                    else:
                        np.subtract(src, np.add.reduce(block[start:stop], axis=0, dtype=np.uint8)[:n],
                                    out=u_z)
                    path.append((terms[i], u_z))
                if len(u_buf) == 1 and path[-1][1].base is u_buf:
                    u_buf = np.empty_like(u_buf)  # the path keeps the old one
                else:
                    path = [(t, row.copy() if row.base is u_buf else row) for t, row in path]
                a0, a1 = anc_at[b0], anc_at[b1]
                pairs = rank[a0:a1] - b0, anc[a0:a1]
                # a step before its term's last fills the lanes of its
                # block, so no term has two steps in one block, and the
                # block of its last step, written later, sets out[z]
                out[zs[b0:b1]] = _entropy_rows(o, zs[b0:b1], pairs, u, tab, logs_buf[:b1 - b0])

    out[root] = _entropy_rows(o, [root], o.ancestor_pairs([root]), u_root[None, :], tab)[0]
    tops = tree_children[root]
    if workers <= 1 or len(tops) < 2:
        walk(tops)
    else:
        # loaded here, so a single-worker process does not import it
        from concurrent.futures import ThreadPoolExecutor

        # deal subtrees round-robin, to no more workers than subtrees; any
        # split gives identical output
        workers = min(workers, len(tops))
        shares = [tops[k::workers] for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(walk, share) for share in shares]
            for f in futures:
                f.result()
    return out


def _table(metric, o, raw, undefined=frozenset()):
    defined = ~np.isnan(raw)
    max_raw = float(raw[defined].max())
    normalized = raw / max_raw if max_raw != 0 else raw.copy()
    # read-only, so nothing derived from a table (semsim's rank index) goes stale
    raw.setflags(write=False)
    normalized.setflags(write=False)
    return ICTable(
        metric=metric,
        ontology=o,
        raw=raw,
        normalized=normalized,
        max_raw=max_raw,
        undefined_terms=frozenset(undefined),
    )


def gic(o, workers=1):
    """Graph-derived IC: gic(z) = (H - H(.|z)) / H, max-normalized."""
    if len(o) < 2:
        raise DegenerateOntology()
    h = ontology_entropy(o).total_bits
    cond = conditional_entropies_all(o, workers=workers)
    raw = (h - cond) / h
    raw[o.root_index] = 0.0  # exact; X_root = N and Y_x,root = Y_x
    return _table("gic", o, raw)


def sic(o):
    """Descendant-count IC: 1 - log(|desc|+1)/log(|N|) (base-invariant)."""
    if len(o) < 2:
        raise DegenerateOntology()
    raw = 1.0 - np.log(o.desc_counts + 1.0) / np.log(float(len(o)))
    return _table("sic", o, raw)


def ric(o, corpus):
    """Corpus surprisal IC: -log2 p(t); terms with p = 0 are undefined
    and excluded from normalization."""
    if corpus.total <= 0:
        raise EmptyCorpus()
    p = corpus.propagated_count.astype(np.float64) / corpus.total
    raw = np.full(len(o), np.nan)
    defined = p > 0
    raw[defined] = -np.log2(p[defined]) + 0.0  # avoid -0.0 at the root
    undefined = {o.ids[i] for i in np.flatnonzero(~defined)}
    return _table("ric", o, raw, undefined)
