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
# one), so its n-wide U and log2 rows stay a few hundred KiB
_BLOCK_CELLS = 2**15
# new-ancestor rows per block and per uint8 reduce: a byte lane holds at
# most 255 (a uint8 reduce runs about twice as fast as a uint16 one)
_LANE_MAX = 255


def _runs(ptr, counts):
    """Positions of the runs ptr[i] .. ptr[i] + counts[i] - 1 of a CSR
    array, laid end to end, and the (len(ptr) + 1,) offsets of the runs
    in that layout."""
    at = np.zeros(len(ptr) + 1, dtype=np.int64)
    np.cumsum(counts, out=at[1:])
    pos = np.arange(at[-1])
    pos += np.repeat(ptr - at[:-1], counts)
    return pos, at


def conditional_entropies_all(o, workers=1):
    """H(X_z, Y_xz | z) for every z, deterministic across worker counts.

    One walk over a spanning tree of the DAG carries each term's row as
    the table indices that _entropy_rows reads,
    U_z[x] = |Y_x| + |anc(x) & anc(z)| - |anc(z)| + n - 2, from a term
    to its tree children: each non-root z hangs under its parent p with
    the most ancestors, U_root = |Y_x| + n - 2, and
    U_z = U_p - sum of 1[x not in desc*(a)] over a in new(z) =
    anc(z) \\ anc(p), where desc* is the reflexive descendant set.

    An entry a of z's ancestor list is new exactly when bit p of the
    packed descendant row a (o.descendant_rows()) is clear, so one
    gather over all the lists gives every term's new ancestors,
    ascending. Each worker share lays its terms' ancestor and new lists
    end to end in depth-first preorder of the tree and walks that order
    in blocks of consecutive terms: at most _BLOCK_CELLS // n terms and
    at most _LANE_MAX new rows per block, whose ancestor lists and new
    rows are then contiguous slices. A block unpacks its complemented
    new rows once to 0/1 bytes, and each term subtracts its own from its
    parent's U: one row alone, or a uint8 reduce of several, which
    cannot wrap. A leaf whose only new ancestor is itself takes
    U_p - 1 and no row (its own entry is masked as an ancestor, and no
    term inherits from it). A term with more new ancestors than a lane
    holds sits alone in its block and is summed lane by lane. The
    block's entropies come from one table lookup and one row sum
    (_entropy_rows). In preorder every term's tree parent lies on the
    path to the previous term, so only that path's U rows, at most one
    per depth level, outlive a block.

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

    desc = o.descendant_rows()
    # a in anc(z) is new when z's tree parent is not under it: one byte
    # of descendant row a per list entry, tested at the parent's bit
    byte = desc.view(np.uint8)[o.anc_idx, np.repeat((tp >> 3).astype(o.anc_idx.dtype), counts)]
    byte &= np.repeat(np.left_shift(1, tp & 7).astype(np.uint8), counts)
    new_idx = o.anc_idx[byte == 0]
    del byte
    # anc(p) is inside anc(z), so |anc(z) \\ anc(p)| is a difference
    new_counts = counts - counts[tp]
    new_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_counts, out=new_ptr[1:])
    # rows each term subtracts: none for a leaf whose only new ancestor
    # is itself
    lane_counts = np.where((new_counts == 1) & (o.desc_counts == 0), 0, new_counts)

    tree_parent = tp.tolist()
    tree_children = [[] for _ in range(n)]
    for z, p in enumerate(tree_parent):
        if z != root:
            tree_children[p].append(z)
    per_block = max(1, _BLOCK_CELLS // n)

    def preorder(tops):
        order = []
        stack = list(reversed(tops))
        while stack:
            z = stack.pop()
            stack.extend(reversed(tree_children[z]))
            order.append(z)
        return order

    def blocks(rows):
        # (start, stop) of each block of the preorder with `rows` new rows
        # per term; a block closes before the term that would overfill it
        start, used = 0, 0
        for i, r in enumerate(rows):
            if i > start and (i - start == per_block or used + r > _LANE_MAX):
                yield start, i
                start, used = i, 0
            used += r
        yield start, len(rows)

    def desc_lanes(new):
        rows = desc[new]
        np.invert(rows, out=rows)
        return np.unpackbits(rows.view(np.uint8), axis=1, bitorder="little")[:, :n]

    u_root = _second_term_counts(o) + (n - 2)

    def walk(tops):
        order = preorder(tops)
        zs = np.array(order, dtype=np.intp)
        # the share's ancestor lists, their rows' positions in the
        # preorder, and its new rows, each laid end to end in preorder
        pos, anc_at = _runs(o.anc_ptr[zs], counts[zs])
        anc = o.anc_idx[pos]
        rank = np.repeat(np.arange(len(order), dtype=anc.dtype), counts[zs])
        lanes_of = lane_counts[zs]
        pos, new_at = _runs(new_ptr[zs], lanes_of)
        new = new_idx[pos]
        del pos
        anc_at, new_at, lanes_of = anc_at.tolist(), new_at.tolist(), lanes_of.tolist()
        path = [(root, u_root)]  # (term, U) from the root to the last term
        u_buf = np.empty((per_block, n), dtype=np.intp)
        logs_buf = np.empty((per_block, n))
        for b0, b1 in blocks(lanes_of):
            lo = new_at[b0]
            block_new = new[lo:new_at[b1]]
            lanes = desc_lanes(block_new) if 0 < len(block_new) <= _LANE_MAX else None
            u = u_buf[:b1 - b0]
            for i, u_z in enumerate(u, start=b0):
                z = order[i]
                while path[-1][0] != tree_parent[z]:
                    path.pop()
                src, start, stop = path[-1][1], new_at[i] - lo, new_at[i + 1] - lo
                if start == stop:
                    np.subtract(src, 1, out=u_z)
                    continue  # a leaf: no term's tree parent
                if stop - start == 1:
                    np.subtract(src, lanes[start], out=u_z)
                else:
                    for c0 in range(start, stop, _LANE_MAX):
                        c1 = min(c0 + _LANE_MAX, stop)
                        chunk = desc_lanes(block_new[c0:c1]) if lanes is None else lanes[c0:c1]
                        np.subtract(src, np.add.reduce(chunk, axis=0, dtype=np.uint8), out=u_z)
                        src = u_z
                path.append((z, u_z))
            path = [(t, row.copy() if row.base is u_buf else row) for t, row in path]
            a0, a1 = anc_at[b0], anc_at[b1]
            pairs = rank[a0:a1] - b0, anc[a0:a1]
            out[zs[b0:b1]] = _entropy_rows(o, zs[b0:b1], pairs, u, tab, logs_buf[:b1 - b0])

    out[root] = _entropy_rows(o, [root], o.ancestor_pairs([root]), u_root[None, :], tab)[0]
    tops = tree_children[root]
    if workers <= 1 or len(tops) < 2:
        walk(tops)
    else:
        # loaded here, so a single-worker process does not import it
        from concurrent.futures import ThreadPoolExecutor

        # deal subtrees round-robin; any split gives identical output
        shares = [tops[k::workers] for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(walk, share) for share in shares if share]
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
