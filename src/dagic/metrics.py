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

from concurrent.futures import ThreadPoolExecutor
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
    zi = o.index(z)
    pairs = o.ancestor_pairs([zi])
    in_anc = np.zeros(len(o), dtype=np.uint8)
    in_anc[pairs[1]] = 1
    # |anc(x) & anc(z)| for every x, summed over x's ancestor list
    shared = np.add.reduceat(in_anc[o.anc_idx], o.anc_ptr[:-1], dtype=np.intp)
    t = _second_term_counts(o) + shared
    return float(_entropy_rows(o, [zi], pairs, t[None, :], _log2_table(len(o)))[0])


def _log2_table(n):
    """log2 of every |Y_xz| a row can hold, at index |Y_xz| - (2 - n).

    |Y_x| = n + 1 - |anc(x)| - |desc(x)| lies in [1, n + 1 - |anc(x)|]
    and 1 <= S_z[x] <= |anc(x)|, so |Y_x| - |anc(z)| + S_z[x] lies in
    [2 - n, n]. Values below 1 occur only for x in anc(z), whose entries
    are zeroed anyway; the table holds 0 there.
    """
    tab = np.zeros(2 * n - 1)
    tab[n - 1:] = np.log2(np.arange(1, n + 1, dtype=np.float64))
    return tab


def _entropy_rows(o, zs, pairs, t, tab, logs=None):
    """H(X_z, Y_xz | z) for each z in zs from t[i] = |Y_x| + S_z[x].

    pairs is o.ancestor_pairs(zs); t is an intp array and is
    overwritten; logs, if given, is float64 scratch of t's shape.

    S_z[x] = |anc(x) & anc(z)|. For x outside anc(z), desc(x) and anc(z)
    are disjoint (a descendant of x above z would put x above z), so
    |Y_xz| = |Y_x| - |anc(z)| + S_z[x]: one shift of t, looked up in
    tab. The terms of anc(z) leave X_z; the root, which is re-admitted,
    has Y_root,z = {root} and adds log2(1) = 0, so every ancestor's
    entry is zeroed. Each row is summed alone, in the order of a 1-D
    sum, so a term's value does not depend on the rows beside it.
    """
    n = len(o)
    a = o.anc_counts[zs]
    t -= (a + 2 - n)[:, None]
    # every index is in range; mode="raise" would buffer the whole output
    logs = tab.take(t, out=logs, mode="clip")
    logs[pairs] = 0.0
    return _joint_bits(n - a + 1, logs.sum(axis=1))


# a block of the walk holds at most _BLOCK_CELLS // n terms (at least
# one), so its n-wide T and log2 rows stay a few hundred KiB
_BLOCK_CELLS = 2**15
# new-ancestor rows per block and per uint8 reduce: a byte lane holds at
# most 255 (a uint8 reduce runs about twice as fast as a uint16 one)
_LANE_MAX = 255


def conditional_entropies_all(o, workers=1):
    """H(X_z, Y_xz | z) for every z, deterministic across worker counts.

    One walk over a spanning tree of the DAG carries
    T_z[x] = |Y_x| + |anc(x) & anc(z)| from a term to its tree children:
    each non-root z hangs under its parent p with the most ancestors,
    and T_z = T_p + sum of 1[x in desc*(a)] over a in anc(z) \\ anc(p),
    where desc* is the reflexive descendant set, and T_root = |Y_x| + 1.

    The walk takes the tree in depth-first preorder, in blocks of
    consecutive terms: at most _BLOCK_CELLS // n terms and at most
    _LANE_MAX new ancestors per block. A block sets its terms' tree
    parents' ancestor lists in one unpacked row per term; a term's own
    list entries left unset there are its new ancestors. Their rows of
    o.descendant_rows() are unpacked once to 0/1 bytes, and each term
    adds its own rows to its parent's T in one uint8 reduce, which
    cannot wrap.
    A term with more new ancestors than a lane holds sits alone in its
    block and is summed lane by lane. The block's entropies come from
    one table lookup and one row sum (_entropy_rows). In preorder every
    term's tree parent lies on the path to the previous term, so only
    that path's T rows, at most one per depth level, outlive a block.

    Workers take whole subtrees of the root's tree children; every T is
    an exact integer vector and each row is summed alone, so the result
    does not depend on the worker count or the block bounds.
    """
    n = len(o)
    out = np.empty(n, dtype=np.float64)
    tab = _log2_table(n)
    root = o.root_index
    # tree parent: the parent with the most ancestors, lowest index on
    # ties, i.e. each child's first edge by (child, n - count, parent);
    # the edges come sorted by (child, parent), so two stable sorts give it
    child, parent = o.edges.T
    picks = np.argsort(n - o.anc_counts[parent], kind="stable")
    picks = picks[np.argsort(child[picks], kind="stable")]
    picks = picks[np.diff(child[picks], prepend=-1) != 0]
    tree_parent = np.full(n, root)
    tree_parent[child[picks]] = parent[picks]
    # anc(p) is inside anc(z), so |anc(z) \\ anc(p)| is a difference
    new_counts = (o.anc_counts - o.anc_counts[tree_parent]).tolist()
    tree_parent = tree_parent.tolist()
    tree_children = [[] for _ in range(n)]
    for z, p in enumerate(tree_parent):
        if z != root:
            tree_children[p].append(z)
    per_block = max(1, _BLOCK_CELLS // n)

    def blocks(tops):
        block, rows = [], 0
        stack = list(reversed(tops))
        while stack:
            z = stack.pop()
            stack.extend(reversed(tree_children[z]))
            if block and (len(block) == per_block or rows + new_counts[z] > _LANE_MAX):
                yield block
                block, rows = [], 0
            block.append(z)
            rows += new_counts[z]
        if block:
            yield block

    desc = o.descendant_rows()

    def desc_lanes(new):
        lanes = np.unpackbits(desc[new].view(np.uint8), axis=1, bitorder="little")
        return lanes[:, :n]

    t_root = _second_term_counts(o) + 1

    def walk(tops):
        path = [(root, t_root)]  # (term, T) from the root to the last term
        t_buf = np.empty((per_block, n), dtype=np.intp)
        logs_buf = np.empty((per_block, n))
        member = np.zeros((per_block, n), dtype=bool)
        for block in blocks(tops):
            zs = np.array(block)
            # each term's ancestors missing from its tree parent's list:
            # the new ones, term by term in ascending order
            k, a = o.ancestor_pairs(block + [tree_parent[z] for z in block])
            own = k < len(block)
            pairs = k[own], a[own]
            above = k[~own] - len(block), a[~own]
            member[above] = True
            new = pairs[1][~member[pairs]]
            member[above] = False
            lanes = desc_lanes(new) if len(new) <= _LANE_MAX else None
            t = t_buf[:len(block)]
            start = 0
            for t_z, z in zip(t, block):
                while path[-1][0] != tree_parent[z]:
                    path.pop()
                src, stop = path[-1][1], start + new_counts[z]
                for lo in range(start, stop, _LANE_MAX):
                    hi = min(lo + _LANE_MAX, stop)
                    chunk = desc_lanes(new[lo:hi]) if lanes is None else lanes[lo:hi]
                    np.add(src, np.add.reduce(chunk, axis=0, dtype=np.uint8), out=t_z)
                    src = t_z
                path.append((z, t_z))
                start = stop
            path = [(u, row.copy() if row.base is t_buf else row) for u, row in path]
            out[zs] = _entropy_rows(o, zs, pairs, t, tab, logs_buf[:len(block)])

    out[root] = _entropy_rows(o, [root], o.ancestor_pairs([root]), t_root[None, :].copy(),
                              tab)[0]
    tops = tree_children[root]
    if workers <= 1 or len(tops) < 2:
        walk(tops)
    else:
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
