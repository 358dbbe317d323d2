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
over a spanning tree of the DAG (conditional_entropies_all), scheduled
once by _Sweep and run in contiguous shares of its blocks.
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
        self.ontology.index(term_id)  # an unknown id raises UnknownTerm
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
    anc = o.anc_idx[o.anc_ptr[zi]:o.anc_ptr[zi + 1]]
    in_anc = np.zeros(n, dtype=np.uint8)
    in_anc[anc] = 1
    # |anc(x) & anc(z)| for every x, summed over x's ancestor list
    shared = np.add.reduceat(in_anc[o.anc_idx], o.anc_ptr[:-1], dtype=np.intp)
    # |Y_xz| for x outside anc(z), 0 for its ancestors; see _log2_table
    u = _second_term_counts(o) + shared - o.anc_counts[zi]
    u[anc] = 0
    sums = _log2_sums(_log2_table(n), u[None, :])
    return float(_joint_bits(n + 1 - o.anc_counts[zi], sums)[0])


def _log2_table(n):
    """log2 k at index k for every size 1 <= k <= n that |Y_xz| can take,
    and 0 at index 0: a row u of table indices holds u[x] = |Y_xz| for x
    outside anc(z) and at most 0 for x in anc(z).

    S_z[x] = |anc(x) & anc(z)|. For x outside anc(z), desc(x) and anc(z)
    are disjoint (a descendant of x above z would put x above z), so
    |Y_xz| = |Y_x| - |anc(z)| + S_z[x]; Y_xz holds the root and no more
    than Y_x, and |Y_x| = n + 1 - |anc(x)| - |desc(x)| <= n. The terms of
    anc(z) leave X_z; the root, which is re-admitted, has
    Y_root,z = {root} and adds log2(1) = 0, so a row masks every
    ancestor with any index <= 0, which a "clip" take reads as index 0.
    """
    tab = np.zeros(n + 1)
    tab[1:] = np.log2(np.arange(1, n + 1, dtype=np.float64))
    return tab


def _log2_sums(tab, u):
    """sum of log2 |Y_xz| over x in X_z for each row of the 2-D array u
    of table indices (_log2_table). Each row is summed alone, in the
    order of a 1-D sum, so a term's sum does not depend on the rows
    beside it or on the rows' integer type."""
    # a masked entry can be negative: "clip" reads it as index 0, and
    # mode="raise" would buffer the whole output
    return tab.take(u, mode="clip").sum(axis=1)


# a block of the walk holds at most _BLOCK_CELLS // n terms (at least
# one), so its n-wide U and log2 rows stay a few hundred KiB; a window of
# blocks lays out at most _BLOCK_CELLS scatter entries at once and holds
# at most _BLOCK_CELLS // 64 steps
_BLOCK_CELLS = 2**15
# new ancestors per step and per block: a step's uint8 reduce, of its
# wide lanes from initial= its narrow count, holds at most 255 (a uint8
# reduce runs about twice as fast as a uint16 one)
_LANE_MAX = 255
# the walk's rows are int16 below this many terms and int32 from it on, as
# dag._NARROW_TERMS bounds the uint16 lists; a row entry lies in [-n, n]
_NARROW_ROWS = 2**15


def _is_wide(sizes, n):
    """Which of the terms with `sizes` reflexive descendants keep them as
    a packed row of n bits rather than a list: those with more than
    n / 64, where the row is the smaller form or close to it (Roaring
    bitmaps switch from arrays to bitmaps near the same density)."""
    return sizes * 64 > n


def _descendant_store(o, tp):
    """Every term's reflexive descendants, read off the ancestor lists (x
    is a descendant of a when a is in x's list), as (slot, comp, ptr, idx),
    and then the entries a of each term z's list, in list order, that are
    missing from its tree parent tp[z]'s: those whose descendants lack
    tp[z]. This is the one pass over the lists that _Sweep makes.

    A wide term a (_is_wide) has the complemented packed row comp[slot[a]]
    of ceil(n / 8) bytes, bit x clear when x is a reflexive descendant;
    every narrow term's slot is len(comp), past the last row. A narrow
    term lists its strict descendants ascending in idx[ptr[a]:ptr[a + 1]],
    of anc_idx's type: its own entry is left out, since the walk masks
    it in the step that adds a. A wide term's list is empty.

    Each list entry (z, a) clears bit z of a bool row: a's own if a is
    wide, else a spare last row that the packing drops.
    Moved to bit tp[z], the same entry then reads whether a wide a is new.
    For a narrow a, the keys z * n + a of the narrow entries ascend, and
    so do the keys of the parents' narrow entries relabelled to the child
    z; anc(tp[z]) is inside anc(z), so one search finds every one of the
    latter, and the narrow entries it misses are new. The narrow entries
    but each term's own, stably sorted by ancestor, give the lists."""
    n, anc, counts = len(o), o.anc_idx, o.anc_counts
    sizes = o.desc_counts + 1
    wide = _is_wide(sizes, n)
    rows = int(np.count_nonzero(wide))
    slot = np.full(n, rows, dtype=np.min_scalar_type(rows))
    slot[wide] = np.arange(rows)
    width = -(-n // 8) * 8
    spare = rows * width
    dtype = np.int32 if spare + width < 2**31 else np.int64
    first = np.full(n, spare, dtype=dtype)  # each term's row's first bit
    first[wide] = np.arange(0, spare, width)
    terms = np.arange(n, dtype=dtype)
    pos = first.take(anc)
    pos += np.repeat(terms, counts)
    bits = np.ones((rows + 1, width), dtype=bool)
    bits.reshape(-1)[pos] = False
    # bit tp[z] of the same row, set when a wide a is not over tp[z]
    pos -= np.repeat(terms - tp.astype(dtype), counts)
    new = bits.reshape(-1)[pos]
    comp = np.packbits(bits[:-1], axis=1, bitorder="little")
    del bits
    narrow = np.flatnonzero(pos >= spare)
    del pos
    narrow_ptr = np.searchsorted(narrow, o.anc_ptr)
    narrow_counts = np.diff(narrow_ptr)
    below = anc.take(narrow)
    keys = np.repeat(np.arange(0, n * n, n, dtype=np.int64), narrow_counts)
    keys += below
    inherited = np.repeat(np.arange(0, n * n, n, dtype=np.int64), narrow_counts[tp])
    inherited += below.take(_runs(narrow_ptr[tp], narrow_counts[tp], len(narrow))[0])
    missed = np.ones(len(narrow), dtype=bool)
    missed[np.searchsorted(keys, inherited)] = False
    del keys, inherited
    new[narrow] = missed
    x = np.repeat(np.arange(n, dtype=anc.dtype), narrow_counts)
    strict = x != below
    idx = x.compress(strict).take(np.argsort(below.compress(strict), kind="stable"))
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.where(wide, 0, o.desc_counts), out=ptr[1:])
    return slot, comp, ptr, idx, anc.compress(new)


class _Sweep:
    """The all-terms gIC walk of conditional_entropies_all, scheduled once
    for every term but the root; walk() runs a share of its blocks and
    stores each of their terms' sum of log2 |Y_xz| in out.

    The walk carries each term's row as the table indices that
    _log2_sums reads, U_z[x] = |Y_xz| = |Y_x| + |anc(x) & anc(z)| -
    |anc(z)|, down a spanning tree of the DAG: each non-root z hangs under
    its parent p with the most ancestors, U_root = |Y_x|, and
    U_z = U_p - sum of 1[x not in desc*(a)] over a in new(z) =
    anc(z) \\ anc(p), where desc* is the reflexive descendant set. One
    pass over the ancestor lists, _descendant_store(), gives the
    descendant sets (a complemented packed row for each wide term and a
    sorted list of strict descendants for each narrow one) and every
    term's new ancestors, ascending.

    The schedule takes the terms in one depth-first preorder of the tree,
    so each subtree of the root is one run, and cuts each term's new
    ancestors into consecutive steps of at most _LANE_MAX, as many as a
    term needs (z itself is new, so at least one). A term's first step
    starts from its tree parent's U (source) and each later one from its
    previous step's, so a step before a term's last holds exactly
    _LANE_MAX. The steps' new ancestors lie end to end, step i's at
    new[new_at[i]:new_at[i + 1]], and the steps are cut into blocks of
    consecutive steps (bounds): a block opens where a subtree of the
    root starts and before a step that would give it more than
    _BLOCK_CELLS // n steps (at least one) or more than _LANE_MAX new
    ancestors, so its new ancestors are a contiguous slice.

    The rows carry each term's mask of its ancestors: an entry is set to
    0 in the row where its term becomes an ancestor, which is the root's
    own entry in U_root and each step's new ancestors in that step's row.
    A step's net change at every other entry x is -sum of 1[x not in
    desc*(a)] over its new ancestors a, so, as every entry outside anc(z)
    is at least 1, a masked entry stays at most 0 in every row below and
    reads 0 from the table (_log2_table). No final entry falls below -n,
    so the rows are int16 while n < _NARROW_ROWS and int32 above, signed
    for the masked entries; u_root is the root's row.

    Step i's lanes, lane_at[i] to lane_at[i + 1], are the unpacked
    complemented rows comp[lane_rows[l]] of its wide new ancestors. Its
    c narrow new ancestors have no lane: the step subtracts c from every
    entry and adds 1 back at each strict descendant of each of them (its
    scatter entries). Before that scatter an entry sits up to _LANE_MAX
    below its final value; int16 and int32 array arithmetic wraps modulo
    2^16 and 2^32, and the final value lies in [-n, n], so the row is
    exact. A leaf whose only new ancestor is itself has neither a lane
    nor a scatter entry if it is narrow: it takes U_p - 1 and masks its
    own entry.

    The blocks are grouped once, into windows of whole blocks: window[b]
    ends the one that starts at block b, which holds at most _BLOCK_CELLS
    scatter entries and at most _BLOCK_CELLS // 64 steps, or block b
    alone.

    The schedule is kept as the numpy arrays it is computed as, none as
    a Python list: per step zs (the term) and source, and lane_at and
    new_at with one more entry for the end; per block window, and bounds
    with the end; per new ancestor new; and per lane lane_rows. walk()
    reads the per-step ones as lists a window at a time, and lays out the
    window's scatter entries there.
    """

    def __init__(self, o):
        n, root, counts = len(o), o.root_index, o.anc_counts
        self.o, self.root, self.out = o, root, np.empty(n)
        self.tab = _log2_table(n)
        self.u_root = _second_term_counts(o).astype(np.int16 if n < _NARROW_ROWS else np.int32)
        self.u_root[root] = 0
        per_block = max(1, _BLOCK_CELLS // n)
        # tree parent: the parent with the most ancestors, lowest index on
        # ties, i.e. each child's first edge by (child, -count, parent); the
        # edges come sorted by (child, parent), and lexsort is stable
        child, parent = o.edges.T
        picks = np.lexsort((-counts[parent], child))
        picks = picks[np.diff(child[picks], prepend=-1) != 0]
        tp = np.full(n, root)
        tp[child[picks]] = parent[picks]

        slot, self.comp, self.desc_ptr, self.desc_idx, new_idx = _descendant_store(o, tp)
        # anc(p) is inside anc(z), so |anc(z) \\ anc(p)| is a difference
        new_counts = counts - counts[tp]
        new_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(new_counts, out=new_ptr[1:])

        tree_children = [[] for _ in range(n)]
        for z, p in enumerate(tp.tolist()):
            if z != root:
                tree_children[p].append(z)
        order, stack = [], tree_children[root][::-1]
        while stack:
            z = stack.pop()
            stack.extend(reversed(tree_children[z]))
            order.append(z)
        del tree_children
        # step k of a term takes its new ancestors from k * _LANE_MAX on
        term_new = new_counts[order]
        steps = -(-term_new // _LANE_MAX)
        self.zs = zs = np.repeat(np.array(order, dtype=np.intp), steps)
        k = np.arange(len(zs)) - np.repeat(np.cumsum(steps) - steps, steps)
        new_of = np.minimum(np.repeat(term_new, steps) - k * _LANE_MAX, _LANE_MAX)
        self.source = np.where(k == 0, tp[zs], zs)
        bounds, start, used = [], 0, 0
        for i, (r, s) in enumerate(zip(new_of.tolist(), self.source.tolist())):
            if s == root or i - start == per_block or used + r > _LANE_MAX:
                bounds.append(i)
                start, used = i, 0
            used += r
        bounds.append(len(zs))
        self.bounds = b = np.array(bounds)
        del bounds
        # the steps' new ancestors, laid end to end; walk masks with an intp
        # copy, which writes a row faster than a narrow index
        pos, new_at = _runs(new_ptr[zs] + k * _LANE_MAX, new_of, len(new_idx))
        new = new_idx.take(pos)
        self.new, self.new_at = new.astype(np.intp), new_at
        del pos, k, new_idx
        wide = slot.take(new) != len(self.comp)
        lane_at = np.zeros(len(new) + 1, dtype=np.int64)
        np.cumsum(wide, out=lane_at[1:])
        self.lane_rows = slot.take(new.compress(wide))
        self.lane_at = lane_at.take(new_at)
        # each block's first scatter entry (a wide new ancestor lists
        # none), then the windows
        scattered = np.zeros(len(new) + 1, dtype=np.int64)
        np.cumsum(np.diff(self.desc_ptr).take(new), out=scattered[1:])
        hits = scattered.take(new_at.take(b))
        window = np.minimum(np.searchsorted(hits, hits[:-1] + _BLOCK_CELLS, "right"),
                            np.searchsorted(b, b[:-1] + _BLOCK_CELLS // 64, "right")) - 1
        self.window = np.maximum(window, np.arange(1, len(b)))

    def shares(self, workers):
        """The blocks as at most `workers` ranges, each a run of whole
        subtrees of the root, cut at the subtree starts nearest to equal
        shares of the steps."""
        bounds = self.bounds
        tops = np.flatnonzero(self.source[bounds[:-1]] == self.root)
        firsts = np.append(tops, len(bounds) - 1)
        at = bounds[firsts]  # the subtrees' first steps, then the step count
        w = min(max(1, workers), len(tops))
        cuts = np.searchsorted(w * (at[:-1] + at[1:]), 2 * at[-1] * np.arange(w))
        firsts = sorted(set(firsts[cuts].tolist()) | {len(bounds) - 1})
        return [range(b0, b1) for b0, b1 in zip(firsts, firsts[1:])]

    def walk(self, blocks):
        """Runs the blocks in the range `blocks`, which starts at a subtree
        of the root, setting out[z], the sum of log2 |Y_xz|, for each of
        their terms.

        A block unpacks all its lanes at once. Each step subtracts from its
        source's U its c narrow new ancestors and its lanes: c alone as a
        scalar, one lane alone, or a uint8 reduce of its lanes with
        initial=c, which cannot wrap, as a step holds at most _LANE_MAX
        new ancestors. It then adds 1 at each of its scatter entries with
        one np.add.at on its own row and masks its new ancestors. Each
        block writes its rows into a fresh (steps, n) array. One table
        lookup and one row sum (_log2_sums) give the block's sums of
        log2 |Y_xz|, and a term's last step stores its sum in out[z];
        conditional_entropies_all forms every H(.|z) from them once. In
        preorder every step's source lies on the path to the previous step,
        so the path keeps views of the rows on it, and a block's array
        outlives the block only while the path holds one of its rows.

        Blocks run a window at a time (window), with one refresh per
        window: its zs, source, lane_at and new_at are read as Python
        lists, so the per-step loop indexes Python ints while the kept
        schedule stays in arrays, and its scatter entries are laid out as
        plain descendant indices, its new ancestors' lists end to end;
        new_at reads each step's first entry (hit_at) off that layout.
        """
        n, bounds, new = len(self.o), self.bounds, self.new
        path = [(self.root, self.u_root)]  # (term, U) from the root to the last step
        one = self.u_root.dtype.type(1)  # a scalar of the rows' type keeps np.add.at fast
        window = blocks.start
        for b in blocks:
            if b == window:
                # the window's per-step schedule as Python ints, counted
                # from step s0, and its scatter entries, step i's from
                # hit_at[i]
                c0, window = b, min(int(self.window[b]), blocks.stop)
                s0, s1 = int(bounds[b]), int(bounds[window])
                at = (bounds[b:window + 1] - s0).tolist()
                source, terms = self.source[s0:s1].tolist(), self.zs[s0:s1].tolist()
                news = new[self.new_at[s0]:self.new_at[s1]]
                ptr = self.desc_ptr.take(news)
                pos, scattered = _runs(ptr, self.desc_ptr.take(news + 1) - ptr, len(self.desc_idx))
                hits = self.desc_idx.take(pos).astype(np.intp)
                hit_at = scattered.take(self.new_at[s0:s1 + 1] - self.new_at[s0]).tolist()
                lane_at, new_at = (a[s0:s1 + 1].tolist() for a in (self.lane_at, self.new_at))
            b0, b1 = at[b - c0], at[b - c0 + 1]  # the block's steps, counted from s0
            lo = lane_at[b0]
            block = np.unpackbits(self.comp[self.lane_rows[lo:lane_at[b1]]], 1, bitorder="little")
            u = np.empty((b1 - b0, n), dtype=self.u_root.dtype)
            for i, u_z in enumerate(u, start=b0):
                while path[-1][0] != source[i]:
                    path.pop()
                src, start, stop = path[-1][1], lane_at[i] - lo, lane_at[i + 1] - lo
                e0, e1 = new_at[i], new_at[i + 1]
                c = e1 - e0 - (stop - start)  # the step's narrow new ancestors
                if start == stop:
                    np.subtract(src, c, out=u_z)
                elif stop - start == 1 and not c:
                    np.subtract(src, block[start, :n], out=u_z)
                else:
                    np.subtract(src, np.add.reduce(block[start:stop], axis=0, dtype=np.uint8,
                                                   initial=c)[:n], out=u_z)
                if hit_at[i + 1] > hit_at[i]:
                    np.add.at(u_z, hits[hit_at[i]:hit_at[i + 1]], one)
                u_z[new[e0:e1]] = 0
                path.append((terms[i], u_z))
            # a step before its term's last holds _LANE_MAX new ancestors and
            # so ends its block, so no term has two steps in one block, and
            # the block of its last step, written later, sets out[z]
            self.out[self.zs[s0 + b0:s0 + b1]] = _log2_sums(self.tab, u)


def conditional_entropies_all(o, workers=1):
    """H(X_z, Y_xz | z) for every z, deterministic across worker counts.

    One _Sweep schedules the walk for every term; its shares, runs of
    whole subtrees of the root, run in at most `workers` threads and store
    each term's sum of log2 |Y_xz|, which one _joint_bits turns into
    H(.|z) once every share is done. Every U is an exact integer vector
    and each row is summed alone, so the result does not depend on the
    worker count or the block bounds.
    """
    sweep, root = _Sweep(o), o.root_index
    sweep.out[root] = _log2_sums(sweep.tab, sweep.u_root[None, :])[0]
    shares = sweep.shares(workers)
    if len(shares) == 1:
        sweep.walk(shares[0])
    elif shares:
        # loaded here, so a single-worker process does not import it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            for f in [pool.submit(sweep.walk, share) for share in shares]:
                f.result()
    return _joint_bits(len(o) + 1 - o.anc_counts, sweep.out)


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
    cond = conditional_entropies_all(o, workers=workers)
    h = cond[o.root_index]  # H(.|root) is H: X_root = N and Y_x,root = Y_x
    return _table("gic", o, (h - cond) / h)


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
