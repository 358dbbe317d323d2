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

from .dag import popcount_rows, unpack_row
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


def candidate_second_terms(o, x):
    """Y_x: terms selectable after x, i.e. neither ancestor nor descendant
    of x (nor x itself), with the root always re-admitted."""
    i = o.index(x)
    n = len(o)
    mask = ~(unpack_row(o.anc_bits[i], n) | unpack_row(o.desc_bits[i], n))
    mask[o.root_index] = True
    return frozenset(o.ids[j] for j in np.flatnonzero(mask))


def _joint_bits(first_count, y_sizes):
    # a uniform first draw over first_count terms, then a uniform second
    # draw over y_sizes[x] terms (sizes of 1 add 0 bits); one shared
    # formula keeps H(.|root) and H bit-identical
    conditional = np.log2(y_sizes.astype(np.float64))
    return float(np.log2(first_count)) + float(conditional.sum()) / first_count


def ontology_entropy(o):
    """Two-term annotation entropy of the ontology, in bits."""
    n = len(o)
    y_sizes = _second_term_counts(o)
    return EntropyReport(
        total_bits=_joint_bits(n, y_sizes),
        first_term_entropy=float(np.log2(n)),
        conditional_bits=np.log2(y_sizes.astype(np.float64)),
        y_sizes=y_sizes,
    )


def conditional_entropy_given(o, z):
    """Joint entropy of the two-term draw once z is assigned: the first
    term ranges over X_z = (N \\ anc(z)) | {root}, the second over
    Y_xz = (N \\ (desc(x) | anc(x) | anc(z))) | {root}."""
    zi = o.index(z)
    shared = popcount_rows(o.anc_bits & o.anc_bits[zi])
    return _entropy_given(o, zi, shared, _second_term_counts(o))


def _entropy_given(o, zi, shared, y_base):
    """H(X_z, Y_xz | z) from shared[x] = |anc(x) & anc(z)| and y_base = |Y_x|.

    For x outside anc(z), desc(x) and anc(z) are disjoint (a descendant
    of x above z would put x above z), so
    |Y_xz| = |Y_x| - |anc(z)| + |anc(x) & anc(z)|. The terms of anc(z),
    recognized by anc(x) being inside anc(z), leave X_z; the root, which
    is re-admitted, has Y_root,z = {root} and adds log2(1) = 0.
    """
    a = int(o.anc_counts[zi])
    y = y_base - a + shared
    y[shared == o.anc_counts] = 1
    return _joint_bits(len(o) - a + 1, y)


# rows summed per uint8 reduce: a byte lane holds at most 255 (a uint8
# reduce runs about twice as fast as a uint16 one, so blocks stay small)
_LANE_MAX = 255


def conditional_entropies_all(o, workers=1):
    """H(X_z, Y_xz | z) for every z, deterministic across worker counts.

    One walk over a spanning tree of the DAG carries
    S_z[x] = |anc(x) & anc(z)| from a term to its tree children: each
    non-root z hangs under its parent p with the most ancestors, and
    S_z = S_p + sum of 1[x in desc*(a)] over a in anc(z) \\ anc(p), where
    desc* is the reflexive descendant set, and S_root = 1. The sum is
    taken in byte lanes: the strict descendant rows of the new ancestors
    are unpacked to 0/1 bytes and reduced in uint8, in blocks of at most
    255 rows so that no lane wraps, and each new ancestor then adds its
    own bit. The walk is depth-first, so one S vector per depth level is
    live.

    Workers take whole subtrees of the root's tree children; every S is
    an exact integer vector and each z is reduced alone, so the result
    does not depend on the worker count.
    """
    n = len(o)
    out = np.empty(n, dtype=np.float64)
    y_base = _second_term_counts(o)
    root = o.root_index
    # tree parent: the parent with the most ancestors, lowest index on ties
    tree_parent = {}
    for c, p in o.edges:
        q = tree_parent.get(c)
        if q is None or o.anc_counts[p] > o.anc_counts[q]:
            tree_parent[c] = p
    tree_children = [[] for _ in range(n)]
    for c, p in tree_parent.items():
        tree_children[p].append(c)

    s_root = np.ones(n, dtype=np.int64)

    def walk(tops):
        stack = [(z, root, s_root) for z in reversed(tops)]
        while stack:
            z, p, s_p = stack.pop()
            new = np.flatnonzero(unpack_row(o.anc_bits[z] & ~o.anc_bits[p], n))
            s = s_p.copy()
            for k in range(0, len(new), _LANE_MAX):
                rows = np.unpackbits(o.desc_bits[new[k:k + _LANE_MAX]].view(np.uint8),
                                     axis=1, bitorder="little")
                s += np.add.reduce(rows, axis=0, dtype=np.uint8)[:n]
            s[new] += 1
            out[z] = _entropy_given(o, z, s, y_base)
            stack.extend((c, z, s) for c in reversed(tree_children[z]))

    out[root] = _entropy_given(o, root, s_root, y_base)
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
