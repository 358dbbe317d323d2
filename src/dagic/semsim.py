"""Resnik-style similarity: the maximally informative common ancestor
(MICA) of two terms scores a term pair; a gene pair scores the best
term pair across the two annotation sets (SimMax)."""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyTermSet, NoDefinedCommonAncestor, UnknownGene


@dataclass
class GenePairSim:
    gene_a: str
    gene_b: str
    simmax: float
    best_pair: tuple  # (term_a, term_b, mica)


def gene_similarity(o, ic, corpus, g1, g2):
    """SimMax over all term pairs from the two genes' annotation sets.

    The max over term pairs of the max IC over their common ancestors is
    the max IC over the intersection of the two genes' ancestor unions
    (corpus.gene_ancestors), skipping undefined (NaN) terms. best_pair
    keeps the term-pair rule: among the pairs reaching that max, the
    smallest (sorted term pair, mica) wins, where a pair's mica is its
    lexicographically smallest common ancestor with the max value; it is
    found as the smallest (smallest sorted pair under t, t) over the
    tied terms t.

    The unions are held as Python ints over IC ranks (_RankIndex): rank
    0 is the term with the highest normalized IC, equal values go by
    ascending term index (0.0 and -0.0 are equal) and NaN terms come
    last. The lowest set bit of the two genes' AND is then the max, and
    the common bits in that rank's run of equal values are the tied
    terms. The index is built for one (table, corpus) pair and reused
    while the same two objects are passed in.

    NoDefinedCommonAncestor is raised only when no common term is
    defined; the root is common to every pair and defined under gic,
    ric and sic, so with those tables it is never raised.
    """
    index = _rank_index(ic, corpus)
    bits1, terms1 = index.gene(g1)
    bits2, terms2 = index.gene(g2)

    common = bits1 & bits2
    r0 = (common & -common).bit_length() - 1  # -1 when nothing is common
    if not 0 <= r0 < index.defined:
        raise NoDefinedCommonAncestor(o.ids[terms1[0]], o.ids[terms2[0]])
    run = (common >> r0) & ((1 << (index.run_end[r0] - r0)) - 1)
    tied = []
    while run:
        low = run & -run
        tied.append(index.term_of[r0 + low.bit_length() - 1])
        run ^= low

    # term indices follow id order, so index pairs compare as id pairs
    (term_a, term_b), mica = min((_smallest_pair_under(o, terms1, terms2, t), t)
                                 for t in tied)
    return GenePairSim(gene_a=g1, gene_b=g2, simmax=float(ic.normalized[mica]),
                       best_pair=(o.ids[term_a], o.ids[term_b], o.ids[mica]))


class _RankIndex:
    """Terms in IC-rank order and, per queried gene, its sorted term
    indices and its ancestor union as an int with bit r set for each
    rank r."""

    def __init__(self, ic, corpus):
        # strong references, so neither id can be reused while this is held
        self.ic = ic
        self.corpus = corpus
        vals = ic.normalized
        n = len(vals)
        order = np.argsort(-vals, kind="stable")  # NaN sorts last
        self.term_of = order.tolist()
        self.rank_of = np.empty(n, dtype=np.intp)
        self.rank_of[order] = np.arange(n)
        self.defined = int(np.count_nonzero(~np.isnan(vals)))
        ranked = vals[order[:self.defined]]
        ends = np.append(np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, self.defined)
        self.run_end = np.repeat(ends, np.diff(ends, prepend=0)).tolist()
        self.genes = {}

    def gene(self, g):
        entry = self.genes.get(g)
        if entry is None:
            terms = [self.corpus.ontology.index(t) for t in _gene_terms(self.corpus, g)]
            mask = np.zeros(len(self.term_of), dtype=bool)
            mask[self.rank_of[self.corpus.gene_ancestors[g]]] = True
            # NaN terms rank last and never score, so the int leaves them out
            packed = np.packbits(mask[:self.defined], bitorder="little")
            bits = int.from_bytes(packed.tobytes(), "little")
            entry = self.genes[g] = (bits, terms)
        return entry


_memo = None  # the last _RankIndex built; one slot, so memory stays bounded


def _rank_index(ic, corpus):
    global _memo
    index = _memo
    if index is None or index.ic is not ic or index.corpus is not corpus:
        index = _memo = _RankIndex(ic, corpus)
    return index


def _smallest_pair_under(o, terms1, terms2, t):
    """The smallest sorted pair (a, b), a from terms1 and b from terms2,
    with term index t a reflexive ancestor of both; t must be a common
    ancestor of the two genes, so both sides are non-empty."""
    return min((a, b) if a <= b else (b, a)
               for a in o.under(t, terms1) for b in o.under(t, terms2))


def _gene_terms(corpus, gene):
    if gene not in corpus.gene_terms:
        raise UnknownGene(gene)
    terms = sorted(corpus.gene_terms[gene])
    if not terms:
        raise EmptyTermSet(gene)
    return terms
