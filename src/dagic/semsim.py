"""Resnik-style similarity: the maximally informative common ancestor
(MICA) of two terms scores a term pair; a gene pair scores the best
term pair across the two annotation sets (SimMax)."""

from dataclasses import dataclass

import numpy as np

from .dag import unpack_row
from .errors import EmptyTermSet, NoDefinedCommonAncestor, UnknownGene


@dataclass
class GenePairSim:
    gene_a: str
    gene_b: str
    simmax: float
    best_pair: tuple  # (term_a, term_b, mica)


def term_similarity(o, ic, t1, t2):
    """Max normalized IC over the common (reflexive) ancestors of t1 and
    t2, skipping undefined terms. Returns (value, mica); ties broken by
    lexicographically smallest term id."""
    i1, i2 = o.index(t1), o.index(t2)
    common = unpack_row(o.anc_bits[i1] & o.anc_bits[i2], len(o))
    best_val = -1.0
    best_term = None
    for j in np.flatnonzero(common):
        term = o.ids[j]
        if term in ic.undefined_terms:
            continue
        val = float(ic.normalized[j])
        if val > best_val:  # ids scanned in ascending order, ties keep first
            best_val = val
            best_term = term
    if best_term is None:
        raise NoDefinedCommonAncestor(t1, t2)
    return best_val, best_term


def gene_similarity(o, ic, corpus, g1, g2):
    """SimMax over all term pairs from the two genes' annotation sets.

    The max over term pairs of the max IC over their common ancestors is
    the max IC over the intersection of the two genes' ancestor unions
    (corpus.gene_ancestors), skipping undefined (NaN) terms. best_pair
    keeps the term-pair rule: among the pairs reaching that max, the
    smallest (sorted term pair, mica) wins, where a pair's mica is its
    lexicographically smallest common ancestor with the max value.

    NoDefinedCommonAncestor is raised only when no common term is
    defined; the root is common to every pair and defined under gic,
    ric and sic, so with those tables it is never raised.
    """
    terms1 = _gene_terms(corpus, g1)
    terms2 = _gene_terms(corpus, g2)

    common = np.intersect1d(corpus.gene_ancestors[g1], corpus.gene_ancestors[g2],
                            assume_unique=True)
    vals = ic.normalized[common]
    best = np.fmax.reduce(vals, initial=np.nan)  # fmax skips NaN
    if np.isnan(best):
        raise NoDefinedCommonAncestor(terms1[0], terms2[0])
    tied = common[vals == best].tolist()  # ascending index = id order

    # every tied term lies under a term of each gene, so some pair shares
    # one; pairs and tied terms are scanned in key order, so the first
    # hit is the smallest (sorted pair, mica)
    pairs = sorted({tuple(sorted((ta, tb))) for ta in terms1 for tb in terms2})
    term_a, term_b, mica = next((a, b, t) for a, b in pairs for t in tied
                                if _under_both(o, a, b, t))
    return GenePairSim(gene_a=g1, gene_b=g2, simmax=float(ic.normalized[mica]),
                       best_pair=(term_a, term_b, o.ids[mica]))


def _under_both(o, a, b, t):
    """Whether term index t is a reflexive ancestor of both terms a and b."""
    word = int(o.anc_bits[o.index(a), t >> 6]) & int(o.anc_bits[o.index(b), t >> 6])
    return word >> (t & 63) & 1


def _gene_terms(corpus, gene):
    if gene not in corpus.gene_terms:
        raise UnknownGene(gene)
    terms = sorted(corpus.gene_terms[gene])
    if not terms:
        raise EmptyTermSet(gene)
    return terms
