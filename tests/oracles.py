"""Slow reference implementations that the library is checked against.

ontology_entropy_oracle materializes the full two-term joint
distribution; simmax_oracle scores a gene pair term pair by term pair,
one MICA scan (term_similarity) per pair. Both read the closures only
through the Ontology.ancestors/descendants set views. None of these is
used by the library.
"""

import numpy as np

from dagic import GenePairSim
from dagic.errors import NoDefinedCommonAncestor
from dagic.semsim import _gene_terms

ORACLE_CAP = 2000


class TooLargeForOracle(Exception):
    def __init__(self, size, cap):
        super().__init__(f"ontology has {size} terms, oracle cap is {cap}")


def candidate_second_terms(o, x):
    """Y_x: terms selectable after x, i.e. neither ancestor nor descendant
    of x (nor x itself), with the root always re-admitted."""
    return (frozenset(o.ids) - o.ancestors(x) - o.descendants(x)) | {o.root}


def term_similarity(o, ic, t1, t2):
    """Max normalized IC over the common (reflexive) ancestors of t1 and
    t2, skipping undefined terms. Returns (value, mica); ties broken by
    lexicographically smallest term id."""
    best_val = -1.0
    best_term = None
    for term in sorted(o.ancestors(t1) & o.ancestors(t2)):
        if term in ic.undefined_terms:
            continue
        val = ic.normalized_of(term)
        if val > best_val:  # ids scanned in ascending order, ties keep first
            best_val = val
            best_term = term
    if best_term is None:
        raise NoDefinedCommonAncestor(t1, t2)
    return best_val, best_term


def ontology_entropy_oracle(o, cap=ORACLE_CAP):
    """Independent check: materialize the full joint distribution
    p(x, y) = 1/|N| * 1/|Y_x| and evaluate -sum p log2 p directly."""
    n = len(o)
    if n > cap:
        raise TooLargeForOracle(n, cap)
    bits = 0.0
    for x in o.ids:
        y_x = candidate_second_terms(o, x)
        p = (1.0 / n) * (1.0 / len(y_x))
        for _ in y_x:
            bits -= p * np.log2(p)
    return float(bits)


def simmax_oracle(o, ic, corpus, g1, g2):
    """SimMax over all term pairs from the two genes' annotation sets,
    one MICA scan per term pair."""
    terms1 = _gene_terms(corpus, g1)
    terms2 = _gene_terms(corpus, g2)

    best_val = -1.0
    best_key = None  # (sorted term pair, mica) for symmetric tie-breaking
    for ta in terms1:
        for tb in terms2:
            val, mica = term_similarity(o, ic, ta, tb)
            key = (tuple(sorted((ta, tb))), mica)
            if val > best_val or (val == best_val and key < best_key):
                best_val = val
                best_key = key
    (term_a, term_b), mica = best_key
    return GenePairSim(gene_a=g1, gene_b=g2, simmax=best_val,
                       best_pair=(term_a, term_b, mica))

