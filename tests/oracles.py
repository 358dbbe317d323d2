"""Slow reference implementations that the library is checked against.

ontology_entropy_oracle materializes the full two-term joint
distribution; simmax_oracle scores a gene pair term pair by term pair.
Neither is used by the library.
"""

import numpy as np

from dagic import GenePairSim, candidate_second_terms, term_similarity
from dagic.semsim import _gene_terms

ORACLE_CAP = 2000


class TooLargeForOracle(Exception):
    def __init__(self, size, cap):
        super().__init__(f"ontology has {size} terms, oracle cap is {cap}")


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

