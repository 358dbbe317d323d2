"""Gene -> term annotation corpora and propagated term frequencies.

Supports a 2-column TSV and a GAF 2.x subset (column 2 = object id,
column 5 = term id; rows whose column-4 qualifier has a NOT token are
negative annotations and are skipped). Term probabilities follow
subsumption: a gene annotated to t counts toward t and every ancestor
of t, at most once per gene.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCorpus, MalformedLine, UnknownFormat, UnknownTerm, require_fields

log = logging.getLogger(__name__)


def parse_annotations(stream, format="tsv"):
    """Parse raw (gene id, term id) pairs; duplicates preserved as given."""
    if format == "tsv":
        return _parse_tsv(stream)
    if format == "gaf":
        return _parse_gaf(stream)
    raise UnknownFormat(format)


def _parse_tsv(stream):
    pairs = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != 2:
            raise MalformedLine(lineno, f"expected 2 tab-separated columns, got {len(cols)}")
        require_fields(lineno, cols, (1, 2))
        pairs.append((cols[0], cols[1]))
    return pairs


def _parse_gaf(stream):
    pairs = []
    negated = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line or line.startswith("!"):
            continue
        cols = line.split("\t")
        if len(cols) < 5:
            raise MalformedLine(lineno, f"GAF line needs at least 5 columns, got {len(cols)}")
        require_fields(lineno, cols, (2, 5))
        if "NOT" in cols[3].split("|"):
            negated += 1
            continue
        pairs.append((cols[1], cols[4]))
    if negated:
        log.warning("skipped %d NOT-qualified GAF annotations", negated)
    return pairs


@dataclass
class AnnotationCorpus:
    ontology: object
    gene_terms: dict            # gene id -> frozenset of term ids (direct, retained)
    gene_ancestors: dict        # gene id -> sorted term indices: union of the
                                # reflexive ancestors of its retained terms
    direct_count: np.ndarray    # per term index: genes directly annotated to it
    propagated_count: np.ndarray  # per term index: genes annotating it or a descendant
    total: int                  # genes (or events, see count_events) retained
    dropped_unknown: int        # pairs whose term is absent from the ontology
    dropped_shallow: int        # pairs filtered by min_depth

    def term_probability(self, term_id):
        """Propagated frequency p(t) in [0, 1]; 0 for never-annotated terms."""
        i = self.ontology.index(term_id)
        return float(self.propagated_count[i]) / self.total


def build_corpus(pairs, o, min_depth=0, count_events=False):
    """Build an AnnotationCorpus over ontology o.

    Pairs with unknown terms are dropped (tallied); pairs whose term
    sits shallower than min_depth are dropped before propagation.
    count_events switches from gene-level counting (each gene adds at
    most 1 to each term) to annotation-event counting; gene-level is
    the default and the semantics every metric here assumes.

    Either way a counted unit (a gene, or a retained event) adds 1 to
    the direct count of each of its terms and 1 to the propagated count
    of each term in its ancestor union, and total is the number of units.
    """
    by_gene = {}
    events = []                 # term index per retained pair
    dropped_unknown = 0
    dropped_shallow = 0
    depth = o.depth.tolist()
    for gene, term in pairs:
        if term not in o:
            dropped_unknown += 1
            continue
        i = o.index(term)
        if depth[i] < min_depth:
            dropped_shallow += 1
            continue
        by_gene.setdefault(gene, set()).add(i)
        events.append(i)
    if dropped_unknown:
        log.warning("dropped %d annotation pairs with unknown terms", dropped_unknown)
    if not by_gene:
        raise EmptyCorpus()

    gene_ancestors = {g: o.ancestor_union(list(ts)) for g, ts in by_gene.items()}
    if count_events:
        term_union = {i: o.ancestor_union([i]) for i in set(events)}
        counted, unions = events, [term_union[i] for i in events]
    else:
        counted = [i for ts in by_gene.values() for i in ts]
        unions = list(gene_ancestors.values())

    n = len(o)
    # a bincount of the unions, without bincount's copy of them to intp
    propagated = np.zeros(n, dtype=np.intp)
    np.add.at(propagated, np.concatenate(unions), 1)
    return AnnotationCorpus(
        ontology=o,
        gene_terms={g: frozenset(o.ids[i] for i in ts) for g, ts in by_gene.items()},
        gene_ancestors=gene_ancestors,
        direct_count=np.bincount(counted, minlength=n),
        propagated_count=propagated,
        total=len(unions),
        dropped_unknown=dropped_unknown,
        dropped_shallow=dropped_shallow,
    )
