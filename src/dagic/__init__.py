"""dagic: DAG ontology entropy, information content, and semantic
similarity benchmarking."""

from .annotations import AnnotationCorpus, build_corpus, parse_annotations
from .benchmark import (
    BenchmarkReport,
    Bin,
    load_bitscores,
    ols_r2,
    rrbs,
    run_benchmark,
)
from .dag import Ontology, build_ontology
from .metrics import (
    EntropyReport,
    ICTable,
    conditional_entropy_given,
    gic,
    ontology_entropy,
    ric,
    sic,
)
from .obo import OboTerm, format_obo, load_obo, parse_obo, to_graph
from .semsim import GenePairSim, gene_similarity

__version__ = "0.1.0"
