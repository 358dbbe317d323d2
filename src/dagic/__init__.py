"""dagic: DAG ontology entropy, information content, and semantic
similarity benchmarking.

The names below are imported from their submodules on first use
(PEP 562), so `import dagic` loads no numpy and `python -m dagic.cli`
can configure numpy before it is imported.
"""

import importlib

_EXPORTS = {
    "annotations": ("AnnotationCorpus", "build_corpus", "parse_annotations"),
    "benchmark": ("BenchmarkReport", "Bin", "load_bitscores", "ols_r2", "rrbs",
                  "run_benchmark"),
    "dag": ("Ontology", "build_ontology"),
    "metrics": ("EntropyReport", "ICTable", "conditional_entropy_given", "gic",
                "ontology_entropy", "ric", "sic"),
    "obo": ("OboTerm", "format_obo", "load_obo", "parse_obo", "to_graph"),
    "semsim": ("GenePairSim", "gene_similarity"),
}
_SUBMODULES = ("annotations", "benchmark", "cli", "dag", "errors", "metrics", "obo",
               "semsim")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
