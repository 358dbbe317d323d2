"""Runs one dagic CLI command in this process with each layer's public
functions wrapped in timing spans.

    python3 perfbench/traced_child.py SRC_DIR TRACE_FILE ALLOC -- DAGIC_ARGS...

Each span is (name, start, end, parent span index), kept in memory and
written to TRACE_FILE (marshal) when the command returns, together with
counts read from the wrapped calls' arguments and return values. With
ALLOC=1, tracemalloc runs for the whole command and the build_ontology
and gic spans also record their allocation peak; run.py takes timings
only from runs with ALLOC=0. The command's own stdout is this process's
file descriptor 1, which the parent points at a file.
"""

import marshal
import sys
import time
import tracemalloc

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, alloc):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.gene_pairs = []     # gene_similarity arguments, for counts computed afterwards
        self.alloc = alloc
        self.alloc_peak = {}

    def wrap(self, module, attr, name, after=None, before=None, alloc=False):
        fn = getattr(module, attr)
        spans, stack = self.spans, self.stack
        measure_alloc = alloc and self.alloc

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if measure_alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if measure_alloc:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)
            if after is not None:
                after(args, result)
            return result

        setattr(module, attr, traced)

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


def main():
    src, trace_file, alloc = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, src)
    from dagic import annotations, benchmark, cli, metrics, obo, semsim

    t = Tracer(alloc)
    ontology = []
    score_lines = [0]

    def count_lines(args):
        def lines(stream):
            for line in stream:
                score_lines[0] += 1
                yield line
        return (lines(args[0]),) + args[1:]

    def corpus_counts(args, corpus):
        t.counts["annotations.genes"] = len(corpus.gene_terms)
        t.counts["annotations.dropped_unknown"] = corpus.dropped_unknown
        t.counts["annotations.dropped_shallow"] = corpus.dropped_shallow

    def report_counts(args, report):
        t.counts["benchmark.bins"] = len(report.bins)
        t.counts["benchmark.excluded_identical"] = report.excluded_identical

    t.wrap(obo, "load_obo", "obo.load_obo",
           after=lambda a, r: t.count("obo.terms", len(r)))
    t.wrap(obo, "to_graph", "obo.to_graph",
           after=lambda a, r: t.count("obo.edges_dropped", r[2]))
    # cli binds build_ontology and _benchmark_pairs by name, so wrap them there
    t.wrap(cli, "build_ontology", "dag.build_ontology", alloc=True,
           after=lambda a, r: ontology.append(r))
    t.wrap(metrics, "gic", "metrics.gic", alloc=True)
    t.wrap(metrics, "ontology_entropy", "metrics.ontology_entropy")
    t.wrap(metrics, "ric", "metrics.ric")
    t.wrap(annotations, "parse_annotations", "annotations.parse_annotations")
    t.wrap(annotations, "build_corpus", "annotations.build_corpus", after=corpus_counts)
    t.wrap(semsim, "gene_similarity", "semsim.gene_similarity",
           after=lambda a, r: t.gene_pairs.append((a[3], a[4])))
    t.wrap(benchmark, "load_bitscores", "benchmark.load_bitscores", before=count_lines)
    t.wrap(benchmark, "rrbs", "benchmark.rrbs")
    t.wrap(benchmark, "run_benchmark", "benchmark.run_benchmark", after=report_counts)
    t.wrap(cli, "_benchmark_pairs", "cli._benchmark_pairs",
           after=lambda a, r: t.count("cli.skipped_pairs", r[1]))
    t.wrap(cli, "main", "cli.main")

    if alloc:
        tracemalloc.start()
    code = cli.main(argv)
    sys.stdout.flush()

    if ontology:
        o = ontology[-1]
        t.counts["n"] = len(o)
        t.counts["desc_sq"] = int(((o.desc_counts + 1) ** 2).sum())
    t.counts["benchmark.score_lines"] = score_lines[0]
    with open(trace_file, "wb") as fh:
        marshal.dump({"spans": t.spans, "counts": t.counts, "gene_pairs": t.gene_pairs,
                      "alloc_peak": t.alloc_peak}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
