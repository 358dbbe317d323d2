"""Batch CLI: entropy, ic, semsim, benchmark subcommands.

Configuration precedence: command-line flags > DAGIC_* environment
variables > config file (flat `key = value` lines) > defaults. All
numeric output uses 6 fixed decimal places so reruns are byte-stable.

Exit codes: 0 success, 1 I/O error, 2 validation/domain error.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from . import annotations, benchmark, metrics, obo, semsim
from .dag import build_ontology
from .errors import DagicError, MissingCorpus, MissingInput

ENV_PREFIX = "DAGIC_"


@dataclass
class RunConfig:
    obo_path: str = None
    namespace: str = None
    relations: str = ""           # comma-separated relation types beyond is_a
    corpus_path: str = None
    corpus_format: str = "tsv"
    min_depth: int = 2
    metric: str = "gic"
    bin_size: int = 1000
    include_identical: bool = False
    count_events: bool = False
    regress_on_pairs: bool = False
    workers: int = 1
    out_dir: str = "."
    pairs_path: str = None
    bitscores_path: str = None
    y_sizes_out: str = None

    def echo(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# fields that count something and are meaningless below 1
_AT_LEAST_ONE = ("bin_size", "workers")


def _parse_value(name, text):
    """Typed value of a config field from its env or config-file text."""
    kind = RunConfig.__dataclass_fields__[name].type
    text = text.strip()
    if kind is bool:
        word = text.lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise DagicError(f"{name}: expected true or false, got {text!r}")
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise DagicError(f"{name}: expected an integer, got {text!r}") from None
    return text


def _read_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DagicError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in RunConfig.__dataclass_fields__:
                raise DagicError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _parse_value(key, value)
            except DagicError as exc:
                raise DagicError(f"{path}:{lineno}: {exc}") from None
    return values


def resolve_config(args):
    cfg = RunConfig()
    file_values = _read_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        env_key = ENV_PREFIX + f.name.upper()
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
        elif env_key in os.environ:
            setattr(cfg, f.name, _parse_value(f.name, os.environ[env_key]))
        elif f.name in file_values:
            setattr(cfg, f.name, file_values[f.name])
    for name in _AT_LEAST_ONE:
        if getattr(cfg, name) < 1:
            raise DagicError(f"{name} must be at least 1, got {getattr(cfg, name)}")
    return cfg


def _load_ontology(cfg):
    terms = obo.load_obo(cfg.obo_path)
    relations = frozenset(r for r in cfg.relations.split(",") if r)
    term_ids, edges, _ = obo.to_graph(terms, namespace=cfg.namespace,
                                      relations=relations)
    return build_ontology(term_ids, edges)


def _load_corpus(cfg, o):
    with open(cfg.corpus_path, encoding="utf-8") as fh:
        pairs = annotations.parse_annotations(fh, format=cfg.corpus_format)
    return annotations.build_corpus(pairs, o, min_depth=cfg.min_depth,
                                    count_events=cfg.count_events)


def _ic_table(cfg, o):
    if cfg.metric == "gic":
        return metrics.gic(o, workers=cfg.workers)
    if cfg.metric == "sic":
        return metrics.sic(o)
    if cfg.metric == "ric":
        if not cfg.corpus_path:
            raise MissingCorpus()
        return metrics.ric(o, _load_corpus(cfg, o))
    raise DagicError(f"unknown metric {cfg.metric!r}")


def cmd_entropy(cfg, out=sys.stdout):
    o = _load_ontology(cfg)
    report = metrics.ontology_entropy(o)
    out.write(f"H(M) = {report.total_bits:.6f} bits\n")
    out.write(f"terms = {len(o)}\n")
    out.write(f"edges = {o.n_edges}\n")
    if cfg.y_sizes_out:
        with open(cfg.y_sizes_out, "w", encoding="utf-8") as fh:
            for i, term in enumerate(o.ids):
                fh.write(f"{term}\t{int(report.y_sizes[i])}\n")
    return 0


def cmd_ic(cfg, out=sys.stdout):
    o = _load_ontology(cfg)
    table = _ic_table(cfg, o)
    for term in o.ids:  # already lexicographic
        if table.is_defined(term):
            out.write(f"{term}\t{table.raw_of(term):.6f}\t{table.normalized_of(term):.6f}\n")
        else:
            out.write(f"{term}\tNA\tNA\n")
    return 0


def cmd_semsim(cfg, out=sys.stdout):
    if not cfg.corpus_path:
        raise MissingInput("semsim", "an annotation corpus", "--corpus")
    if not cfg.pairs_path:
        raise MissingInput("semsim", "a gene-pair file", "--pairs")
    o = _load_ontology(cfg)
    corpus = _load_corpus(cfg, o)
    table = _ic_table(cfg, o)
    with open(cfg.pairs_path, encoding="utf-8") as fh:
        gene_pairs = annotations.parse_annotations(fh, format="tsv")
    for g1, g2 in gene_pairs:
        sim = semsim.gene_similarity(o, table, corpus, g1, g2)
        ta, tb, mica = sim.best_pair
        out.write(f"{g1}\t{g2}\t{sim.simmax:.6f}\t{ta}\t{tb}\t{mica}\n")
    return 0


def _benchmark_pairs(scores, corpus):
    genes = set(corpus.gene_terms)
    candidates = sorted({tuple(sorted(k)) for k in scores if k[0] != k[1]})
    usable, skipped = [], 0
    for a, b in candidates:
        if a not in genes or b not in genes:
            skipped += 1
            continue
        try:
            usable.append(((a, b), benchmark.rrbs(scores, a, b)))
        except DagicError:
            skipped += 1
    return usable, skipped


def cmd_benchmark(cfg, out=sys.stdout):
    if not cfg.corpus_path:
        raise MissingInput("benchmark", "an annotation corpus", "--corpus")
    if not cfg.bitscores_path:
        raise MissingInput("benchmark", "a bit-score file", "--bitscores")
    o = _load_ontology(cfg)
    corpus = _load_corpus(cfg, o)
    table = _ic_table(cfg, o)
    with open(cfg.bitscores_path, encoding="utf-8") as fh:
        scores = benchmark.load_bitscores(fh)

    usable, skipped = _benchmark_pairs(scores, corpus)
    points = []
    for (a, b), rr in usable:
        sim = semsim.gene_similarity(o, table, corpus, a, b)
        points.append(((a, b), sim.simmax, rr))

    report = benchmark.run_benchmark(
        points,
        bin_size=cfg.bin_size,
        exclude_identical=not cfg.include_identical,
        regress_on_bins=not cfg.regress_on_pairs,
    )

    os.makedirs(cfg.out_dir, exist_ok=True)
    bins_path = os.path.join(cfg.out_dir, "bins.csv")
    with open(bins_path, "w", encoding="utf-8") as fh:
        fh.write("bin_index,count,mean_rrbs,mean_simmax\n")
        for b in report.bins:
            fh.write(f"{b.index},{b.count},{b.mean_rrbs:.6f},{b.mean_simmax:.6f}\n")

    summary = report.to_dict(cfg.metric)
    for key in ("range", "min", "max", "r2"):
        summary[key] = float(f"{summary[key]:.6f}")
    summary["skipped_pairs"] = skipped
    summary["config"] = cfg.echo()
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    out.write(f"wrote {bins_path} and {summary_path}\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dagic",
        description="Ontology entropy, information content, semantic "
                    "similarity, and sequence-similarity benchmarking.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, corpus=False):
        p.add_argument("--obo", dest="obo_path", help="OBO 1.2 ontology file")
        p.add_argument("--namespace", help="keep only terms in this namespace")
        p.add_argument("--relations",
                       help="comma-separated relation types to follow besides is_a")
        p.add_argument("--workers", type=int, help="worker threads for all-terms gIC")
        if corpus:
            p.add_argument("--corpus", dest="corpus_path", help="annotation file")
            p.add_argument("--corpus-format", dest="corpus_format",
                           choices=["tsv", "gaf"])
            p.add_argument("--min-depth", dest="min_depth", type=int,
                           help="drop direct annotations shallower than this (default 2)")
            p.add_argument("--count-events", dest="count_events",
                           action="store_const", const=True,
                           help="count annotation events instead of genes")
            p.add_argument("--metric", choices=["gic", "ric", "sic"])

    p_entropy = sub.add_parser("entropy", help="ontology entropy in bits")
    common(p_entropy)
    p_entropy.add_argument("--y-sizes-out", dest="y_sizes_out",
                           help="write per-term second-choice set sizes to this TSV")

    p_ic = sub.add_parser("ic", help="per-term IC table (TSV to stdout)")
    common(p_ic, corpus=True)

    p_semsim = sub.add_parser("semsim", help="SimMax for gene pairs")
    common(p_semsim, corpus=True)
    p_semsim.add_argument("--pairs", dest="pairs_path",
                          help="TSV of gene_a<TAB>gene_b rows")

    p_bench = sub.add_parser("benchmark", help="RRBS vs SimMax benchmark")
    common(p_bench, corpus=True)
    p_bench.add_argument("--bitscores", dest="bitscores_path",
                         help="TSV of a<TAB>b<TAB>bitscore rows (self rows required)")
    p_bench.add_argument("--bin-size", dest="bin_size", type=int)
    p_bench.add_argument("--include-identical", dest="include_identical",
                         action="store_const", const=True,
                         help="keep RRBS=1 pairs in the regression")
    p_bench.add_argument("--regress-on-pairs", dest="regress_on_pairs",
                         action="store_const", const=True,
                         help="fit raw pairs instead of bin means")
    p_bench.add_argument("--out-dir", dest="out_dir")

    return parser


COMMANDS = {
    "entropy": cmd_entropy,
    "ic": cmd_ic,
    "semsim": cmd_semsim,
    "benchmark": cmd_benchmark,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if not cfg.obo_path:
            parser.error("--obo is required")
        return COMMANDS[args.command](cfg)
    except DagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
