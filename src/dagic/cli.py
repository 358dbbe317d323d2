"""Batch CLI: entropy, ic, semsim, benchmark subcommands.

Configuration precedence: command-line flags > DAGIC_* environment
variables > config file (flat `key = value` lines) > defaults. All
numeric output uses 6 fixed decimal places so reruns are byte-stable.

Exit codes: 0 success, 1 I/O error, 2 validation/domain error.
"""

import argparse
import gc
import os
import sys
from dataclasses import asdict, dataclass, field, fields

# dagic makes no BLAS call, and an idle OpenBLAS worker thread spins on
# the CPU after numpy is imported; so numpy, imported below, starts with
# one thread unless the user's environment says otherwise
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
if __name__ == "__main__":
    # a `python -m dagic.cli` process runs without the cyclic collector from
    # here, before numpy's import, to its exit; see run()
    gc.disable()

from . import annotations, benchmark, metrics, obo, semsim
from .dag import build_ontology
from .errors import DagicError, MalformedLine, MissingInput, open_input

ENV_PREFIX = "DAGIC_"
_ALL = ("entropy", "ic", "semsim", "benchmark")
_CORPUS = ("ic", "semsim", "benchmark")


def _option(default, flag, help, commands=_ALL, **checks):
    """A RunConfig field: its default, flag, help text and the subcommands
    that accept the flag. `checks` may add `choices`, a `minimum`, and
    `required_by`, which maps each subcommand that needs the value to the
    other field values under which it does ({} for always)."""
    return field(default=default,
                 metadata=dict(flag=flag, help=help, commands=commands, **checks))


@dataclass
class RunConfig:
    """Every option of the CLI. A field's name is its config-file key and,
    upper-cased after DAGIC_, its environment variable."""
    obo_path: str = _option(None, "--obo", "OBO 1.2 ontology file",
                            required_by=dict.fromkeys(_ALL, {}))
    namespace: str = _option(None, "--namespace", "keep only terms in this namespace")
    relations: str = _option("", "--relations",
                             "comma-separated relation types to follow besides is_a")
    corpus_path: str = _option(None, "--corpus", "annotation file", _CORPUS,
                               required_by={"ic": {"metric": "ric"},
                                            "semsim": {}, "benchmark": {}})
    corpus_format: str = _option("tsv", "--corpus-format", "annotation file format",
                                 _CORPUS, choices=("tsv", "gaf"))
    min_depth: int = _option(2, "--min-depth",
                             "drop direct annotations shallower than this", _CORPUS)
    metric: str = _option("gic", "--metric", "information-content metric", _CORPUS,
                          choices=("gic", "ric", "sic"))
    bin_size: int = _option(1000, "--bin-size", "pairs per bin", ("benchmark",), minimum=1)
    include_identical: bool = _option(False, "--include-identical",
                                      "keep RRBS=1 pairs in the regression", ("benchmark",))
    count_events: bool = _option(False, "--count-events",
                                 "count annotation events instead of genes", _CORPUS)
    regress_on_pairs: bool = _option(False, "--regress-on-pairs",
                                     "fit raw pairs instead of bin means", ("benchmark",))
    workers: int = _option(1, "--workers", "worker threads for all-terms gIC", minimum=1)
    out_dir: str = _option(".", "--out-dir", "directory for bins.csv and summary.json",
                           ("benchmark",))
    pairs_path: str = _option(None, "--pairs", "TSV of gene_a<TAB>gene_b rows", ("semsim",),
                              required_by={"semsim": {}})
    bitscores_path: str = _option(None, "--bitscores",
                                  "TSV of a<TAB>b<TAB>bitscore rows (self rows required)",
                                  ("benchmark",), required_by={"benchmark": {}})
    y_sizes_out: str = _option(None, "--y-sizes-out",
                               "write per-term second-choice set sizes to this TSV",
                               ("entropy",))


def _parse_value(name, value):
    """Typed and checked value of a config field. Text from the environment
    or a config file is converted to the field's type first."""
    spec = RunConfig.__dataclass_fields__[name]
    kind, checks = spec.type, spec.metadata
    if isinstance(value, str) and kind is bool:
        word = value.lower()
        if word in ("1", "true", "yes", "on"):
            value = True
        elif word in ("0", "false", "no", "off"):
            value = False
        else:
            raise DagicError(f"{name}: expected true or false, got {value!r}")
    elif isinstance(value, str) and kind is int:
        try:
            value = int(value)
        except ValueError:
            raise DagicError(f"{name}: expected an integer, got {value!r}") from None
    if "choices" in checks and value not in checks["choices"]:
        raise DagicError(f"{name}: expected one of {', '.join(checks['choices'])}, "
                         f"got {value!r}")
    if "minimum" in checks and value < checks["minimum"]:
        raise DagicError(f"{name} must be at least {checks['minimum']}, got {value}")
    return value


def _read_config_file(path):
    values = {}
    with open_input(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise MalformedLine(lineno, "expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in RunConfig.__dataclass_fields__:
                raise MalformedLine(lineno, f"unknown config key {key!r}")
            try:
                values[key] = _parse_value(key, value.strip())
            except DagicError as exc:
                raise MalformedLine(lineno, str(exc)) from None
    return values


def resolve_config(args):
    """RunConfig from flags > DAGIC_* variables > config file > defaults.
    Every value given passes `_parse_value` before any input is read."""
    values = _read_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        env_key = ENV_PREFIX + f.name.upper()
        if getattr(args, f.name, None) is not None:
            values[f.name] = _parse_value(f.name, getattr(args, f.name))
        elif env_key in os.environ:
            values[f.name] = _parse_value(f.name, os.environ[env_key].strip())
    return RunConfig(**values)


def _require_inputs(command, cfg):
    """MissingInput for the first input file `command` needs that `cfg` lacks."""
    for f in fields(cfg):
        when = f.metadata.get("required_by", {}).get(command)
        if (when is not None and not getattr(cfg, f.name)
                and all(getattr(cfg, k) == v for k, v in when.items())):
            raise MissingInput(command, f.metadata["flag"], f.metadata["help"], when)


def _load_ontology(cfg):
    relations = frozenset(r for r in cfg.relations.split(",") if r)
    # the parsed records are freed when to_graph returns, before the build
    term_ids, edges, _ = obo.to_graph(obo.load_obo(cfg.obo_path), namespace=cfg.namespace,
                                      relations=relations)
    return build_ontology(term_ids, edges)


def _load_corpus(cfg, o):
    with open_input(cfg.corpus_path) as fh:
        pairs = annotations.parse_annotations(fh, format=cfg.corpus_format)
    return annotations.build_corpus(pairs, o, min_depth=cfg.min_depth,
                                    count_events=cfg.count_events)


def _ic_table(cfg, o):
    if cfg.metric == "gic":
        return metrics.gic(o, workers=cfg.workers)
    if cfg.metric == "sic":
        return metrics.sic(o)
    return metrics.ric(o, _load_corpus(cfg, o))


def cmd_entropy(cfg, out):
    """ontology entropy in bits"""
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


def cmd_ic(cfg, out):
    """per-term IC table (TSV to stdout)"""
    o = _load_ontology(cfg)
    table = _ic_table(cfg, o)
    undefined = table.undefined_terms
    # o.ids is already lexicographic
    for term, raw, normalized in zip(o.ids, table.raw.tolist(), table.normalized.tolist()):
        if term in undefined:
            out.write(f"{term}\tNA\tNA\n")
        else:
            out.write(f"{term}\t{raw:.6f}\t{normalized:.6f}\n")
    return 0


def cmd_semsim(cfg, out):
    """SimMax for gene pairs"""
    o = _load_ontology(cfg)
    corpus = _load_corpus(cfg, o)
    table = _ic_table(cfg, o)
    with open_input(cfg.pairs_path) as fh:
        # an unknown gene ends the run at its line before any row is printed
        gene_pairs = annotations.parse_gene_pairs(fh, corpus.gene_terms)
    for g1, g2 in gene_pairs:
        sim = semsim.gene_similarity(o, table, corpus, g1, g2)
        ta, tb, mica = sim.best_pair
        out.write(f"{g1}\t{g2}\t{sim.simmax:.6f}\t{ta}\t{tb}\t{mica}\n")
    return 0


def _benchmark_pairs(scores, corpus):
    genes = corpus.gene_terms
    candidates = sorted({(a, b) if a < b else (b, a) for a, b in scores if a != b})
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


def cmd_benchmark(cfg, out):
    """RRBS vs SimMax benchmark"""
    import json  # only this command writes JSON; other runs skip its import

    o = _load_ontology(cfg)
    corpus = _load_corpus(cfg, o)
    table = _ic_table(cfg, o)
    with open_input(cfg.bitscores_path) as fh:
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
    summary["config"] = asdict(cfg)
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    out.write(f"wrote {bins_path} and {summary_path}\n")
    return 0


COMMANDS = {
    "entropy": cmd_entropy,
    "ic": cmd_ic,
    "semsim": cmd_semsim,
    "benchmark": cmd_benchmark,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dagic",
        description="Ontology entropy, information content, semantic "
                    "similarity, and sequence-similarity benchmarking.")
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=fn.__doc__) for name, fn in COMMANDS.items()}
    for f in fields(RunConfig):
        meta = f.metadata
        kwargs = {"dest": f.name, "help": meta["help"]}
        if f.default:
            kwargs["help"] += f" (default {f.default})"
        if f.type is bool:
            kwargs.update(action="store_const", const=True)
        elif f.type is int:
            kwargs["type"] = int
        if "choices" in meta:
            kwargs["metavar"] = "{" + ",".join(meta["choices"]) + "}"
        for name in meta["commands"]:
            commands[name].add_argument(meta["flag"], **kwargs)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        _require_inputs(args.command, cfg)
        return COMMANDS[args.command](cfg, sys.stdout)
    except DagicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def run(argv=None):
    """Process entry of the `dagic` script and `python -m dagic.cli`:
    main(argv) with the cyclic garbage collector off, and the heap frozen
    once main returns, so neither collections during the run nor the
    interpreter's final collection at exit walk it. A run leaves the
    same few hundred objects in cycles (argparse's parser) whatever the
    size of its input, so the collector has nothing of size to reclaim.
    The collector stays off afterwards; a caller whose process goes on
    calls main instead."""
    gc.disable()
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
