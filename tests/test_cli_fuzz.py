"""Fuzz the CLI in-process: random OBO, corpus, pair and bit-score text,
a random subcommand and random optional flags, with input paths left
out at random. Whatever the input, `dagic` ends with exit code 0, 1 or
2 (or argparse's SystemExit(2)) and never with a traceback.

Random text rarely makes a whole `semsim` or `benchmark` run, so a second
strategy builds well-formed inputs and checks that most such runs exit 0
with outputs that parse.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dagic import cli

TERMS = [f"X:{i}" for i in range(8)]
GENES = [f"g{i}" for i in range(4)]
JUNK = st.text(alphabet="X:01 \t=!{}[]abc-.", max_size=12)


def rare(strategy):
    """Mostly nothing, now and then one draw: noise on otherwise valid input."""
    # hypothesis leans toward the ends of a range, so the draw sits inside it
    return st.integers(0, 11).flatmap(
        lambda k: strategy.map(lambda x: [x]) if k == 7 else st.just([]))


def text(rows):
    return "".join(f"{row}\n" for row in rows)


@st.composite
def obo_text(draw):
    """A layered OBO file: term i takes is_a parents among lower terms,
    with the odd relationship, obsolete flag, foreign namespace, bad
    reference or junk line mixed in."""
    n = draw(st.integers(1, len(TERMS)))
    out = []
    for i in range(n):
        rows = ["[Term]", f"id: {TERMS[i]}", "name: n", "namespace: a"]
        rows += draw(rare(st.just("namespace: b")))
        if i:
            for p in sorted(draw(st.sets(st.integers(0, i - 1), min_size=1, max_size=3))):
                rows.append(f"is_a: {TERMS[p]}" + draw(st.sampled_from(["", " ! c", " {x=y}"])))
        rows += draw(rare(st.tuples(st.sampled_from(["part_of", "regulates"]),
                                    st.sampled_from(TERMS))
                            .map(lambda rt: f"relationship: {rt[0]} {rt[1]}")))
        rows += draw(rare(st.sampled_from(TERMS).map(lambda t: f"is_a: {t}")))
        rows += draw(rare(st.sampled_from(["is_obsolete: true", "[Typedef]", "id:", "is_a:"])))
        rows += draw(rare(JUNK))
        out.append(text(rows))
    return "\n".join(out)


def rows_text(row, noise):
    """Valid rows with, now and then, one noise row among them."""
    return st.tuples(st.lists(row, max_size=10), rare(noise), st.integers(0, 10)).map(
        lambda t: text(t[0][:t[2]] + t[1] + t[0][t[2]:]))


gene = st.sampled_from(GENES)
corpus_text = rows_text(
    st.tuples(gene, st.sampled_from(TERMS)).map("\t".join),
    st.one_of(JUNK, st.lists(st.sampled_from(GENES + TERMS + ["", "IDA", "!x"]),
                             min_size=1, max_size=17).map("\t".join)))
pairs_text = rows_text(st.tuples(gene, gene).map("\t".join), JUNK)
score = st.one_of(st.floats(0, 500, allow_nan=False).map(repr), st.integers(0, 500).map(str))
bad_score = st.sampled_from(["-1", "nan", "inf", "x", ""])


@st.composite
def bitscores_text(draw):
    """Self rows for most genes, then scores for random gene pairs."""
    rows = [f"{g}\t{g}\t{draw(score)}" for g in GENES if draw(st.integers(0, 7))]
    return text(rows) + draw(rows_text(
        st.tuples(gene, gene, score).map("\t".join),
        st.one_of(JUNK, st.tuples(gene, gene, bad_score).map("\t".join))))


CORPUS_COMMANDS = ("ic", "semsim", "benchmark")


@st.composite
def invocation(draw):
    command = draw(st.sampled_from(["entropy", "ic", "semsim", "benchmark"]))
    flags = []

    def maybe(flag, values):
        value = draw(st.sampled_from([None, *values]))
        if value is not None:
            flags.extend([flag, str(value)])

    def switch(flag):
        if draw(st.booleans()):
            flags.append(flag)

    maybe("--namespace", ["a", "a", "zz"])
    maybe("--relations", ["part_of", "part_of,regulates", ","])
    maybe("--workers", [0, 1, 2, 3])
    if command in CORPUS_COMMANDS:
        maybe("--metric", ["gic", "ric", "sic"])
        maybe("--corpus-format", ["tsv", "tsv", "gaf"])
        maybe("--min-depth", [-1, 0, 0, 1, 2])
        switch("--count-events")
    if command == "benchmark":
        maybe("--bin-size", [0, 1, 1, 2, 3])
        switch("--include-identical")
        switch("--regress-on-pairs")
    inputs = {"--obo": "obo"}
    if command in CORPUS_COMMANDS:
        inputs["--corpus"] = "corpus"
    if command == "semsim":
        inputs["--pairs"] = "pairs"
    if command == "benchmark":
        inputs["--bitscores"] = "bitscores"
    # each input file is given, left out, or named but not there
    modes = st.sampled_from(["file"] * 8 + ["absent", "missing"])
    return command, flags, {flag: (name, draw(modes)) for flag, name in inputs.items()}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocation(), obo_text(), corpus_text, pairs_text, bitscores_text())
def test_cli_ends_in_exit_code_never_traceback(inv, obo, corpus, pairs, bitscores):
    command, flags, inputs = inv
    texts = {"obo": obo, "corpus": corpus, "pairs": pairs, "bitscores": bitscores}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        for flag, (name, mode) in inputs.items():
            if mode == "absent":
                continue
            path = os.path.join(tmp, name)
            if mode == "file":
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(texts[name])
            argv += [flag, path]
        if command == "entropy":
            argv += ["--y-sizes-out", os.path.join(tmp, "y.tsv")]
        if command == "benchmark":
            argv += ["--out-dir", os.path.join(tmp, "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
            else:
                assert code in (0, 1, 2), argv


@st.composite
def valid_run(draw):
    """A `semsim` or `benchmark` run that should succeed: a layered OBO
    with no noise, genes annotated only at depth >= min_depth, self and
    reciprocal bit scores for every gene pair (each pair's RRBS below 1),
    and a bin size that leaves at least two bins."""
    levels = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    by_level, terms = [["X:0"]], ["[Term]\nid: X:0\nname: n\nnamespace: a\n"]
    for size in levels:
        row = []
        for _ in range(size):
            term = f"X:{sum(map(len, by_level)) + len(row)}"
            parents = draw(st.sets(st.sampled_from(by_level[-1]), min_size=1, max_size=2))
            terms.append(f"[Term]\nid: {term}\nname: n\nnamespace: a\n"
                         + text(f"is_a: {p}" for p in sorted(parents)))
            row.append(term)
        by_level.append(row)
    min_depth = draw(st.integers(0, len(levels)))
    deep = [t for row in by_level[min_depth:] for t in row]
    genes = [f"g{i}" for i in range(draw(st.integers(4, 7)))]
    corpus = [f"{g}\t{t}" for g in genes
              for t in draw(st.lists(st.sampled_from(deep), min_size=1, max_size=3))]
    pairs = [(a, b) for i, a in enumerate(genes) for b in genes[i + 1:]]
    self_score = {g: draw(st.integers(50, 500)) for g in genes}
    scores = [f"{g}\t{g}\t{s}" for g, s in self_score.items()]
    # scores below every self score keep each RRBS below 1; distinct
    # forward scores keep the pairs from all drawing one RRBS, which
    # leaves the regression nothing to fit
    forward = draw(st.lists(st.integers(1, 49), min_size=len(pairs), max_size=len(pairs),
                            unique=True))
    for (a, b), ab in zip(pairs, forward):
        scores += [f"{a}\t{b}\t{ab}", f"{b}\t{a}\t{draw(st.integers(1, 49))}"]
    command = draw(st.sampled_from(["semsim", "benchmark"]))
    flags = ["--metric", draw(st.sampled_from(["gic", "ric", "sic"])),
             "--min-depth", str(min_depth), "--workers", str(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        flags.append("--count-events")
    if command == "benchmark":
        flags += ["--bin-size", str(draw(st.integers(1, len(pairs) // 2)))]
        if draw(st.booleans()):
            flags.append("--regress-on-pairs")
    files = {"obo": "\n".join(terms), "corpus": text(corpus),
             "pairs": text("\t".join(p) for p in pairs), "bitscores": text(scores)}
    return command, flags, files, len(pairs)


def test_valid_runs_mostly_succeed():
    codes = {"semsim": [], "benchmark": []}

    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(valid_run())
    def run(case):
        command, flags, files, n_pairs = case
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, body in files.items():
                paths[name] = os.path.join(tmp, name)
                with open(paths[name], "w", encoding="utf-8") as fh:
                    fh.write(body)
            out_dir = os.path.join(tmp, "out")
            argv = [command, *flags, "--obo", paths["obo"], "--corpus", paths["corpus"]]
            if command == "semsim":
                argv += ["--pairs", paths["pairs"]]
            else:
                argv += ["--bitscores", paths["bitscores"], "--out-dir", out_dir]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            codes[command].append(code)
            assert code in (0, 2), (argv, stderr.getvalue())
            if code:
                return
            if command == "semsim":
                rows = [line.split("\t") for line in stdout.getvalue().splitlines()]
                assert len(rows) == n_pairs
                assert all(len(r) == 6 and 0 <= float(r[2]) <= 1 for r in rows)
                return
            with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(out_dir, "bins.csv"), encoding="utf-8") as fh:
                bins = list(csv.DictReader(fh))
            assert summary["bins"] == len(bins) >= 2
            assert sum(int(b["count"]) for b in bins) == n_pairs
            assert summary["skipped_pairs"] == 0 and summary["excluded_identical"] == 0

    run()
    # the rest end in exit 2, as DegenerateRegression when the bins' mean
    # RRBS happen to coincide
    for command, got in codes.items():
        assert got.count(0) >= 0.75 * len(got) > 0, (command, got)
