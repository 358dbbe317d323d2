import io
import json
import os

import pytest

from dagic import build_corpus, parse_annotations
from dagic.errors import EmptyCorpus, MalformedLine, UnknownFormat, UnknownTerm

from conftest import random_dag


def test_tsv_basic():
    assert parse_annotations(io.StringIO("g1\tX:2\n")) == [("g1", "X:2")]


def test_tsv_duplicates_preserved():
    pairs = parse_annotations(io.StringIO("g1\tX:2\ng1\tX:2\n"))
    assert pairs == [("g1", "X:2"), ("g1", "X:2")]


def test_tsv_malformed():
    with pytest.raises(MalformedLine) as err:
        parse_annotations(io.StringIO("g1\tX:1\ng1\n"))
    assert err.value.line_number == 2


def test_unknown_format():
    with pytest.raises(UnknownFormat):
        parse_annotations(io.StringIO(""), format="xml")


def test_gaf_17_columns():
    cols = [""] * 17
    cols[1] = "P12345"
    cols[4] = "GO:0001"
    line = "!gaf-version: 2.1\n" + "\t".join(cols) + "\n"
    assert parse_annotations(io.StringIO(line), format="gaf") == [("P12345", "GO:0001")]


def test_gaf_skips_not_qualified_rows(caplog):
    def row(gene, qualifier, term):
        cols = [""] * 17
        cols[1], cols[3], cols[4] = gene, qualifier, term
        return "\t".join(cols) + "\n"
    text = (row("g1", "NOT", "GO:1") + row("g2", "NOT|contributes_to", "GO:2")
            + row("g3", "contributes_to", "GO:3") + row("g4", "", "GO:4"))
    with caplog.at_level("WARNING", logger="dagic.annotations"):
        pairs = parse_annotations(io.StringIO(text), format="gaf")
    assert pairs == [("g3", "GO:3"), ("g4", "GO:4")]
    assert caplog.messages == ["skipped 2 NOT-qualified GAF annotations"]


def test_gaf_golden_fixture(data_dir):
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        expected = [tuple(p) for p in json.load(fh)["gaf"]["pairs"]]
    with open(os.path.join(data_dir, "mini.gaf"), encoding="utf-8") as fh:
        assert parse_annotations(fh, format="gaf") == expected


def test_gaf_short_line():
    with pytest.raises(MalformedLine):
        parse_annotations(io.StringIO("a\tb\tc\n"), format="gaf")


def test_diamond_propagation(diamond):
    c = build_corpus([("g1", "c")], diamond, min_depth=0)
    for t in "rabc":
        assert c.term_probability(t) == 1.0
    assert c.total == 1


def test_min_depth_filter(diamond):
    c = build_corpus([("g1", "c"), ("g2", "a")], diamond, min_depth=2)
    # g2's depth-1 annotation filtered; g2 gone from total
    assert c.total == 1
    assert c.dropped_shallow == 1
    assert c.term_probability("c") == 1.0


def test_gene_counted_once(diamond):
    c = build_corpus([("g1", "a"), ("g1", "c")], diamond, min_depth=0)
    assert c.propagated_count[diamond.index("a")] == 1
    assert c.direct_count[diamond.index("a")] == 1


def test_event_counting_flag(diamond):
    pairs = [("g1", "a"), ("g1", "c"), ("g2", "c")]
    c = build_corpus(pairs, diamond, min_depth=0, count_events=True)
    assert c.total == 3
    assert c.propagated_count[diamond.index("a")] == 3  # every event implies a
    assert c.propagated_count[diamond.index("r")] == 3


def test_unknown_terms_dropped(diamond):
    c = build_corpus([("g1", "c"), ("g1", "ghost")], diamond, min_depth=0)
    assert c.dropped_unknown == 1
    assert c.total == 1


def test_empty_corpus(diamond):
    with pytest.raises(EmptyCorpus):
        build_corpus([("g1", "ghost")], diamond, min_depth=0)


def test_probability_cases(diamond):
    c = build_corpus([("g1", "a")], diamond, min_depth=0)
    assert c.term_probability("r") == 1.0
    assert c.term_probability("b") == 0.0  # no annotated descendants
    with pytest.raises(UnknownTerm):
        c.term_probability("nope")


def test_probability_monotone_random(rng):
    for _ in range(20):
        o = random_dag(rng)
        pairs = [(f"g{k}", rng.choice(o.ids)) for k in range(10)]
        c = build_corpus(pairs, o, min_depth=0)
        for child, parent in o.edges:
            assert c.term_probability(o.ids[parent]) >= c.term_probability(o.ids[child])
        assert c.total == len({g for g, _ in pairs})
        assert c.term_probability(o.root) == 1.0
