import io
import json
import os

import pytest

from dagic import build_ontology, format_obo, parse_obo, to_graph
from dagic.errors import (
    DuplicateTermId,
    EmptyAfterFilter,
    MalformedStanza,
    MultipleRoots,
)

MINI = """\
[Term]
id: X:1
name: root

[Term]
id: X:2
name: child
namespace: test
is_a: X:1 ! root
relationship: part_of X:1
xref: ignored:tag

[Term]
id: X:3
name: gone
is_obsolete: true
is_a: X:1

[Typedef]
id: part_of
"""


def test_minimal_stanza():
    terms = parse_obo(io.StringIO("[Term]\nid: X:1\nname: root\n"))
    assert len(terms) == 1
    assert terms[0].id == "X:1"
    assert terms[0].name == "root"
    assert terms[0].is_a == []


def test_full_parse():
    terms = parse_obo(io.StringIO(MINI))
    assert [t.id for t in terms] == ["X:1", "X:2", "X:3"]
    child = terms[1]
    assert child.is_a == ["X:1"]  # "! root" comment stripped
    assert child.relationships == [("part_of", "X:1")]
    assert child.namespace == "test"
    assert terms[2].obsolete is True


def test_equal_ids_targets_and_namespaces_are_one_object():
    """A target is the very str of the id it names, whatever comment or
    qualifier block followed it, equal namespaces are one object, and
    to_graph's ids and edges hold those objects; records have no
    per-instance dict."""
    text = MINI + '[Term]\nid: X:4\nnamespace: test\nis_a: X:2 {source="x"} ! child\n'
    terms = parse_obo(io.StringIO(text))
    by_id = {t.id: t for t in terms}
    assert by_id["X:2"].is_a[0] is by_id["X:1"].id
    assert by_id["X:2"].relationships[0][1] is by_id["X:1"].id
    assert by_id["X:4"].is_a[0] is by_id["X:2"].id
    assert by_id["X:4"].namespace is by_id["X:2"].namespace
    assert not hasattr(by_id["X:1"], "__dict__")
    ids, edges, _ = to_graph(terms)
    assert all(t is by_id[t].id for t in ids)
    assert all(c is by_id[c].id and p is by_id[p].id for c, p in edges)


def test_duplicate_id():
    with pytest.raises(DuplicateTermId) as err:
        parse_obo(io.StringIO("[Term]\nid: X:1\n\n[Term]\nid: X:1\n"))
    assert err.value.line_number == 4


def test_malformed_stanza_line_number():
    with pytest.raises(MalformedStanza) as err:
        parse_obo(io.StringIO("[Term]\nid: X:1\nbogus line without colon\n"))
    assert err.value.line_number == 3


def test_stanza_without_id():
    with pytest.raises(MalformedStanza):
        parse_obo(io.StringIO("[Term]\nname: anonymous\n"))


def test_commented_id_and_namespace():
    text = ("[Term]\nid: A ! root\nnamespace: molecular_function ! x\n\n"
            "[Term]\nid: B\nnamespace: molecular_function\nis_a: A ! root\n")
    terms = parse_obo(io.StringIO(text))
    assert [(t.id, t.namespace) for t in terms] == [("A", "molecular_function"),
                                                     ("B", "molecular_function")]
    assert to_graph(terms) == (["A", "B"], [("B", "A")], 0)
    assert to_graph(terms, namespace="molecular_function") == (["A", "B"], [("B", "A")], 0)


@pytest.mark.parametrize("value", ["", " ! only a comment", "!"])
def test_empty_id_after_comment(value):
    with pytest.raises(MalformedStanza) as err:
        parse_obo(io.StringIO(f"[Term]\nid:{value}\n"))
    assert err.value.line_number == 2


def test_relationship_needs_two_tokens():
    with pytest.raises(MalformedStanza) as err:
        parse_obo(io.StringIO("[Term]\nid: X:1\nrelationship: part_of\n"))
    assert err.value.line_number == 3


@pytest.mark.parametrize("comment", ["", " ! parent"])
def test_trailing_qualifiers_stripped(comment):
    text = ("[Term]\nid: X:0\n\n[Term]\nid: X:1\n"
            f'is_a: X:0 {{source="x"}}{comment}\n'
            f'relationship: part_of X:0 {{source="y", cardinality="1"}}{comment}\n')
    child = parse_obo(io.StringIO(text))[1]
    assert child.is_a == ["X:0"]
    assert child.relationships == [("part_of", "X:0")]
    _, edges, dropped = to_graph(parse_obo(io.StringIO(text)), relations={"part_of"})
    assert edges == [("X:1", "X:0"), ("X:1", "X:0")]
    assert dropped == 0


@pytest.mark.parametrize("qualifiers", ['{comment="see note!"}',
                                        '{comment="a } b ! c", source="x"}',
                                        r'{comment="say \"hi!\""}'])
@pytest.mark.parametrize("comment", ["", " ! parent"])
def test_bang_inside_quoted_qualifier_is_text(qualifiers, comment):
    text = ("[Term]\nid: X:0\n\n[Term]\nid: X:1\n"
            f"is_a: X:0 {qualifiers}{comment}\n"
            f"relationship: part_of X:0 {qualifiers}{comment}\n")
    child = parse_obo(io.StringIO(text))[1]
    assert child.is_a == ["X:0"]
    assert child.relationships == [("part_of", "X:0")]
    _, edges, dropped = to_graph(parse_obo(io.StringIO(text)), relations={"part_of"})
    assert edges == [("X:1", "X:0"), ("X:1", "X:0")]
    assert dropped == 0


@pytest.mark.parametrize("value, target", [
    ("X:0 ! comment {not a block}", "X:0"),    # the comment comes first
    ('X:0 {source="x"', 'X:0 {source="x"'),  # unclosed: not a block
])
def test_qualifier_block_only_before_comment(value, target):
    text = f"[Term]\nid: X:1\nis_a: {value}\n"
    assert parse_obo(io.StringIO(text))[0].is_a == [target]


def test_obsolete_excluded_downstream():
    terms = parse_obo(io.StringIO(MINI))
    ids, edges, dropped = to_graph(terms)
    assert "X:3" not in ids
    assert all("X:3" not in e for e in edges)


def test_namespace_filter():
    terms = parse_obo(io.StringIO(MINI))
    ids, edges, dropped = to_graph(terms, namespace="test")
    assert ids == ["X:2"]
    assert edges == []          # edge into filtered-out X:1 dropped
    assert dropped == 1


def test_relation_filter_default_isa_only():
    terms = parse_obo(io.StringIO(MINI))
    _, edges, _ = to_graph(terms)
    assert edges == [("X:2", "X:1")]
    _, edges_po, _ = to_graph(terms, relations={"part_of"})
    assert sorted(edges_po) == [("X:2", "X:1"), ("X:2", "X:1")]


def test_filter_monotone():
    terms = parse_obo(io.StringIO(MINI))
    _, base, _ = to_graph(terms)
    _, more, _ = to_graph(terms, relations={"part_of"})
    assert set(base) <= set(more)
    assert len(more) >= len(base)


def test_empty_after_filter():
    terms = parse_obo(io.StringIO(MINI))
    with pytest.raises(EmptyAfterFilter):
        to_graph(terms, namespace="nonexistent")


def test_roundtrip_debug_serializer(data_dir):
    with open(os.path.join(data_dir, "go_subset.obo"), encoding="utf-8") as fh:
        first = parse_obo(fh)
    second = parse_obo(io.StringIO(format_obo(first)))
    assert first == second


def test_go_subset_matches_manifest(data_dir):
    """Term/edge counts per namespace equal the shipped manifest, which
    is itself re-derived here by naive line counting over the raw file."""
    with open(os.path.join(data_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    with open(os.path.join(data_dir, "go_subset.obo"), encoding="utf-8") as fh:
        raw = fh.read()

    # grep/count style recount, no parser involved
    recount = {}
    for stanza in raw.split("[Term]")[1:]:
        stanza = stanza.split("[Typedef]")[0]
        lines = [l.strip() for l in stanza.strip().splitlines()]
        ns = next(l.split(": ", 1)[1] for l in lines if l.startswith("namespace:"))
        entry = recount.setdefault(ns, {"terms": 0, "is_a": 0, "part_of": 0, "obsolete": 0})
        if any(l.startswith("is_obsolete: true") for l in lines):
            entry["obsolete"] += 1
            continue
        entry["terms"] += 1
        entry["is_a"] += sum(l.startswith("is_a:") for l in lines)
        entry["part_of"] += sum(l.startswith("relationship: part_of") for l in lines)
    for ns, counts in recount.items():
        assert manifest[ns] == counts

    terms = parse_obo(io.StringIO(raw))
    for ns in recount:
        ids, edges, _ = to_graph(terms, namespace=ns)
        assert len(ids) == manifest[ns]["terms"]
        assert len(edges) == manifest[ns]["is_a"]
        _, edges_po, _ = to_graph(terms, namespace=ns, relations={"part_of"})
        assert len(edges_po) == manifest[ns]["is_a"] + manifest[ns]["part_of"]


def test_whole_file_has_three_roots(data_dir):
    with open(os.path.join(data_dir, "go_subset.obo"), encoding="utf-8") as fh:
        terms = parse_obo(fh)
    ids, edges, _ = to_graph(terms)
    with pytest.raises(MultipleRoots) as err:
        build_ontology(ids, edges)
    assert len(err.value.roots) == 3
