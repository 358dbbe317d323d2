import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagic import build_corpus, gene_similarity, gic, ric, sic
from dagic.errors import EmptyTermSet, NoDefinedCommonAncestor, UnknownGene
from dagic.metrics import ICTable

from conftest import random_dag
from oracles import simmax_oracle, term_similarity
from test_gic_kernel import build, dags, layered


@pytest.fixture
def diamond_gic(diamond):
    return gic(diamond)


def test_self_similarity(diamond, diamond_gic):
    for t in diamond.ids:
        val, mica = term_similarity(diamond, diamond_gic, t, t)
        assert val == diamond_gic.normalized_of(t)
        assert mica == t


def test_siblings_meet_at_root(diamond, diamond_gic):
    val, mica = term_similarity(diamond, diamond_gic, "a", "b")
    assert val == 0.0
    assert mica == "r"


def test_ancestor_pair(diamond, diamond_gic):
    val, mica = term_similarity(diamond, diamond_gic, "c", "a")
    assert val == pytest.approx(diamond_gic.normalized_of("a"))
    assert mica == "a"


def test_tie_break_lexicographic(diamond):
    import numpy as np
    # constant table: every common ancestor ties; smallest id wins
    flat = ICTable(metric="gic", ontology=diamond,
                   raw=np.ones(4), normalized=np.ones(4),
                   max_raw=1.0, undefined_terms=frozenset())
    _, mica = term_similarity(diamond, flat, "c", "c")
    assert mica == "a"  # ids sorted: a < b < c < r


def test_undefined_terms_skipped(diamond):
    corpus = build_corpus([("g1", "b")], diamond, min_depth=0)
    table = ric(diamond, corpus)  # a, c undefined (p=0)
    val, mica = term_similarity(diamond, table, "c", "a")
    assert mica == "r"  # the only defined common ancestor
    assert val == 0.0


def test_gene_similarity_identical_single_terms(diamond, diamond_gic):
    corpus = build_corpus([("g1", "c"), ("g2", "c")], diamond, min_depth=0)
    sim = gene_similarity(diamond, diamond_gic, corpus, "g1", "g2")
    assert sim.simmax == diamond_gic.normalized_of("c")
    assert sim.best_pair == ("c", "c", "c")


def test_gene_similarity_diamond(diamond, diamond_gic):
    corpus = build_corpus([("g1", "c"), ("g2", "a"), ("g3", "b")],
                          diamond, min_depth=0)
    sim = gene_similarity(diamond, diamond_gic, corpus, "g1", "g2")
    assert sim.simmax == pytest.approx(diamond_gic.normalized_of("a"))
    assert sim.best_pair[2] == "a"
    assert gene_similarity(diamond, diamond_gic, corpus, "g2", "g3").simmax == 0.0


def test_gene_similarity_symmetric(rng):
    for _ in range(10):
        o = random_dag(rng)
        pairs = [(f"g{k}", rng.choice(o.ids)) for k in range(6)]
        corpus = build_corpus(pairs, o, min_depth=0)
        table = sic(o)
        genes = sorted(corpus.gene_terms)
        for i, g1 in enumerate(genes):
            for g2 in genes[i:]:
                fwd = gene_similarity(o, table, corpus, g1, g2)
                rev = gene_similarity(o, table, corpus, g2, g1)
                assert fwd.simmax == rev.simmax
                assert sorted(fwd.best_pair[:2]) == sorted(rev.best_pair[:2])
                assert fwd.best_pair[2] == rev.best_pair[2]
                assert 0.0 <= fwd.simmax <= 1.0


def test_scaling_preserves_argmax(diamond, diamond_gic):
    import numpy as np
    scaled = ICTable(metric="gic", ontology=diamond,
                     raw=diamond_gic.raw * 3.0,
                     normalized=diamond_gic.normalized * 3.0,
                     max_raw=diamond_gic.max_raw * 3.0,
                     undefined_terms=frozenset())
    for t1 in diamond.ids:
        for t2 in diamond.ids:
            v1, m1 = term_similarity(diamond, diamond_gic, t1, t2)
            v2, m2 = term_similarity(diamond, scaled, t1, t2)
            assert m1 == m2
            assert v2 == pytest.approx(3.0 * v1)


def test_unknown_gene(diamond, diamond_gic):
    corpus = build_corpus([("g1", "c")], diamond, min_depth=0)
    with pytest.raises(UnknownGene):
        gene_similarity(diamond, diamond_gic, corpus, "g1", "nope")


def test_no_defined_common_ancestor(diamond):
    corpus = build_corpus([("g1", "a"), ("g2", "b")], diamond, min_depth=0)
    blank = ICTable(metric="ric", ontology=diamond, raw=np.full(4, np.nan),
                    normalized=np.full(4, np.nan), max_raw=np.nan,
                    undefined_terms=frozenset(diamond.ids))
    for fn in (gene_similarity, simmax_oracle):
        with pytest.raises(NoDefinedCommonAncestor):
            fn(diamond, blank, corpus, "g1", "g2")


def test_gene_with_empty_term_set(diamond, diamond_gic):
    """A gene that the corpus holds with no retained term has no SimMax:
    the union path and the term-pair oracle both raise EmptyTermSet for
    it, in either position of the pair."""
    built = build_corpus([("g1", "c")], diamond, min_depth=0)
    corpus = dataclasses.replace(
        built, gene_terms={**built.gene_terms, "g0": frozenset()},
        gene_ancestors={**built.gene_ancestors, "g0": built.gene_ancestors["g1"][:0]})
    for fn in (gene_similarity, simmax_oracle):
        for pair in (("g0", "g1"), ("g1", "g0")):
            with pytest.raises(EmptyTermSet) as err:
                fn(diamond, diamond_gic, corpus, *pair)
            assert err.value.gene == "g0"


# --- SimMax from ancestor unions against the term-pair oracle ---

@st.composite
def annotated_dags(draw):
    """A DAG spec plus annotation events: four genes with 1-4 terms each,
    a fifth gene with the first gene's terms, and a few repeated events
    (which only event counting sees)."""
    spec = draw(dags())
    n = spec[0]
    sets = [draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)) for _ in range(4)]
    sets.append(sets[0])
    events = [(f"g{g}", i) for g, terms in enumerate(sets) for i in sorted(terms)]
    events += draw(st.lists(st.sampled_from(events), max_size=3))
    return spec, events


def constant_table(o):
    flat = np.full(len(o), 0.5)
    return ICTable(metric="gic", ontology=o, raw=flat, normalized=flat,
                   max_raw=0.5, undefined_terms=frozenset())


def assert_matches_oracle(o, table, corpus):
    genes = sorted(corpus.gene_terms)
    for g1 in genes:
        for g2 in genes:
            assert_pair_matches_oracle(o, table, corpus, g1, g2)


def assert_pair_matches_oracle(o, table, corpus, g1, g2):
    # repr tells 0.0 from -0.0, which == does not
    assert repr(gene_similarity(o, table, corpus, g1, g2)) == \
        repr(simmax_oracle(o, table, corpus, g1, g2))


@settings(max_examples=150, deadline=None)
@given(annotated_dags())
def test_simmax_matches_term_pair_oracle(case):
    spec, events = case
    o = build(spec)
    pairs = [(g, o.ids[i]) for g, i in events]
    corpus = build_corpus(pairs, o, min_depth=0)
    for table in (gic(o), ric(o, corpus), sic(o), constant_table(o)):
        assert_matches_oracle(o, table, corpus)

    by_gene = {}
    for g, i in events:
        by_gene.setdefault(g, set()).update(o.ancestors(o.ids[i]))
    for g, anc in by_gene.items():
        assert corpus.gene_ancestors[g].tolist() == sorted(o.index(t) for t in anc)
    # gene-level counts: one per gene whose ancestor union holds the term
    assert corpus.propagated_count.tolist() == [
        sum(t in anc for anc in by_gene.values()) for t in o.ids]

    events_corpus = build_corpus(pairs, o, min_depth=0, count_events=True)
    assert {g: a.tolist() for g, a in events_corpus.gene_ancestors.items()} == \
        {g: a.tolist() for g, a in corpus.gene_ancestors.items()}
    # event-level counts: one per event whose term's ancestors hold the term
    assert events_corpus.propagated_count.tolist() == [
        sum(t in o.ancestors(o.ids[i]) for _, i in events) for t in o.ids]
    assert_matches_oracle(o, ric(o, events_corpus), events_corpus)


# --- SimMax on rank-ordered bitsets: ties, signed zeros and NaN ---

# values that oracle and library must both treat as ties (0.0 == -0.0,
# repeated maxima); NaN, which both skip, is added to some pools
POOL = (-0.5, -0.0, 0.0, 0.25, 1.0)


@st.composite
def pooled_values(draw, n, root):
    """Values from a drawn subset of POOL, so that small pools such as
    {0.0, -0.0} come up often; the root, common to every pair, stays
    defined."""
    pool = draw(st.lists(st.sampled_from(POOL), min_size=1, unique_by=repr))
    root_value = draw(st.sampled_from(pool))
    if draw(st.booleans()):
        pool.append(np.nan)
    vals = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    vals[root] = root_value
    return np.array(vals)


def pooled_table(o, vals):
    return ICTable(metric="gic", ontology=o, raw=vals, normalized=vals, max_raw=1.0,
                   undefined_terms=frozenset(o.ids[i] for i in np.flatnonzero(np.isnan(vals))))


@settings(max_examples=150, deadline=None)
@given(annotated_dags(), st.data())
def test_simmax_pooled_tables_match_oracle(case, data):
    spec, events = case
    o = build(spec)
    corpus = build_corpus([(g, o.ids[i]) for g, i in events], o, min_depth=0)
    tables = [pooled_table(o, data.draw(pooled_values(len(o), o.root_index)))
              for _ in range(2)]
    for table in tables:
        assert_matches_oracle(o, table, corpus)
    # one corpus under two tables in alternation: nothing derived from
    # one table may leak into the other's scores
    genes = sorted(corpus.gene_terms)
    for g1 in genes:
        for g2 in genes:
            for table in tables:
                assert_pair_matches_oracle(o, table, corpus, g1, g2)


def test_signed_zeros_tie_and_smaller_pair_wins():
    # n01 (0.0) and n02 (-0.0) tie at the max common value; n02 has the
    # higher index but lies under the smaller pair (n03, n03), so it wins
    o = build((5, [{0}, {0}, {2}, {1}]))
    corpus = build_corpus([("g1", "n03"), ("g1", "n04"), ("g2", "n03"), ("g2", "n04")],
                          o, min_depth=0)
    table = pooled_table(o, np.array([-0.5, 0.0, -0.0, np.nan, -0.5]))
    sim = gene_similarity(o, table, corpus, "g1", "g2")
    assert sim.best_pair == ("n03", "n03", "n02")
    assert repr(sim.simmax) == "-0.0"
    assert_matches_oracle(o, table, corpus)


def test_twin_micas_go_by_ascending_index():
    """T:00521 and T:00693 are twin leaves of a 707-term layered DAG, so
    their gIC is equal and the MICA of two genes annotated to both is the
    lower index. A float sum of the sweep's rows gave T:00693 the higher
    value in its last bits, and so the MICA."""
    o = layered(seed=1, levels=[1, 6, 30, 120, 250, 300])
    assert len(o) == 707
    assert o.ancestors("T:00521") - {"T:00521"} == o.ancestors("T:00693") - {"T:00693"}
    table = gic(o)
    corpus = build_corpus([(g, t) for g in ("g1", "g2") for t in ("T:00521", "T:00693")],
                          o, min_depth=0)
    assert gene_similarity(o, table, corpus, "g1", "g2").best_pair == ("T:00521",) * 3
