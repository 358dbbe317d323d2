import math
import os

import numpy as np
import pytest

from dagic import (
    build_corpus,
    build_ontology,
    conditional_entropy_given,
    gic,
    load_obo,
    ontology_entropy,
    ric,
    sic,
    to_graph,
)
from dagic import metrics
from dagic.errors import DegenerateOntology, UnknownTerm
from dagic.metrics import conditional_entropies_all

from conftest import chain, random_dag
from oracles import TooLargeForOracle, candidate_second_terms, ontology_entropy_oracle


@pytest.fixture(scope="module")
def mf_ontology():
    data = os.path.join(os.path.dirname(__file__), "data", "go_subset.obo")
    ids, edges, _ = to_graph(load_obo(data), namespace="molecular_function")
    return build_ontology(ids, edges)


# --- Y_x ---

def test_y_root_is_singleton(diamond):
    assert candidate_second_terms(diamond, "r") == {"r"}


def test_y_diamond(diamond):
    assert candidate_second_terms(diamond, "a") == {"b", "r"}


def test_y_chain():
    o = chain(3)
    assert candidate_second_terms(o, o.ids[1]) == {o.root}


def test_y_unknown(diamond):
    with pytest.raises(UnknownTerm):
        candidate_second_terms(diamond, "zzz")


# --- entropy ---

def test_single_node_zero_bits():
    o = build_ontology(["r"], [])
    assert ontology_entropy(o).total_bits == 0.0
    assert ontology_entropy_oracle(o) == 0.0


@pytest.mark.parametrize("n", range(2, 11))
def test_chain_entropy_closed_form(n):
    assert ontology_entropy(chain(n)).total_bits == pytest.approx(math.log2(n), abs=1e-12)


def test_star_entropy(star):
    assert ontology_entropy(star).total_bits == pytest.approx(math.log2(3) + 2 / 3, abs=1e-12)


def test_diamond_entropy(diamond):
    assert ontology_entropy(diamond).total_bits == pytest.approx(2.5, abs=1e-12)


def test_entropy_report_invariants(diamond):
    rep = ontology_entropy(diamond)
    n = len(diamond)
    assert rep.first_term_entropy == pytest.approx(math.log2(n), abs=1e-15)
    assert rep.total_bits == pytest.approx(
        rep.first_term_entropy + rep.conditional_bits.sum() / n, abs=1e-12)
    assert (rep.y_sizes >= 1).all()


def test_oracle_agrees(diamond, star):
    for o in (diamond, star, chain(8)):
        assert ontology_entropy(o).total_bits == pytest.approx(
            ontology_entropy_oracle(o), abs=1e-9)


def test_oracle_cap():
    with pytest.raises(TooLargeForOracle):
        ontology_entropy_oracle(chain(5), cap=3)


def test_oracle_random_dags(rng):
    for _ in range(100):
        o = random_dag(rng)
        assert ontology_entropy(o).total_bits == pytest.approx(
            ontology_entropy_oracle(o), abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 70000])
def test_fixed_point_log_sums_within_rounding(n):
    """_log2_sums is an exact int64 sum of log2 k rounded to s fraction
    bits, so a row of n sizes is within n * 2^-(s + 1) of the float sum,
    plus the logs' own float rounding; masked entries (<= 0) add 0, and
    a row of all n does not overflow. One term gives s = 62 and H = 0."""
    tab, s = metrics._log2_table(n), metrics._log2_scale(n)
    assert tab.dtype == np.int64 and s == 62 - math.ceil(math.log2(n * math.log2(n) + 1))
    rows = np.vstack([np.random.default_rng(n).integers(-n, n + 1, size=(3, n)),
                      np.full((1, n), n)])
    sums = metrics._log2_sums(tab, rows)
    for row, got in zip(rows.tolist(), sums.tolist()):
        want = math.fsum(math.log2(k) for k in row if k > 0)
        bound = n * 2.0 ** -(s + 1) + 4 * n * math.ulp(math.log2(n)) + 2 * math.ulp(want)
        assert abs(got * 2.0 ** -s - want) <= bound
    assert sums[-1] == n * int(tab[n]) < 2**63  # the int64 sum did not wrap
    if n == 1:
        assert s == 62 and ontology_entropy(build_ontology(["r"], [])).total_bits == 0.0


# --- conditional entropy ---

def test_conditional_root_equals_total(diamond):
    assert conditional_entropy_given(diamond, "r") == ontology_entropy(diamond).total_bits


def test_conditional_diamond(diamond):
    assert conditional_entropy_given(diamond, "a") == pytest.approx(math.log2(3), abs=1e-12)
    assert conditional_entropy_given(diamond, "c") == 0.0


def brute(o, z):
    n = set(o.ids)
    anc = {t: o.ancestors(t) for t in o.ids}
    desc = {t: o.descendants(t) for t in o.ids}
    first = (n - anc[z]) | {o.root}
    h = math.log2(len(first))
    for x in first:
        second = (n - (desc[x] | anc[x] | anc[z])) | {o.root}
        h += math.log2(len(second)) / len(first)
    return h


def test_conditional_matches_brute_force(rng):
    for _ in range(25):
        o = random_dag(rng)
        for z in o.ids:
            assert conditional_entropy_given(o, z) == pytest.approx(brute(o, z), abs=1e-9)


# --- gIC ---

def test_gic_diamond(diamond):
    table = gic(diamond)
    assert table.raw_of("r") == 0.0
    assert table.raw_of("a") == pytest.approx((2.5 - math.log2(3)) / 2.5, abs=1e-9)
    assert table.raw_of("c") == pytest.approx(1.0, abs=1e-9)
    assert table.normalized_of("c") == 1.0


def test_gic_chain():
    o = chain(3)
    table = gic(o)
    h = math.log2(3)
    assert table.raw_of(o.ids[1]) == pytest.approx((h - 1.0) / h, abs=1e-9)
    assert table.raw_of(o.ids[2]) == pytest.approx(1.0, abs=1e-9)


def test_gic_degenerate():
    with pytest.raises(DegenerateOntology):
        gic(build_ontology(["r"], []))


def test_gic_fixture_monotone(mf_ontology, diamond, star):
    for o in (mf_ontology, diamond, star, chain(6)):
        table = gic(o)
        assert np.all(table.raw >= -1e-12) and np.all(table.raw <= 1 + 1e-12)
        for c, p in o.edges:
            assert table.raw[c] >= table.raw[p] - 1e-12


def test_gic_base_invariance(diamond):
    # gIC is a ratio of entropies, so recomputing every entropy in nats
    # and converting must not move it
    h_bits = ontology_entropy(diamond).total_bits
    h_nats = h_bits * math.log(2)
    for z in diamond.ids:
        cond_nats = conditional_entropy_given(diamond, z) * math.log(2)
        from_nats = (h_nats - cond_nats) / h_nats
        assert gic(diamond).raw_of(z) == pytest.approx(from_nats, abs=1e-12)


def test_gic_workers_bit_identical(mf_ontology):
    single = conditional_entropies_all(mf_ontology, workers=1)
    multi = conditional_entropies_all(mf_ontology, workers=4)
    assert np.array_equal(single, multi)


def test_gic_huge_worker_count_asks_no_more_threads_than_subtrees(mf_ontology, monkeypatch):
    """--workers accepts any positive int: a million workers must neither
    stall dealing a million empty shares nor ask the pool for more
    threads than the root has subtrees (the walk's tops are some of the
    root's children). A fake pool records its size and runs each share
    at once, so no thread starts."""
    import concurrent.futures

    asked, shares = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, share):
            shares.append(list(share))
            done = concurrent.futures.Future()
            done.set_result(fn(share))
            return done

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    single = conditional_entropies_all(mf_ontology, workers=1)
    many = conditional_entropies_all(mf_ontology, workers=10**6)
    assert np.array_equal(single, many)
    tops = len(mf_ontology.children(mf_ontology.root))
    assert len(asked) == 1 and 2 <= asked[0] <= tops
    assert len(shares) == asked[0] and all(shares)


# --- sIC ---

def test_sic_anchors(diamond):
    table = sic(diamond)
    assert table.raw_of("c") == 1.0
    assert table.raw_of("r") == 0.0
    assert table.raw_of("a") == pytest.approx(0.5, abs=1e-12)  # 1 - log2/log4


def test_sic_bounds_random(rng):
    for _ in range(30):
        o = random_dag(rng)
        table = sic(o)
        assert np.all(table.raw >= 0) and np.all(table.raw <= 1)
        assert table.raw_of(o.root) == 0.0
        for t in o.ids:
            if not o.descendants(t):
                assert table.raw_of(t) == 1.0


# --- rIC ---

def test_ric_anchors():
    # star with 4 children; 4 genes, one annotated to "a" only
    ids = ["r", "a", "b", "c", "d"]
    o = build_ontology(ids, [(t, "r") for t in ids[1:]])
    pairs = [("g1", "a"), ("g2", "b"), ("g3", "b"), ("g4", "c")]
    table = ric(o, build_corpus(pairs, o, min_depth=0))
    assert table.raw_of("r") == 0.0
    assert table.raw_of("a") == pytest.approx(2.0, abs=1e-12)  # -log2(1/4)
    assert table.undefined_terms == {"d"}
    assert not table.is_defined("d")
    assert math.isnan(table.raw_of("d"))
    assert table.normalized_of("a") == 1.0  # max over defined terms only
    # an id outside the ontology is unknown to every per-term accessor
    for accessor in (table.raw_of, table.normalized_of, table.is_defined):
        with pytest.raises(UnknownTerm):
            accessor("no-such-id")


def test_ric_monotone_where_defined(rng):
    for _ in range(20):
        o = random_dag(rng)
        pairs = [(f"g{k}", rng.choice(o.ids)) for k in range(8)]
        table = ric(o, build_corpus(pairs, o, min_depth=0))
        for c, p in o.edges:
            tc, tp = o.ids[c], o.ids[p]
            if table.is_defined(tc) and table.is_defined(tp):
                assert table.raw_of(tc) >= table.raw_of(tp) - 1e-12


def test_tables_are_read_only(diamond):
    corpus = build_corpus([("g1", "c"), ("g2", "b")], diamond, min_depth=0)
    for table in (gic(diamond), ric(diamond, corpus), sic(diamond)):
        for values in (table.raw, table.normalized):
            with pytest.raises(ValueError):
                values[0] = 0.5
