"""Acceptance suite: one test per criterion, one printed PASS/FAIL line
each (run with -s or check captured output)."""

import functools
import json
import math
import os
import random
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import dagic as d
from dagic.cli import _benchmark_pairs
from dagic.errors import DuplicateTermId, MalformedLine, MalformedStanza
from dagic.metrics import conditional_entropies_all

import bench_oracle
from conftest import DATA_DIR, chain, random_dag
from oracles import ontology_entropy_oracle

OBO = os.path.join(DATA_DIR, "go_subset.obo")
CORPUS = os.path.join(DATA_DIR, "annotations.tsv")
SCORES = os.path.join(DATA_DIR, "bitscores.tsv")


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                verdict = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"ACCEPTANCE {number} {verdict}: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
            return result
        return wrapper
    return deco


def mf_ontology():
    ids, edges, _ = d.to_graph(d.load_obo(OBO), namespace="molecular_function")
    return d.build_ontology(ids, edges)


def fixture_ontologies():
    diamond = d.build_ontology(["r", "a", "b", "c"],
                               [("a", "r"), ("b", "r"), ("c", "a"), ("c", "b")])
    star = d.build_ontology(["r", "a", "b"], [("a", "r"), ("b", "r")])
    return [chain(n) for n in range(2, 11)] + [star, diamond, mf_ontology()]


@criterion(1, "entropy matches brute-force oracle on 100 random DAGs (<=1e-9, <10 s)")
def test_oracle_equivalence():
    rng = random.Random(11)
    start = time.time()
    for _ in range(100):
        o = random_dag(rng, max_nodes=12)
        fast = d.ontology_entropy(o).total_bits
        slow = ontology_entropy_oracle(o)
        assert abs(fast - slow) <= 1e-9
    assert time.time() - start < 10.0


@criterion(2, "closed-form entropy fixtures: chains, star, diamond (<=1e-9)")
def test_closed_form_fixtures():
    for n in range(2, 11):
        assert abs(d.ontology_entropy(chain(n)).total_bits - math.log2(n)) <= 1e-9
    star = d.build_ontology(["r", "a", "b"], [("a", "r"), ("b", "r")])
    assert abs(d.ontology_entropy(star).total_bits - (math.log2(3) + 2 / 3)) <= 1e-9
    diamond = d.build_ontology(["r", "a", "b", "c"],
                               [("a", "r"), ("b", "r"), ("c", "a"), ("c", "b")])
    assert abs(d.ontology_entropy(diamond).total_bits - 2.5) <= 1e-9


@criterion(3, "gIC anchors: root 0, diamond values, [0,1] and edge monotonicity on all fixtures")
def test_gic_anchors():
    diamond = d.build_ontology(["r", "a", "b", "c"],
                               [("a", "r"), ("b", "r"), ("c", "a"), ("c", "b")])
    table = d.gic(diamond)
    assert abs(table.raw_of("a") - (2.5 - math.log2(3)) / 2.5) <= 1e-9
    assert abs(table.raw_of("c") - 1.0) <= 1e-9
    for o in fixture_ontologies():
        table = d.gic(o)
        assert table.raw_of(o.root) == 0.0
        assert np.all(table.raw >= 0.0) and np.all(table.raw <= 1.0)
        for c, p in o.edges:
            assert table.raw[c] >= table.raw[p] - 1e-12


@criterion(4, "sIC leaf/root anchors on all fixtures; rIC root and undefined handling")
def test_sic_ric_anchors():
    for o in fixture_ontologies():
        table = d.sic(o)
        assert table.raw_of(o.root) == 0.0
        for t in o.ids:
            if not o.descendants(t):
                assert table.raw_of(t) == 1.0
    o = mf_ontology()
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = d.build_corpus(d.parse_annotations(fh), o, min_depth=2)
    table = d.ric(o, corpus)
    assert table.raw_of(o.root) == 0.0
    assert table.undefined_terms  # never-annotated terms exist in the fixture
    for t in table.undefined_terms:
        assert math.isnan(table.raw_of(t))
    defined = [table.normalized_of(t) for t in o.ids if table.is_defined(t)]
    assert max(defined) == 1.0  # normalization over defined terms only


def production_benchmark(bin_size=100):
    o = mf_ontology()
    with open(CORPUS, encoding="utf-8") as fh:
        corpus = d.build_corpus(d.parse_annotations(fh), o, min_depth=2)
    table = d.gic(o)
    with open(SCORES, encoding="utf-8") as fh:
        scores = d.load_bitscores(fh)
    usable, _ = _benchmark_pairs(scores, corpus)
    points = [((a, b), d.gene_similarity(o, table, corpus, a, b).simmax, rr)
              for (a, b), rr in usable]
    return d.run_benchmark(points, bin_size=bin_size)


@criterion(5, "end-to-end benchmark reproduces the oracle-derived expected summary (<=1e-6, <5 s)")
def test_benchmark_against_independent_oracle():
    with open(os.path.join(DATA_DIR, "expected_summary.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    # the shipped file must itself be the oracle's output
    regenerated = bench_oracle.compute_expected_summary()
    assert regenerated == expected

    start = time.time()
    report = production_benchmark()
    elapsed = time.time() - start
    got = report.to_dict("gic")
    for key, want in expected.items():
        if isinstance(want, float):
            assert abs(got[key] - want) <= 1e-6, key
        else:
            assert got[key] == want, key
    assert elapsed < 5.0


@criterion(6, "binned SimMax under gIC rises with binned RRBS (Spearman >= 0.9)")
def test_directional_sanity():
    report = production_benchmark()
    xs = [b.mean_rrbs for b in report.bins]
    ys = [b.mean_simmax for b in report.bins]
    rho = spearmanr(xs, ys).statistic
    assert rho >= 0.9, rho


def layered_dag(n_terms=10000):
    rng = np.random.default_rng(7)
    sizes = [1, 30, 200, 800, 2000, 3000, 2500, 1469]
    assert sum(sizes) == n_terms
    ids = [f"T{i:05d}" for i in range(n_terms)]
    edges = []
    prev, idx = [0], 1
    for size in sizes[1:]:
        cur = list(range(idx, idx + size))
        idx += size
        for node in cur:
            k = int(rng.integers(1, 3)) if len(prev) > 1 else 1
            for p in rng.choice(prev, size=min(k, len(prev)), replace=False):
                edges.append((ids[node], ids[int(p)]))
        prev = cur
    return d.build_ontology(ids, edges)


@pytest.fixture(scope="module")
def perf_run():
    o = layered_dag()
    start = time.time()
    single = conditional_entropies_all(o, workers=1)
    return o, single, time.time() - start


@criterion(7, "all-terms gIC on 10,000 terms: <=10 min single-threaded, bit-identical across workers")
def test_performance_and_determinism(perf_run):
    o, single, single_elapsed = perf_run
    assert single_elapsed <= 600.0
    multi = conditional_entropies_all(o, workers=4)
    assert np.array_equal(single, multi)  # bit-identical across worker counts


@criterion(7, "all-terms gIC parallel speedup >= 2x at 4 workers")
def test_parallel_speedup(perf_run):
    if (os.cpu_count() or 1) < 4:
        pytest.skip(f"needs >= 4 cores, host has {os.cpu_count()}")
    o, _, single_elapsed = perf_run
    start = time.time()
    conditional_entropies_all(o, workers=4)
    assert single_elapsed / (time.time() - start) >= 2.0


@criterion(8, "parser goldens match manifests; malformed inputs report line numbers")
def test_parser_goldens():
    with open(os.path.join(DATA_DIR, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    terms = d.load_obo(OBO)
    for ns in ("molecular_function", "biological_process", "cellular_component"):
        ids, edges, _ = d.to_graph(terms, namespace=ns)
        assert len(ids) == manifest[ns]["terms"]
        assert len(edges) == manifest[ns]["is_a"]
    with open(os.path.join(DATA_DIR, "mini.gaf"), encoding="utf-8") as fh:
        pairs = d.parse_annotations(fh, format="gaf")
    assert pairs == [tuple(p) for p in manifest["gaf"]["pairs"]]

    import io
    with pytest.raises(MalformedStanza) as err:
        d.parse_obo(io.StringIO("[Term]\nid: X:1\nno colon here\n"))
    assert err.value.line_number == 3
    with pytest.raises(DuplicateTermId) as err:
        d.parse_obo(io.StringIO("[Term]\nid: X:1\n\n[Term]\nid: X:1\n"))
    assert err.value.line_number == 4
    with pytest.raises(MalformedLine) as err:
        d.parse_annotations(io.StringIO("g1\tX:1\ng2\n"))
    assert err.value.line_number == 2
    with pytest.raises(MalformedLine) as err:
        d.load_bitscores(io.StringIO("p1\tp1\t10\np1\n"))
    assert err.value.line_number == 2
