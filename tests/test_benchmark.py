import io
import random

import pytest

from dagic import load_bitscores, ols_r2, rrbs, run_benchmark
from dagic.errors import (
    DegenerateRegression,
    MalformedLine,
    MissingScore,
    NegativeScore,
    TooFewBins,
    ZeroDenominator,
)

SIX_LINES = """\
p1\tp1\t100
p2\tp2\t100
p1\tp2\t40
p2\tp1\t60
p3\tp3\t80
p1\tp3\t10
"""


def test_load_self_score():
    scores = load_bitscores(io.StringIO("p1\tp1\t100\n"))
    assert scores == {("p1", "p1"): 100.0}


def test_load_duplicate_keeps_max():
    scores = load_bitscores(io.StringIO("p1\tp2\t50\np1\tp2\t70\n"))
    assert scores[("p1", "p2")] == 70.0


def test_load_six_line_fixture():
    scores = load_bitscores(io.StringIO(SIX_LINES))
    assert len(scores) == 6
    # read back by an independent parse
    expected = {}
    for line in SIX_LINES.splitlines():
        a, b, s = line.split("\t")
        expected[(a, b)] = float(s)
    assert scores == expected


def test_load_malformed():
    with pytest.raises(MalformedLine) as err:
        load_bitscores(io.StringIO("p1\tp1\t100\np1\tp2\n"))
    assert err.value.line_number == 2
    with pytest.raises(MalformedLine):
        load_bitscores(io.StringIO("p1\tp2\tnotanumber\n"))


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_non_finite(text):
    with pytest.raises(MalformedLine) as err:
        load_bitscores(io.StringIO(f"p1\tp1\t100\np1\tp2\t{text}\n"))
    assert err.value.line_number == 2
    assert "non-finite" in str(err.value)


def test_load_negative():
    with pytest.raises(NegativeScore):
        load_bitscores(io.StringIO("p1\tp2\t-5\n"))


def test_rrbs_identical():
    scores = {(a, b): 77.0 for a in "xy" for b in "xy"}
    assert rrbs(scores, "x", "y") == 1.0


def test_rrbs_value():
    scores = load_bitscores(io.StringIO(SIX_LINES))
    assert rrbs(scores, "p1", "p2") == 0.5


def test_rrbs_missing():
    scores = load_bitscores(io.StringIO(SIX_LINES))
    with pytest.raises(MissingScore):
        rrbs(scores, "p1", "p3")  # p3->p1 absent


def test_rrbs_zero_denominator():
    scores = {("a", "a"): 0.0, ("b", "b"): 0.0, ("a", "b"): 1.0, ("b", "a"): 1.0}
    with pytest.raises(ZeroDenominator):
        rrbs(scores, "a", "b")


def _linear_points(n=20, slope=0.5, intercept=0.1):
    # rrbs stays below 1 so nothing is treated as identical
    return [((f"a{i:02d}", f"b{i:02d}"), slope * (i / n) + intercept, i / n)
            for i in range(n)]


def test_perfect_line_r2():
    report = run_benchmark(_linear_points(), bin_size=5, exclude_identical=False)
    assert report.r2 == pytest.approx(1.0, abs=1e-12)
    assert len(report.bins) == 4
    assert report.excluded_identical == 0


def test_all_identical_too_few_bins():
    points = [((f"a{i}", f"b{i}"), 0.9, 1.0) for i in range(10)]
    with pytest.raises(TooFewBins):
        run_benchmark(points, bin_size=5, exclude_identical=True)


def test_exclusion_only_affects_regression():
    points = _linear_points() + [((f"i{k}", f"j{k}"), 0.9, 1.0) for k in range(5)]
    with_excl = run_benchmark(points, bin_size=5, exclude_identical=True)
    without = run_benchmark(points, bin_size=5, exclude_identical=False)
    # range/min/max come from the unfiltered bins either way
    assert with_excl.sim_min == without.sim_min
    assert with_excl.sim_max == without.sim_max
    assert with_excl.excluded_identical == 5
    assert without.excluded_identical == 0


def test_partial_final_bin_kept():
    report = run_benchmark(_linear_points(17), bin_size=5, exclude_identical=False)
    assert [b.count for b in report.bins] == [5, 5, 5, 2]
    assert sum(b.count for b in report.bins) == 17


def test_sort_determinism():
    points = _linear_points(30)
    rng = random.Random(7)
    base = run_benchmark(points, bin_size=7)
    for _ in range(5):
        shuffled = points[:]
        rng.shuffle(shuffled)
        rep = run_benchmark(shuffled, bin_size=7)
        assert rep == base


def test_weighted_bin_mean_consistency():
    rng = random.Random(3)
    points = [((f"a{i:03d}", f"b{i:03d}"), rng.random(), rng.random())
              for i in range(137)]
    report = run_benchmark(points, bin_size=10, exclude_identical=False)
    weighted = sum(b.mean_rrbs * b.count for b in report.bins)
    total = sum(p[2] for p in points)
    assert weighted == pytest.approx(total, abs=1e-12)


def test_r2_affine_invariance_in_y():
    rng = random.Random(11)
    points = [((f"a{i:03d}", f"b{i:03d}"), rng.random(), rng.random())
              for i in range(60)]
    base = run_benchmark(points, bin_size=10, exclude_identical=False).r2
    scaled = [(pid, 2.5 * sm + 0.3, rr) for pid, sm, rr in points]
    assert run_benchmark(scaled, bin_size=10, exclude_identical=False).r2 == \
        pytest.approx(base, abs=1e-9)


def test_degenerate_regression():
    points = [((f"a{i}", f"b{i}"), i / 10, 0.5) for i in range(10)]
    with pytest.raises(DegenerateRegression):
        run_benchmark(points, bin_size=2, exclude_identical=False)


def test_regress_on_pairs_flag():
    points = _linear_points()
    rep = run_benchmark(points, bin_size=5, exclude_identical=False,
                        regress_on_bins=False)
    assert rep.r2 == pytest.approx(1.0, abs=1e-12)


def test_ols_r2_known_value():
    # y = x plus symmetric residuals; hand-computed R^2
    xs = [0.0, 1.0, 2.0, 3.0]
    ys = [0.0, 1.5, 1.5, 3.0]
    # slope = 0.9, intercept = 0.15, ss_res = 0.45, ss_tot = 4.5
    assert ols_r2(xs, ys) == pytest.approx(1.0 - 0.45 / 4.5, abs=1e-12)
