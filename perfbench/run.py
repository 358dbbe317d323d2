"""dagic benchmark: three CLI workloads, each run in fresh child processes.

    python3 perfbench/run.py --workload gic_sweep --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

Run from the repository root; the program is imported from ./src. The
inputs are generated from --seed into .bench_work/ (generation is not
timed). The first run of the workload command and of the set-up command
is checked against an independent recomputation (oracle.py); every later
run must reproduce the first run's output byte for byte.

--trace 0 repeats (workload command, set-up command) for --seconds and
reports medians of the end-to-end metrics. --trace 1 alternates an
untraced run with a traced one (traced_child.py) for --seconds, then
makes one more traced run with tracemalloc on for the allocation peaks,
and reports the per-layer metrics. The last line of stdout is one JSON
object: correct, attempted, failed and metrics.
"""

import argparse
import json
import logging
import marshal
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".bench_work"
CHILD_TIMEOUT_S = 150
BIN_SIZE = 500
GIC_SAMPLES = 4          # random terms whose gIC the oracle recomputes, besides root and argmax

sys.path.insert(0, HERE)
import gen      # noqa: E402
import oracle   # noqa: E402
from oracle import check, close  # noqa: E402

WORKLOADS = ("gic_sweep", "semsim_go", "rrbs_dense")

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

PER_LAYER = [
    ("obo.load_obo.s", "s"), ("obo.to_graph.s", "s"), ("obo.terms", "count"),
    ("obo.edges_dropped", "count"),
    ("dag.build_ontology.s", "s"), ("dag.build_ontology.alloc_peak_mb", "MiB"),
    ("dag.closure_mb", "MiB"),
    ("metrics.gic.s", "s"), ("metrics.gic.alloc_peak_mb", "MiB"),
    ("metrics.gic.bitset_words", "count"), ("metrics.gic.anc_desc_visits", "count"),
    ("metrics.ontology_entropy.s", "s"), ("metrics.ric.s", "s"),
    ("annotations.parse_annotations.s", "s"), ("annotations.build_corpus.s", "s"),
    ("annotations.build_corpus.calls", "count"), ("annotations.genes", "count"),
    ("annotations.dropped_unknown", "count"), ("annotations.dropped_shallow", "count"),
    ("semsim.gene_similarity.s", "s"), ("semsim.gene_similarity.calls", "count"),
    ("semsim.term_pairs", "count"), ("semsim.common_ancestor_visits", "count"),
    ("benchmark.load_bitscores.s", "s"), ("benchmark.score_lines", "count"),
    ("benchmark.rrbs.s", "s"), ("benchmark.run_benchmark.s", "s"),
    ("benchmark.bins", "count"), ("benchmark.excluded_identical", "count"),
    ("cli._benchmark_pairs.s", "s"), ("cli.skipped_pairs", "count"),
    ("cli.self_s", "s"), ("cli.startup_s", "s"), ("trace.overhead_s", "s"),
]


class Child:
    """One finished child process: exit code, wall, CPU, peak RSS, output."""

    def __init__(self, argv, out_path, err_path):
        # DAGIC_* would change the command's configuration and PYTHON* (for
        # example PYTHONUNBUFFERED) how the interpreter runs it
        env = {k: v for k, v in os.environ.items() if not k.startswith(("DAGIC_", "PYTHON"))}
        env["PYTHONPATH"] = SRC
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall = time.perf_counter() - start
            timer.cancel()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0   # Linux reports KiB
        with open(out_path, "rb") as fh:
            self.stdout = fh.read()
        with open(err_path, "rb") as fh:
            self.stderr = fh.read().decode("utf-8", "replace")


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.dir = os.path.join(WORK, name)
        self.manifest = gen.generate(name, seed, os.path.join(ROOT, self.dir))
        files = {k: os.path.relpath(v, ROOT) for k, v in self.manifest.pop("files").items()}
        self.files = files
        self.out_dir = os.path.join(self.dir, "out")
        dagic = [sys.executable, "-m", "dagic.cli"]
        common = ["--obo", files["obo"], "--workers", "1"]
        self.setup_argv = dagic + ["entropy", "--obo", files["obo"]]
        if name == "gic_sweep":
            self.args = ["ic"] + common + ["--metric", "gic"]
        elif name == "semsim_go":
            self.args = ["semsim"] + common + ["--metric", "ric", "--corpus", files["corpus"],
                                               "--pairs", files["pairs"]]
        else:
            self.args = ["benchmark"] + common + [
                "--metric", "gic", "--corpus", files["corpus"],
                "--bitscores", files["bitscores"], "--bin-size", str(BIN_SIZE),
                "--out-dir", self.out_dir]
        self.argv = dagic + self.args
        self.ref = None          # oracle.Ontology, built by verify_first
        self.genes = None

    def path(self, name):
        return os.path.join(ROOT, self.dir, name)

    def output(self, child):
        """Everything a run produces: stdout plus the files it writes."""
        out = [child.stdout]
        if self.name == "rrbs_dense":
            for f in ("bins.csv", "summary.json"):
                with open(os.path.join(ROOT, self.out_dir, f), "rb") as fh:
                    out.append(fh.read())
        return out

    def run(self, argv):
        shutil.rmtree(os.path.join(ROOT, self.out_dir), ignore_errors=True)
        return Child(argv, self.path("stdout"), self.path("stderr"))

    # --- first-run verification against the oracle ---

    def verify_setup(self, child):
        check(child.code == 0, f"entropy exited {child.code}: {child.stderr[-500:]}")
        lines = child.stdout.decode().splitlines()
        check(lines[0].startswith("H(M) = ") and lines[0].endswith(" bits"), lines[0])
        close(float(lines[0].split()[2]), self.ref.entropy, "H(M)")
        check(lines[1:] == [f"terms = {self.manifest['terms']}",
                            f"edges = {self.manifest['edges']}"], f"entropy counts {lines[1:]}")

    def verify_first(self, child):
        m = self.manifest
        check(child.code == 0, f"{self.args[0]} exited {child.code}: {child.stderr[-500:]}")
        self.ref = o = oracle.Ontology(os.path.join(ROOT, self.files["obo"]))
        check((o.parsed_terms, len(o.ids), o.edges, o.edges_dropped)
              == (m["parsed_terms"], m["terms"], m["edges"], m["edges_dropped"]),
              "oracle and generator disagree on the ontology")
        self.expect_warning(child, "dropped {} edges pointing at filtered-out terms",
                            m["edges_dropped"], 1)
        if "corpus" in self.files:
            self.genes, unknown, shallow = oracle.load_corpus(
                os.path.join(ROOT, self.files["corpus"]), o, gen.MIN_DEPTH)
            check((len(self.genes), unknown, shallow)
                  == (m["genes"], m["dropped_unknown"], m["dropped_shallow"]),
                  "oracle and generator disagree on the corpus")
            calls = 2 if self.name == "semsim_go" else 1   # ric loads the corpus again
            self.expect_warning(child, "dropped {} annotation pairs with unknown terms",
                                m["dropped_unknown"], calls)
        getattr(self, "verify_" + self.name)(child)
        return True

    def expect_warning(self, child, template, count, times):
        found = child.stderr.splitlines().count(template.format(count))
        check(found == times, f"expected {times}x {template.format(count)!r} on stderr")

    def sample_terms(self, raw):
        rng = random.Random(self.seed)
        top = max(raw, key=lambda t: (raw[t], t))
        return sorted({self.ref.root, top, *rng.sample(self.ref.ids, GIC_SAMPLES)}), top

    def check_gic(self, raw, normalized):
        """Program raw/normalized gIC against the set-based oracle on sampled terms."""
        sample, top = self.sample_terms(raw)
        ref_raw = self.ref.gic_raw(sample)
        for z in sample:
            close(raw[z], ref_raw[z], f"raw gIC of {z}")
            close(normalized[z], ref_raw[z] / ref_raw[top], f"normalized gIC of {z}")

    def verify_gic_sweep(self, child):
        rows = [line.split("\t") for line in child.stdout.decode().splitlines()]
        check([r[0] for r in rows] == self.ref.ids, "ic rows are not the sorted term ids")
        raw = {r[0]: float(r[1]) for r in rows}
        normalized = {r[0]: float(r[2]) for r in rows}
        check(all(0.0 <= v <= 1.0 for v in raw.values()), "raw gIC outside [0, 1]")
        check(max(normalized.values()) == 1.0, "normalized gIC does not peak at 1")
        self.check_gic(raw, normalized)

    def verify_semsim_go(self, child):
        ic = oracle.ric_normalized(self.ref, self.genes)
        with open(os.path.join(ROOT, self.files["pairs"]), encoding="utf-8") as fh:
            pairs = [line.rstrip("\n").split("\t") for line in fh]
        rows = [line.split("\t") for line in child.stdout.decode().splitlines()]
        check(len(rows) == len(pairs), f"{len(rows)} semsim rows for {len(pairs)} pairs")
        for (a, b), row in zip(pairs, rows):
            value, key = oracle.simmax(self.ref, ic, sorted(self.genes[a]), sorted(self.genes[b]))
            check(row[:2] == [a, b], f"semsim row {row[:2]} for pair {a} {b}")
            close(float(row[2]), value, f"SimMax of {a} {b}")
            check(tuple(row[3:]) == key[0] + (key[1],), f"best pair of {a} {b}: {row[3:]} vs {key}")

    def verify_rrbs_dense(self, child):
        m = self.manifest
        raw, normalized = program_gic(os.path.join(ROOT, self.files["obo"]))
        self.check_gic(raw, normalized)
        scores, lines = oracle.load_scores(os.path.join(ROOT, self.files["bitscores"]))
        check(lines == m["score_lines"], "oracle and generator disagree on the bit scores")
        self.expect_warning(child, "kept maximum score for {} duplicate (a, b) entries",
                            m["duplicate_scores"], 1)
        bins, summary = oracle.rrbs_summary(self.ref, normalized, self.genes, scores, BIN_SIZE)
        check((summary["skipped_pairs"], summary["excluded_identical"])
              == (m["skipped_pairs"], m["identical_pairs"]),
              "oracle and generator disagree on skipped or identical pairs")

        bins_csv, summary_json = self.output(child)[1:]
        rows = [r.split(",") for r in bins_csv.decode().splitlines()]
        check(rows[0] == ["bin_index", "count", "mean_rrbs", "mean_simmax"], "bins.csv header")
        check(len(rows) - 1 == len(bins), f"{len(rows) - 1} bins, oracle has {len(bins)}")
        for i, (row, (count, rr, sm)) in enumerate(zip(rows[1:], bins)):
            check(row[:2] == [str(i), str(count)], f"bin {i}: {row[:2]}")
            close(float(row[2]), rr, f"bin {i} mean_rrbs")
            close(float(row[3]), sm, f"bin {i} mean_simmax")
        got = json.loads(summary_json)
        for key in ("bins", "excluded_identical", "skipped_pairs"):
            check(got[key] == summary[key], f"summary {key}: {got[key]} vs {summary[key]}")
        for key in ("min", "max", "range", "r2"):
            close(got[key], summary[key], f"summary {key}")
        check(got["metric"] == "gic", "summary metric")

    # --- traced-run counts ---

    def layer_counts(self, trace):
        """Exact and computed per-layer counts of one traced run, checked
        against the generator where it knows them."""
        c = trace["counts"]
        m = self.manifest
        names = [s[0] for s in trace["spans"]]
        out = {k: c.get(k, 0) for k in (
            "obo.terms", "obo.edges_dropped", "annotations.genes",
            "annotations.dropped_unknown", "annotations.dropped_shallow",
            "benchmark.score_lines", "benchmark.bins", "benchmark.excluded_identical",
            "cli.skipped_pairs")}
        for name in ("annotations.build_corpus", "semsim.gene_similarity"):
            out[name + ".calls"] = names.count(name)
        n = c["n"]
        words = (n + 63) // 64
        out["dag.closure_mb"] = 3 * n * words * 8 / 2**20
        gic_called = "metrics.gic" in names
        out["metrics.gic.bitset_words"] = n * n * words if gic_called else 0
        out["metrics.gic.anc_desc_visits"] = c["desc_sq"] if gic_called else 0
        term_pairs = visits = 0
        for a, b in trace["gene_pairs"]:
            for ta in self.genes[a]:
                for tb in self.genes[b]:
                    term_pairs += 1
                    visits += len(self.ref.anc(ta) & self.ref.anc(tb))
        out["semsim.term_pairs"] = term_pairs
        out["semsim.common_ancestor_visits"] = visits

        expect = {"obo.terms": m["parsed_terms"], "obo.edges_dropped": m["edges_dropped"]}
        if "corpus" in self.files:
            expect.update({"annotations.genes": m["genes"],
                           "annotations.dropped_unknown": m["dropped_unknown"],
                           "annotations.dropped_shallow": m["dropped_shallow"]})
        if self.name == "rrbs_dense":
            expect.update({"benchmark.score_lines": m["score_lines"],
                           "benchmark.excluded_identical": m["identical_pairs"],
                           "cli.skipped_pairs": m["skipped_pairs"],
                           "semsim.gene_similarity.calls": m["scored_pairs"]})
        if self.name == "semsim_go":
            expect.update({"annotations.build_corpus.calls": 2,
                           "semsim.gene_similarity.calls": m["gene_pairs"]})
        for key, want in expect.items():
            check(out[key] == want, f"traced {key} = {out[key]}, generator put in {want}")
        return out


def program_gic(obo_path):
    """Full-precision gIC from the program's library, to feed the oracle's
    SimMax; sampled terms of it are themselves checked against the oracle."""
    sys.path.insert(0, SRC)
    logging.getLogger("dagic").setLevel(logging.ERROR)
    import dagic
    ids, edges, _ = dagic.to_graph(dagic.load_obo(obo_path))
    table = dagic.gic(dagic.build_ontology(ids, edges))
    raw = dict(zip(table.ontology.ids, map(float, table.raw)))
    return raw, dict(zip(table.ontology.ids, map(float, table.normalized)))


def self_times(spans):
    """Per span name: summed self time (duration minus direct children)."""
    own = [s[2] - s[1] for s in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out = {}
    for span, t in zip(spans, own):
        out[span[0]] = out.get(span[0], 0.0) + t
    return out


class Tally:
    """Counts every child run and whether it passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any failure of one run is counted, and the next run goes on
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def reproduces(child, reference, output):
    """The child itself, if it exited 0 and produced the first run's output."""
    check(child.code == 0, f"exit {child.code}: {child.stderr[-500:]}")
    check(output(child) == reference, "output differs from the first run")
    return child


def fits(start, lap, seconds):
    """Whether another loop round as long as the last one ends within `seconds`."""
    now = time.perf_counter()
    return now - start + (now - lap) <= seconds


def measure(w, seconds, s):
    """Untraced: repeat (workload, set-up) for `seconds`; medians."""
    first = w.run(w.argv)
    if not s.attempt(w.verify_first, first):
        return {}
    reference = w.output(first)
    setup_first = w.run(w.setup_argv)
    s.attempt(w.verify_setup, setup_first)

    runs, setups = [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        child = s.attempt(reproduces, w.run(w.argv), reference, w.output)
        if child:
            runs.append(child)
        setup = s.attempt(reproduces, w.run(w.setup_argv), setup_first.stdout,
                          lambda c: c.stdout)
        if setup:
            setups.append(setup)
        if not fits(start, lap, seconds):
            break
    if not runs or not setups:
        return {}
    for label, values in (("wall_s", [c.wall for c in runs]),
                          ("setup_s", [c.wall for c in setups])):
        print(f"{w.name:11s} {label} samples: " + " ".join(f"{v:.3f}" for v in values))
    return {
        "wall_s": statistics.median(c.wall for c in runs),
        "cpu_s": statistics.median(c.cpu for c in runs),
        "setup_s": statistics.median(c.wall for c in setups),
        "peak_rss_mb": statistics.median(c.rss_mb for c in runs),
    }


def measure_traced(w, seconds, s):
    """Alternate untraced and traced runs for `seconds`, then one
    tracemalloc run; medians of self times, exact counts."""
    first = w.run(w.argv)
    if not s.attempt(w.verify_first, first):
        return {}
    reference = w.output(first)
    trace_file = w.path("trace.marshal")

    def traced(alloc):
        child = reproduces(w.run([sys.executable, os.path.join(HERE, "traced_child.py"), SRC,
                                  trace_file, str(int(alloc)), "--"] + w.args),
                           reference, w.output)
        with open(trace_file, "rb") as fh:
            trace = marshal.load(fh)
        os.remove(trace_file)
        return child, trace, w.layer_counts(trace)

    plain, runs = [], []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        child = s.attempt(reproduces, w.run(w.argv), reference, w.output)
        if child:
            plain.append(child.wall)
        result = s.attempt(traced, False)
        if result:
            runs.append(result)
        if not fits(start, lap, seconds):
            break
    alloc_run = s.attempt(traced, True)
    if not plain or not runs or not alloc_run:
        return {}

    counts = runs[0][2]
    if any(c != counts for _, _, c in runs):
        s.failed += 1
        s.errors.append("per-layer counts differ between traced runs")
    per_run = []
    for child, trace, _ in runs:
        selfs = self_times(trace["spans"])
        root = next(sp for sp in trace["spans"] if sp[0] == "cli.main")
        total = root[2] - root[1]
        if abs(sum(selfs.values()) - total) > 1e-6:
            s.failed += 1
            s.errors.append("layer self times do not add up to the traced total")
        selfs["cli.startup_s"] = child.wall - total
        selfs["traced_wall"] = child.wall
        per_run.append(selfs)

    def med(name):
        return statistics.median(r.get(name, 0.0) for r in per_run)

    metrics = dict(counts)
    for name, unit in PER_LAYER:
        if unit == "s" and name.endswith(".s"):
            metrics[name] = med(name[:-2])
    metrics["cli.self_s"] = med("cli.main")
    metrics["cli.startup_s"] = med("cli.startup_s")
    metrics["trace.overhead_s"] = med("traced_wall") - statistics.median(plain)
    peaks = alloc_run[1]["alloc_peak"]
    metrics["dag.build_ontology.alloc_peak_mb"] = peaks.get("dag.build_ontology", 0) / 2**20
    metrics["metrics.gic.alloc_peak_mb"] = peaks.get("metrics.gic", 0) / 2**20
    return metrics


def run_workload(name, seed, seconds, trace):
    s = Tally()
    w = Workload(name, seed)
    shape = {k: v for k, v in w.manifest.items() if not isinstance(v, dict)}
    print(f"# {name} seed={seed} shape: " + json.dumps(shape, sort_keys=True))
    values = (measure_traced if trace else measure)(w, seconds, s)
    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    for k, v in metrics.items():
        print(f"{name:11s} {k:36s} {v['value']:16.6f} {v['unit']}")
    print(f"{name:11s} {'failed_frac':36s} {s.failed / max(1, s.attempted):16.6f} ratio"
          f" ({s.failed} of {s.attempted} runs)")
    for e in s.errors:
        print(f"error: {name}: {e}", file=sys.stderr)
    return metrics, s


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "dagic", "cli.py")):
        print(f"error: no dagic sources under {SRC}; run from a dagic checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, s = run_workload(name, args.seed, args.seconds, args.trace)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += s.attempted
        failed += s.failed
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
