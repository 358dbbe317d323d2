"""The CLI's output is a contract across commits: these tests pin the
SHA-256 of the stdout of `dagic entropy`, `dagic ic` under each metric
and `dagic semsim`, and of `dagic benchmark`'s stdout, bins.csv and
summary.json, on a 3,201-term layered DAG, large enough that the
all-terms gIC sweep runs many blocks in several windows, which the
146-term golden summary cannot reach.

The DAG, the TSV corpus, the gene pairs and the bit scores come from
random.Random(seed).random() alone, whose stream Python keeps stable
across versions, so the same files are written on every interpreter and
numpy version. The commands run in the inputs' directory with relative
paths, so no output holds a path of the machine. Only the 6-decimal
text is pinned, not raw floats.

An intended output change updates these digests in the same change and
says so in CHANGES.md.
"""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import dagic
from dagic import build_ontology, metrics, obo

LEVELS = [1, 10, 64, 256, 640, 960, 800, 470]

GIC = "29b0c22a0a5ffa91380214bbd7a8f2954fb638e166b4bc10d43169411f101908"
DIGESTS = {
    "entropy": "ffd77f8582c8c4062d0f29f4d270b337db3804a5407f038f7f1a197df417e7e1",
    "ic --metric gic --workers 1": GIC,
    "ic --metric gic --workers 2": GIC,
    "ic --metric sic": "ae8edb8c77795eea0a67aad868d2a774dd2d9bc87dd8271c4fdef1d49f0640eb",
    "ic --metric ric --corpus corpus.tsv":
        "4fd0091f65663bdb7fd9ad9802a51ce09ee0fadfc5cf6cada8b188dc805ba29d",
    "semsim --corpus corpus.tsv --pairs pairs.tsv":
        "1616502c18f8b788f28d0aea5b89fe1b04c29af51059789c7606c0d8c7e0fd71",
}
# `dagic benchmark --metric gic` on the same inputs: its stdout, and the
# files it writes into --out-dir, summary.json without config.out_dir
BENCHMARK = "benchmark --corpus corpus.tsv --bitscores bitscores.tsv --bin-size 100 --out-dir out"
BENCHMARK_DIGESTS = {
    "stdout": "00ace2e9eceffce0cd3a464ec3e3dcf9263d95230fb48680882f3b6347d7fe19",
    "bins.csv": "ec0b57c376a72b1b852194590dfe24fef8d22760d349c3d5bfeeb12219cbd7ae",
    "summary.json": "72c510d8788555bcfc9e3c74c1b9b5d1036e51e287da7da16a4df9823dfff632",
}
GENES = 300


def layered_obo(seed, levels=LEVELS):
    """An OBO file of len(levels) levels; each term below the root has one
    or two is_a parents (two with probability 1/2) in the level above."""
    rng = random.Random(seed)
    stanzas, above, first = [], [], 0
    for size in levels:
        level = range(first, first + size)
        for i in level:
            lines = ["[Term]", f"id: T:{i:05d}", f"name: term {i}"]
            if above:
                picks = {above[int(rng.random() * len(above))]
                         for _ in range(1 if rng.random() < 0.5 else 2)}
                lines += [f"is_a: T:{p:05d}" for p in sorted(picks)]
            stanzas.append("\n".join(lines) + "\n")
        above, first = list(level), first + size
    return "\n".join(stanzas)


def corpus_files(seed):
    """corpus.tsv, pairs.tsv and bitscores.tsv over the terms of
    layered_obo and GENES genes. Each gene is annotated to one to four
    terms, the first below level 1 so that min_depth 2 keeps it; one
    annotation names a term the DAG lacks. Every gene but the last has a
    self score, so pairs with the last are skipped, as is a pair with a
    gene outside the corpus; one (a, b) score comes twice."""
    rng = random.Random(seed)
    n, shallow = sum(LEVELS), sum(LEVELS[:2])
    genes = [f"g{i:03d}" for i in range(GENES)]

    def gene():
        return genes[int(rng.random() * GENES)]

    corpus = []
    for g in genes:
        terms = [shallow + int(rng.random() * (n - shallow))]
        terms += [int(rng.random() * n) for _ in range(int(rng.random() * 4))]
        corpus += [f"{g}\tT:{t:05d}\n" for t in terms]
    corpus.append(f"{genes[0]}\tT:{n:05d}\n")
    pairs = [f"{gene()}\t{gene()}\n" for _ in range(200)]
    self_bits = [100 + 400 * rng.random() for _ in genes]
    scores = [f"{g}\t{g}\t{bits:.1f}\n" for g, bits in zip(genes[:-1], self_bits)]
    for _ in range(500):
        a, b = int(rng.random() * GENES), int(rng.random() * GENES)
        top = min(self_bits[a], self_bits[b])
        scores += [f"{genes[a]}\t{genes[b]}\t{top * rng.random():.1f}\n",
                   f"{genes[b]}\t{genes[a]}\t{top * rng.random():.1f}\n"]
    scores.append(scores[-1].rsplit("\t", 1)[0] + "\t0.5\n")
    scores.append(f"{genes[1]}\tg{GENES:03d}\t50.0\n")
    return {"corpus.tsv": corpus, "pairs.tsv": pairs, "bitscores.tsv": scores}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The DAG and corpus_files in one directory, where the commands run."""
    root = tmp_path_factory.mktemp("contract")
    (root / "layered.obo").write_text(layered_obo(26))
    for name, lines in corpus_files(26).items():
        (root / name).write_text("".join(lines))
    return root


def dagic_cli(inputs, command):
    """stdout of `dagic COMMAND --obo layered.obo`, run in `inputs` with
    no DAGIC_* variable set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAGIC_")}
    # the commands run elsewhere, so a relative PYTHONPATH would miss dagic
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(dagic.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    argv = command.split()
    result = subprocess.run([sys.executable, "-m", "dagic.cli", argv[0], "--obo", "layered.obo",
                             *argv[1:]], capture_output=True, env=env, cwd=inputs)
    assert result.returncode == 0, result.stderr
    return result.stdout


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_sweep_spans_several_windows(inputs):
    """The pinned DAG takes the multi-block, multi-window walk."""
    ids, edges, _ = obo.to_graph(obo.load_obo(str(inputs / "layered.obo")))
    sweep = metrics._Sweep(build_ontology(ids, edges))
    ends = [0]
    while ends[-1] < len(sweep.bounds) - 1:
        ends.append(int(sweep.window[ends[-1]]))
    assert len(ids) == sum(LEVELS) and len(ends) - 1 > 1


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_digest(inputs, command):
    assert sha256(dagic_cli(inputs, command)) == DIGESTS[command]


def test_benchmark_digests(inputs):
    """benchmark's outputs, from a run that drops an unknown-term
    annotation, skips pairs and keeps the larger of a duplicate score.
    Its regression fits two bins or more, since fewer end in exit 2."""
    stdout = dagic_cli(inputs, BENCHMARK)
    summary = json.loads((inputs / "out" / "summary.json").read_text())
    assert summary["skipped_pairs"] > 0 and summary["bins"] >= 2
    del summary["config"]["out_dir"]
    got = {
        "stdout": sha256(stdout),
        "bins.csv": sha256((inputs / "out" / "bins.csv").read_bytes()),
        "summary.json": sha256(json.dumps(summary, indent=2, sort_keys=True).encode()),
    }
    assert got == BENCHMARK_DIGESTS
