"""The CLI's output is a contract across commits: these tests pin the
SHA-256 of the stdout of `dagic entropy` and `dagic ic` on a 3,201-term
layered DAG, large enough that the all-terms gIC sweep runs many blocks
in several windows, which the 146-term golden summary cannot reach.

The DAG comes from random.Random(seed).random() alone, whose stream
Python keeps stable across versions, so the same file is written on
every interpreter and numpy version. Only the 6-decimal text is pinned,
not raw floats.

An intended output change updates these digests in the same change and
says so in CHANGES.md.
"""

import hashlib
import os
import random
import subprocess
import sys

import pytest

from dagic import build_ontology, metrics, obo

LEVELS = [1, 10, 64, 256, 640, 960, 800, 470]

GIC = "29b0c22a0a5ffa91380214bbd7a8f2954fb638e166b4bc10d43169411f101908"
DIGESTS = {
    "entropy": "ffd77f8582c8c4062d0f29f4d270b337db3804a5407f038f7f1a197df417e7e1",
    "ic --metric gic --workers 1": GIC,
    "ic --metric gic --workers 2": GIC,
    "ic --metric sic": "ae8edb8c77795eea0a67aad868d2a774dd2d9bc87dd8271c4fdef1d49f0640eb",
}


def layered_obo(seed):
    """An OBO file of len(LEVELS) levels; each term below the root has one
    or two is_a parents (two with probability 1/2) in the level above."""
    rng = random.Random(seed)
    stanzas, above, first = [], [], 0
    for size in LEVELS:
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


@pytest.fixture(scope="module")
def dag_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "layered.obo"
    path.write_text(layered_obo(26))
    return str(path)


def test_sweep_spans_several_windows(dag_path):
    """The pinned DAG takes the multi-block, multi-window walk."""
    ids, edges, _ = obo.to_graph(obo.load_obo(dag_path))
    sweep = metrics._Sweep(build_ontology(ids, edges))
    ends = [0]
    while ends[-1] < len(sweep.bounds) - 1:
        ends.append(int(sweep.window[ends[-1]]))
    assert len(ids) == sum(LEVELS) and len(ends) - 1 > 1


@pytest.mark.parametrize("command", list(DIGESTS))
def test_stdout_digest(dag_path, command):
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAGIC_")}
    argv = command.split()
    result = subprocess.run([sys.executable, "-m", "dagic.cli", argv[0], "--obo", dag_path,
                             *argv[1:]], capture_output=True, env=env)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[command]
