"""An independent check of the all-terms gIC sweep at GO size: each
H(.|z) of conditional_entropies_all must agree, to a relative 1e-12,
with perfbench/oracle.py's joint_entropy(excluded=anc(z)). That oracle
shares no code with dagic: it has its own OBO reader, closures held as
Python sets and an explicit sum over the first and second draws.

It checks two ontologies: the seed-1 semsim_go ontology (40,000 terms,
uint16 ancestor lists and int32 rows) at the root and 20 sampled terms,
and the 70,000-term DAG of ci/check_70k_sweep.py (int32 lists and
rows), written as OBO into a temporary directory, at the root and 10
sampled terms. Both sides read the same OBO file.

Run from the repository root, after the seed-1 semsim_go inputs exist:

    python3 perfbench/run.py --workload semsim_go --seed 1 --seconds 1 --trace 0
    PYTHONPATH=src python ci/check_gic_oracle.py

Prints the worst relative difference and the times of each ontology;
exits 1 if a term is over the tolerance, and 2 if the 40k ontology is
missing.
"""
import os, random, sys, tempfile, time
from pathlib import Path

import numpy as np

from dagic import build_ontology, load_obo, to_graph
from dagic.metrics import conditional_entropies_all

from check_70k_sweep import layered_70k

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

ONTOLOGY = ".bench_work/semsim_go/ontology.obo"
RTOL = 1e-12


def check(path, samples):
    """The worst relative difference over the root and `samples` terms
    of the OBO file at path, and the terms over RTOL."""
    start = time.perf_counter()
    ids, edges, _ = to_graph(load_obo(path))
    o = build_ontology(ids, edges)
    cond = conditional_entropies_all(o)
    swept = time.perf_counter()
    ref = oracle.Ontology(path)
    terms = [ref.root, *random.Random(1).sample(ref.ids, samples)]
    worst, bad = 0.0, []
    for z in terms:
        got, want = float(cond[o.index(z)]), ref.joint_entropy(excluded=ref.anc(z))
        diff = abs(got - want) / want  # want > 0: X_z holds more than the root
        worst = max(worst, diff)
        if diff > RTOL:
            bad.append(f"{z}: program {got!r}, oracle {want!r}")
    print(f"{len(o):,} terms, root and {samples} sampled: worst relative difference "
          f"{worst:.2e} (tolerance {RTOL:.0e}); sweep {swept - start:.1f} s, "
          f"oracle {time.perf_counter() - swept:.1f} s")
    return bad


if __name__ == "__main__":
    if not os.path.exists(ONTOLOGY):
        print(f"{ONTOLOGY} is missing; make it with: python3 perfbench/run.py "
              "--workload semsim_go --seed 1 --seconds 1 --trace 0", file=sys.stderr)
        sys.exit(2)
    bad = check(ONTOLOGY, 20)
    with tempfile.TemporaryDirectory() as tmp:
        ids, edges = layered_70k(np.random.default_rng(70))
        parents = {}
        for child, parent in edges:
            parents.setdefault(child, set()).add(parent)
        obo_path = os.path.join(tmp, "layered_70k.obo")
        with open(obo_path, "w", encoding="utf-8") as fh:
            for t in ids:
                is_a = "".join(f"is_a: {p}\n" for p in sorted(parents.get(t, ())))
                fh.write(f"[Term]\nid: {t}\n{is_a}\n")
        bad += check(obo_path, 10)
    for line in bad:
        print(line)
    sys.exit(1 if bad else 0)
