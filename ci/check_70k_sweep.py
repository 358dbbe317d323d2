"""The all-terms gIC sweep on a 70,000-term layered DAG, above the
65,536 terms where the ancestor lists switch from uint16 to int32 and
the 32,768 where the walk's rows switch from int16 to int32, must equal
the one-term reference at the root and at 10 sampled terms.

Run from the repository root:

    PYTHONPATH=src python ci/check_70k_sweep.py

Prints the build and sweep times and the peak resident size; exits
non-zero if a value differs or the lists or rows are not int32.
"""
import resource, time
import numpy as np
from dagic import build_ontology, conditional_entropy_given, metrics
from dagic.metrics import conditional_entropies_all
start = time.perf_counter()
rng = np.random.default_rng(70)
sizes = [1, 50, 400, 2000, 6000, 12000, 18000, 17000, 14549]
ids = [f"T{i:05d}" for i in range(sum(sizes))]
edges, first = [], 0
for above, size in zip(sizes, sizes[1:]):
    below = first + above
    # one or two parents in the level above each
    picks = first + rng.integers(0, above, size=(size, 2))
    twice = rng.integers(0, 2, size=size).astype(bool)
    for child, (p, q), two in zip(range(below, below + size), picks.tolist(), twice.tolist()):
        edges.append((ids[child], ids[p]))
        if two:
            edges.append((ids[child], ids[q]))
    first = below
o = build_ontology(ids, edges)
assert len(o) == 70000 and o.anc_idx.dtype == np.int32, (len(o), o.anc_idx.dtype)
assert len(o) >= metrics._NARROW_ROWS, metrics._NARROW_ROWS  # int32 rows
built = time.perf_counter()
cond = conditional_entropies_all(o)
swept = time.perf_counter()
sample = [o.root_index, *rng.choice(len(o), size=10, replace=False).tolist()]
for zi in sample:
    assert cond[zi] == conditional_entropy_given(o, o.ids[zi]), o.ids[zi]
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"70,000 terms: build {built - start:.1f} s, sweep {swept - built:.1f} s, "
      f"total {time.perf_counter() - start:.1f} s, peak {peak:.1f} MiB")
