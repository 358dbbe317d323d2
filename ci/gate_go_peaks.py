"""Peak-memory gates at GO size: on the benchmark's 40,000-term ontology,
`dagic ic --metric gic` must peak under 110 MiB at 1 and at 2 workers and
print the same bytes at both, and `dagic entropy` must peak under
90 MiB. Each peak is the command's own ru_maxrss, read through
os.wait4; each command's wall time is printed beside it, and gates
nothing.

Run from the repository root, after the seed-1 semsim_go inputs exist:

    python3 perfbench/run.py --workload semsim_go --seed 1 --seconds 1 --trace 0
    PYTHONPATH=src python ci/gate_go_peaks.py OUT_DIR

The commands' outputs are written into OUT_DIR. Exits 1 if a command
fails, a peak is over its gate or the two gIC outputs differ, and 2 if
OUT_DIR is not given or the ontology is missing.
"""
import os, subprocess, sys, time
from pathlib import Path

ONTOLOGY = ".bench_work/semsim_go/ontology.obo"
if len(sys.argv) != 2:
    print("usage: python ci/gate_go_peaks.py OUT_DIR", file=sys.stderr)
    sys.exit(2)
if not os.path.exists(ONTOLOGY):
    print(f"{ONTOLOGY} is missing; make it with: python3 perfbench/run.py "
          "--workload semsim_go --seed 1 --seconds 1 --trace 0", file=sys.stderr)
    sys.exit(2)
failed = False
runs = [(f"gic_go_w{workers}.txt", ["ic", "--metric", "gic", "--workers", workers], 110)
        for workers in ("1", "2")]
runs.append(("entropy_go.txt", ["entropy"], 90))
for name, args, limit in runs:
    with open(os.path.join(sys.argv[1], name), "wb") as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "dagic.cli", args[0], "--obo",
                                  ONTOLOGY, *args[1:]],
                                 stdout=out)
        _, status, usage = os.wait4(child.pid, 0)
        # wait4 reaped the child, so Popen learns its exit code from here
        status = child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    peak = usage.ru_maxrss / 1024
    print(f"{' '.join(args)} on 40k terms: exit status {status}, wall {wall:.2f} s, "
          f"peak {peak:.1f} MiB (gate {limit} MiB)")
    failed |= status != 0 or peak > limit
w1, w2 = (Path(sys.argv[1], f"gic_go_w{workers}.txt").read_bytes() for workers in "12")
if w1 != w2:
    print("ic --metric gic prints different output at 1 and 2 workers")
    failed = True
sys.exit(failed)
