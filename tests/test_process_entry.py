"""The process entry (`python -m dagic.cli` and the `dagic` script) runs
without the cyclic garbage collector and freezes the heap at exit. These
tests pin why that is safe (a run leaves the same small number of objects
in cycles whatever the size of its input) and that the entry changes
neither output nor exit code."""

import gc
import importlib
import os
import random
import subprocess
import sys

import pytest

from dagic import cli
from test_cli import CORPUS, OBO, SCORES, run_in_process

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
MF = ["--namespace", "molecular_function"]


def commands(obo, corpus, scores, pairs, out_dir, ns=()):
    """argv of every command: entropy, ic under each metric, semsim, benchmark."""
    on = ["--obo", obo, *ns]
    with_corpus = on + ["--corpus", corpus]
    return {
        "entropy": ["entropy", *on],
        **{f"ic-{m}": ["ic", *with_corpus, "--metric", m] for m in ("gic", "ric", "sic")},
        "semsim": ["semsim", *with_corpus, "--metric", "ric", "--pairs", pairs],
        "benchmark": ["benchmark", *with_corpus, "--bitscores", scores, "--bin-size", "100",
                      "--out-dir", out_dir],
    }


def write_large_inputs(tmp_path, sizes=(1, 20, 120, 500, 1000), genes=500, pairs=12_300):
    """A layered OBO DAG, annotations, gene pairs and bit scores, each more
    than ten times the size of its counterpart under tests/data."""
    rng = random.Random(11)
    layers, start, obo = [], 0, []
    for size in sizes:
        layer = list(range(start, start + size))
        for t in layer:
            obo.append(f"[Term]\nid: L:{t:05d}\n")
            if layers:
                for p in rng.sample(layers[-1], min(len(layers[-1]), rng.randint(1, 2))):
                    obo.append(f"is_a: L:{p:05d} ! parent\n")
            obo.append("\n")
        layers.append(layer)
        start += size
    deep = layers[2] + layers[3] + layers[4]
    names = [f"G{g:04d}" for g in range(genes)]
    annotations = [f"{g}\tL:{t:05d}\n" for g in names for t in rng.sample(deep, 3)]
    chosen = rng.sample([(a, b) for i, a in enumerate(names) for b in names[i + 1:]], pairs)
    scores = [f"{g}\t{g}\t200.0\n" for g in names]
    for a, b in chosen:
        s = rng.uniform(10.0, 190.0)
        scores += [f"{a}\t{b}\t{s:.1f}\n", f"{b}\t{a}\t{s + rng.uniform(-5, 5):.1f}\n"]
    files = {"obo": obo, "corpus": annotations, "scores": scores,
             "pairs": [f"{a}\t{b}\n" for a, b in chosen[:1000]]}
    paths = {}
    for name, lines in files.items():
        paths[name] = str(tmp_path / f"large.{name}")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    return paths


def test_large_inputs_are_ten_times_the_fixtures(tmp_path):
    large = write_large_inputs(tmp_path)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("g001\tg002\n")

    def size(path, unit="\n"):
        with open(path, encoding="utf-8") as fh:
            return fh.read().count(unit)

    assert size(large["obo"], "[Term]") >= 10 * size(OBO, "[Term]")
    assert size(large["corpus"]) >= 10 * size(CORPUS)
    assert size(large["scores"]) >= 10 * size(SCORES)
    assert size(large["pairs"]) >= 10 * size(pairs)


def cyclic_garbage(argv, monkeypatch):
    """Exit code of cli.main(argv) run with the collector off, and the
    number of unreachable objects a full collection then finds."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        code, _, err = run_in_process(argv, monkeypatch)
        assert not gc.isenabled()
        return code, err, gc.collect()
    finally:
        if was:
            gc.enable()


def test_run_leaves_same_cyclic_garbage_at_any_input_size(tmp_path, monkeypatch):
    """The objects a run leaves in cycles do not grow with its input, so
    running the process without the collector holds nothing of size."""
    small_pairs = tmp_path / "pairs.tsv"
    small_pairs.write_text("g001\tg002\ng003\tg004\ng001\tg009\n")
    small = commands(OBO, CORPUS, SCORES, str(small_pairs), str(tmp_path / "small"), MF)
    paths = write_large_inputs(tmp_path)
    large = commands(paths["obo"], paths["corpus"], paths["scores"], paths["pairs"],
                     str(tmp_path / "large"))
    for name, argv in small.items():
        cyclic_garbage(argv, monkeypatch)  # first-use imports and caches
        code, err, on_fixture = cyclic_garbage(argv, monkeypatch)
        assert code == 0, (name, err)
        code, err, on_large = cyclic_garbage(large[name], monkeypatch)
        assert code == 0, (name, err)
        assert on_large == on_fixture, name


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_collector_as_found(enabled, monkeypatch):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        code, _, _ = run_in_process(["entropy", "--obo", OBO, *MF], monkeypatch)
        assert code == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def run_entry(code, argv):
    """Exit code, stdout and stderr bytes of `python -c code` with argv."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


# Runs the module as `python -m dagic.cli` does and reports, on stderr's
# last line, whether the collector was on when numpy was first imported,
# and its state and the frozen object count when the process exits.
AS_MODULE = """\
import gc, runpy, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(gc.isenabled())
sys.addaudithook(hook)
try:
    runpy.run_module("dagic.cli", run_name="__main__", alter_sys=True)
finally:
    print(seen, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)
"""


def test_module_entry_matches_in_process_main(tmp_path, monkeypatch):
    """`python -m dagic.cli` writes the bytes in-process main writes and
    exits with its code (0, 1 and 2); it turns the collector off before
    numpy's import and leaves the heap frozen."""
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("g001\tg002\ng003\tg004\n")
    cyclic = tmp_path / "cyclic.obo"
    cyclic.write_text("[Term]\nid: X:1\nis_a: X:2\n\n[Term]\nid: X:2\nis_a: X:1\n")
    cases = list(commands(OBO, CORPUS, SCORES, str(pairs), str(tmp_path / "out"),
                          MF).values())
    cases += [["entropy", "--obo", str(cyclic)],
              ["entropy", "--obo", str(tmp_path / "missing.obo")]]
    codes = set()
    for argv in cases:
        want_code, want_out, want_err = run_in_process(argv, monkeypatch)
        code, out, err = run_entry(AS_MODULE, argv)
        *err, report = err.splitlines(keepends=True)
        assert (code, out, b"".join(err)) == (want_code, want_out.encode(),
                                             want_err.encode()), argv
        assert report == b"[False] False True\n", argv
        codes.add(code)
    assert codes == {0, 1, 2}


def test_console_script_goes_through_the_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dagic"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    # what the generated script does: sys.exit(target())
    script = (f"import gc, sys\nfrom {module} import {name}\n"
              f"try:\n    sys.exit({name}())\nfinally:\n"
              "    print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n")
    argv = ["entropy", "--obo", OBO, *MF]
    code, out, err = run_entry(script, argv)
    assert (code, err) == (0, b"False True\n")
    assert (code, out) == run_entry(AS_MODULE, argv)[:2]
