import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from dagic import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
OBO = os.path.join(DATA, "go_subset.obo")
CORPUS = os.path.join(DATA, "annotations.tsv")
SCORES = os.path.join(DATA, "bitscores.tsv")

DIAMOND_OBO = """\
[Term]
id: X:0
name: root

[Term]
id: X:1
name: a
is_a: X:0

[Term]
id: X:2
name: b
is_a: X:0

[Term]
id: X:3
name: c
is_a: X:1
is_a: X:2
"""

CYCLIC_OBO = """\
[Term]
id: X:1
is_a: X:2

[Term]
id: X:2
is_a: X:1
"""


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "dagic.cli", *args],
                          capture_output=True, text=True, env=env)


def run_in_process(argv, monkeypatch, env=None):
    """Exit code, stdout and stderr of `cli.main(argv)` with only `env` set
    among the DAGIC_* variables."""
    for key in list(os.environ):
        if key.startswith(cli.ENV_PREFIX):
            monkeypatch.delenv(key)
    for key, value in (env or {}).items():
        monkeypatch.setenv(key, value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def diamond_obo(tmp_path):
    path = tmp_path / "diamond.obo"
    path.write_text(DIAMOND_OBO)
    return str(path)


def test_entropy_diamond(diamond_obo):
    result = run_cli("entropy", "--obo", diamond_obo)
    assert result.returncode == 0
    assert "H(M) = 2.500000 bits" in result.stdout
    assert "terms = 4" in result.stdout
    assert "edges = 4" in result.stdout


def test_entropy_single_term(tmp_path):
    path = tmp_path / "one.obo"
    path.write_text("[Term]\nid: X:0\nname: only\n")
    result = run_cli("entropy", "--obo", str(path))
    assert result.returncode == 0
    assert "H(M) = 0.000000 bits" in result.stdout


def test_entropy_cyclic_exit_2(tmp_path):
    path = tmp_path / "cyclic.obo"
    path.write_text(CYCLIC_OBO)
    result = run_cli("entropy", "--obo", str(path))
    assert result.returncode == 2
    assert "cycle" in result.stderr


def test_entropy_missing_file_exit_1():
    result = run_cli("entropy", "--obo", "/nonexistent/x.obo")
    assert result.returncode == 1


def test_entropy_y_sizes(diamond_obo, tmp_path):
    out = tmp_path / "ysizes.tsv"
    result = run_cli("entropy", "--obo", diamond_obo, "--y-sizes-out", str(out))
    assert result.returncode == 0
    rows = dict(line.split("\t") for line in out.read_text().splitlines())
    assert rows == {"X:0": "1", "X:1": "2", "X:2": "2", "X:3": "1"}


def test_ic_gic_diamond(diamond_obo):
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "gic")
    assert result.returncode == 0
    rows = [line.split("\t") for line in result.stdout.splitlines()]
    assert [r[0] for r in rows] == ["X:0", "X:1", "X:2", "X:3"]
    vals = {r[0]: (r[1], r[2]) for r in rows}
    assert vals["X:0"] == ("0.000000", "0.000000")
    assert vals["X:1"] == ("0.366015", "0.366015")
    assert vals["X:3"] == ("1.000000", "1.000000")


def test_ic_sic_root_zero(diamond_obo):
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "sic")
    rows = {line.split("\t")[0]: line.split("\t")[2] for line in result.stdout.splitlines()}
    assert rows["X:0"] == "0.000000"


def test_ic_ric_requires_corpus(diamond_obo):
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "ric")
    assert result.returncode == 2
    assert result.stderr == ("error: 'ic' with metric 'ric' requires --corpus "
                             "(annotation file)\n")


def test_in_process_output_is_captured(diamond_obo, monkeypatch):
    code, out, _ = run_in_process(["entropy", "--obo", diamond_obo], monkeypatch)
    assert code == 0
    assert out == "H(M) = 2.500000 bits\nterms = 4\nedges = 4\n"
    code, out, _ = run_in_process(["ic", "--obo", diamond_obo, "--metric", "gic"],
                                  monkeypatch)
    assert code == 0
    assert out.splitlines()[1] == "X:1\t0.366015\t0.366015"


def test_ic_ric_na_rows(diamond_obo, tmp_path):
    corpus = tmp_path / "ann.tsv"
    corpus.write_text("g1\tX:1\n")
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "ric",
                     "--corpus", str(corpus), "--min-depth", "0")
    rows = {line.split("\t")[0]: line.split("\t")[1:]
            for line in result.stdout.splitlines()}
    assert rows["X:2"] == ["NA", "NA"]
    assert rows["X:0"] == ["0.000000", "0.000000"]


def test_semsim_output(diamond_obo, tmp_path):
    corpus = tmp_path / "ann.tsv"
    corpus.write_text("g1\tX:3\ng2\tX:1\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("g1\tg2\n")
    result = run_cli("semsim", "--obo", diamond_obo, "--metric", "gic",
                     "--corpus", str(corpus), "--min-depth", "0",
                     "--pairs", str(pairs))
    assert result.returncode == 0
    cols = result.stdout.strip().split("\t")
    assert cols[:3] == ["g1", "g2", "0.366015"]
    assert cols[5] == "X:1"  # mica


def _run_benchmark(out_dir, *extra, bin_size="100", env_extra=None, config=None):
    prefix = ["--config", str(config)] if config else []
    sized = ["--bin-size", bin_size] if bin_size else []
    return run_cli(*prefix, "benchmark", "--obo", OBO, "--namespace", "molecular_function",
                   "--corpus", CORPUS, "--metric", "gic", *sized,
                   "--bitscores", SCORES, "--out-dir", str(out_dir), *extra,
                   env_extra=env_extra)


def test_benchmark_matches_expected(tmp_path):
    result = _run_benchmark(tmp_path)
    assert result.returncode == 0
    with open(os.path.join(DATA, "expected_summary.json")) as fh:
        expected = json.load(fh)
    with open(tmp_path / "summary.json") as fh:
        got = json.load(fh)
    for key, want in expected.items():
        if isinstance(want, float):
            assert abs(got[key] - want) <= 1e-6, key
        else:
            assert got[key] == want, key
    assert got["config"]["bin_size"] == 100  # provenance echo


def test_benchmark_bins_csv_shape(tmp_path):
    _run_benchmark(tmp_path)
    lines = (tmp_path / "bins.csv").read_text().splitlines()
    assert lines[0] == "bin_index,count,mean_rrbs,mean_simmax"
    assert len(lines) == 1 + json.loads((tmp_path / "summary.json").read_text())["bins"]


def test_benchmark_plot_data_rejected(tmp_path):
    # plot_data.tsv repeated two columns of bins.csv and is gone
    result = _run_benchmark(tmp_path / "flag", "--plot-data")
    assert result.returncode == 2
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("plot_data = true\n")
    result = _run_benchmark(tmp_path / "cfg", config=cfg_file)
    assert result.returncode == 2
    assert "unknown config key 'plot_data'" in result.stderr


@pytest.mark.parametrize("command, given, flag", [
    ("semsim", ("--corpus", CORPUS), "--pairs"),
    ("benchmark", ("--corpus", CORPUS), "--bitscores"),
    ("semsim", ("--pairs", CORPUS), "--corpus"),
    ("benchmark", ("--bitscores", SCORES), "--corpus"),
])
def test_missing_input_path_exit_2(command, given, flag):
    result = run_cli(command, "--obo", OBO, "--namespace", "molecular_function",
                     "--metric", "gic", *given)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert f"'{command}' requires" in lines[0] and flag in lines[0]


@pytest.mark.parametrize("command", ["entropy", "ic", "semsim", "benchmark"])
def test_missing_obo_exit_2(command, monkeypatch):
    code, _, err = run_in_process([command], monkeypatch)
    assert code == 2
    assert err == f"error: '{command}' requires --obo (OBO 1.2 ontology file)\n"


def test_benchmark_too_few_bins(tmp_path):
    result = run_cli("benchmark", "--obo", OBO, "--namespace", "molecular_function",
                     "--corpus", CORPUS, "--metric", "gic", "--bin-size", "100000",
                     "--bitscores", SCORES, "--out-dir", str(tmp_path))
    assert result.returncode == 2
    assert "bins" in result.stderr


def test_benchmark_byte_identical_reruns(tmp_path):
    dir1, dir2 = tmp_path / "r1", tmp_path / "r2"
    _run_benchmark(dir1, "--workers", "1")
    _run_benchmark(dir2, "--workers", "3")
    for name in ("bins.csv",):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
    # summaries differ only in the echoed worker count
    s1 = json.loads((dir1 / "summary.json").read_text())
    s2 = json.loads((dir2 / "summary.json").read_text())
    for s in (s1, s2):
        s["config"].pop("workers")
        s["config"].pop("out_dir")
    assert s1 == s2


def test_config_file_and_precedence(diamond_obo, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"obo_path = {diamond_obo}\nmetric = sic\n")
    result = run_cli("--config", str(cfg), "ic")
    assert result.returncode == 0
    assert "0.500000" in result.stdout  # sic(a) on the diamond
    # flag beats config file
    result = run_cli("--config", str(cfg), "ic", "--metric", "gic")
    assert "0.366015" in result.stdout


def test_env_override(diamond_obo):
    result = run_cli("ic", env_extra={"DAGIC_OBO_PATH": diamond_obo,
                                      "DAGIC_METRIC": "sic"})
    assert result.returncode == 0
    assert "0.500000" in result.stdout


def test_invalid_utf8_is_error(tmp_path):
    path = tmp_path / "bad.obo"
    path.write_bytes(b"[Term]\nid: X:\xff1\n")
    result = run_cli("entropy", "--obo", str(path))
    assert result.returncode == 1


@pytest.mark.parametrize("argv, bad, body, error", [
    (["entropy"], "x.obo", "[Term]\nid: X:0\n\n[Term]\nid: X:0\n",
     "x.obo:4: duplicate term id 'X:0'"),
    (["ic", "--metric", "ric", "--corpus", "c.tsv"], "c.tsv", "g1\tX:3\tIDA\n",
     "c.tsv:1: expected 2 tab-separated columns, got 3"),
    (["ic", "--metric", "ric", "--corpus", "c.gaf", "--corpus-format", "gaf"], "c.gaf",
     "!gaf-version: 2.2\nDB\tg1\tx\n", "c.gaf:2: GAF line needs at least 5 columns, got 3"),
    (["semsim", "--corpus", "c.tsv", "--pairs", "p.tsv"], "p.tsv", "g1\tg2\n\ng1\n",
     "p.tsv:3: expected 2 tab-separated columns, got 1"),
    (["benchmark", "--corpus", "c.tsv", "--bitscores", "b.tsv"], "b.tsv",
     "g1\tg1\t9\ng1\tg2\t-5\n", "b.tsv:2: negative bit score -5.0"),
], ids=["obo", "tsv", "gaf", "pairs", "bitscores"])
def test_parse_error_names_file_and_line(tmp_path, monkeypatch, argv, bad, body, error):
    """A malformed input of each kind ends in exit 2 and one error line
    naming the file and the line, as a config file's errors do."""
    inputs = {"x.obo": DIAMOND_OBO, "c.tsv": "g1\tX:3\ng2\tX:3\n", "p.tsv": "g1\tg2\n",
              bad: body}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_in_process([*argv, "--obo", "x.obo"], monkeypatch)
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv, bad, body, error", [
    (["ic", "--metric", "ric", "--corpus", "c.tsv"], "c.tsv", "g1\tX:3\ng2\t\n",
     "c.tsv:2: column 2 is empty"),
    (["semsim", "--corpus", "c.tsv", "--pairs", "p.tsv"], "p.tsv", "\tg2\n",
     "p.tsv:1: column 1 is empty"),
    (["ic", "--metric", "ric", "--corpus", "c.gaf", "--corpus-format", "gaf"], "c.gaf",
     "!gaf-version: 2.2\n" + "\t".join(["DB", "", "g1", "", "X:3"] + [""] * 10) + "\n",
     "c.gaf:2: column 2 is empty"),
    (["benchmark", "--corpus", "c.tsv", "--bitscores", "b.tsv"], "b.tsv",
     "g1\tg1\t9\ng1\t\t9\n", "b.tsv:2: column 2 is empty"),
], ids=["tsv", "pairs", "gaf", "bitscores"])
def test_empty_field_names_its_column(tmp_path, monkeypatch, argv, bad, body, error):
    """A line with the right number of columns but an empty id ends in
    exit 2 with an error that names the empty column."""
    inputs = {"x.obo": DIAMOND_OBO, "c.tsv": "g1\tX:3\ng2\tX:3\n", "p.tsv": "g1\tg2\n",
              bad: body}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_in_process([*argv, "--obo", "x.obo"], monkeypatch)
    assert (code, out, err) == (2, "", f"error: {error}\n")


# --- typed env and config-file values ---

def _summary_config(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)["config"]


def test_env_values_are_typed(diamond_obo, tmp_path):
    plain = run_cli("ic", "--obo", diamond_obo, "--metric", "gic")
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "gic",
                     env_extra={"DAGIC_WORKERS": "2"})
    assert result.returncode == 0, result.stderr
    assert result.stdout == plain.stdout

    corpus = tmp_path / "ann.tsv"
    corpus.write_text("g1\tX:3\ng2\tX:1\n")
    result = run_cli("ic", "--obo", diamond_obo, "--metric", "ric",
                     "--corpus", str(corpus), env_extra={"DAGIC_MIN_DEPTH": "0"})
    assert result.returncode == 0, result.stderr
    rows = {line.split("\t")[0]: line.split("\t")[1] for line in result.stdout.splitlines()}
    assert rows["X:3"] == "1.000000"  # g2's depth-1 annotation kept: p(X:3) = 1/2

    out = tmp_path / "env"
    result = _run_benchmark(out, env_extra={"DAGIC_INCLUDE_IDENTICAL": "false",
                                            "DAGIC_WORKERS": "2"})
    assert result.returncode == 0, result.stderr
    cfg = _summary_config(out)
    assert cfg["include_identical"] is False
    assert cfg["workers"] == 2


def test_config_file_values_are_typed(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("workers = 2\ninclude_identical = yes\nmin_depth = 3\n")
    out = tmp_path / "cfg"
    result = _run_benchmark(out, config=cfg_file)
    assert result.returncode == 0, result.stderr
    cfg = _summary_config(out)
    assert cfg["workers"] == 2
    assert cfg["include_identical"] is True
    assert cfg["min_depth"] == 3


@pytest.mark.parametrize("env", [{"DAGIC_WORKERS": "two"},
                                 {"DAGIC_INCLUDE_IDENTICAL": "maybe"}])
def test_env_bad_value_exit_2(diamond_obo, env):
    result = run_cli("ic", "--obo", diamond_obo, env_extra=env)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_config_file_bad_value_names_line(diamond_obo, tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"obo_path = {diamond_obo}\nworkers = 1.5\n")
    result = run_cli("--config", str(cfg_file), "ic")
    assert result.returncode == 2
    assert f"{cfg_file}:2:" in result.stderr


# --- range checks ---

@pytest.mark.parametrize("extra, env, config", [
    (("--bin-size", "0"), None, None),
    (("--bin-size", "-3"), None, None),
    (("--workers", "0"), None, None),
    ((), {"DAGIC_BIN_SIZE": "0"}, None),
    ((), {"DAGIC_WORKERS": "0"}, None),
    ((), None, "bin_size = 0\n"),
    ((), None, "workers = -1\n"),
])
def test_range_checks_exit_2(tmp_path, extra, env, config):
    cfg_file = None
    if config:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config)
    result = _run_benchmark(tmp_path / "out", *extra, bin_size=None,
                            env_extra=env, config=cfg_file)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "at least 1" in lines[0]
    assert not (tmp_path / "out").exists()


# --- one option table: every source checked alike, before any input is read ---

@pytest.mark.parametrize("name, flag_args, text", [
    ("metric", ["--metric", "bogus"], "bogus"),
    ("corpus_format", ["--corpus-format", "xml"], "xml"),
    ("bin_size", ["--bin-size", "0"], "0"),
    ("workers", ["--workers", "0"], "0"),
    ("min_depth", ["--min-depth", "two"], "two"),
    ("count_events", ["--count-events", "maybe"], "maybe"),
])
@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_bad_value_exit_2_from_every_source(tmp_path, monkeypatch, source,
                                            name, flag_args, text):
    missing = str(tmp_path / "nonexistent")
    out_dir = tmp_path / "out"
    argv = ["benchmark", "--obo", missing + ".obo", "--corpus", missing + ".tsv",
            "--bitscores", missing + ".scores", "--out-dir", str(out_dir)]
    env = {}
    cfg_file = tmp_path / "run.cfg"
    if source == "flag":
        argv += flag_args
    elif source == "env":
        env[cli.ENV_PREFIX + name.upper()] = text
    else:
        cfg_file.write_text(f"# a bad value on line 2\n{name} = {text}\n")
        argv = ["--config", str(cfg_file)] + argv
    code, _, err = run_in_process(argv, monkeypatch, env)
    assert code == 2, err  # 1 would mean an input file was opened first
    assert sum("error:" in line for line in err.splitlines()) == 1, err
    if source == "config":
        assert err.startswith(f"error: {cfg_file}:2: "), err
    assert not out_dir.exists()


# The parser's surface before it was generated from RunConfig:
# option string -> (config key, value kind, default).
_COMMON = {
    "--obo": ("obo_path", "str", None),
    "--namespace": ("namespace", "str", None),
    "--relations": ("relations", "str", ""),
    "--workers": ("workers", "int", 1),
}
_CORPUS = {
    **_COMMON,
    "--corpus": ("corpus_path", "str", None),
    "--corpus-format": ("corpus_format", "str", "tsv"),
    "--min-depth": ("min_depth", "int", 2),
    "--count-events": ("count_events", "flag", False),
    "--metric": ("metric", "str", "gic"),
}
SURFACE = {
    "entropy": {**_COMMON, "--y-sizes-out": ("y_sizes_out", "str", None)},
    "ic": _CORPUS,
    "semsim": {**_CORPUS, "--pairs": ("pairs_path", "str", None)},
    "benchmark": {
        **_CORPUS,
        "--bitscores": ("bitscores_path", "str", None),
        "--bin-size": ("bin_size", "int", 1000),
        "--include-identical": ("include_identical", "flag", False),
        "--regress-on-pairs": ("regress_on_pairs", "flag", False),
        "--out-dir": ("out_dir", "str", "."),
    },
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    top = [a.option_strings for a in parser._actions if a.option_strings]
    assert top == [["-h", "--help"], ["--config"]]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(SURFACE)
    defaults = cli.RunConfig()
    for command, p in sub.choices.items():
        got = {}
        for action in p._actions:
            if action.dest == "help":
                continue
            kind = "flag" if action.nargs == 0 else getattr(action.type, "__name__", "str")
            for flag in action.option_strings:
                got[flag] = (action.dest, kind, getattr(defaults, action.dest))
        assert got == SURFACE[command], command
    checks = {(f.name, key): f.metadata[key] for f in fields(cli.RunConfig)
              for key in ("choices", "minimum") if key in f.metadata}
    assert checks == {("corpus_format", "choices"): ("tsv", "gaf"),
                      ("metric", "choices"): ("gic", "ric", "sic"),
                      ("bin_size", "minimum"): 1, ("workers", "minimum"): 1}


def test_readme_option_table_lists_every_field():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = [line for line in fh if line.startswith("| `--")]
    by_flag = {re.match(r"\| `(--[a-z-]+)`", row).group(1): row for row in rows}
    options = fields(cli.RunConfig)
    assert len(rows) == len(by_flag) == len(options)
    for f in options:
        row = by_flag[f.metadata["flag"]]
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        default = ("—" if f.default is None else "`false`" if f.default is False
                   else f"`{f.default}`" if f.default != "" else '`""`')
        assert cells[1:4] == [f"`{f.name}`", f"`DAGIC_{f.name.upper()}`", default], row
        assert cells[4] == ", ".join(f.metadata["commands"]), row


# the package's public names before they were loaded on first use
EXPORTS = ("AnnotationCorpus", "BenchmarkReport", "Bin", "EntropyReport", "GenePairSim",
           "ICTable", "OboTerm", "Ontology", "build_corpus", "build_ontology",
           "conditional_entropy_given", "format_obo", "gene_similarity", "gic",
           "load_bitscores", "load_obo", "ols_r2", "ontology_entropy", "parse_annotations",
           "parse_obo", "ric", "rrbs", "run_benchmark", "sic", "to_graph")
SUBMODULES = ("annotations", "benchmark", "cli", "dag", "errors", "metrics", "obo", "semsim")


def run_python(code, **env_extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_import_dagic_loads_no_numpy():
    code = ("import sys, dagic\n"
            "print('numpy' in sys.modules)\n"
            f"for name in {EXPORTS + SUBMODULES!r}:\n"
            "    getattr(dagic, name)\n"
            "print('numpy' in sys.modules)\n")
    assert run_python(code).split() == ["False", "True"]


@pytest.mark.parametrize("workers, loaded", [("1", ["False", "False"]), ("2", ["True", "False"])])
def test_gic_run_imports_thread_pool_only_for_workers(workers, loaded):
    # concurrent.futures serves only a sweep dealt to several workers, and
    # json only the benchmark command's summary
    code = ("import contextlib, io, sys\n"
            "from dagic import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['ic', '--obo', {OBO!r}, '--namespace', 'molecular_function',\n"
            f"                     '--metric', 'gic', '--workers', {workers!r}]) == 0\n"
            "print('concurrent.futures' in sys.modules, 'json' in sys.modules)\n")
    assert run_python(code).split() == loaded


def test_package_names_and_submodules_reachable():
    import dagic
    assert sorted(dagic.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        module = getattr(dagic, name).__module__
        assert module.startswith("dagic.") and hasattr(sys.modules[module], name)
    for name in SUBMODULES:
        assert getattr(dagic, name) is sys.modules[f"dagic.{name}"]
    with pytest.raises(AttributeError):
        dagic.no_such_name


@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "4"}, "4")])
def test_cli_starts_numpy_with_one_openblas_thread_unless_set(env, threads):
    code = "import os, dagic.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, **env).strip() == threads
