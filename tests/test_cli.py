"""End-to-end tests of the command-line surface."""

from __future__ import annotations

import errno
import gc
import io
import json
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import conjprop
from conjprop import cli
from conjprop.cli import main
from conjprop.conllu import parse_corpus, read_file, write_corpus
from conjprop.converter import convert_mode
from conjprop.modelfile import load_model

DATA = os.path.join(os.path.dirname(__file__), "data")
FIG1 = os.path.join(DATA, "fig1.conllu")
FIG1_GOLD = os.path.join(DATA, "fig1_gold.conllu")

SHARED_SUBJECT = """\
# sent_id = sh{i}
# text = Ann baked bread and sang songs !
1\tAnn\tann\tPROPN\t_\t_\t2\tnsubj\t2:nsubj{extra}\t_
2\tbaked\tbake\tVERB\t_\t_\t0\troot\t0:root\t_
3\tbread\tbread\tNOUN\t_\t_\t2\tobj\t2:obj\t_
4\tand\tand\tCCONJ\t_\t_\t5\tcc\t5:cc\t_
5\tsang\tsing\tVERB\t_\t_\t2\tconj\t2:conj\t_
6\tsongs\tsong\tNOUN\t_\t_\t5\tobj\t5:obj\t_
7\t!\t!\tPUNCT\t_\t_\t2\tpunct\t2:punct\t_
"""

OWN_SUBJECT = """\
# sent_id = ow{i}
# text = Bo cooked and Cy cleaned .
1\tBo\tbo\tPROPN\t_\t_\t2\tnsubj\t2:nsubj\t_
2\tcooked\tcook\tVERB\t_\t_\t0\troot\t0:root\t_
3\tand\tand\tCCONJ\t_\t_\t5\tcc\t5:cc\t_
4\tCy\tcy\tPROPN\t_\t_\t5\tnsubj\t5:nsubj\t_
5\tcleaned\tclean\tVERB\t_\t_\t2\tconj\t2:conj\t_
6\t.\t.\tPUNCT\t_\t_\t2\tpunct\t2:punct\t_
"""


def prop_training_text() -> str:
    blocks = []
    for i in range(4):
        blocks.append(SHARED_SUBJECT.format(i=i, extra="|5:nsubj"))
        blocks.append(OWN_SUBJECT.format(i=i))
    return "\n".join(blocks) + "\n"


def prop_input_text() -> str:
    return SHARED_SUBJECT.format(i=9, extra="") + "\n"


@pytest.fixture
def run(capsys, monkeypatch):
    def call(argv, stdin_text=None):
        if stdin_text is not None:
            raw = stdin_text if isinstance(stdin_text, bytes) \
                else stdin_text.encode("utf-8")
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
                io.BytesIO(raw), encoding="utf-8"))
        rc = main(argv)
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return call


def test_no_command_prints_help(run):
    rc, _, err = run([])
    assert rc == 2
    assert "COMMAND" in err


def test_convert_rbc2_adds_oblique_to_second_conjunct(run, tmp_path):
    out_path = tmp_path / "out.conllu"
    rc, _, _ = run(["convert", "--mode", "rbc2", "--in", FIG1,
                    "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    row3 = next(l for l in lines if l.startswith("3\t")).split("\t")
    assert row3[8] == "5:obl|7:obl"


def test_convert_rbc_keeps_core_arguments_only(run, tmp_path):
    out_path = tmp_path / "out.conllu"
    rc, _, _ = run(["convert", "--mode", "rbc", "--in", FIG1,
                    "--out", str(out_path)])
    assert rc == 0
    text = out_path.read_text()
    row3 = next(l for l in text.splitlines() if l.startswith("3\t"))
    row4 = next(l for l in text.splitlines() if l.startswith("4\t"))
    row9 = next(l for l in text.splitlines() if l.startswith("9\t"))
    assert row3.split("\t")[8] == "5:obl"
    assert row4.split("\t")[8] == "5:nsubj|7:nsubj"
    assert row9.split("\t")[8] == "5:obj|7:obj"


def test_convert_reads_stdin_writes_stdout(run):
    text = open(FIG1, encoding="utf-8").read()
    rc, out, _ = run(["convert", "--mode", "rbc2"], stdin_text=text)
    assert rc == 0
    assert "5:obl|7:obl" in out


def test_convert_mode_always_runs(run):
    text = open(FIG1, encoding="utf-8").read()
    rc, out, err = run(["convert", "--mode", "always"], stdin_text=text)
    assert rc == 0
    assert "# mode = always" in err
    assert "7:nsubj" in out


@pytest.mark.parametrize("argv", [
    ["always"],
    ["evaluate", "--system", FIG1, "--gold", FIG1, "--jobs", "2"],
    ["agree", "--files", f"{FIG1},{FIG1}", "--jobs", "2"],
    ["stats", "--original", FIG1, "--edited", FIG1, "--jobs", "2"],
    ["apply-prop", "--in", FIG1, "--model", FIG1, "--jobs", "2"],
    ["predict", "--in", FIG1, "--model", FIG1, "--jobs", "2"],
    ["apply-prop", "--in", FIG1, "--model", FIG1, "--hash-dim", "8"],
    ["predict", "--in", FIG1, "--model", FIG1, "--hash-dim", "8",
     "--hash-layers", "2"],
])
def test_removed_command_and_scorer_jobs_are_usage_errors(run, argv):
    with pytest.raises(SystemExit) as exit_:
        run(argv)
    assert exit_.value.code == 2


def test_scorer_config_may_still_set_jobs(run, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"system = {FIG1}\ngold = {FIG1}\njobs = 4\n")
    rc, out, err = run(["evaluate", "--config", str(cfg)])
    assert rc == 0
    assert "F1 " in out and "# jobs" not in err


def test_resolved_config_is_logged(run, tmp_path):
    rc, _, err = run(["convert", "--mode", "rbc2", "--in", FIG1,
                      "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "# mode = rbc2" in err
    assert "# jobs = 1" in err
    assert f"# in = {FIG1}" in err


def test_config_file_supplies_missing_options(run, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode = rbc2\nin = {FIG1}\n")
    rc, out, err = run(["convert", "--config", str(cfg)])
    assert rc == 0
    assert "5:obl|7:obl" in out
    assert "# mode = rbc2" in err


def test_command_line_overrides_config_file(run, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mode = always\nin = {FIG1}\n")
    rc, _, err = run(["convert", "--config", str(cfg), "--mode", "rbc"])
    assert rc == 0
    assert "# mode = rbc" in err


def test_env_var_names_default_config(run, tmp_path, monkeypatch):
    cfg = tmp_path / "default.cfg"
    cfg.write_text(f"mode = rbc2\nin = {FIG1}\n")
    monkeypatch.setenv("CONJPROP_CONFIG", str(cfg))
    rc, out, _ = run(["convert"])
    assert rc == 0
    assert "5:obl|7:obl" in out


def test_the_cli_defaults_are_the_library_defaults(monkeypatch):
    from dataclasses import asdict
    from conjprop.edgepred import ParserTrainConfig
    from conjprop.instances import FeatureConfig
    from conjprop.propmodel import ApplyConfig, PropTrainOptions
    monkeypatch.delenv("CONJPROP_CONFIG", raising=False)

    def defaults(*argv):
        return cli.resolve_options(cli.build_parser().parse_args(argv))

    prop = defaults("train-prop", "--train", "t", "--model", "m")
    assert asdict(PropTrainOptions()) == {
        "c": prop["c"], "tol": prop["tol"],
        "class_weights": prop["class-weights"], "epochs": prop["epochs"],
        "lr": prop["lr"], "patience": prop["patience"],
        "holdout": prop["holdout"],
        "hidden_sizes": tuple(int(w) for w in prop["hidden"].split(",")),
        "seed": prop["seed"]}
    groups = prop["features"].split(",")
    assert asdict(FeatureConfig()) == {"token_features": "token" in groups,
                                       "tree_features": "tree" in groups}
    parser = defaults("train-parser", "--train", "t", "--model", "m")
    assert asdict(ParserTrainConfig()) == {
        "batch_size": parser["batch"], "lr": parser["lr"],
        "epochs": parser["epochs"], "patience": parser["patience"],
        "seed": parser["seed"], "hidden": parser["hidden"],
        "delexicalize": parser["delexicalize"]}
    apply = defaults("apply-prop", "--model", "m")
    assert asdict(ApplyConfig()) == {
        "passive_imperative_fix": apply["fix"],
        "iterate_to_fixpoint": apply["fixpoint"]}


def test_malformed_config_names_file_and_line(run, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = rbc\nthis line has no equals sign\n")
    rc, _, err = run(["convert", "--config", str(cfg)])
    assert rc == 1
    assert f"{cfg}:2" in err


def test_bad_config_value_type_is_reported(run, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"in = {FIG1}\njobs = many\n")
    rc, _, err = run(["convert", "--config", str(cfg)])
    assert rc == 1
    assert "jobs" in err and "'many'" in err


def test_missing_input_file_sets_exit_code(run, tmp_path):
    missing = str(tmp_path / "nope.conllu")
    rc, _, err = run(["convert", "--in", missing])
    assert rc == 1
    assert missing in err


@pytest.mark.parametrize("kind", ["sidecar", "model", "config", "out"])
def test_a_file_that_cannot_be_opened_is_named_with_its_reason(run, tmp_path,
                                                              kind):
    missing = str(tmp_path / "no-such-dir" / "file")
    argv = {
        "sidecar": ["train-prop", "--kind", "mlp", "--train", FIG1,
                    "--model", str(tmp_path / "m"), "--embeddings", missing],
        "model": ["apply-prop", "--in", FIG1, "--model", missing],
        "config": ["convert", "--in", FIG1, "--config", missing],
        "out": ["convert", "--in", FIG1, "--out", missing],
    }[kind]
    rc, _, err = run(argv)
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"conjprop: error: {missing}: {os.strerror(errno.ENOENT)}")


def test_parse_error_names_line(run, tmp_path):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tonly three\tcolumns\n\n")
    rc, _, err = run(["convert", "--in", str(bad)])
    assert rc == 1
    assert f"conjprop: error: {bad}:1: expected 10 columns" in err


@pytest.mark.parametrize("command, first, second", [
    ("evaluate", "--system", "--gold"),
    ("stats", "--original", "--edited"),
])
def test_a_malformed_first_file_is_reported_before_a_missing_second(
        run, tmp_path, command, first, second):
    bad = tmp_path / "first.conllu"
    bad.write_text(SHARED_SUBJECT.format(i=0, extra="") + "\n1\tonly\n\n")
    rc, _, err = run([command, first, str(bad),
                      second, str(tmp_path / "missing.conllu")])
    assert rc == 1
    assert f"conjprop: error: {bad}:11: expected 10 columns" in err


def test_agree_names_the_first_bad_file(run, tmp_path):
    malformed = tmp_path / "malformed.conllu"
    malformed.write_text("1\tonly\n\n")
    missing = tmp_path / "missing.conllu"
    rc, _, err = run(["agree", "--files", f"{FIG1},{malformed},{missing}"])
    assert rc == 1
    assert f"conjprop: error: {malformed}:1: expected 10 columns" in err
    rc, _, err = run(["agree", "--files", f"{FIG1},{missing},{malformed}"])
    assert rc == 1
    assert f"conjprop: error: {missing}: No such file" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_late_parse_error_leaves_no_output_file(run, tmp_path,
                                                  small_slices, jobs):
    text = prop_training_text()
    assert len(cli._split_text(text, 2)) == 2
    bad = tmp_path / "late.conllu"
    bad.write_text(text + "1\tonly\n\n")
    out = tmp_path / "out.conllu"
    rc, _, err = run(["convert", "--in", str(bad), "--out", str(out),
                      "--jobs", jobs])
    assert rc == 1
    line = text.count("\n") + 1
    assert f"conjprop: error: {bad}:{line}: expected 10 columns" in err
    assert not out.exists()


def test_evaluate_and_stats_hold_no_parsed_corpus(run, tmp_path):
    """Traced memory stays within a small multiple of the input text,
    which holding both parsed corpora exceeds several times over."""
    system, gold = tmp_path / "system.conllu", tmp_path / "gold.conllu"
    for path, extra in ((system, "|5:nsubj"), (gold, "")):
        path.write_text("\n".join(SHARED_SUBJECT.format(i=i, extra=extra)
                                  for i in range(2000)) + "\n")
    size = system.stat().st_size + gold.stat().st_size
    for argv, words in [
            (["evaluate", "--system", str(system), "--gold", str(gold)],
             ["total", "0", "2000", "0", "0.0", "0.0", "0.0"]),
            (["stats", "--original", str(system), "--edited", str(gold)],
             ["total", "0", "2000", "2000", "2000"]),
    ]:
        tracemalloc.start()
        try:
            rc, out, err = run(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0, err
        assert out.splitlines()[-1].split() == words
        assert peak < 5 * size, (argv[0], peak, size)


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_leave_the_collector_as_they_found_it(run, tmp_path,
                                                       enabled):
    bad = tmp_path / "bad.conllu"
    bad.write_text("1\tx\tx\tX\t_\t_\t0\troot\t0:root\t_\n"
                   "2\tx\tx\tX\t_\tBad\t1\tdep\t1:dep\t_\n\n")
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in [
                (["evaluate", "--system", FIG1, "--gold", FIG1_GOLD], 0),
                (["convert", "--jobs", "1", "--in", FIG1], 0),
                (["evaluate", "--system", str(bad), "--gold", FIG1], 1)]:
            rc, _, err = run(argv)
            assert rc == code, err
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen
        assert f"{bad}:2, FEATS: malformed feature" in err
        # the frozen corpora of earlier calls do not pile up
        for _ in range(5):
            assert run(["evaluate", "--system", FIG1,
                        "--gold", FIG1_GOLD])[0] == 0
            assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


def test_missing_required_option_is_reported(run):
    rc, _, err = run(["train-prop", "--train", FIG1])
    assert rc == 1
    assert "--model" in err


def test_model_path_must_be_a_file(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    rc, _, err = run(["train-prop", "--train", str(train), "--model", "-"])
    assert rc == 1
    assert "binary" in err


def test_unknown_feature_group_is_rejected(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    rc, _, err = run(["train-prop", "--train", str(train),
                      "--model", str(tmp_path / "m"),
                      "--features", "instance,swizzle"])
    assert rc == 1
    assert "swizzle" in err


def test_evaluate_system_equal_to_gold_reports_perfect_f1(run, tmp_path):
    sys_path = tmp_path / "sys.conllu"
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(sys_path)])
    rc, out, _ = run(["evaluate", "--system", str(sys_path),
                      "--gold", str(sys_path)])
    assert rc == 0
    assert "F1 100.0" in out
    assert out.splitlines()[-1].startswith("total")


def test_evaluate_poor_score_still_exits_zero(run, tmp_path):
    sys_path = tmp_path / "sys.conllu"
    gold_path = tmp_path / "gold.conllu"
    run(["convert", "--mode", "always", "--in", FIG1, "--out", str(sys_path)])
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(gold_path)])
    rc, out, _ = run(["evaluate", "--system", str(sys_path),
                      "--gold", str(gold_path)])
    assert rc == 0
    assert "F1 100.0" not in out.splitlines()[0]


def test_evaluate_records_are_tab_separated(run, tmp_path):
    sys_path = tmp_path / "sys.conllu"
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(sys_path)])
    rc, out, _ = run(["evaluate", "--system", str(sys_path),
                      "--gold", str(sys_path), "--records"])
    assert rc == 0
    last = out.splitlines()[-1].split("\t")
    assert last[0] == "total"
    assert last[4:] == ["100.0", "100.0", "100.0"]


def test_evaluate_records_follow_the_view(run, tmp_path):
    # rbc copies the passive subject label, subtype and all
    sys_path = tmp_path / "sys.conllu"
    run(["convert", "--mode", "rbc", "--in",
         os.path.join(DATA, "fig3a.conllu"), "--out", str(sys_path)])
    base = ["evaluate", "--system", str(sys_path), "--gold", str(sys_path)]
    rows = {}
    for view in ("full", "coarse"):
        _, table, _ = run(base + ["--view", view])
        _, records, _ = run(base + ["--view", view, "--records"])
        rows[view] = [line.split("\t") for line in records.splitlines()[1:]]
        assert [line.split() for line in table.splitlines()[2:]] \
            == rows[view]
    assert [row[0] for row in rows["full"]] == ["nsubj:pass", "total"]
    assert [row[0] for row in rows["coarse"]] == ["nsubj", "total"]


def test_agree_on_identical_annotations(run, tmp_path):
    a = tmp_path / "ann_a.conllu"
    b = tmp_path / "ann_b.conllu"
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(a)])
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(b)])
    rc, out, _ = run(["agree", "--files", f"{a},{b}"])
    assert rc == 0
    assert "ann_a" in out and "ann_b" in out
    total_rows = [l for l in out.splitlines() if l.startswith("total")]
    assert total_rows
    assert all("100.0" in row for row in total_rows)


def test_agree_needs_two_files(run, tmp_path):
    a = tmp_path / "a.conllu"
    run(["convert", "--in", FIG1, "--out", str(a)])
    rc, _, err = run(["agree", "--files", str(a)])
    assert rc == 1
    assert "two" in err


@pytest.mark.parametrize("layout", ["names", "basenames"])
def test_agree_rejects_repeated_corpus_names(run, tmp_path, layout):
    a, b = tmp_path / "a" / "x.conllu", tmp_path / "b" / "x.conllu"
    for path in (a, b):
        path.parent.mkdir()
        run(["convert", "--in", FIG1, "--out", str(path)])
    argv = ["agree", "--files", f"{a},{b}"]
    if layout == "names":
        argv += ["--names", "p,p"]
    rc, out, err = run(argv)
    repeated = "p" if layout == "names" else "x"
    assert rc == 1 and out == ""
    assert f"conjprop: error: agree: more than one file is named {repeated};" \
        in err


def test_stats_between_rule_sets(run, tmp_path):
    before = tmp_path / "rbc.conllu"
    after = tmp_path / "rbc2.conllu"
    run(["convert", "--mode", "rbc", "--in", FIG1, "--out", str(before)])
    run(["convert", "--mode", "rbc2", "--in", FIG1, "--out", str(after)])
    rc, out, _ = run(["stats", "--original", str(before),
                      "--edited", str(after)])
    assert rc == 0
    obl_row = next(l for l in out.splitlines() if l.startswith("obl"))
    assert obl_row.split() == ["obl", "1", "0", "1", "0"]
    total = out.splitlines()[-1].split()
    assert total[:4] == ["total", "1", "0", "1"]


def test_convert_rerun_is_byte_identical(run, tmp_path):
    first = tmp_path / "a.conllu"
    second = tmp_path / "b.conllu"
    run(["convert", "--mode", "rbc2", "--in", FIG1, "--out", str(first)])
    run(["convert", "--mode", "rbc2", "--in", FIG1, "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


@pytest.fixture
def small_slices(monkeypatch):
    """Lets the short test corpora split into slices of one character on."""
    monkeypatch.setattr(cli, "_MIN_SLICE_CHARS", 1)


@pytest.mark.parametrize("mode", ["rbc", "rbc2", "rbc2+fix", "always"])
def test_parallel_convert_matches_serial(run, tmp_path, small_slices, mode):
    # sentences with filled DEPS, then basic-only ones the converter seeds
    big = tmp_path / "big.conllu"
    big.write_text(prop_training_text() + "".join(
        Path(DATA, f).read_text() for f in (
            "fig1.conllu", "fig3a.conllu", "fig3b.conllu", "fig3c.conllu")))
    serial = tmp_path / "serial.out"
    parallel = tmp_path / "parallel.out"
    run(["convert", "--mode", mode, "--in", str(big),
         "--out", str(serial)])
    rc, _, _ = run(["convert", "--mode", mode, "--in", str(big),
                    "--out", str(parallel), "--jobs", "2"])
    assert rc == 0
    assert serial.read_bytes() == parallel.read_bytes()
    # the CLI converts in place what the library converts in copies
    copies = write_corpus([convert_mode(s, mode) for s in read_file(big)])
    assert serial.read_text() == copies


def test_train_and_apply_propagation_model(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    test_in = tmp_path / "in.conllu"
    test_in.write_text(prop_input_text())
    model = tmp_path / "prop.model"

    rc, _, _ = run(["train-prop", "--train", str(train),
                    "--model", str(model)])
    assert rc == 0
    assert model.exists()

    out_path = tmp_path / "out.conllu"
    rc, _, _ = run(["apply-prop", "--in", str(test_in),
                    "--model", str(model), "--out", str(out_path)])
    assert rc == 0
    row1 = next(l for l in out_path.read_text().splitlines()
                if l.startswith("1\t"))
    assert row1.split("\t")[8] == "2:nsubj|5:nsubj"


def test_train_prop_rerun_is_byte_identical(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    m1 = tmp_path / "m1"
    m2 = tmp_path / "m2"
    run(["train-prop", "--train", str(train), "--model", str(m1),
         "--kind", "mlp", "--hidden", "8,4", "--epochs", "5",
         "--seed", "7"])
    run(["train-prop", "--train", str(train), "--model", str(m2),
         "--kind", "mlp", "--hidden", "8,4", "--epochs", "5",
         "--seed", "7"])
    assert m1.read_bytes() == m2.read_bytes()


def test_train_prop_logs_the_mlp_holdout_f1_every_epoch(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    rc, _, err = run(["train-prop", "--train", str(train),
                      "--model", str(tmp_path / "m"), "--kind", "mlp",
                      "--hidden", "8,4", "--epochs", "3", "--holdout", "0.5"])
    assert rc == 0
    epochs = [line.split() for line in err.splitlines()
              if line.startswith("# epoch ")]
    assert [words[:4] for words in epochs] == [
        ["#", "epoch", str(epoch), "holdout-f1"] for epoch in (1, 2, 3)]
    assert all(0.0 <= float(words[4]) <= 100.0 for words in epochs)


def test_apply_prop_and_predict_ignore_jobs_in_a_config_file(run,
                                                             tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    prop, edge = tmp_path / "prop.model", tmp_path / "edge.model"
    run(["train-prop", "--train", str(train), "--model", str(prop)])
    run(["train-parser", "--train", str(train), "--model", str(edge),
         "--hash-dim", "8", "--hidden", "8", "--epochs", "1"])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"in = {train}\nhash-dim = 8\njobs = 4\n")
    for command, model in (("apply-prop", prop), ("predict", edge)):
        rc, out, err = run([command, "--config", str(cfg),
                            "--model", str(model)])
        assert rc == 0 and "# jobs" not in err and "# hash-dim" not in err
        assert len(parse_corpus(out)) == 8


def test_train_parser_and_predict(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "edge.model"
    rc, _, err = run(["train-parser", "--train", str(train),
                      "--model", str(model), "--hash-dim", "8",
                      "--hash-layers", "2", "--hidden", "16",
                      "--epochs", "2", "--seed", "1"])
    assert rc == 0
    assert "# epoch 1 loss" in err
    assert "# epoch 2 loss" in err

    out1 = tmp_path / "pred1.conllu"
    out2 = tmp_path / "pred2.conllu"
    rc, _, _ = run(["predict", "--in", str(train), "--model", str(model),
                    "--out", str(out1)])
    assert rc == 0
    for line in out1.read_text().splitlines():
        if line and not line.startswith("#"):
            assert line.split("\t")[8] != "_"

    run(["predict", "--in", str(train), "--model", str(model),
         "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_train_parser_model_bytes_ignore_blas_threads(tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    src = os.path.dirname(os.path.dirname(conjprop.__file__))
    script = "import sys; from conjprop.cli import main; sys.exit(main())"
    models = []
    for threads in ("1", "2"):
        model = tmp_path / f"edge{threads}.model"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "train-parser", "--train",
             str(train), "--model", str(model), "--hash-dim", "16",
             "--hash-layers", "2", "--hidden", "256", "--epochs", "2",
             "--batch", "3", "--seed", "4"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        models.append(model.read_bytes())
    assert models[0] == models[1]

    footprint = re.search(
        r"# parser labels (\d+) param-bytes (\d+) train-bytes (\d+)",
        proc.stderr)
    labels, param_bytes, train_bytes = map(int, footprint.groups())
    _, meta, arrays = load_model(model)
    assert labels == len(meta["labels"])
    assert param_bytes == sum(arr.nbytes for arr in arrays.values())
    # the parameters, two moments and, of the bilinear tensor's gradient,
    # one label slice: more than three parameter sizes, less than four
    assert 3 * param_bytes < train_bytes < 4 * param_bytes


def test_train_parser_keeps_every_training_array_in_float32(
        run, tmp_path, training_dtypes):
    dtypes, snapshots = training_dtypes
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "edge.model"
    # two epochs: the first, not being the last, takes the snapshot
    rc, _, err = run(["train-parser", "--train", str(train), "--dev",
                      str(train), "--model", str(model), "--hash-dim", "8",
                      "--hash-layers", "2", "--hidden", "16", "--epochs",
                      "2", "--batch", "3"])
    assert rc == 0, err
    assert "dev-f1" in err
    assert re.search(r"# parser labels \d+ param-bytes \d+ train-bytes \d+ "
                     r"dtype float32\n", err), err
    assert dtypes == {"float32"}
    assert snapshots and {a.dtype.name for a in snapshots} == {"float32"}
    _, _, arrays = load_model(model)
    assert {a.dtype.name for a in arrays.values()} == {"float32"}
    rc, out, err = run(["predict", "--in", str(train), "--model", str(model)])
    assert rc == 0, err
    assert len(parse_corpus(out)) == 8


def test_a_float64_parser_file_predicts_as_decode_does(run, tmp_path):
    import numpy as np
    from conjprop.autodiff import AdamW
    from conjprop.conllu import write_corpus
    from conjprop.edgepred import (ParserTrainConfig, build_label_inventory,
                                   decode, new_parser, train_epoch)
    from conjprop.embeddings import hash_provider
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    corpus = parse_corpus(prop_training_text())
    provider = hash_provider(dim=8, layers=2)
    parser = new_parser(build_label_inventory(corpus), layers=2, dim=8,
                        hidden=16, seed=3, dtype=np.float64)
    train_epoch(parser, corpus, provider, ParserTrainConfig(batch_size=3),
                AdamW(parser.parameters(), lr=1e-2), np.random.default_rng(0))
    model = tmp_path / "edge.model"
    parser.save(model)
    _, _, arrays = load_model(model)
    assert {a.dtype.name for a in arrays.values()} == {"float64"}
    rc, out, err = run(["predict", "--in", str(train), "--model", str(model)])
    assert rc == 0, err
    assert out == write_corpus(decode(parser, sent, provider, k)
                               for k, sent in enumerate(corpus))


def test_train_parser_fails_early_when_training_exceeds_ram(
        run, tmp_path, monkeypatch):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "edge.model"
    # a machine of 1000 pages of 4096 bytes
    monkeypatch.setattr(os, "sysconf", lambda name: {
        "SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}[name])
    rc, _, err = run(["train-parser", "--train", str(train), "--model",
                      str(model), "--hash-dim", "8", "--hidden", "256",
                      "--epochs", "1"])
    assert rc == 1
    # train-parser names its training file in every training fault
    assert re.search(rf"conjprop: error: {re.escape(str(train))}: hidden "
                     r"256 with \d+ labels needs \d+ bytes to train, more "
                     r"than the 4096000 bytes of physical memory", err), err
    assert "Traceback" not in err
    assert not model.exists()
    # the same run fits once the footprint does
    rc, _, err = run(["train-parser", "--train", str(train), "--model",
                      str(model), "--hash-dim", "8", "--hidden", "8",
                      "--epochs", "1"])
    assert rc == 0, err
    assert model.exists()


def test_predict_without_embeddings_is_an_error(run, tmp_path):
    from conjprop.embeddings import hash_provider, write_sidecar
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    vectors, model = tmp_path / "train.vec", tmp_path / "edge.model"
    write_sidecar(vectors, hash_provider(dim=8, layers=2),
                  parse_corpus(prop_training_text()))
    run(["train-parser", "--train", str(train), "--model", str(model),
         "--embeddings", str(vectors), "--hidden", "8", "--epochs", "1"])
    rc, _, err = run(["predict", "--in", str(train), "--model", str(model)])
    assert rc == 1
    assert "embeddings" in err


def _training_sidecar(tmp_path, layers: int = 1):
    """A sidecar of prop_training_text's tokens, with the given layers."""
    from conjprop.embeddings import hash_provider, write_sidecar
    path = tmp_path / f"train{layers}.vec"
    write_sidecar(path, hash_provider(dim=4, layers=layers),
                  parse_corpus(prop_training_text()))
    return str(path)


@pytest.mark.parametrize("option, value", [("hash-layers", "3"),
                                           ("hash-dim", "4")])
@pytest.mark.parametrize("source", ["command-line", "config"])
def test_a_sidecar_parser_refuses_the_hash_options(run, tmp_path, option,
                                                   value, source):
    # a sidecar gives its own layers and dim: a hash option would go unused
    train, model = tmp_path / "train.conllu", tmp_path / "m.model"
    train.write_text(prop_training_text())
    argv = ["train-parser", "--train", str(train), "--model", str(model),
            "--embeddings", _training_sidecar(tmp_path, 2), "--hidden", "8",
            "--epochs", "1"]
    if source == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{option} = {value}\n")
        rc, _, err = run(argv + ["--config", str(cfg)])
    else:
        rc, _, err = run(argv + [f"--{option}", value])
    assert rc == 1
    assert err.splitlines()[-1] == (
        "conjprop: error: --embeddings excludes --hash-dim and "
        "--hash-layers: the sidecar gives its own shape")
    assert not model.exists()
    # at their defaults the hash options stay out of the way
    rc, _, err = run(argv + ["--hash-layers", "1", "--hash-dim", "0"])
    assert rc == 0, err


@pytest.mark.parametrize("command", ["train-prop", "train-parser"])
def test_divergent_training_exits_1_and_writes_no_model(tmp_path, command):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "m.model"
    argv = [command, "--train", str(train), "--model", str(model),
            "--lr", "1e30", "--epochs", "2"]
    if command == "train-prop":
        argv += ["--kind", "mlp", "--hidden", "16,8",
                 "--embeddings", _training_sidecar(tmp_path)]
    else:
        argv += ["--hash-dim", "8", "--hidden", "8"]
    # a fresh interpreter prints numpy's warnings, if any, to stderr; its
    # last line names the loaded modules
    proc = _fresh_main(argv)
    assert proc.returncode == 1
    # both trainers name their training file in every training fault
    assert proc.stderr.splitlines()[-2].startswith(
        f"conjprop: error: {train}: training diverged to a loss of "), \
        proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not model.exists()


def test_a_holdout_that_leaves_nothing_to_train_on_exits_1(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "m.model"
    rc, _, err = run(["train-prop", "--kind", "mlp", "--hidden", "8,4",
                      "--holdout", "0.99", "--train", str(train),
                      "--model", str(model)])
    assert rc == 1
    assert re.search(rf"conjprop: error: {re.escape(str(train))}: holdout "
                     r"0.99 holds out (\d+) of \1 instances, leaving none to "
                     r"train on\n$", err), err
    assert not model.exists()


def test_a_model_applies_with_the_vectors_its_file_records(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    hashed, sidecar = tmp_path / "hashed.model", tmp_path / "sidecar.model"
    vectors = _training_sidecar(tmp_path)
    run(["train-prop", "--kind", "mlp", "--hidden", "8,4", "--epochs", "2",
         "--hash-dim", "4", "--train", str(train), "--model", str(hashed)])
    run(["train-prop", "--kind", "mlp", "--hidden", "8,4", "--epochs", "2",
         "--embeddings", vectors, "--train", str(train),
         "--model", str(sidecar)])
    assert [load_model(m)[1]["vectors"] for m in (hashed, sidecar)] == [
        "hash2", "sidecar"]
    rc, out, err = run(["apply-prop", "--model", str(hashed),
                        "--in", str(train)])
    assert rc == 0, err
    rc, out, err = run(["apply-prop", "--model", str(sidecar),
                        "--embeddings", vectors, "--in", str(train)])
    assert rc == 0, err
    assert len(parse_corpus(out)) == 8


def test_the_python_api_writes_the_model_files_the_cli_writes(run,
                                                              tmp_path):
    from conjprop.edgepred import ParserTrainConfig, train_parser
    from conjprop.embeddings import hash_provider
    from conjprop.propmodel import PropTrainOptions, train_prop
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    corpus = parse_corpus(prop_training_text())
    cli_mlp, cli_parser = tmp_path / "cli.mlp", tmp_path / "cli.parser"
    run(["train-prop", "--kind", "mlp", "--hidden", "8,4", "--epochs", "2",
         "--hash-dim", "4", "--train", str(train), "--model", str(cli_mlp)])
    run(["train-parser", "--hash-dim", "4", "--hash-layers", "2", "--hidden",
         "8", "--epochs", "1", "--train", str(train),
         "--model", str(cli_parser)])
    mlp = train_prop(corpus, "mlp", PropTrainOptions(hidden_sizes=(8, 4),
                                                     epochs=2),
                     hash_provider(dim=4))
    mlp.save(tmp_path / "api.mlp")
    train_parser(corpus, hash_provider(dim=4, layers=2),
                 ParserTrainConfig(hidden=8, epochs=1)).save(
        tmp_path / "api.parser")
    assert (tmp_path / "api.mlp").read_bytes() == cli_mlp.read_bytes()
    assert (tmp_path / "api.parser").read_bytes() == cli_parser.read_bytes()


@pytest.mark.parametrize("kind, vectors, sidecar_layers, message", [
    ("mlp", "hash2", 1, "the model records vectors 'hash2'; only a sidecar "
     "model takes --embeddings"),
    ("kernel", "none", 1, "the model records vectors 'none'; only a sidecar "
     "model takes --embeddings"),
    ("mlp", "sidecar", None, "the model records vectors 'sidecar'; give its "
     "sidecar with --embeddings"),
    ("edge-parser", "hash2", 1, "the model records vectors 'hash2'; only a "
     "sidecar model takes --embeddings"),
    ("edge-parser", "sidecar", None, "the model records vectors 'sidecar'; "
     "give its sidecar with --embeddings"),
    ("mlp", "sidecar", 2, "the vectors have 2 layer(s) of dimension 1; "
     "the model reads 1 layer(s) of dimension 1"),
    ("edge-parser", "sidecar", 2, "the vectors have 2 layer(s) of dimension "
     "4; the model reads 1 layer(s) of dimension 4"),
], ids=["hash-mlp-given-a-sidecar", "kernel-given-a-sidecar",
        "sidecar-mlp-given-none", "hash-parser-given-a-sidecar",
        "sidecar-parser-given-none", "mlp-given-two-layers",
        "parser-given-two-layers"])
def test_a_model_given_other_vectors_exits_1(run, tmp_path, kind, vectors,
                                             sidecar_layers, message):
    model = tmp_path / "m.model"
    model.write_bytes(_arrays_model(kind, {"vectors": vectors}))
    argv = _model_argv(kind, model)
    if sidecar_layers:
        from conjprop.embeddings import hash_provider, write_sidecar
        side = tmp_path / "fig1.vec"
        write_sidecar(side, hash_provider(dim=4 if kind == "edge-parser"
                                          else 1, layers=sidecar_layers),
                      read_file(FIG1))
        argv += ["--embeddings", str(side)]
    rc, _, err = run(argv)
    assert rc == 1
    where = side if message.startswith("the vectors") else model
    assert err.splitlines()[-1] == f"conjprop: error: {where}: {message}"


# the model each command gives its sidecar, and the (layers, dim) of a
# sidecar with the wrong layer count or the wrong dimension for it; a
# trainer takes any dimension but 0, a sidecar of records without values
_MISFITS = {"apply-prop": ((2, 1), (1, 3)), "predict": ((2, 4), (1, 3)),
            "train-prop": ((2, 4), (1, 0))}


@pytest.mark.parametrize("input_", ["empty", "one-sentence"])
@pytest.mark.parametrize("misfit", [0, 1], ids=["layers", "dim"])
@pytest.mark.parametrize("command", list(_MISFITS))
def test_a_sidecar_that_does_not_fit_exits_1_naming_it(run, tmp_path,
                                                       command, misfit,
                                                       input_):
    from conjprop.embeddings import hash_provider, write_sidecar
    corpus = tmp_path / "in.conllu"
    corpus.write_text("" if input_ == "empty" else Path(FIG1).read_text())
    side = tmp_path / "misfit.vec"
    layers, dim = _MISFITS[command][misfit]
    if dim:
        write_sidecar(side, hash_provider(dim, layers), read_file(FIG1))
    else:
        side.write_text("".join(f"{sent.sent_id}\t{tok.id}\t\n"
                                for sent in read_file(FIG1)
                                for tok in sent.tokens))
    model = tmp_path / "m.model"
    if command == "train-prop":
        argv = [command, "--kind", "mlp", "--hidden", "4,2", "--epochs", "1",
                "--train", str(corpus), "--model", str(model)]
    else:
        model.write_bytes(_arrays_model(
            "edge-parser" if command == "predict" else "mlp",
            {"vectors": "sidecar"}))
        argv = [command, "--in", str(corpus), "--model", str(model)]
    rc, out, err = run(argv + ["--embeddings", str(side)])
    assert rc == 1, err
    assert err.splitlines()[-1].startswith(f"conjprop: error: {side}:"), err
    assert out == ""


@pytest.mark.parametrize("train, message", [
    ("", "no propagation instances in the training data"),
    (prop_input_text(), "training data contains a single class"),
], ids=["no-instances", "one-class"])
def test_a_training_data_fault_names_the_training_file(run, tmp_path, train,
                                                       message):
    path = tmp_path / "train.conllu"
    path.write_text(train)
    model = tmp_path / "m.model"
    rc, _, err = run(["train-prop", "--train", str(path),
                      "--model", str(model)])
    assert rc == 1
    assert err.splitlines()[-1] == f"conjprop: error: {path}: {message}"
    assert not model.exists()


def _with_ids(path, ids):
    """Writes one-word sentences with the given sent_ids to path."""
    word = _TOKEN.format(1, 0, "_")
    path.write_text("".join(f"# sent_id = {sid}\n{word}\n" for sid in ids))
    return str(path)


def test_alignment_faults_name_the_files(run, tmp_path):
    sys_ = _with_ids(tmp_path / "sys.conllu", ["a", "s", "b"])
    gold = _with_ids(tmp_path / "gold.conllu", ["s", "c"])
    twice = _with_ids(tmp_path / "twice.conllu", ["s", "c", "s"])
    mismatch = (f"sentence ids do not match: only in {sys_}: ['a', 'b']; "
                f"only in {gold}: ['c']")
    for argv, message in [
        (["evaluate", "--system", sys_, "--gold", gold], mismatch),
        (["stats", "--original", sys_, "--edited", gold], mismatch),
        (["evaluate", "--system", gold, "--gold", twice],
         f"{twice}: sent_id 's' is repeated"),
        (["stats", "--original", twice, "--edited", gold],
         f"{twice}: sent_id 's' is repeated"),
        # agree names a pair by the corpus names it prints
        (["agree", "--files", f"{gold},{sys_}", "--names", "g,s"],
         "sentence ids do not match: only in s: ['a', 'b']; only in g: "
         "['c']"),
        (["agree", "--files", f"{gold},{twice}"],
         "twice: sent_id 's' is repeated"),
    ]:
        rc, _, err = run(argv)
        assert rc == 1
        assert err.splitlines()[-1] == f"conjprop: error: {message}"


def test_train_parser_early_stopping_logs_dev_f1(run, tmp_path):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "edge.model"
    rc, _, err = run(["train-parser", "--train", str(train),
                      "--model", str(model), "--hash-dim", "8",
                      "--hidden", "8", "--epochs", "3",
                      "--dev", str(train), "--patience", "1"])
    assert rc == 0
    assert "dev-f1" in err


def test_split_text_cuts_only_after_blank_lines(small_slices):
    text = prop_training_text() + "\n\n" + prop_input_text()
    whole = parse_corpus(text)
    for pieces in range(1, 15):
        chunks = cli._split_text(text, pieces)
        assert 1 <= len(chunks) <= pieces
        assert "".join(chunk for _, chunk in chunks) == text
        offset = 0
        for first_line, chunk in chunks:
            assert first_line == text.count("\n", 0, offset) + 1
            assert offset == 0 or text[offset - 2:offset] == "\n\n"
            offset += len(chunk)
        parsed = [s for first_line, chunk in chunks
                  for s in parse_corpus(chunk, None, first_line)]
        assert [s.sent_id for s in parsed] == [s.sent_id for s in whole]
    assert len(cli._split_text(text, 4)) == 4
    assert cli._split_text("", 4) == [(1, "")]
    one = prop_input_text()
    assert cli._split_text(one, 4) == [(1, one)]


def test_split_text_keeps_short_inputs_whole(monkeypatch):
    monkeypatch.setattr(cli, "_MIN_SLICE_CHARS", 1000)
    text = "".join(SHARED_SUBJECT.format(i=i, extra="") + "\n"
                   for i in range(20))
    for pieces in (2, 8, 100):
        sizes = [len(chunk) for _, chunk in cli._split_text(text, pieces)]
        assert len(sizes) == min(pieces, len(text) // 1000)
        assert min(sizes) >= 1000 * 0.9
    assert len(cli._split_text(text[:1999], 8)) == 1


def test_convert_jobs_caps_pieces_by_cpu_count(run, monkeypatch,
                                              small_slices):
    sizes = []

    class InProcessPool:
        def __init__(self, n):
            sizes.append(n)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    text = prop_training_text()
    _, serial, _ = run(["convert", "--mode", "rbc2"], stdin_text=text)
    for cpus, jobs in ((64, "3"), (64, "1000000"), (2, "1000000"),
                       (None, "8"), (1, "8")):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        rc, out, _ = run(["convert", "--mode", "rbc2", "--jobs", jobs],
                         stdin_text=text)
        assert rc == 0 and out == serial
    # eight sentences are eight pieces at most; one core or none, no pool
    assert sizes == [3, 8, 2]
    rc, out, _ = run(["convert", "--jobs", "4"], stdin_text="")
    assert rc == 0 and out == "" and sizes == [3, 8, 2]
    # at the real slice size, a short input is converted without a pool
    monkeypatch.undo()
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    rc, out, _ = run(["convert", "--mode", "rbc2", "--jobs", "8"],
                     stdin_text=text)
    assert rc == 0 and out == serial and sizes == [3, 8, 2]


def _two_cpus(start_method: str | None = None) -> str:
    """A _fresh_main prelude: two CPUs, slices of one character on, and
    pools of the given start method that log "# pool N" to stderr.  A fresh
    interpreter runs no thread that fork could copy."""
    pool = "multiprocessing" if start_method is None else (
        f"multiprocessing.get_context({start_method!r})")
    return ("import multiprocessing, os, sys; os.cpu_count = lambda: 2; "
            "import conjprop.cli; conjprop.cli._MIN_SLICE_CHARS = 1; "
            f"multiprocessing.Pool = lambda n, pool={pool}.Pool: "
            "(print('# pool', n, file=sys.stderr), pool(n))[1]; ")


@pytest.mark.parametrize("start_method", [None, "spawn"])
def test_parallel_convert_on_stdin_matches_serial(run, start_method,
                                                 small_slices):
    text = prop_training_text()
    assert len(cli._split_text(text, 2)) == 2
    _, serial, _ = run(["convert", "--mode", "rbc2"], stdin_text=text)
    proc = _fresh_main(["convert", "--mode", "rbc2", "--jobs", "2"],
                       _two_cpus(start_method), stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert "# pool 2" in proc.stderr.splitlines()
    assert proc.stdout == serial and len(parse_corpus(serial)) == 8


@pytest.mark.parametrize("broken", [(3, -4), (-4,)])
def test_parallel_convert_reports_the_first_error_in_file_order(
        run, tmp_path, broken, small_slices):
    lines = prop_training_text().split("\n")
    # token lines of the first and of the last sentence, 0-based
    broken = [k % len(lines) for k in broken]
    for k in broken:
        lines[k] = lines[k].replace("\t", " ", 1)
    bad = tmp_path / "bad.conllu"
    bad.write_text("\n".join(lines))
    assert len(cli._split_text(bad.read_text(), 2)) == 2
    expected = (f"conjprop: error: {bad}:{broken[0] + 1}: expected 10 "
                f"columns, got 9")
    rc, _, err = run(["convert", "--in", str(bad)])
    assert rc == 1 and err.splitlines()[-1] == expected
    proc = _fresh_main(["convert", "--in", str(bad), "--jobs", "2"],
                       _two_cpus())
    # the last line names the watched modules that got loaded
    assert proc.returncode == 1
    assert "# pool 2" in proc.stderr.splitlines()
    assert proc.stderr.splitlines()[-2:] == [expected, "conjprop.converter"]


def _with_bad_byte(text: str, line: int) -> bytes:
    lines = text.encode("utf-8").split(b"\n")
    lines[line - 1] += b"\xff"
    return b"\n".join(lines)


@pytest.mark.parametrize("kind", ["corpus", "stdin", "config", "sidecar"])
def test_non_utf8_input_names_file_and_line(run, tmp_path, kind):
    bad = tmp_path / "bad.txt"
    fig1 = _with_bad_byte(open(FIG1, encoding="utf-8").read(), 3)
    stdin = None
    if kind == "corpus":
        bad.write_bytes(fig1)
        argv = ["convert", "--in", str(bad)]
    elif kind == "stdin":
        stdin, argv = fig1, ["convert"]
    elif kind == "config":
        bad.write_bytes(_with_bad_byte(f"mode = rbc\n\nin = {FIG1}\n", 3))
        argv = ["convert", "--config", str(bad)]
    else:
        bad.write_bytes(_with_bad_byte(
            "sh0\t1\t0.1 0.2\nsh0\t2\t0.3 0.4\nsh0\t3\t0.5 0.6\n", 3))
        train = tmp_path / "train.conllu"
        train.write_text(prop_training_text())
        argv = ["train-prop", "--train", str(train), "--model",
                str(tmp_path / "m"), "--embeddings", str(bad)]
    rc, _, err = run(argv, stdin_text=stdin)
    name = "<stdin>" if kind == "stdin" else str(bad)
    assert rc == 1
    assert f"conjprop: error: {name}:3: invalid UTF-8 byte 0xff" in err


def test_crlf_corpus_reads_like_lf(run, tmp_path):
    crlf = tmp_path / "crlf.conllu"
    crlf.write_bytes(open(FIG1, "rb").read().replace(b"\n", b"\r\n"))
    rc, out, _ = run(["convert", "--mode", "rbc2", "--in", str(crlf)])
    _, expected, _ = run(["convert", "--mode", "rbc2", "--in", FIG1])
    assert rc == 0 and out == expected


@pytest.mark.parametrize("argv, message", [
    (["train-parser", "--batch", "0"], "batch must be in [1, inf), got 0"),
    (["train-parser", "--hidden", "0"], "hidden must be in [1, inf), got 0"),
    (["train-parser", "--epochs", "-1"], "epochs must be in [0, inf), got -1"),
    (["train-parser", "--patience", "0"],
     "patience must be in [1, inf), got 0"),
    (["train-prop", "--patience", "0"], "patience must be in [1, inf), got 0"),
    (["train-prop", "--epochs", "-2"], "epochs must be in [0, inf), got -2"),
    (["train-prop", "--holdout", "1"],
     "holdout must be in [0, 1), got 1.0"),
    (["train-prop", "--holdout", "-0.1"],
     "holdout must be in [0, 1), got -0.1"),
    (["train-prop", "--holdout", "nan"],
     "holdout must be in [0, 1), got nan"),
    (["train-prop", "--hidden", "8,0"], "command line: hidden expects two"),
    (["convert", "--jobs", "0"], "jobs must be in [1, inf), got 0"),
    (["convert", "--jobs", "-3"], "jobs must be in [1, inf), got -3"),
    (["train-prop", "--c", "0"], "c must be positive, got 0.0"),
    (["train-prop", "--c", "-1"], "c must be positive, got -1.0"),
    (["train-prop", "--tol", "0"], "tol must be positive, got 0.0"),
    (["train-prop", "--tol", "-1"], "tol must be positive, got -1.0"),
    (["train-prop", "--kind", "mlp", "--hash-dim", "-3"],
     "hash-dim must be in [0, inf), got -3"),
    (["train-prop", "--kind", "mlp", "--lr", "nan"],
     "lr must be positive, got nan"),
    (["train-parser", "--hash-dim", "-1"],
     "hash-dim must be in [0, inf), got -1"),
    (["train-parser", "--hash-dim", "4", "--hash-layers", "0"],
     "hash-layers must be in [1, inf), got 0"),
    (["train-parser", "--lr", "nan"], "lr must be positive, got nan"),
    (["train-prop", "--c", "nan"], "c must be positive, got nan"),
    (["train-prop", "--kind", "mlp", "--lr", "-1"],
     "lr must be positive, got -1.0"),
    (["train-prop", "--lr", "0"], "lr must be positive, got 0.0"),
    (["train-parser", "--lr", "0"], "lr must be positive, got 0.0"),
    (["train-parser", "--lr", "-0.5"], "lr must be positive, got -0.5"),
    (["train-parser", "--lr", "-1e-3"], "lr must be positive, got -0.001"),
    (["train-prop", "--c", "-1e-3"], "c must be positive, got -0.001"),
    (["train-prop", "--tol", "-.5E-2"], "tol must be positive, got -0.005"),
    (["train-prop", "--kind", "mlp", "--lr", "-2e-05"],
     "lr must be positive, got -2e-05"),
    (["train-prop", "--holdout", "-1e-1"],
     "holdout must be in [0, 1), got -0.1"),
    (["convert", "--jobs", "-1e3"], "jobs expects"),
    (["train-prop", "--hidden", "-8,8"], "command line: hidden expects two"),
    (["convert", "--mode", "bogus"], "command line: mode must be one of "
     "rbc, rbc2, rbc2+fix, always, got 'bogus'"),
    (["train-prop", "--kind", "svm"],
     "command line: kind must be one of kernel, mlp, got 'svm'"),
    (["evaluate", "--view", "fine"],
     "command line: view must be one of full, coarse, got 'fine'"),
    (["stats", "--scope", "nope"], "command line: scope must be one of "
     "conjunct, all, got 'nope'"),
])
def test_out_of_range_option_is_an_error(run, tmp_path, argv, message):
    model = str(tmp_path / "m")
    inputs = {"convert": ["--in", FIG1],
              "apply-prop": ["--in", FIG1, "--model", model],
              "train-prop": ["--train", FIG1, "--model", model],
              "train-parser": ["--train", FIG1, "--model", model],
              "predict": ["--in", FIG1, "--model", model],
              "evaluate": ["--system", FIG1, "--gold", FIG1],
              "stats": ["--original", FIG1, "--edited", FIG1]}
    rc, _, err = run(argv + inputs[argv[0]])
    assert rc == 1
    assert "conjprop: error: " in err and message in err


@pytest.mark.parametrize("key, value, message", [
    ("hidden", "16,x",
     "hidden expects two comma-separated widths of at least 1, got '16,x'"),
    ("hidden", "16",
     "hidden expects two comma-separated widths of at least 1, got '16'"),
    ("features", "instance,bogus,tree",
     "features names unknown groups: 'bogus'"),
], ids=["hidden-not-int", "hidden-one-width", "features-unknown"])
@pytest.mark.parametrize("in_file", [False, True],
                         ids=["command-line", "config-file"])
def test_a_bad_list_value_names_its_source(run, tmp_path, key, value,
                                           message, in_file):
    argv = ["train-prop", "--train", FIG1, "--model", str(tmp_path / "m")]
    where = "command line"
    if in_file:
        where = tmp_path / "run.cfg"
        where.write_text(f"{key} = {value}\n")
        argv += ["--config", str(where)]
    else:
        argv += [f"--{key}", value]
    rc, _, err = run(argv)
    assert rc == 1
    assert err == f"conjprop: error: {where}: {message}\n"


def test_out_of_range_config_value_names_the_file(run, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"train = {FIG1}\nmodel = {tmp_path / 'm'}\nbatch = 0\n")
    rc, _, err = run(["train-parser", "--config", str(cfg)])
    assert rc == 1
    assert f"conjprop: error: {cfg}: batch must be in [1, inf), got 0" in err


def _model_file(header: dict, payload: bytes = b"") -> bytes:
    """A model file; header entries set to None are left out."""
    base = {"format": "conjprop-model", "version": 1, "kind": "kernel",
            "meta": {}, "arrays": []}
    header = {k: v for k, v in {**base, **header}.items() if v is not None}
    return json.dumps(header).encode() + b"\n" + payload


_GOOD_MODELS = {
    "kernel": ({"vocab": {"a": 0, "b": 1}, "dense_dim": 0, "features": {},
                "vectors": "none"},
               {"support_vectors": (2, 2), "dual_coef": (2,), "bias": (1,)}),
    "mlp": ({"vocab": {"a": 0}, "dense_dim": 1,
             "features": {"tree_features": False}, "vectors": "hash2"},
            {"w1": (4, 3), "b1": (3,), "w2": (3, 2), "b2": (2,),
             "w3": (2, 2), "b3": (2,)}),
    "edge-parser": ({"labels": ["∅", "nsubj"], "layers": 1, "dim": 4,
                     "hidden": 3, "vectors": "hash2"},
                    {"mix_logits": (1,), "root_embed": (4,),
                     "w_head": (4, 3), "b_head": (3,), "w_dep": (4, 3),
                     "b_dep": (3,), "bilinear": (2, 3, 3), "linear": (6, 2),
                     "bias": (2,)}),
}


def test_train_prop_kernel_fails_early_when_its_matrix_exceeds_ram(
        run, tmp_path, monkeypatch):
    train = tmp_path / "train.conllu"
    train.write_text(prop_training_text())
    model = tmp_path / "prop.model"
    monkeypatch.setattr("conjprop.svm.physical_memory", lambda: 1000)
    rc, _, err = run(["train-prop", "--train", str(train), "--model",
                      str(model)])
    assert rc == 1
    assert re.search(rf"conjprop: error: {re.escape(str(train))}: the kernel "
                     r"SVM on (\d+) instances needs (\d+) bytes for its "
                     r"kernel matrix, more than the 1000 bytes of physical "
                     r"memory", err), err
    n, needed = map(int, re.search(r"on (\d+) .* needs (\d+)", err).groups())
    assert needed == 8 * n * n > 1000
    assert "Traceback" not in err
    assert not model.exists()
    # a matrix of exactly the physical memory is allowed
    monkeypatch.setattr("conjprop.svm.physical_memory", lambda: needed)
    rc, _, err = run(["train-prop", "--train", str(train), "--model",
                      str(model)])
    assert rc == 0, err
    assert model.exists()


def _arrays_model(kind: str, meta: dict | None = None,
                  shapes: dict | None = None,
                  dtypes: dict | None = None) -> bytes:
    """The good model of kind with meta and array shapes updated; an
    update to None drops the entry.  Arrays hold zeros, in float64 unless
    dtypes names another dtype."""
    good_meta, good_shapes = _GOOD_MODELS[kind]
    meta = {k: v for k, v in {**good_meta, **(meta or {})}.items()
            if v is not None}
    shapes = {k: v for k, v in {**good_shapes, **(shapes or {})}.items()
              if v is not None}
    entries = []
    for name, shape in sorted(shapes.items()):
        dtype = (dtypes or {}).get(name, "float64")
        entries.append({"name": name, "dtype": dtype, "shape": list(shape),
                        "nbytes": (4 if dtype == "float32" else 8)
                        * math.prod(shape)})
    return _model_file({"kind": kind, "meta": meta, "arrays": entries},
                       bytes(sum(e["nbytes"] for e in entries)))


_PROP_META = {"vocab": {}, "dense_dim": 0}
_TOKEN = "{}\tw\tw\tX\t_\t_\t{}\tdep\t{}\t_\n"
_SENT_START = "# sent_id = s1\n" + _TOKEN.format(1, 0, "_")
_REPEATED_ID = ((_SENT_START + "\n") * 2).encode()
_SHARED_KEY = ": sentences 1 and 2 share the sent_id 's1'"


@pytest.mark.parametrize("kind, content, where", [
    # damaged model files
    ("prop-model", _model_file({"arrays": None}),
     ": header lacks the key(s) arrays"),
    ("prop-model", _model_file({"arrays": [
        {"name": "bias", "dtype": "int8", "shape": [1], "nbytes": 1}]},
        b"\0"), ": array 'bias' has unsupported dtype 'int8'"),
    ("prop-model", _model_file({"arrays": [
        {"name": "bias", "dtype": "float64", "shape": [1]}]}, bytes(8)),
     ": array entry 0 lacks the key(s) nbytes"),
    ("prop-model", _model_file({"arrays": [
        {"name": "bias", "dtype": "float64", "shape": [2], "nbytes": 8}]},
        bytes(8)), ": array 'bias' has shape [2] and nbytes 8"),
    ("prop-model", _model_file({"meta": _PROP_META}),
     ": kernel model meta lacks the key(s) features"),
    ("prop-model", _model_file({"kind": "mlp", "meta": _PROP_META}),
     ": mlp model meta lacks the key(s) features"),
    ("parser-model", _model_file({"kind": "edge-parser", "meta": {
        "layers": 1, "dim": 4, "hidden": 8}}),
     ": edge-parser meta lacks the key(s) labels"),
    ("parser-model", _arrays_model("edge-parser", dtypes=dict.fromkeys(
        _GOOD_MODELS["edge-parser"][1], "int64")),
     ": array 'mix_logits' has dtype int64; the arrays must be all float32 "
     "or all float64"),
    ("parser-model", _arrays_model("edge-parser",
                                   dtypes={"bilinear": "float32"}),
     ": array 'bilinear' has dtype float32; the arrays must be all float32 "
     "or all float64"),
    ("prop-model", _arrays_model("kernel", dtypes={"dual_coef": "float32"}),
     ": array 'dual_coef' has dtype float32, expected float64"),
    ("prop-model", _arrays_model("mlp", dtypes={"w2": "float32"}),
     ": array 'w2' has dtype float32; the arrays must be all float32 or all "
     "float64"),
    ("prop-model", _arrays_model("mlp", dtypes=dict.fromkeys(
        _GOOD_MODELS["mlp"][1], "int64")),
     ": array 'w1' has dtype int64; the arrays must be all float32 or all "
     "float64"),
    # bad sidecars
    ("sidecar", b"sh0\t1\t0.1 0.2\nsh0\t2\t0.3 x\n", ":2: could not convert"),
    ("parser-sidecar", b"layers=x dim=2\nsh0\t1\t0.1 0.2\n",
     ":1: expected the header"),
    ("parser-sidecar", b"layers=2\nsh0\t1\t0.1 0.2\n",
     ":1: expected the header"),
    ("parser-sidecar", b"layers=-1 dim=-2\nsh0\t1\t0.1 0.2\n",
     ":1: expected the header"),
    # a repeated key would hand one sentence another's vectors
    ("sidecar", b"s1\t1\t0.1 0.2\ns1\t1\t0.3 0.4\n",
     ":2: repeated record for token 1 in sentence 's1'"),
    # a well-formed sidecar that lacks the corpus's tokens
    ("sidecar", b"s1\t1\t0.1 0.2\n", ": no embedding for token "),
    ("sidecar-corpus", _REPEATED_ID, _SHARED_KEY),
    # sentence-level errors name the token's own line
    ("corpus", (_SENT_START + "1.2\te\te\tX\t_\t_\t_\t_\t_\t_\n"
                "1.1\te\te\tX\t_\t_\t_\t_\t_\t_\n\n").encode(),
     ":4, ID: token id 1.1 out of order"),
    ("corpus", (_SENT_START + _TOKEN.format(3, 1, "_") + "\n").encode(),
     ":3, ID: token ids not contiguous"),
    ("corpus", (_SENT_START + _TOKEN.format(2, 9, "_") + "\n").encode(),
     ":3, HEAD: token 2 has dangling head 9"),
    ("corpus", (_SENT_START + _TOKEN.format(2, 1, "7:dep") + "\n").encode(),
     ":3, DEPS: token 2 has dangling deps head 7"),
    # only the canonical spelling of an id is accepted
    ("corpus", (_SENT_START + _TOKEN.format("02", 1, "_") + "\n").encode(),
     ":3, ID: unparseable token id '02'"),
    # UD wants a root word in every sentence; the parser needs one
    ("predicted-corpus", (_SENT_START + "\n# sent_id = s2\n"
                          "1.1\te\te\tX\t_\t_\t_\t_\t_\t_\n\n").encode(),
     ":4: sentence has no word lines"),
    # a value that is not a finite number, read to train and to apply
    *((kind, f"s1\t1\t0.5\ns1\t2\t{value}\n".encode(),
       f":2: value {value!r} is not a finite number")
      for kind in ("sidecar", "applied-sidecar")
      for value in ("nan", "-inf", "1e400")),
], ids=["no-arrays", "int8", "entry-keys", "nbytes", "kernel-meta",
        "mlp-meta", "parser-meta", "parser-int64", "parser-mixed-dtypes",
        "kernel-float32", "mlp-mixed-dtypes", "mlp-int64", "sidecar-value",
        "sidecar-layers", "sidecar-no-dim", "sidecar-negative",
        "sidecar-repeat", "sidecar-missing-token", "sidecar-repeated-id",
        "out-of-order",
        "non-contiguous", "dangling-head", "dangling-deps", "id", "no-words",
        *(f"{kind}-{value}" for kind in ("sidecar", "applied-sidecar")
          for value in ("nan", "-inf", "1e400"))])
def test_bad_input_exits_1_naming_the_file(run, tmp_path, kind, content,
                                           where):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    model = str(tmp_path / "m")
    vectors, mlp, parser = (tmp_path / n for n in ("vec", "mlp", "par"))
    vectors.write_text("s1\t1\t0.5\n")
    mlp.write_bytes(_arrays_model("mlp", {"vectors": "sidecar"}))
    parser.write_bytes(_arrays_model("edge-parser"))
    argv = {
        "prop-model": ["apply-prop", "--in", FIG1, "--model", str(bad)],
        "parser-model": ["predict", "--in", FIG1, "--model", str(bad)],
        "sidecar": ["train-prop", "--train", FIG1, "--model", model,
                    "--embeddings", str(bad)],
        "parser-sidecar": ["train-parser", "--train", FIG1, "--model", model,
                           "--embeddings", str(bad)],
        "corpus": ["convert", "--in", str(bad)],
        "sidecar-corpus": ["apply-prop", "--in", str(bad), "--model",
                           str(mlp), "--embeddings", str(vectors)],
        "applied-sidecar": ["apply-prop", "--in", FIG1, "--model", str(mlp),
                            "--embeddings", str(bad)],
        "predicted-corpus": ["predict", "--in", str(bad), "--model",
                             str(parser)],
    }[kind]
    rc, _, err = run(argv)
    assert rc == 1
    assert f"conjprop: error: {bad}{where}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["train-prop", "apply-prop", "train-parser",
                                  "dev", "predict"],
                         ids=["hash-repeated-id", "apply-repeated-id",
                              "parser-repeated-id", "dev-repeated-id",
                              "predict-repeated-id"])
def test_hash_vectors_take_a_corpus_that_repeats_a_sent_id(run, tmp_path,
                                                           kind):
    # a hash vector is a function of its token alone, so no sentence can
    # be handed another's vectors, whatever the keys
    repeated, train = tmp_path / "repeated", tmp_path / "train"
    repeated.write_text(re.sub(r"sent_id = \w+", "sent_id = s1",
                               prop_training_text()))
    train.write_text(prop_training_text())
    model, mlp, parser = (str(tmp_path / n) for n in ("m", "mlp", "par"))
    Path(mlp).write_bytes(_arrays_model("mlp"))
    Path(parser).write_bytes(_arrays_model("edge-parser"))
    parser_args = ["--model", model, "--hash-dim", "4", "--hidden", "4",
                   "--epochs", "1"]
    argv = {
        "train-prop": _train_prop_argv("mlp", repeated, model, "--hash-dim",
                                       "4"),
        "apply-prop": ["apply-prop", "--in", str(repeated), "--model", mlp],
        "train-parser": ["train-parser", "--train", str(repeated),
                         *parser_args],
        # the dev corpus repeats its own key and the training corpus's
        "dev": ["train-parser", "--train", str(train), "--dev",
                str(repeated), *parser_args],
        "predict": ["predict", "--in", str(repeated), "--model", parser],
    }[kind]
    rc, out, err = run(argv)
    assert rc == 0, err
    if kind in ("apply-prop", "predict"):
        assert len(parse_corpus(out)) == 8


@pytest.mark.parametrize("named", [True, False], ids=["sent-id", "position"])
def test_a_sidecar_dev_corpus_may_not_share_a_training_key(run, tmp_path,
                                                           named):
    # a sidecar holds one vector per key: a dev sentence under a training
    # sentence's key would be scored on that sentence's vectors
    from conjprop.embeddings import hash_provider, write_sidecar
    train, dev, vec = (tmp_path / n for n in ("train", "dev", "vec"))
    text = prop_training_text()
    if not named:  # each sentence is keyed by its position
        text = re.sub(r"# sent_id = \w+\n", "", text)
    train.write_text(text)
    dev_text = OWN_SUBJECT.format(i=9).replace("sent_id = ow9",
                                               "sent_id = sh0")
    key = "sh0"
    if not named:
        dev_text, key = re.sub(r"# sent_id = \w+\n", "", dev_text), "0"
    dev.write_text(dev_text)
    corpus = parse_corpus(text) + parse_corpus(OWN_SUBJECT.format(i=9))
    write_sidecar(vec, hash_provider(dim=4), corpus)
    argv = ["train-parser", "--train", str(train), "--dev", str(dev),
            "--embeddings", str(vec), "--model", str(tmp_path / "m"),
            "--hidden", "4", "--epochs", "1"]
    rc, _, err = run(argv)
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"conjprop: error: {dev}: sentence 1 shares the sent_id {key!r} "
        f"with training sentence 1, which keys their embeddings")
    assert not (tmp_path / "m").exists()
    # under a key of its own, the dev sentence is scored on its own vectors
    dev.write_text(OWN_SUBJECT.format(i=9))
    rc, _, err = run(argv)
    assert rc == 0, err
    assert "dev-f1" in err


@pytest.mark.parametrize("command, kind", [("apply-prop", "mlp"),
                                           ("predict", "edge-parser")])
def test_a_streaming_command_reads_its_model_before_its_input(
        run, tmp_path, command, kind):
    model, corpus = tmp_path / "m", tmp_path / "in.conllu"
    model.write_bytes(_model_file({"arrays": None}))
    corpus.write_text(_SENT_START + _TOKEN.format(3, 1, "_") + "\n")
    argv = [command, "--in", str(corpus), "--model", str(model),
            "--embeddings", str(tmp_path / "vec")]
    values = "0.5" if kind == "mlp" else "0.5 0.5 0.5 0.5"
    (tmp_path / "vec").write_text(f"s0\t1\t{values}\ns1\t1\t{values}\n")
    rc, out, err = run(argv)
    assert rc == 1 and out == ""
    assert err.splitlines()[-1] == (
        f"conjprop: error: {model}: header lacks the key(s) arrays")
    # with a good sidecar model, a key repeated after the first sentence
    # leaves no partial output
    model.write_bytes(_arrays_model(kind, {"vectors": "sidecar"}))
    corpus.write_bytes(_SENT_START.replace("s1", "s0").encode() + b"\n"
                       + _REPEATED_ID)
    rc, out, err = run(argv)
    assert rc == 1 and out == ""
    assert err.splitlines()[-1] == (
        f"conjprop: error: {corpus}: sentences 2 and 3 share the sent_id "
        "'s1', which keys their embeddings")


def _model_argv(kind: str, path) -> list[str]:
    command = "predict" if kind == "edge-parser" else "apply-prop"
    return [command, "--in", FIG1, "--model", str(path)]


@pytest.mark.parametrize("kind, dtype", [
    ("edge-parser", "float64"), ("kernel", "float64"), ("mlp", "float64"),
    ("edge-parser", "float32"), ("mlp", "float32"),
], ids=["edge-parser", "kernel", "mlp", "edge-parser-float32", "mlp-float32"])
def test_well_formed_model_files_load_and_run(run, tmp_path, kind, dtype):
    good = tmp_path / "good"
    good.write_bytes(_arrays_model(
        kind, dtypes=dict.fromkeys(_GOOD_MODELS[kind][1], dtype)))
    rc, out, err = run(_model_argv(kind, good))
    assert rc == 0, err
    assert parse_corpus(out)


@pytest.mark.parametrize("kind, meta, shapes, where", [
    ("kernel", {"features": ["token_features"]}, None,
     "meta features must map some of"),
    ("kernel", {"features": {"colour": True}}, None,
     "meta features must map some of"),
    ("kernel", {"features": {"token_features": "no"}}, None,
     "meta features must map some of"),
    ("kernel", {"dense_dim": -1}, None,
     "meta dense_dim must be an integer >= 0, got -1"),
    ("kernel", {"dense_dim": 1.0}, None, "meta dense_dim must be an integer"),
    ("kernel", {"outgoing_exclusions": "cc"}, None,
     "meta outgoing_exclusions must be the fixed list ['cc', 'conj', "
     "'mark', 'punct']"),
    ("kernel", {"outgoing_exclusions": [1]}, None,
     "meta outgoing_exclusions must be the fixed list ['cc', 'conj', "
     "'mark', 'punct']"),
    ("kernel", {"vocab": {"a": 0, "b": 2}}, None,
     "meta vocab must number its features"),
    ("kernel", {"vocab": ["a", "b"]}, None,
     "meta vocab must number its features"),
    ("kernel", None, {"support_vectors": (2, 3)},
     "array 'support_vectors' has shape (2, 3), expected (2, 2)"),
    ("kernel", None, {"dual_coef": (3,)},
     "array 'support_vectors' has shape (2, 2), expected (3, 2)"),
    ("kernel", None, {"bias": (2,)},
     "array 'bias' has shape (2,), expected (1,)"),
    ("mlp", None, {"w1": (1, 3)},
     "array 'w1' has shape (1, 3), expected (4, 3)"),
    ("mlp", {"dense_dim": 2}, None,
     "array 'w1' has shape (4, 3), expected (7, 3)"),
    ("mlp", None, {"w2": (3, 1)},
     "array 'w2' has shape (3, 1), expected (3, 2)"),
    ("mlp", None, {"b3": (3,)}, "array 'b3' has shape (3,), expected (2,)"),
    ("edge-parser", None, {name: None for name in _GOOD_MODELS[
        "edge-parser"][1]},
     "edge-parser arrays lacks the key(s) mix_logits, root_embed, w_head, "
     "b_head, w_dep, b_dep, bilinear, linear, bias"),
    ("edge-parser", None, {"linear": None},
     "edge-parser arrays lacks the key(s) linear"),
    ("edge-parser", {"layers": "1"}, None,
     "meta layers must be an integer >= 1, got '1'"),
    ("edge-parser", {"hidden": 0}, None,
     "meta hidden must be an integer >= 1, got 0"),
    ("edge-parser", {"labels": ["nsubj"]}, None,
     "meta labels must be a list of strings starting with"),
    ("edge-parser", {"labels": "∅"}, None,
     "meta labels must be a list of strings starting with"),
    ("edge-parser", {"layers": 2}, None,
     "array 'mix_logits' has shape (1,), expected (2,)"),
    ("edge-parser", {"dim": 5}, None,
     "array 'root_embed' has shape (4,), expected (5,)"),
    ("edge-parser", None, {"w_dep": (4, 2)},
     "array 'w_dep' has shape (4, 2), expected (4, 3)"),
    ("edge-parser", None, {"b_head": (4,)},
     "array 'b_head' has shape (4,), expected (3,)"),
    ("edge-parser", {"labels": ["∅", "nsubj", "obj"]}, None,
     "array 'bilinear' has shape (2, 3, 3), expected (3, 3, 3)"),
    ("edge-parser", None, {"linear": (3, 2)},
     "array 'linear' has shape (3, 2), expected (6, 2)"),
    ("edge-parser", None, {"bias": (3,)},
     "array 'bias' has shape (3,), expected (2,)"),
    ("kernel", {"vectors": None}, None,
     "kernel model meta lacks the key(s) vectors"),
    ("mlp", {"vectors": None}, None, "mlp model meta lacks the key(s) vectors"),
    ("edge-parser", {"vectors": None}, None,
     "edge-parser meta lacks the key(s) vectors"),
    ("kernel", {"vectors": "hash2"}, None,
     "meta vectors must be 'none' with dense_dim 0, else one of 'hash2', "
     "'sidecar'; got 'hash2'"),
    ("mlp", {"vectors": "none"}, None,
     "meta vectors must be 'none' with dense_dim 0, else one of 'hash2', "
     "'sidecar'; got 'none'"),
    ("mlp", {"vectors": "hash0"}, None, "meta vectors must be 'none'"),
    ("edge-parser", {"vectors": "none"}, None,
     "meta vectors must be one of 'hash2', 'sidecar', got 'none'"),
    ("edge-parser", {"vectors": ["hash"]}, None,
     "meta vectors must be one of 'hash2', 'sidecar', got ['hash']"),
    # "hash" named the earlier vectors of (seed, sentence key, token id,
    # form): a model trained on them would be misapplied to today's
    ("mlp", {"vectors": "hash"}, None,
     "meta vectors must be 'none' with dense_dim 0, else one of 'hash2', "
     "'sidecar'; got 'hash'"),
    ("edge-parser", {"vectors": "hash"}, None,
     "meta vectors must be one of 'hash2', 'sidecar', got 'hash'"),
])
def test_damaged_model_meta_and_arrays_exit_1(run, tmp_path, kind, meta,
                                              shapes, where):
    bad = tmp_path / "bad"
    bad.write_bytes(_arrays_model(kind, meta, shapes))
    rc, _, err = run(_model_argv(kind, bad))
    assert rc == 1
    assert f"conjprop: error: {bad}: {where}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["kernel", "mlp", "edge-parser"])
def test_a_non_finite_array_exits_1(run, tmp_path, kind):
    # the last array in the file is the last in name order; its last value
    # becomes NaN
    bad = tmp_path / "bad"
    bad.write_bytes(_arrays_model(kind)[:-8] + struct.pack("<d", math.nan))
    last = max(_GOOD_MODELS[kind][1])
    rc, _, err = run(_model_argv(kind, bad))
    assert rc == 1
    assert err.splitlines()[-1] == (f"conjprop: error: {bad}: array "
                                    f"{last!r} holds a non-finite value")


def _morphology_training_text() -> str:
    """prop_training_text with FEATS on its nouns and verbs."""
    return prop_training_text().replace(
        "PROPN\t_\t_", "PROPN\t_\tNumber=Sing").replace(
        "VERB\t_\t_", "VERB\t_\tVerbForm=Fin")


def _train_prop_argv(kind: str, train, model, *args: str) -> list[str]:
    return ["train-prop", "--kind", kind, "--hidden", "4,2", "--epochs", "1",
            "--train", str(train), "--model", str(model), *args]


@pytest.mark.parametrize("kind", ["kernel", "mlp"])
@pytest.mark.parametrize("groups", [
    "instance", "instance,token", "instance,tree", "instance,token,tree"])
def test_features_choose_the_feature_families_of_each_kind(run, tmp_path,
                                                           kind, groups):
    train, model = tmp_path / "train.conllu", tmp_path / "m.model"
    train.write_text(_morphology_training_text())
    rc, _, err = run(_train_prop_argv(kind, train, model, "--features",
                                      groups, "--hash-dim", "4"))
    assert rc == 0, err
    meta = load_model(model)[1]
    vocab = meta["vocab"]
    token, tree = "token" in groups, "tree" in groups

    def family(prefix: str) -> bool:
        return any(name.startswith(prefix) for name in vocab)

    assert family("label=") and family("direction=")
    assert family("head:VerbForm=") == (token and kind == "kernel")
    assert family("lindir=") == family("head-out=") == tree
    assert family("coord-items=") == (tree and kind == "kernel")
    assert ("coord-items" in vocab) == (tree and kind == "mlp")
    assert meta["dense_dim"] == (4 if token else 0)
    assert meta["vectors"] == ("hash2" if token else "none")


@pytest.mark.parametrize("vectors", [["--hash-dim", "8"],
                                     ["--embeddings", "missing.vec"]],
                         ids=["hash", "sidecar"])
def test_a_classifier_without_token_features_reads_no_vectors(run, tmp_path,
                                                              vectors):
    train, model = tmp_path / "train.conllu", tmp_path / "m.model"
    # the second sentence repeats the first one's sent_id, which would key
    # two sentences' sidecar vectors alike
    train.write_text(prop_training_text().replace("sent_id = ow0",
                                                  "sent_id = sh0"))
    vectors = [str(tmp_path / v) if v.endswith(".vec") else v
               for v in vectors]
    rc, _, err = run(_train_prop_argv("mlp", train, model, "--features",
                                      "instance,tree", *vectors))
    assert rc == 0, err
    meta = load_model(model)[1]
    assert (meta["dense_dim"], meta["vectors"]) == (0, "none")
    rc, _, err = run(_train_prop_argv("mlp", train, model, *vectors))
    if vectors[0] == "--hash-dim":  # hash vectors are keyed by nothing
        assert rc == 0, err
        return
    assert rc == 1
    assert err.splitlines()[-1] == (
        f"conjprop: error: {train}: sentences 1 and 2 share the sent_id "
        "'sh0', which keys their embeddings")


def _with_meta(path, **meta) -> bytes:
    """The model file at path with its header meta updated."""
    head, _, arrays = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    header["meta"].update(meta)
    return json.dumps(header).encode() + b"\n" + arrays


@pytest.mark.parametrize("kind, args", [
    ("kernel", []),
    ("kernel", ["--hash-dim", "4"]),
    ("kernel", ["--features", "instance,tree", "--hash-dim", "4"]),
    ("mlp", []),
    ("mlp", ["--hash-dim", "4"]),
    ("mlp", ["--features", "instance,tree", "--hash-dim", "4"]),
], ids=["kernel", "kernel-hash", "kernel-tree-hash", "mlp", "mlp-hash",
        "mlp-tree-hash"])
def test_a_model_file_of_the_earlier_format_applies_as_the_new_one(
        run, tmp_path, kind, args):
    train, new = tmp_path / "train.conllu", tmp_path / "new.model"
    train.write_text(_morphology_training_text())
    rc, _, err = run(_train_prop_argv(kind, train, new, *args))
    assert rc == 0, err
    meta = load_model(new)[1]
    assert set(meta) == {"vocab", "dense_dim", "features", "vectors"}
    assert set(meta["features"]) == {"token_features", "tree_features"}
    # earlier versions also wrote the fixed exclusion list and the
    # switches that the kind fixes; dense_tokens was true for every MLP
    # and for a kernel given vectors, even where dense_dim is 0
    old = tmp_path / "old.model"
    old.write_bytes(_with_meta(
        new, outgoing_exclusions=["cc", "conj", "mark", "punct"],
        features={**meta["features"], "morphology": kind == "kernel",
                  "count_scalar": kind == "mlp",
                  "dense_tokens": kind == "mlp" or "--hash-dim" in args}))
    outputs = []
    for model in (new, old):
        rc, out, err = run(["apply-prop", "--model", str(model), "--fixpoint",
                            "--in", str(train)])
        assert rc == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("kind, meta, shapes, message", [
    ("kernel", {"features": {"morphology": False}}, None,
     "meta features morphology must be true (kind kernel, dense_dim 0)"),
    ("mlp", {"features": {"morphology": True}}, None,
     "meta features morphology must be false (kind mlp, dense_dim 1)"),
    ("kernel", {"features": {"count_scalar": True}}, None,
     "meta features count_scalar must be false (kind kernel, dense_dim 0)"),
    ("mlp", {"features": {"count_scalar": False}}, None,
     "meta features count_scalar must be true (kind mlp, dense_dim 1)"),
    ("mlp", {"features": {"dense_tokens": False}}, None,
     "meta features dense_tokens must be true (kind mlp, dense_dim 1)"),
    ("kernel", {"features": {"dense_tokens": False}, "dense_dim": 1,
                "vectors": "hash2"}, {"support_vectors": (2, 5)},
     "meta features dense_tokens must be true (kind kernel, dense_dim 1)"),
    ("kernel", {"outgoing_exclusions": ["cc", "conj", "punct"]}, None,
     "meta outgoing_exclusions must be the fixed list ['cc', 'conj', "
     "'mark', 'punct']"),
    ("mlp", {"outgoing_exclusions": []}, None,
     "meta outgoing_exclusions must be the fixed list ['cc', 'conj', "
     "'mark', 'punct']"),
], ids=["kernel-morphology", "mlp-morphology", "kernel-count-scalar",
        "mlp-count-scalar", "mlp-dense-tokens", "kernel-dense-tokens",
        "kernel-exclusions", "mlp-exclusions"])
def test_an_earlier_setting_the_code_no_longer_takes_exits_1(
        run, tmp_path, kind, meta, shapes, message):
    bad = tmp_path / "bad.model"
    bad.write_bytes(_arrays_model(kind, meta, shapes))
    rc, _, err = run(_model_argv(kind, bad))
    assert rc == 1
    assert err.splitlines()[-1] == f"conjprop: error: {bad}: {message}"


WATCHED_MODULES = ("numpy", "conjprop.converter", "conjprop.evaluate")


def _fresh_main(args: list[str], prelude: str = "",
                stdin: str | None = None) -> subprocess.CompletedProcess:
    """main(args) in a new interpreter, after the statements in prelude;
    the interpreter then prints, as its last line, which of numpy, the
    converter and the scorers got loaded."""
    src = os.path.dirname(os.path.dirname(conjprop.__file__))
    script = (prelude + "import sys; from conjprop.cli import main; "
              "rc = main(sys.argv[1:]); "
              f"print(*[m for m in {WATCHED_MODULES!r} if m in sys.modules], "
              "file=sys.stderr); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", script, *args], input=stdin,
                          env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("args, loaded", [
    (["convert", "--mode", "rbc2", "--in", FIG1], "conjprop.converter"),
    (["evaluate", "--system", FIG1, "--gold", FIG1_GOLD], "conjprop.evaluate"),
    (["stats", "--original", FIG1, "--edited", FIG1_GOLD],
     "conjprop.evaluate"),
    (["agree", "--files", f"{FIG1},{FIG1_GOLD}"], "conjprop.evaluate"),
], ids=["convert", "evaluate", "stats", "agree"])
def test_text_commands_never_load_numpy(args, loaded):
    # nor does convert load the scorers, nor they the converter
    proc = _fresh_main(args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == loaded


def test_numpy_commands_report_bad_input_in_a_fresh_interpreter(tmp_path):
    damaged = tmp_path / "damaged.model"
    damaged.write_bytes(_arrays_model("kernel", {"features": []}))
    sidecar = tmp_path / "bad.vec"
    sidecar.write_bytes(b"fig1\t1\t0.1 x\n")
    for args, where in [
            (["apply-prop", "--in", FIG1, "--model", str(damaged)],
             f"{damaged}: meta features"),
            (["train-prop", "--train", FIG1_GOLD, "--model",
              str(tmp_path / "m"), "--embeddings", str(sidecar)],
             f"{sidecar}:1: could not convert")]:
        proc = _fresh_main(args)
        assert proc.returncode == 1
        assert f"conjprop: error: {where}" in proc.stderr
        assert "Traceback" not in proc.stderr


# every name conjprop exported when it imported all its modules eagerly
PACKAGE_EXPORTS = (
    "ROOT ParseError Sentence Token TokenId parse_corpus read_file "
    "write_corpus write_file Edge coarse conj_pairs enhanced_edges "
    "propagated_links convert_mode ApplyConfig PropModel PropTrainOptions "
    "apply_model train_prop EdgeParser ParserTrainConfig decode new_parser "
    "train_epoch train_parser agreement_matrix diff_stats score "
    "delexicalize_corpus lexicalize_label hash_provider read_sidecar main "
    "__version__").split()


@pytest.mark.parametrize("name", PACKAGE_EXPORTS)
def test_package_exports_still_import(name):
    namespace: dict = {}
    exec(f"from conjprop import {name}", namespace)
    assert namespace[name] is getattr(conjprop, name)
    module = getattr(namespace[name], "__module__", None)
    if module is not None and module.startswith("conjprop."):
        assert namespace[name] is getattr(sys.modules[module], name)


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        conjprop.nothing  # noqa: B018
    assert not hasattr(conjprop, "nothing")
