"""Tests of the benchmark itself: generator, checks, tracer and runner.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from conjprop.conllu import read_file  # noqa: E402
from conjprop.embeddings import read_sidecar  # noqa: E402
from conjprop.graph import propagated_links  # noqa: E402

WORKLOADS = sorted(gen.WORKLOADS)


def digests(paths: dict[str, str]) -> dict[str, str]:
    return {name: gen.digest(path) for name, path in paths.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = gen.generate(workload, 7, str(tmp_path / "a"), scale=0.05)
    again = gen.generate(workload, 7, str(tmp_path / "b"), scale=0.05)
    other = gen.generate(workload, 8, str(tmp_path / "c"), scale=0.05)
    assert digests(first) == digests(again)
    assert digests(first)["basic.conllu"] != digests(other)["basic.conllu"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_file_parses(workload, tmp_path):
    paths = gen.generate(workload, 3, str(tmp_path), scale=0.05)
    corpora = {name: read_file(path) for name, path in paths.items()
               if name.endswith(".conllu")}
    assert corpora["empty.conllu"] == []
    assert all(not t.deps for s in corpora["basic.conllu"] for t in s.tokens)
    gold = corpora["gold.conllu"]
    assert len(gold) == len(corpora["basic.conllu"])
    assert sum(len(propagated_links(s)) for s in gold) > 0
    annotated = [corpora[f"annotator{k}.conllu"] for k in (1, 2, 3)]
    assert len({len(c) for c in annotated}) == 1
    assert [s.sent_id for s in annotated[0]] == \
        [s.sent_id for s in gold[:len(annotated[0])]]
    sidecar = read_sidecar(paths["mlp.vec"])
    assert sidecar.layers == 1 and sidecar.dim == gen.SIDECAR_DIM
    for name in ("mlp_train.conllu", "mlp_apply.conllu"):
        for sent in corpora[name]:
            for tok in sent.tokens:
                assert sidecar.lookup(sent.sent_id, tok.id).shape == (
                    gen.SIDECAR_DIM,)


def write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


SENTENCE = ("# sent_id = s1\n"
            "1\tShe\tshe\tPRON\t_\t_\t2\tnsubj\t{deps}\t_\n"
            "2\tleft\tleave\tVERB\t_\t_\t0\troot\t0:root\t_\n\n")


def test_checker_counts_self_loops_and_jobs_mismatch(tmp_path):
    source = write(tmp_path / "in.conllu", SENTENCE.format(deps="_"))
    checker = run.Checker({"in.conllu": source}, None)
    serial = run.Step("convert_s", (), "serial.conllu", source="in.conllu")
    jobs = run.Step("convert_jobs2_s", (), "jobs.conllu", source="in.conllu")
    write(tmp_path / "serial.conllu", SENTENCE.format(deps="2:nsubj"))
    write(tmp_path / "jobs.conllu", SENTENCE.format(deps="1:nsubj|2:nsubj"))
    digests: dict[str, str] = {}
    assert checker.check(serial, str(tmp_path), digests) == []
    problems = checker.check(jobs, str(tmp_path), digests)
    assert any("self-loop" in p for p in problems)
    assert any("--jobs 2" in p for p in problems)


def test_checker_compares_rounds_and_recorded_digests(tmp_path):
    source = write(tmp_path / "in.conllu", SENTENCE.format(deps="_"))
    step = run.Step("convert_s", (), "out.conllu", source="in.conllu")
    write(tmp_path / "out.conllu", SENTENCE.format(deps="2:nsubj"))
    recorded = {"outputs": {"convert_s": "0" * 64}}
    checker = run.Checker({"in.conllu": source}, recorded)
    problems = checker.check(step, str(tmp_path), {})
    assert any("recorded digest" in p for p in problems)
    write(tmp_path / "out.conllu", SENTENCE.format(deps="2:nsubj|2:obj"))
    problems = checker.check(step, str(tmp_path), {})
    assert any("first round" in p for p in problems)


def test_timeout_kills_the_child(tmp_path):
    wall, _rss, _code, killed = run.run_child(
        ("convert", "--in", "-", "--out", "-"), str(tmp_path / "log"), 0.05)
    assert killed and wall < 30


def test_tracer_records_spans_and_restores_bindings(tmp_path):
    from conjprop import cli, conllu
    original = cli.parse_corpus
    corpus = write(tmp_path / "in.conllu", SENTENCE.format(deps="_"))
    tracer = tracing.Tracer("unit")
    tracer.install()
    try:
        assert cli.parse_corpus is not original
        with tracer.span("cli.convert_s", step="convert_s"):
            assert run.cli_in_process(("convert", "--mode", "rbc2", "--in",
                                       corpus, "--out",
                                       str(tmp_path / "out"))) == 0
    finally:
        tracer.uninstall()
    assert cli.parse_corpus is original is conllu.parse_corpus
    stats = tracing.span_stats(tracer.spans)
    assert {"cli.convert_s", "conllu.parse", "conllu.write",
            "converter.rbc2"} <= set(stats)
    root = stats["cli.convert_s"]
    assert 0 <= root["self_s"] <= root["total_s"]
    assert tracer.counts[("convert_s", "conllu.sentences")] == 1


def bench_metric_names(key: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[key]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_in_smoke_mode(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = bench_metric_names("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == wanted
    assert all(isinstance(m["value"], float | int)
               for m in result["metrics"].values())
    stem = f"{workload}-seed2-trace{trace}.json"
    with open(os.path.join(ROOT, ".bench_results", stem),
              encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
