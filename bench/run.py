"""Benchmark runner for conjprop.

    python3 bench/run.py --workload treebank --seed 1 --seconds 56 --trace 0

Generates the workload's inputs from the seed (``bench/gen.py``), then runs
the conjprop CLI subcommands as a closed loop with a single client: one
child process at a time, each the next command of the workload's batch:
a probe round runs every command once and is the warm-up, then two timed
rounds repeat the short commands more often than the long ones so as to
fill ``--seconds``.  Every command's wall time and peak RSS is recorded and
its outputs are checked.  A command's end-to-end metric is its mean wall
time over the timed rounds: on a shared host the machine's speed drifts in
phases of several seconds, and the mean follows the share of a run spent
in slow phases smoothly where the median of a few samples jumps between
them.  ``setup_s`` is the median of its timed samples.

With ``--trace 1`` the same commands run in-process instead, alternating an
untraced pass and a pass with spans around the public calls of every layer
(``bench/tracing.py``); the per-layer metrics come from the traced passes and
the tracing overhead is the traced total against the untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are read from ``BENCHMARK.json``.  A fuller record (run
conditions, input digests, every sample, the check results, the spans) is
written under ``.bench_results/``.  ``--record`` stores the input and
output digests of an untraced run in ``bench/expected.json``; later runs of
that workload and seed must reproduce them (model files are recorded but
not compared, since a solver change may move their last bits while the
graphs they write stay the same).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
EXPECTED = os.path.join(HERE, "expected.json")
KNOWN_LIMITS = os.path.join(HERE, "known_limits.json")
SPREAD = os.path.join(HERE, "spread.json")

sys.path.insert(0, HERE)
import gen  # noqa: E402

# single runs on a shared 2-core machine vary by 10-20 %, so a short
# command runs up to MAX_REPS times per round (see plan_reps)
MAX_REPS = 4
# child runs of the empty convert behind cli.startup_s in a traced run
STARTUP_SAMPLES = 5
# a hung command or a non-converging solver is killed and counted as failed
COMMAND_TIMEOUT_S = 60.0
# no new round starts after this, so a run ends well inside 180 s
RUN_LIMIT_S = 110.0

# The child is the CLI's own entry point; the package has no __main__.
SHIM = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
        "from conjprop.cli import main; sys.exit(main(sys.argv[1:]))")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Options:
    """Per-workload command settings that are not input sizes."""
    convert_mode: str
    mlp_epochs: int
    parser_hidden: int


# neural trains at the paper's widths; in treebank the learners only have
# to run, so the parser is narrow enough not to dominate the round.  Each
# workload converts with another rule set, so both are measured.
OPTIONS = {
    "treebank": Options("rbc2", mlp_epochs=1, parser_hidden=128),
    "neural": Options("rbc2+fix", mlp_epochs=2, parser_hidden=1024),
}


@dataclass(frozen=True)
class Step:
    metric: str
    argv: tuple[str, ...]
    output: str | None = None   # file name under the output directory
    kind: str = "conllu"        # conllu, report or model
    source: str | None = None   # input corpus of a conllu output


def workload_steps(workload: str, inputs: dict[str, str],
                   out: str) -> tuple[Step, list[Step]]:
    """The setup probe and the ordered commands of one round."""
    opt = OPTIONS[workload]
    i = inputs.__getitem__

    def o(name: str) -> str:
        return os.path.join(out, name)

    hash_args = ("--hash-dim", "32", "--hash-layers", "4")
    annotators = ",".join(i(f"annotator{k}.conllu") for k in (1, 2, 3))
    setup = Step("setup_s", ("convert", "--in", i("empty.conllu"),
                             "--out", o("empty.out")), "empty.out",
                 source="empty.conllu")
    steps = [
        Step("convert_s", ("convert", "--mode", opt.convert_mode, "--in",
                           i("basic.conllu"), "--out", o("convert.conllu")),
             "convert.conllu", source="basic.conllu"),
        Step("convert_always_s", ("convert", "--mode", "always", "--in",
                                  i("basic.conllu"), "--out",
                                  o("always.conllu")),
             "always.conllu", source="basic.conllu"),
        Step("convert_jobs2_s", ("convert", "--mode", opt.convert_mode,
                                 "--jobs", "2", "--in", i("basic.conllu"),
                                 "--out", o("jobs2.conllu")),
             "jobs2.conllu", source="basic.conllu"),
        Step("evaluate_s", ("evaluate", "--system", o("convert.conllu"),
                            "--gold", i("gold.conllu"), "--out",
                            o("evaluate.txt")), "evaluate.txt", "report"),
        Step("stats_s", ("stats", "--original", i("basic.conllu"),
                         "--edited", i("gold.conllu"), "--out",
                         o("stats.txt")), "stats.txt", "report"),
        Step("agree_s", ("agree", "--files", annotators, "--out",
                         o("agree.txt")), "agree.txt", "report"),
        Step("train_kernel_s", ("train-prop", "--kind", "kernel", "--train",
                                i("kernel_train.conllu"), "--model",
                                o("kernel.model")), "kernel.model", "model"),
        Step("apply_kernel_s", ("apply-prop", "--model", o("kernel.model"),
                                "--fixpoint", "--fix", "--in",
                                i("kernel_apply.conllu"), "--out",
                                o("kernel_apply.conllu")),
             "kernel_apply.conllu", source="kernel_apply.conllu"),
        Step("train_mlp_s", ("train-prop", "--kind", "mlp", "--hidden",
                             "1500,500", "--embeddings", i("mlp.vec"),
                             "--epochs", str(opt.mlp_epochs), "--train",
                             i("mlp_train.conllu"), "--model",
                             o("mlp.model")), "mlp.model", "model"),
        Step("apply_mlp_s", ("apply-prop", "--model", o("mlp.model"),
                             "--embeddings", i("mlp.vec"), "--in",
                             i("mlp_apply.conllu"), "--out",
                             o("mlp_apply.conllu")),
             "mlp_apply.conllu", source="mlp_apply.conllu"),
        Step("train_parser_s", ("train-parser", "--delexicalize", "--dev",
                                i("parser_dev.conllu"), *hash_args,
                                "--hidden", str(opt.parser_hidden),
                                "--epochs", "1",
                                "--train", i("parser_train.conllu"),
                                "--model", o("parser.model")),
             "parser.model", "model"),
    ]
    return setup, steps


# ------------------------------------------------------------------ checks

class Checker:
    """Output checks; every breach is a failure of the command that wrote it.

    * a CoNLL-U output parses again, has as many sentences as its input,
      and has no dangling head (the parser rejects those) and no self-loop;
    * the --jobs 2 output is byte-identical to the serial one;
    * every round writes the same bytes as the first;
    * outputs equal the digests recorded for this workload and seed.
    """

    def __init__(self, inputs: dict[str, str], expected: dict | None):
        self.inputs = inputs
        self.expected = (expected or {}).get("outputs")
        self.first: dict[str, str] = {}
        self.valid: set[str] = set()
        self.reports: dict[str, str] = {}

    def check(self, step: Step, out_dir: str,
              round_digests: dict[str, str]) -> list[str]:
        if step.output is None:
            return []
        path = os.path.join(out_dir, step.output)
        if not os.path.exists(path):
            return [f"{step.output} missing"]
        digest = gen.digest(path)
        round_digests[step.metric] = digest
        problems = []
        if step.kind == "conllu" and digest not in self.valid:
            problems += self._check_conllu(path, step.source)
            if not problems:
                self.valid.add(digest)
        if step.kind == "model" and os.path.getsize(path) == 0:
            problems.append(f"{step.output} is empty")
        if step.kind == "report" and step.metric not in self.reports:
            with open(path, encoding="utf-8") as fh:
                self.reports[step.metric] = fh.read()
        if step.metric == "convert_jobs2_s" \
                and digest != round_digests.get("convert_s"):
            problems.append("--jobs 2 output differs from the serial output")
        first = self.first.setdefault(step.metric, digest)
        if digest != first:
            problems.append(f"{step.output} differs from the first round")
        if step.kind != "model" and self.expected is not None \
                and self.expected.get(step.metric) not in (None, digest):
            problems.append(f"{step.output} differs from the recorded digest")
        return problems

    def _check_conllu(self, path: str, source: str | None) -> list[str]:
        from conjprop.conllu import ParseError, read_file
        try:
            corpus = read_file(path)
            expected = len(read_file(self.inputs[source])) if source else None
        except (ParseError, UnicodeDecodeError) as err:
            return [f"{os.path.basename(path)} does not parse: {err}"]
        problems = []
        if expected is not None and len(corpus) != expected:
            problems.append(f"{os.path.basename(path)} has {len(corpus)} "
                            f"sentences, input has {expected}")
        for sent in corpus:
            for tok in sent.tokens:
                if tok.id == tok.head or any(h == tok.id for h, _ in tok.deps):
                    problems.append(f"{os.path.basename(path)}: self-loop at "
                                    f"{sent.sent_id} token {tok.id}")
                    return problems
        return problems


# ----------------------------------------------------------- child runs

@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    round_no: int


def run_child(argv: tuple[str, ...], log_path: str,
              timeout: float) -> tuple[float, float, int, bool]:
    """Runs one CLI command; returns (wall s, peak RSS MB, exit code, killed).

    The child gets its own process group, so a timeout also ends the pool
    workers of a --jobs run.  The child is waited for without being reaped
    before the timer is disarmed, so the kill can never reach a reused pid.
    """
    lock = threading.Lock()
    state = {"done": False, "killed": False}
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SHIM, SRC, *argv],
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT, cwd=ROOT,
                                start_new_session=True)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["done"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, state["killed"]


def tail(path: str, lines: int = 5) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return "".join(fh.readlines()[-lines:]).strip()
    except OSError:
        return ""


class Batch:
    """One workload's commands, run and checked round after round."""

    def __init__(self, workload: str, inputs: dict[str, str], work: str,
                 checker: Checker, run_start: float):
        self.out = os.path.join(work, "out")
        os.makedirs(self.out, exist_ok=True)
        self.setup, self.steps = workload_steps(workload, inputs, self.out)
        self.checker = checker
        self.run_start = run_start
        self.samples: dict[str, list[Sample]] = defaultdict(list)
        self.failures: list[dict] = []
        self.outputs: dict[str, str] = {}
        self.reps: dict[str, int] = {}

    def _timeout(self) -> float:
        left = RUN_LIMIT_S + COMMAND_TIMEOUT_S - (time.perf_counter()
                                                  - self.run_start)
        return max(1.0, min(COMMAND_TIMEOUT_S, left))

    def run_step(self, step: Step, round_no: int,
                 round_digests: dict[str, str]) -> None:
        log = os.path.join(self.out, step.metric + ".log")
        wall, rss, code, killed = run_child(step.argv, log, self._timeout())
        problems = []
        if killed:
            problems.append(f"killed after {wall:.1f} s (timeout)")
        elif code != 0:
            problems.append(f"exit code {code}: {tail(log)}")
        else:
            problems += self.checker.check(step, self.out, round_digests)
        self.record(step, round_no, Sample(wall, rss, round_no), problems)

    def record(self, step: Step, round_no: int, sample: Sample,
               problems: list[str]) -> None:
        self.samples[step.metric].append(sample)
        if problems:
            self.failures.append({"round": round_no, "metric": step.metric,
                                  "argv": list(step.argv),
                                  "problems": problems})

    def run_round(self, round_no: int, reps: dict[str, int]) -> None:
        """Cycles through the commands, each cycle running those with reps
        left, so that the repeats of one command are spread over the round
        rather than caught together in one slow spell of the machine."""
        digests: dict[str, str] = {}
        for cycle in range(max(reps.values(), default=1)):
            for step in [self.setup] + self.steps:
                if cycle < reps.get(step.metric, 1):
                    self.run_step(step, round_no, digests)
        self.outputs = digests

    def run(self, seconds: float, smoke: bool) -> int:
        """A probe round, then two rounds sized to fill the seconds left."""
        deadline = time.perf_counter() + seconds
        self.run_round(0, {})
        if smoke:
            return 1
        probe = {m: v[0].wall_s for m, v in self.samples.items()}
        self.reps = plan_reps(probe, (deadline - time.perf_counter()) / 2)
        for round_no in (1, 2):
            self.run_round(round_no, self.reps)
        return 3


def plan_reps(probe: dict[str, float], budget: float) -> dict[str, int]:
    """Repetitions per command so that one round takes about budget seconds.

    Repeats go one at a time to the command with the fewest so far, the
    cheaper first, until the next one would not fit: every command gets as
    many samples as the budget allows, and short commands, whose single runs
    vary most, are the first to get more.
    """
    reps = {m: 1 for m in probe}
    spent = sum(probe.values())
    while True:
        open_ = [m for m in probe if reps[m] < MAX_REPS]
        if not open_:
            return reps
        pick = min(open_, key=lambda m: (reps[m], probe[m]))
        if spent + probe[pick] > budget:
            return reps
        reps[pick] += 1
        spent += probe[pick]


def summarize(samples: list[Sample], timed_from: int) -> dict:
    """Timing summary of one command; rounds before timed_from are warm-up."""
    values = [x.wall_s for x in samples if x.round_no >= timed_from]
    return {"mean": statistics.fmean(values),
            "median": statistics.median(values), "max": max(values),
            "n": len(values), "samples": values,
            "warmup": [x.wall_s for x in samples
                       if x.round_no < timed_from]}


# ------------------------------------------------------------ traced runs

def cli_in_process(argv: tuple[str, ...]) -> int:
    from conjprop import cli
    with open(os.devnull, "w") as sink, redirect_stdout(sink), \
            redirect_stderr(sink):
        try:
            return cli.main(list(argv))
        except Exception as err:  # a traceback is a failed command
            print(f"{type(err).__name__}: {err}", file=sys.__stderr__)
            return 1


def in_process_pass(batch: Batch, tracer, round_no: int
                    ) -> tuple[float, dict[str, float]]:
    """Runs every command of a round in this process; returns the timings."""
    times: dict[str, float] = {}
    digests: dict[str, str] = {}
    for step in batch.steps:
        start = time.perf_counter()
        if tracer is None:
            code = cli_in_process(step.argv)
        else:
            with tracer.span("cli." + step.metric, step=step.metric):
                code = cli_in_process(step.argv)
        times[step.metric] = time.perf_counter() - start
        problems = [f"exit code {code}"] if code != 0 else \
            batch.checker.check(step, batch.out, digests)
        batch.record(step, round_no,
                     Sample(times[step.metric], 0.0, round_no), problems)
    batch.outputs = digests
    return sum(times.values()), times


def layer_metrics(tracer, stats: dict[str, dict],
                  pass_times: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    counts = tracer.counts

    def total(name: str) -> float:
        return stats.get(name, {}).get("total_s", 0.0)

    def count(key: str, step: str | None = None) -> float:
        return sum(v for (s, k), v in counts.items()
                   if k == key and (step is None or s == step))

    def in_step(step: str, names: set[str]) -> tuple[float, dict]:
        calls: dict[str, int] = defaultdict(int)
        busy = 0.0
        for s in tracer.spans:
            if s[5] == step and s[1] in names:
                busy += s[3] - s[2]
                calls[s[1]] += 1
        return busy, calls

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    mlp_busy, mlp_calls = in_step("train_mlp_s", {
        "propmodel.mlp_loss", "autodiff.backward", "autodiff.adamw_step"})
    parser_backward, _ = in_step("train_parser_s", {"autodiff.backward"})
    m = {f"{name}_s": total(name) for name in (
        "conllu.parse", "conllu.write", "graph.propagated_links",
        "converter.rbc2", "converter.always", "converter.rbc2_fix",
        "evaluate.align", "evaluate.score", "evaluate.diff_stats",
        "evaluate.agreement", "instances.extract", "instances.featurize",
        "instances.vectorize", "svm.train", "svm.decision",
        "propmodel.apply", "embeddings.read_sidecar",
        "embeddings.hash_provider", "edgepred.sentence_loss",
        "edgepred.train_epoch", "edgepred.decode", "labels.delexicalize",
        "modelfile.save", "modelfile.load")}
    m.update({
        "conllu.sentences": count("conllu.sentences"),
        "evaluate.links_sys": count("evaluate.links_sys", "evaluate_s"),
        "evaluate.links_gold": count("evaluate.links_gold", "evaluate_s"),
        "instances.count": count("instances.count"),
        "instances.positive_ratio": ratio(count("instances.positive"),
                                          count("instances.graded")),
        "svm.train_peak_mb": max(tracer.svm_peak_bytes, default=0) / 2**20,
        "svm.support_vectors": count("svm.support_vectors"),
        "svm.sv_ratio": ratio(count("svm.support_vectors"),
                              count("svm.instances")),
        "propmodel.accept_ratio": ratio(count("propmodel.accepted"),
                                        count("propmodel.candidates")),
        "autodiff.mlp_step_s": ratio(mlp_busy,
                                     mlp_calls["propmodel.mlp_loss"]),
        "autodiff.adamw_step_s": total("autodiff.adamw_step"),
        "edgepred.backward_s": parser_backward,
        "edgepred.labels": count("edgepred.labels", "train_parser_s"),
        "edgepred.param_mb": count("edgepred.param_bytes") / 2**20,
        "modelfile.bytes": count("modelfile.bytes"),
        "cli.pool_overhead_s": pass_times["convert_jobs2_s"]
        - pass_times["convert_s"],
    })
    layer_self: dict[str, float] = defaultdict(float)
    for name, entry in stats.items():
        layer_self[name.split(".", 1)[0]] += entry["self_s"]
    for layer in ("conllu", "graph", "converter", "cli", "evaluate",
                  "instances", "svm", "propmodel", "autodiff", "embeddings",
                  "edgepred", "labels", "modelfile"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def corpus_counts(inputs: dict[str, str], out: str) -> dict[str, float]:
    """Counts read off the inputs and outputs, outside any timing."""
    from conjprop.conllu import read_file
    from conjprop.converter import added_edges
    from conjprop.graph import conj_pairs
    basic = read_file(inputs["basic.conllu"])
    converted = read_file(os.path.join(out, "convert.conllu"))
    return {
        "graph.conj_pairs": sum(len(conj_pairs(s)) for s in basic),
        "converter.edges_added": sum(len(added_edges(b, a))
                                     for b, a in zip(basic, converted)),
    }


def run_traced(batch: Batch, workload: str, inputs: dict[str, str],
               seconds: float, smoke: bool) -> tuple[dict, dict, list]:
    from tracing import Tracer, spans_json, span_stats
    import conjprop.cli  # noqa: F401  (loads every module before patching)

    startup = []
    for k in range(STARTUP_SAMPLES):
        batch.run_step(batch.setup, k, {})
        startup.append(batch.samples["setup_s"][-1].wall_s)
    deadline = time.perf_counter() + seconds
    plain_totals, traced_totals, per_pass, spans = [], [], [], []
    while True:
        started = time.perf_counter()
        tracer = Tracer(workload)
        # alternate which pass goes first, so warm caches favour neither
        order = (False, True) if len(per_pass) % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.install()
                try:
                    total, _ = in_process_pass(batch, tracer, len(per_pass))
                finally:
                    tracer.uninstall()
                traced_totals.append(total - tracer.probe_s)
            else:
                total, plain_times = in_process_pass(batch, None,
                                                     len(per_pass))
                plain_totals.append(total)
        stats = span_stats(tracer.spans)
        per_pass.append(layer_metrics(tracer, stats, plain_times))
        spans.append({"pass": len(spans), "span_stats": stats,
                      "spans": spans_json(tracer.spans)})
        now = time.perf_counter()
        if smoke or now - batch.run_start > RUN_LIMIT_S \
                or now + (now - started) > deadline:
            break
    metrics = {key: statistics.median(p[key] for p in per_pass)
               for key in per_pass[0]}
    metrics.update(corpus_counts(inputs, batch.out))
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_totals)
                                       / statistics.median(plain_totals) - 1)
    detail = {"untraced_pass_s": plain_totals,
              "traced_pass_s": traced_totals,
              "startup_s": startup, "passes": len(per_pass)}
    return metrics, detail, spans


# ------------------------------------------------------------ bookkeeping

def conditions() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    mem_mb = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            mem_mb = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "mem_total_mb": mem_mb,
            "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "loadavg_at_start": os.getloadavg()}


def load_json(path: str, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return default


def record_expected(workload: str, seed: int, inputs: dict[str, str],
                    outputs: dict[str, str]) -> None:
    expected = load_json(EXPECTED, {})
    expected.setdefault(workload, {})[str(seed)] = {
        "inputs": inputs, "outputs": outputs}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and a single round, for the tests")
    ap.add_argument("--record", action="store_true",
                    help="store this run's digests in bench/expected.json")
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "conjprop")) \
            or not os.path.exists(spec_path):
        print(f"bench: no conjprop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_json(spec_path, {})
    run_start = time.perf_counter()
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        inputs = gen.generate(args.workload, args.seed,
                              os.path.join(work, "in"),
                              scale=0.05 if args.smoke else 1.0)
        input_digests = {n: gen.digest(p) for n, p in sorted(inputs.items())}
        expected = None if args.smoke else \
            load_json(EXPECTED, {}).get(args.workload, {}).get(str(args.seed))
        checker = Checker(inputs, expected)
        batch = Batch(args.workload, inputs, work, checker, run_start)
        failures_before = []
        attempted_extra = 0
        if expected is not None:
            attempted_extra = 1
            if expected["inputs"] != input_digests:
                failures_before.append({
                    "metric": "inputs", "problems": [
                        "generated inputs differ from the recorded digests"]})
        if args.trace:
            values, detail, spans = run_traced(batch, args.workload, inputs,
                                               args.seconds, args.smoke)
            wanted = spec["per_layer"]
        else:
            rounds = batch.run(args.seconds, args.smoke)
            steps = [batch.setup] + batch.steps
            # a smoke run has only the probe round, so it is timed as well
            timings = {s.metric: summarize(batch.samples[s.metric],
                                           min(1, rounds - 1))
                       for s in steps}
            rss = [x.rss_mb for s in steps for x in batch.samples[s.metric]]
            values = {m: t["mean"] for m, t in timings.items()}
            values["setup_s"] = timings["setup_s"]["median"]
            values["peak_rss_mb"] = max(rss)
            detail = {"rounds": rounds, "reps_per_round": batch.reps,
                      "timings": timings,
                      "rss_mb": {s.metric: max(x.rss_mb for x in
                                               batch.samples[s.metric])
                                 for s in steps}}
            spans = None
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = failures_before + batch.failures
    attempted = attempted_extra + sum(len(v) for v in batch.samples.values())
    failed = len(failures)
    if args.record and not args.trace and not args.smoke:
        record_expected(args.workload, args.seed, input_digests,
                        batch.outputs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "why": next((w["why"] for w in spec.get("workloads", ())
                     if w["name"] == args.workload), None),
        "conditions": conditions(),
        "measured_spread": load_json(SPREAD, None),
        "known_limits": load_json(KNOWN_LIMITS, []),
        "inputs": input_digests, "outputs": batch.outputs,
        "reports": checker.reports,
        "expected_recorded": expected is not None,
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "failures": failures,
        "detail": detail, "metrics": metrics,
        "wall_s": time.perf_counter() - run_start,
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    for failure in failures:
        print(f"FAILED {failure['metric']}: {'; '.join(failure['problems'])}")
    for name, m in metrics.items():
        extra = ""
        if not args.trace and name in detail["timings"]:
            t = detail["timings"][name]
            extra = (f"  (n={t['n']}, mean {t['mean']:.4f}, "
                     f"median {t['median']:.4f}, max {t['max']:.4f})")
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}{extra}")
    print(f"fail_rate {failed}/{attempted}; details in {stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
