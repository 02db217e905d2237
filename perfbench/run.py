#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the c4book command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table
    python3 perfbench/run.py --self-check        # --jobs 2 artifact check

A closed loop with one client.  Each op is a fresh
`python3 -m c4book.cli --format json --jobs 1 ...` process on the `src` tree
of the checkout that holds this file; ops run one after another.

--trace 0 sets the workload's inputs up five times (setup_s is the median),
then repeats the workload's ops while another pass fits in --seconds and
prints the end-to-end metrics.  Right before each timed op it times one run
of ref_loop.py, a fixed piece of pure-Python work; wall_ref is the sum over
the workload's ops of the median of op time / reference time.  --trace 1
makes one plain and one traced pass (see trace_op.py), tracing the set-up ops
too, and prints the per-layer metrics.  Every artifact is checked after its
pass by check.py, which does not import c4book.  The last line of stdout is
the JSON result; each run is also appended, with its environment, to
.perfbench_runs/results.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
TRACE_OP = Path(__file__).resolve().parent / "trace_op.py"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
REF_LOOP = Path(__file__).resolve().parent / "ref_loop.py"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_REPS = 5
CLI = ("--format", "json", "--jobs", "1")

END_TO_END = (("wall_ref", "ref"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("gf.ops", "count"),
    ("gf.s", "s"),
    ("geometry.er_graph.calls", "count"),
    ("geometry.er_graph.self_s", "s"),
    ("graphcore.g6_encode.s", "s"),
    ("graphcore.g6_decode.s", "s"),
    ("graphcore.is_c4_free.s", "s"),
    ("graphcore.induced_mask.s", "s"),
    ("graphcore.with_vertex.calls", "count"),
    ("canon.canonical_form.calls", "count"),
    ("canon.canonical_form.s", "s"),
    ("canon.canonical_form.us_per_call", "us"),
    ("canon.generators", "count"),
    ("canon.graph_digest.calls", "count"),
    ("canon.graph_digest.s", "s"),
    ("ramsey.complement_book_number.calls", "count"),
    ("ramsey.complement_book_number.s", "s"),
    ("ramsey.book_cut_ratio", "ratio"),
    ("ramsey.certify_lower_bound.self_s", "s"),
    ("search.enum.self_s", "s"),
    ("search.enum.labels_per_s", "1/s"),
    ("search.enum.keep_ratio", "ratio"),
    ("search.anneal.moves_per_s", "1/s"),
    ("search.anneal.self_s", "s"),
    ("search.random_delete.attempts", "count"),
    ("search.random_delete.self_s", "s"),
    ("bounds.s", "s"),
    ("cli.startup_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple
    check: Callable[[int, dict, dict], list]


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "certify":
        construct = ("construct", "random-delete", "--n", "800", "--k", "2", "--m", "10",
                     "--seed", str(seed))
        return [
            Op("construct", construct, check.check_construct),
            Op("certify", ("certify", "er17.g6", "--k", "3"), check.check_certify),
            Op("verify", ("verify", "er9.g6", "--k", "4", "--n", "60"), check.check_verify),
        ]
    if workload == "search":
        exact = ("search", "exact", "--k", "2", "--n", "4", "--N")
        anneal = ("search", "gq", "--q", "4", "--budget", "5e4", "--seed", str(seed))
        return [
            Op("exhaust-11", exact + ("11",), check.check_exhaust_proof),
            Op("exhaust-10", exact + ("10",), check.check_exhaust_witness),
            Op("anneal", anneal, check.check_anneal),
        ]
    raise ValueError(f"unknown workload {workload}")


WORKLOADS = ("certify", "search")


def _exit_zero(code: int, artifact: dict, inputs: dict) -> list:
    return [] if code == 0 else [f"exit {code}"]


SETUP_OPS = [
    Op(f"er-{q}", ("er", str(q), "--out", f"er{q}.g6"), _exit_zero) for q in check.ER_INPUTS
]


@dataclass
class Proc:
    code: int | None  # None: killed at the deadline
    wall_s: float
    rss_mib: float
    stdout: str
    stderr: str


@dataclass
class OpResult:
    name: str
    wall_s: float
    rss_mib: float
    ref_s: float = 0.0  # the reference run just before the op; 0 if none
    problems: list = field(default_factory=list)


class Runner:
    """Spawns the ops of one benchmark run and keeps its books."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("RAMSEY_BOOK_CACHE", None)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        self.inputs: dict[str, str] = {}
        self.results: list[OpResult] = []
        self.verdicts: dict = {}
        self.spawned = 0
        self.launcher: subprocess.Popen | None = None
        self.killed = False  # an op hit the run deadline: stop measuring

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if r.problems)

    def spawn(self, argv: list[str]) -> Proc:
        if self.launcher is None:
            self.launcher = subprocess.Popen(
                [sys.executable, str(LAUNCH)], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, bufsize=1,
            )
        self.spawned += 1
        out_path = self.workdir / f"p{self.spawned}.out"
        err_path = self.workdir / f"p{self.spawned}.err"
        request = {
            "argv": argv, "cwd": str(self.workdir), "env": self.env,
            "timeout": max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started)),
            "stdout": str(out_path), "stderr": str(err_path),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.killed = self.killed or reply["code"] is None
        stdout = out_path.read_text(errors="replace")
        stderr = err_path.read_text(errors="replace")
        out_path.unlink()
        err_path.unlink()
        return Proc(reply["code"], reply["wall_s"], reply["maxrss_kib"] / 1024.0, stdout, stderr)

    def close(self) -> None:
        if self.launcher is not None:
            self.launcher.stdin.close()
            self.launcher.wait(timeout=30)
            self.launcher.stdout.close()

    def judge(self, op: Op, proc: Proc, ref_s: float = 0.0) -> OpResult:
        result = OpResult(op.name, proc.wall_s, proc.rss_mib, ref_s)
        if proc.code is None:
            result.problems.append("killed at the run deadline")
        elif "Traceback" in proc.stderr:
            result.problems.append("traceback: " + proc.stderr.strip().splitlines()[-1])
        else:
            try:
                artifact = json.loads(proc.stdout)["artifact"]
            except (ValueError, KeyError, TypeError):
                artifact = None
                result.problems.append(f"no JSON artifact on stdout (exit {proc.code})")
            if artifact is not None:
                # Identical artifacts get the same verdict: check each once.
                key = (op.name, proc.code, json.dumps(artifact, sort_keys=True))
                if key not in self.verdicts:
                    try:
                        self.verdicts[key] = op.check(proc.code, artifact, self.inputs)
                    except (KeyError, TypeError, ValueError, AttributeError) as exc:
                        self.verdicts[key] = [f"malformed artifact: {exc!r}"]
                result.problems.extend(self.verdicts[key])
        self.results.append(result)
        return result

    def reference(self) -> float:
        """One timed run of ref_loop.py."""
        proc = self.spawn([sys.executable, str(REF_LOOP)])
        if proc.code != 0:
            sys.exit(f"perfbench: the reference loop failed: exit {proc.code}")
        return proc.wall_s

    def run_ops(self, ops: list[Op], trace_dir: Path | None = None, tag: str = "",
                reference: bool = False) -> float:
        """Run ops back to back, each after a reference run if asked, then
        check them; returns the seconds from the first launch to the last
        exit.  Stops early at the first kill."""
        procs, refs = [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if trace_dir is None:
                argv = [sys.executable, "-m", "c4book.cli", *CLI, *op.args]
            else:
                trace = trace_dir / f"{tag}{i}-{op.name}.json"
                argv = [sys.executable, str(TRACE_OP), str(trace), *CLI, *op.args]
            refs.append(self.reference() if reference else 0.0)
            procs.append(self.spawn(argv))
            if self.killed:
                break
        wall = time.perf_counter() - start
        for op, proc, ref_s in zip(ops, procs, refs):
            self.judge(op, proc, ref_s)
        return wall

    def bare_start(self) -> float:
        """One interpreter start plus `import c4book.cli`."""
        proc = self.spawn([sys.executable, "-c", "import c4book.cli"])
        if proc.code != 0:
            sys.exit(f"perfbench: importing c4book.cli failed: {proc.stderr.strip()}")
        return proc.wall_s

    def setup(self, trace_dir: Path | None = None) -> float:
        """Interpreter start plus the workload's input files; returns seconds."""
        start = time.perf_counter()
        self.bare_start()
        if self.workload == "certify":
            self.run_ops(SETUP_OPS, trace_dir, "setup")
            path = self.workdir / f"er{check.ER_RELABELLED}.g6"
            rows = check.g6_decode(path.read_text())
            path.write_text(check.g6_encode(check.relabel(rows, self.seed)) + "\n")
        return time.perf_counter() - start

    def load_inputs(self) -> bool:
        """Read the inputs back and check their shape outside any timing."""
        if self.workload != "certify":
            return True
        for q in check.ER_INPUTS:
            text = (self.workdir / f"er{q}.g6").read_text().strip()
            self.inputs[f"er{q}.g6"] = text
            problems = check.polarity_problems(check.g6_decode(text), q)
            if problems:
                self.results.append(OpResult(f"input er{q}.g6", 0.0, 0.0, problems))
        return self.failed == 0


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics plus details for the record."""
    setups = [runner.setup() for _ in range(SETUP_REPS)]
    passes = []
    first_timed = len(runner.results)
    if runner.load_inputs():
        ops = workload_ops(runner.workload, runner.seed)
        window = time.perf_counter()
        while True:
            passes.append(runner.run_ops(ops, reference=True))
            elapsed = time.perf_counter() - window
            if runner.killed or elapsed + passes[-1] > seconds:
                break
    timed = runner.results[first_timed:]
    per_op: dict[str, list] = {}
    for r in timed:
        per_op.setdefault(r.name, []).append(r)
    op_median_s, op_median_ref = {}, {}
    for name, rs in per_op.items():
        op_median_s[name] = statistics.median(r.wall_s for r in rs)
        op_median_ref[name] = statistics.median(r.wall_s / r.ref_s for r in rs)
        print(f"{runner.workload} op {name}: median {op_median_s[name]:.3f} s, "
              f"{op_median_ref[name]:.3f} ref, over {len(rs)} passes")
    print(f"{runner.workload} wall_s: {sum(op_median_s.values()):.3f} s, the sum of op medians")
    metrics = {
        "wall_ref": sum(op_median_ref.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": max((r.rss_mib for r in timed), default=0.0),
    }
    detail = {
        "passes_s": passes, "setups_s": setups, "wall_s": sum(op_median_s.values()),
        "op_median_s": op_median_s, "op_median_ref": op_median_ref,
    }
    return metrics, detail


def measure_traced(runner: Runner, trace_dir: Path) -> tuple[dict, dict]:
    """The traced run: one plain and one traced pass; per-layer metrics."""
    startup = statistics.median(runner.bare_start() for _ in range(SETUP_REPS))
    runner.setup(trace_dir)
    plain = traced = 0.0
    if runner.load_inputs():
        ops = workload_ops(runner.workload, runner.seed)
        plain = runner.run_ops(ops)
        if not runner.killed:
            traced = runner.run_ops(ops, trace_dir, "pass")
    traces = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
    overhead = traced / plain - 1.0 if plain and traced else 0.0
    metrics = layer_metrics(traces, startup, overhead)
    return metrics, {"plain_pass_s": plain, "traced_pass_s": traced, "trace_files": len(traces)}


def layer_metrics(traces: list[dict], startup_s: float, overhead: float) -> dict:
    """Sum the per-op trace counters of a run into the per-layer metrics."""
    calls, incl, self_s, layer, counts = Counter(), Counter(), Counter(), Counter(), Counter()
    for t in traces:
        calls.update(t["calls"])
        incl.update(t["incl_s"])
        self_s.update(t["self_s"])
        layer.update(t["layer_s"])
        counts.update(t["counts"])

    def ratio(a, b):
        return a / b if b else 0.0

    form, cbn = "canon.canonical_form", "ramsey.complement_book_number"
    enum, probe = "search.exhaust_ramsey", "search.probe_script_Gq"
    # Steps are known only for probes that used their whole budget.
    anneal_steps = counts["anneal_steps"] if not counts["anneal_steps_unknown"] else 0
    return {
        "gf.ops": sum(calls[f"gf.{op}"] for op in ("add", "mul", "neg", "inv")),
        "gf.s": layer["gf"],
        "geometry.er_graph.calls": calls["geometry.er_graph"],
        "geometry.er_graph.self_s": self_s["geometry.er_graph"],
        "graphcore.g6_encode.s": incl["graphcore.g6_encode"],
        "graphcore.g6_decode.s": incl["graphcore.g6_decode"],
        "graphcore.is_c4_free.s": incl["graphcore.is_c4_free"],
        "graphcore.induced_mask.s": incl["graphcore.Graph.induced_mask"],
        "graphcore.with_vertex.calls": calls["graphcore.Graph.with_vertex"],
        "canon.canonical_form.calls": calls[form],
        "canon.canonical_form.s": incl[form],
        "canon.canonical_form.us_per_call": 1e6 * ratio(incl[form], calls[form]),
        "canon.generators": counts["generators"],
        "canon.graph_digest.calls": calls["canon.graph_digest"],
        "canon.graph_digest.s": incl["canon.graph_digest"],
        "ramsey.complement_book_number.calls": calls[cbn],
        "ramsey.complement_book_number.s": incl[cbn],
        "ramsey.book_cut_ratio": ratio(counts["book_cut"], calls[cbn]),
        "ramsey.certify_lower_bound.self_s": self_s["ramsey.certify_lower_bound"],
        "search.enum.self_s": self_s[enum],
        "search.enum.labels_per_s": ratio(counts["enum_labels"], incl[enum]),
        "search.enum.keep_ratio": ratio(counts["enum_kept"], counts["enum_labels"]),
        "search.anneal.moves_per_s": ratio(anneal_steps, incl[probe]),
        "search.anneal.self_s": self_s[probe],
        "search.random_delete.attempts": counts["random_delete_attempts"],
        "search.random_delete.self_s": self_s["search.random_delete_construction"],
        "bounds.s": layer["bounds"],
        "cli.startup_s": startup_s,
        "cli.self_s": self_s["cli.main"],
        "trace.overhead_frac": overhead,
    }


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def refuse_other_copy() -> None:
    """Exit unless `import c4book` in an op resolves to this checkout's src."""
    want = (SRC / "c4book" / "__init__.py").resolve()
    if not want.is_file():
        sys.exit(f"perfbench: no c4book package under {SRC}")
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    proc = subprocess.run(
        [sys.executable, "-c", "import c4book.cli; print(c4book.__file__)"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    got = proc.stdout.strip()
    if proc.returncode != 0 or Path(got).resolve() != want:
        sys.exit(f"perfbench: c4book resolves to {got or proc.stderr.strip()!r}, not {want}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record["environment"] = environment()
    record["loadavg_start"] = loadavg()
    runner = Runner(workload, seed, workdir)
    try:
        if trace:
            trace_dir = RUNS / f"trace-{workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir()
            values, detail = measure_traced(runner, trace_dir)
            units = dict(PER_LAYER)
        else:
            values, detail = measure(runner, seconds)
            units = dict(END_TO_END)
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_end"] = loadavg()
    record["detail"] = detail
    record["ops"] = [
        {"op": r.name, "wall_s": r.wall_s, "ref_s": r.ref_s, "rss_mib": r.rss_mib,
         "problems": r.problems}
        for r in runner.results
    ]
    result = {
        "correct": runner.failed == 0,
        "attempted": len(runner.results),
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record["result"] = result
    with open(RUNS / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    for r in runner.results:
        for problem in r.problems:
            print(f"FAIL {workload} {r.name}: {problem}")
    return result


def print_table(results: dict) -> None:
    names = [n for n in results if results[n]["metrics"]]
    metrics = list(results[names[0]]["metrics"]) if names else []
    print(f"{'metric':36} {'unit':6} " + " ".join(f"{n:>12}" for n in names))
    for m in metrics:
        unit = results[names[0]]["metrics"][m]["unit"]
        cells = " ".join(f"{results[n]['metrics'][m]['value']:12.6g}" for n in names)
        print(f"{m:36} {unit:6} {cells}")
    for n in names:
        r = results[n]
        frac = r["failed"] / r["attempted"] if r["attempted"] else 0.0
        print(f"{n}: correct={r['correct']} attempted={r['attempted']} fail_frac={frac:.3g}")


def self_check() -> int:
    """The exhaust artifacts must not depend on the worker count."""
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"selfcheck-{os.getpid()}"
    workdir.mkdir()
    runner = Runner("search", 0, workdir)
    ok = True
    try:
        for op in workload_ops("search", 0)[:2]:
            artifacts = []
            for jobs in ("1", "2"):
                argv = [sys.executable, "-m", "c4book.cli", "--format", "json", "--jobs", jobs]
                proc = runner.spawn(argv + list(op.args))
                problems = runner.judge(op, proc).problems
                artifacts.append(json.loads(proc.stdout)["artifact"] if not problems else None)
                print(f"{op.name} --jobs {jobs}: exit {proc.code}, {proc.wall_s:.2f} s, "
                      f"{'ok' if not problems else problems}")
            same = artifacts[0] is not None and artifacts[0] == artifacts[1]
            print(f"{op.name}: artifacts at --jobs 1 and --jobs 2 {'agree' if same else 'DIFFER'}")
            ok = ok and same
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="compare exhaust artifacts at --jobs 1 and 2, then exit")
    args = parser.parse_args(argv)
    refuse_other_copy()
    if args.self_check:
        return self_check()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    print_table(results)
    print(f"environment: {json.dumps(environment())}")
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
