"""Crawl benchmark for ontocrawl.

    python3 perfbench/run.py --workload {cli-io,mock-large,live-shaped,all} \\
        --seed N --seconds S --trace {0,1}

The inputs are generated from ``--seed``.  Every crawl runs in a fresh
process (``iteration.py``) against the package in ``src/`` next to this
directory; iterations repeat while the next one is expected to end within
``--seconds``, and each metric is reported as the median over them.  ``setup_s`` is the median over several
set-up-only processes plus the iterations.  With ``--trace 1`` untraced and
traced iterations alternate and the per-layer metrics of the traced ones are
reported, with the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
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
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# Set-up-only processes per run, after one warm-up that also compiles bytecode.
SETUP_PROBES = 5
# A run must end within this many seconds whatever ``--seconds`` says.
RUN_CAP_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "crawl_s": "s",
    "reread_s": "s",
    "oracle_calls_per_concept": "count",
    "output_mb": "MB",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if ".step_ms." in name:
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


class Run:
    """One invocation for one workload: inputs, child processes, medians."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = {
            **os.environ,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
        }
        self.children = 0

    def child(self, mode: str, trace: bool = False) -> dict | None:
        """Run one iteration process; None if it crashed or timed out."""
        self.children += 1
        cdir = self.work / f"child-{self.children}"
        cdir.mkdir(parents=True)
        spec = {
            "mode": mode,
            "workload": self.workload,
            "fixture": str(self.work / "fixture.json"),
            "out_dir": str(cdir / "out"),
            "seed": self.seed,
            "trace": trace,
            "trace_path": str(WORK / f"trace-{self.workload}.jsonl"),
        }
        (cdir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(5.0, RUN_CAP_S - (time.monotonic() - self.started))
        log_path = cdir / "log.txt"
        try:
            with open(log_path, "w", encoding="utf-8") as log:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "iteration.py"), str(cdir / "spec.json"), str(cdir / "result.json")],
                    cwd=ROOT,
                    env=self.env,
                    stdin=subprocess.DEVNULL,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=timeout,
                )
            result = (
                json.loads((cdir / "result.json").read_text(encoding="utf-8"))
                if proc.returncode == 0
                else None
            )
        except subprocess.TimeoutExpired:
            result = None
        if result is None:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            print(f"{self.workload}: {mode} process failed:\n{tail}", file=sys.stderr)
        shutil.rmtree(cdir, ignore_errors=True)
        return result

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        n, annotate = inputs.WORKLOAD_INPUTS[self.workload]
        provenance = inputs.write_fixture(self.work / "fixture.json", self.seed, n, annotate=annotate)
        print(f"{self.workload}: inputs {json.dumps(provenance)}")

        self.child("setup")
        setups = [r["setup_s"] for r in (self.child("setup") for _ in range(SETUP_PROBES)) if r]

        plain, traced, durations = [], [], []
        attempted = failed = 0
        window_start = time.monotonic()
        while True:
            t0 = time.monotonic()
            batch = [(plain, False)] + ([(traced, True)] if self.trace else [])
            for sink, trace in batch:
                attempted += 1
                result = self.child("run", trace=trace)
                if result is None or not result["ok"]:
                    failed += 1
                if result is None:
                    continue
                sink.append(result)
                label = "traced" if trace else "untraced"
                verdict = "ok" if result["ok"] else "FAILED " + "; ".join(result["failures"])
                m = result["metrics"]
                print(
                    f"{self.workload}: iteration {attempted} ({label}) {verdict}: "
                    f"crawl_s={m['crawl_s']:.4f} setup_s={m['setup_s']:.4f} "
                    f"reread_s={m['reread_s']:.4f} info={json.dumps(result['info'])}"
                )
            durations.append(time.monotonic() - t0)
            # Start another batch only if it should end inside the window.
            now, estimate = time.monotonic(), statistics.median(durations)
            if now - window_start + estimate > self.seconds or now - self.started + estimate > RUN_CAP_S:
                break

        metrics: dict[str, float] = {}
        if plain:
            for name in END_TO_END_UNITS:
                values = [r["metrics"][name] for r in plain]
                if name == "setup_s":
                    values += setups
                metrics[name] = statistics.median(values)
        per_layer: dict[str, float] = {}
        if traced:
            for name in traced[0]["per_layer"]:
                per_layer[name] = statistics.median(r["per_layer"][name] for r in traced)
            traced_crawl = statistics.median(r["metrics"]["crawl_s"] for r in traced)
            per_layer["trace.crawl_s"] = traced_crawl
            if plain:
                per_layer["trace.overhead_ratio"] = traced_crawl / metrics["crawl_s"]
        return {
            "workload": self.workload,
            "inputs": provenance,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "per_layer": per_layer,
        }


def report(result: dict, trace: bool) -> dict:
    """Print the metric table of one workload; return its JSON metrics."""
    table = result["per_layer"] if trace else result["metrics"]
    unit_of = per_layer_unit if trace else END_TO_END_UNITS.__getitem__
    name = result["workload"]
    print(f"{name}: {result['attempted']} attempted, {result['failed']} failed")
    if trace:
        print(f"{name}: note: hierarchy.reads are counted and timed, not spanned")
    out = {}
    for metric, value in table.items():
        unit = unit_of(metric)
        print(f"{name}:   {metric:<44} {value:>16.6f} {unit}")
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOAD_INPUTS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ontocrawl" / "__init__.py").is_file():
        print(f"perfbench: no ontocrawl package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    names = list(inputs.WORKLOAD_INPUTS) if args.workload == "all" else [args.workload]
    results = [Run(name, args.seed, args.seconds, bool(args.trace)).execute() for name in names]
    metrics: dict[str, dict] = {}
    for result in results:
        table = report(result, bool(args.trace))
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in table.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
