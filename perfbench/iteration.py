"""One benchmark iteration in a fresh process.

    python3 perfbench/iteration.py SPEC.json RESULT.json

SPEC holds ``mode`` ("setup" or "run"), ``workload``, ``fixture``,
``out_dir``, ``seed``, ``trace`` and ``trace_path``.  The package import is
timed before the benchmark's own modules are loaded, so ``setup_s`` carries
the import cost a user pays.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import ontocrawl.cli  # noqa: F401  (timed as part of set-up)

    import_s = time.perf_counter() - start

    import json
    from pathlib import Path

    import workloads

    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    args = (spec["workload"], Path(spec["fixture"]), Path(spec["out_dir"]), spec["seed"])
    if spec["mode"] == "setup":
        result = {"setup_s": import_s + workloads.setup_only(*args)}
    else:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer()
        result = workloads.run_iteration(*args, tracer=tracer, setup_s=import_s)
        if tracer is not None:
            tracer.write(spec["trace_path"])
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
