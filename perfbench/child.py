"""One cold CLI process of the benchmark.

    python3 perfbench/child.py SPAWN_TIME MODE COMMANDS_JSON

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process, so set-up runs from interpreter start to `import qsym.cli` done.
MODE is `probe` (import only), `run` (call `qsym.cli.main` on each argv in
COMMANDS_JSON with stdout captured) or `trace` (the same with the span tracer
installed around the calls). One JSON report is written to stdout.
"""

import sys
import time

import qsym.cli

_READY = time.monotonic()

import io  # noqa: E402  (after the set-up clock stops)
import json  # noqa: E402
import resource  # noqa: E402


def _run_commands(commands):
    outputs = []
    wall = 0.0
    real_stdout = sys.stdout
    for argv in commands:
        buf = io.StringIO()
        sys.stdout = buf
        error = None
        start = time.perf_counter()
        try:
            code = qsym.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed sample, not a harness error
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        finally:
            wall += time.perf_counter() - start
            sys.stdout = real_stdout
        outputs.append({"code": code, "stdout": buf.getvalue(), "error": error})
    return outputs, wall


def main():
    spawn, mode, commands = float(sys.argv[1]), sys.argv[2], json.loads(sys.argv[3])
    report = {"setup_s": _READY - spawn}
    if mode != "probe":
        tracer = None
        if mode == "trace":
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            outputs, wall = _run_commands(commands)
        finally:
            if tracer is not None:
                tracer.uninstall()
        report["outputs"] = outputs
        report["wall_s"] = wall
        if tracer is not None:
            report["layers"] = tracer.layer_metrics()
            report["spans"] = tracer.spans
            report["wrappers_left"] = tracer.leftover_wrappers()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report["cpu_s"] = usage.ru_utime + usage.ru_stime
    report["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
