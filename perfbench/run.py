"""qsym benchmark: cold `qsym` CLI runs on three workloads, outputs verified.

    python3 perfbench/run.py --workload {sweep,e6,braided,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qsym checkout. Each sample is a fresh child process
(`perfbench/child.py`) that imports `qsym` and calls `qsym.cli.main`, so every
module cache starts cold, as it does for a user of the command line. Samples
run one at a time: a closed loop with a single client and no worker pool.
Samples are taken while the next one should end within half a sample of S
seconds (at least one).

`--trace 0` reports the end-to-end metrics (medians over the samples) and
`--trace 1` the per-layer metrics of METRICS.md: it alternates an untraced and
a traced sample, so the tracing overhead is traced minus untraced `wall_s`.
The workloads are exact computations; `--seed` is recorded with the result
and draws nothing. Human-readable lines come first; the last line of stdout
is the JSON result. Side files go to `perfbench/out/`. Exit code 0 when every
output matched the recorded seed output, 1 when one did not, 2 when the
checkout holds no qsym sources.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
CHILD = HERE / "child.py"
CHILD_TIMEOUT_S = 170
# Import-only children per run, on top of the one set-up reading every sample gives.
SETUP_PROBES = 10


def _json_facts(check):
    """Wrap a check of the parsed stdout texts into one that reports problems."""
    def run(texts):
        try:
            return check([json.loads(t) for t in texts])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return ["output does not parse: %s" % exc]
    return run


@_json_facts
def _sweep_facts(docs):
    doc = docs[0]
    passing = sum(1 for row in doc["rows"] if row["passing"])
    problems = []
    if (doc["count"], len(doc["rows"]), passing) != (66, 66, 23):
        problems.append("sweep rows/passing %d/%d, want 66/23" % (len(doc["rows"]), passing))
    if doc["diff"] != {"missing": [], "extra": []}:
        problems.append("sweep differs from the paper list: %r" % (doc["diff"],))
    return problems


@_json_facts
def _e6_facts(docs):
    return ["E6 %s: schouten %r, ambients %r" % (d["lam"], d["schouten"], d["ambients"])
            for d in docs if not (d["schouten"] is True and d["ambients"] == ["E7:7"])]


@_json_facts
def _braided_facts(docs):
    d = docs[0]
    got = (d["dim_S2"], d["dim_L2"], d["dim_S3"], d["flat_through_degree"])
    return [] if got == (10, 6, 16, 2) else ["braided S2/L2/S3/flat %r, want (10, 6, 16, 2)" % (got,)]


# name -> (argv of each cli.main call, [(exit code, stdout sha256)] at the seed
# commit, readable facts). Why each workload exists is in BENCHMARK.json.
WORKLOADS = {
    "sweep": (
        [["table", "--max-rank", "4", "--dim-budget", "20", "--diff-paper"]],
        [(0, "a8a428322f1273f22ec7ccd2e2e88cffc4b9259a19eace5f87e60412aec42baf")],
        _sweep_facts,
    ),
    "e6": (
        [["classify", "--type", "E6", "--weight", "1,0,0,0,0,0", "--dim-budget", "27",
          "--extended"],
         ["classify", "--type", "E6", "--weight", "0,0,0,0,0,1", "--dim-budget", "27",
          "--extended"]],
        [(0, "e891f09da08175c9a8bd93e5716c1ba963a5665f24647647c67a2810b45b66be"),
         (0, "4da32a68a952bb6f25822a485794371dd216204eca1a1ee0378bf6a41c1ce1bf")],
        _e6_facts,
    ),
    "braided": (
        [["qsl2", "braided", "--l", "3"]],
        [(0, "16f362064a7b03eaa46224467e1c081c1a80cff6d6859cc52ed0c6c4bb193f4d")],
        _braided_facts,
    ),
}

# -- children -------------------------------------------------------------------

def spawn(mode, commands):
    """Run one child; returns (report or None, problem or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("QSYM_THREADS", None)  # the workloads run the CLI's default single thread
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(start), mode, json.dumps(commands)],
            cwd=str(ROOT), env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "child exceeded %d s" % CHILD_TIMEOUT_S
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return None, "child exited %d: %s" % (proc.returncode, tail[0])
    try:
        return json.loads(proc.stdout.splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "child printed no report"


def check_outputs(name, report):
    """Problems with one sample: exit codes, stdout hashes, facts, stray wrappers."""
    _, expected, facts = WORKLOADS[name]
    problems = []
    texts = []
    for i, (out, (code, sha)) in enumerate(zip(report["outputs"], expected)):
        if out["error"]:
            problems.append("call %d raised %s" % (i, out["error"]))
        if out["code"] != code:
            problems.append("call %d exited %r, want %d" % (i, out["code"], code))
        got = hashlib.sha256(out["stdout"].encode("utf-8")).hexdigest()
        if got != sha:
            problems.append("call %d stdout sha256 %s, want %s" % (i, got[:12], sha[:12]))
        texts.append(out["stdout"])
    if len(report["outputs"]) != len(expected):
        problems.append("%d outputs, want %d" % (len(report["outputs"]), len(expected)))
    elif not problems:
        problems.extend(facts(texts))
    if report.get("wrappers_left"):
        problems.append("%d trace wrappers still installed" % report["wrappers_left"])
    return problems


# -- one run --------------------------------------------------------------------

def measure(name, seconds, trace):
    """Sample `name` for about `seconds`; returns the raw record of the run."""
    commands = WORKLOADS[name][0]
    setups = []
    for _ in range(SETUP_PROBES):
        report, _ = spawn("probe", [])
        if report is not None:
            setups.append(report["setup_s"])
    plain, traced, problems = [], [], []
    attempted = failed = 0
    durations = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for mode in (("run", "trace") if trace else ("run",)):
            attempted += 1
            report, problem = spawn(mode, commands)
            found = [problem] if problem else check_outputs(name, report)
            if found:
                failed += 1
                problems.extend("%s sample %d: %s" % (mode, attempted, p) for p in found)
            if report is not None:
                setups.append(report["setup_s"])
                (traced if mode == "trace" else plain).append(report)
        durations.append(time.monotonic() - began)
        # start another sample only if it should end within half a sample of
        # the deadline, so a slow first sample does not leave a run with one
        if time.monotonic() - start + statistics.median(durations) / 2 > seconds:
            break
    # Cold runs of one command do the same work, so a count that differs from
    # the first traced sample's marks that sample as failed.
    for i, rep in enumerate(traced[1:], 2):
        drift = [k for k, v in traced[0]["layers"].items()
                 if isinstance(v, int) and rep["layers"][k] != v]
        if drift:
            failed += 1
            problems.append("traced sample %d: counts differ: %s" % (i, ", ".join(drift)))
    return {"plain": plain, "traced": traced, "setups": setups,
            "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end(raw):
    if not raw["plain"] or not raw["setups"]:
        return {}
    metrics = {key: statistics.median(r[key] for r in raw["plain"])
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(raw["setups"])
    return metrics


def per_layer(raw):
    """Medians of the traced samples' layer metrics (counts are exact), plus
    the tracing overhead."""
    traced = raw["traced"]
    if not traced or not raw["plain"]:
        return {}
    metrics = {k: (v if isinstance(v, int) else statistics.median(r["layers"][k] for r in traced))
               for k, v in traced[0]["layers"].items()}
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(r["wall_s"] for r in raw["plain"]))
    return metrics


def has_sources():
    """True when the checkout holds qsym's sources; says so on stderr if not."""
    if (ROOT / "src" / "qsym" / "cli.py").is_file():
        return True
    sys.stderr.write("error: no qsym sources under %s\n" % (ROOT / "src"))
    return False


def metadata():
    """Facts about the code and machine measured; recorded, never compared."""
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"git_hash": _git_hash(), "src_lines": src_lines,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def _git_hash():
    """HEAD's commit id read from `.git`, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- reporting ------------------------------------------------------------------

def declared(section):
    """Metric name -> unit for one section of BENCHMARK.json, in its order."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def report_run(name, args, raw, meta):
    """Print the readable summary, write the side files, return the metrics."""
    trace = bool(args.trace)
    computed = per_layer(raw) if trace else end_to_end(raw)
    units = declared("per_layer" if trace else "end_to_end")
    metrics = {key: computed[key] for key in units} if computed else {}
    samples = len(raw["traced"] if trace else raw["plain"])
    print("workload %s  seed %d  %s  samples %d (setup readings %d)" % (
        name, args.seed, "traced" if trace else "untraced", samples, len(raw["setups"])))
    for key, value in metrics.items():
        print("  %-48s %14.6g %s" % (key, value, units[key]))
    print("  %-48s %14.6g (%d/%d)" % ("fail_frac", raw["failed"] / max(raw["attempted"], 1),
                                      raw["failed"], raw["attempted"]))
    for problem in raw["problems"]:
        print("  FAIL " + problem)
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metadata": meta, "metrics": computed,
              "attempted": raw["attempted"], "failed": raw["failed"],
              "problems": raw["problems"], "setups": raw["setups"],
              "samples": [{k: v for k, v in r.items() if k not in ("outputs", "spans")}
                          for r in raw["plain"] + raw["traced"]]}
    with open(OUT_DIR / ("result-%s.json" % stem), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if trace:
        with open(OUT_DIR / ("spans-%s.json" % stem), "w") as fh:
            json.dump([r["spans"] for r in raw["traced"]], fh)
    return {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not has_sources():
        return 2
    meta = metadata()
    print("metadata " + json.dumps(meta, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        raw = measure(name, args.seconds, args.trace)
        got = report_run(name, args, raw, meta)
        prefix = name + "." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
        attempted += raw["attempted"]
        failed += raw["failed"]
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
