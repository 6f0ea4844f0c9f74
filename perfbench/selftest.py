"""Fast self-test of the benchmark harness on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Run from the root of a qsym checkout. Checks that tracing changes no output
(traced and untraced stdout are byte-identical), that layer counts repeat
exactly across two traced runs, that no wrapper stays installed after a
traced run, and that the leftover-wrapper check itself sees an installed
tracer. Exit code 0 when all hold, 1 otherwise, 2 without qsym sources.
"""

import sys

from run import ROOT, has_sources, spawn

TINY = [["table", "--max-rank", "2", "--dim-budget", "16"], ["qsl2", "braided", "--l", "1"]]


def _counts(report):
    return {k: v for k, v in report["layers"].items() if isinstance(v, int)}


def check_children():
    reports = {}
    for label, mode in (("untraced", "run"), ("traced 1", "trace"), ("traced 2", "trace")):
        report, problem = spawn(mode, TINY)
        if problem:
            return ["%s: %s" % (label, problem)]
        reports[label] = report
    problems = []
    plain = [(o["code"], o["stdout"]) for o in reports["untraced"]["outputs"]]
    if any(code != 0 for code, _ in plain):
        problems.append("untraced exit codes %r" % ([c for c, _ in plain],))
    for label in ("traced 1", "traced 2"):
        rep = reports[label]
        if [(o["code"], o["stdout"]) for o in rep["outputs"]] != plain:
            problems.append("%s: stdout or exit code differs from untraced" % label)
        if rep["wrappers_left"]:
            problems.append("%s: %d wrappers left installed" % (label, rep["wrappers_left"]))
    one, two = _counts(reports["traced 1"]), _counts(reports["traced 2"])
    if one != two:
        problems.append("counts differ: %s" % sorted(k for k in one if one[k] != two.get(k)))
    for key in ("classify.rows", "qsl2.braided_flatness.calls", "scalars.QRat.new",
                "rootsys.weight_multiplicities.calls", "cli.main.calls"):
        if not one.get(key):
            problems.append("traced run saw no %s" % key)
    return problems


def check_leftover_detector():
    """An installed tracer must be visible to the leftover check, and gone after."""
    sys.path.insert(0, str(ROOT / "src"))
    import qsym.cli  # noqa: F401  (loads every qsym module the tracer patches)
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        installed = Tracer.leftover_wrappers()
    finally:
        tracer.uninstall()
    problems = []
    if not installed:
        problems.append("leftover check missed the installed wrappers")
    if Tracer.leftover_wrappers():
        problems.append("uninstall left wrappers behind")
    return problems


def main():
    if not has_sources():
        return 2
    problems = check_children() + check_leftover_detector()
    for problem in problems:
        print("FAIL " + problem)
    print("selftest %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
