"""Command line behaviour: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from qsym import cli
from qsym.cli import main


def run_cli(argv, capsys):
    """Invoke main() in process, returning (exit_code, stdout text)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, out


def test_classify_fundamental_pair(capsys):
    """The rank two special linear pair with first fundamental weight passes."""
    code, out = run_cli(["classify", "--type", "A", "--rank", "2",
                         "--weight", "1,0"], capsys)
    assert code == 0
    row = json.loads(out)
    assert row["type"] == "A2"
    assert row["in_paper_list"] is True
    assert row["schouten"] is True
    assert row["geometrically_decomposable"] is True
    assert row["passing"] is True


def test_small_table_diff_is_clean(capsys):
    """The rank two sweep agrees with the recorded list, so exit code 0."""
    code, out = run_cli(["table", "--max-rank", "2", "--dim-budget", "16",
                         "--diff-paper"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["diff"] == {"missing": [], "extra": []}
    assert data["count"] == len(data["rows"]) > 0
    for row in data["rows"]:
        assert row["oracle_ok"] is True


def test_sigma_line_output(capsys):
    """sigma prints a single expression line in the canonical rendering."""
    code, out = run_cli(["qsl2", "sigma", "--left", "X+", "--right", "X-"],
                        capsys)
    assert code == 0
    assert out == "X-⊗X+ + (q^4 - 1)/(q^2) X0⊗X0\n"


def test_copoisson_line_output(capsys):
    """copoisson prints the classical cobracket of the requested element."""
    cases = [("X+", "H∧X+"), ("X-", "H∧X-"), ("X0", "0"), ("K", "0")]
    for name, expected in cases:
        code, out = run_cli(["qsl2", "copoisson", "--element", name], capsys)
        assert code == 0
        assert out.strip() == expected


def test_usage_error_exits_one(capsys):
    """Bad flags and missing subcommands exit 1, not the argparse default."""
    bad = [
        ["classify", "--type", "A", "--rank", "2"],
        ["table", "--max-rank", "2"],
        ["qsl2", "sigma", "--left", "X+", "--right", "Z"],
        ["frobnicate"],
    ]
    for argv in bad:
        code, _ = run_cli(argv, capsys)
        capsys.readouterr()
        assert code == 1, argv


def test_math_error_single_line(tmp_path, capsys):
    """Domain and output-file errors print one line naming the error type
    and exit 1."""
    cases = [
        (["classify", "--type", "A", "--rank", "2", "--weight", "0,0"],
         "NotDominant"),
        (["classify", "--type", "A", "--rank", "2", "--weight", "9,9",
          "--dim-budget", "16"], "BudgetExceeded"),
        (["roots", "--type", "Z", "--rank", "4"], "InvalidType"),
        # with --rank the type is one series letter, not a full label
        (["roots", "--type", "A2", "--rank", "2"], "InvalidType"),
        (["classify", "--type", "so5", "--rank", "2", "--weight", "1,0"], "InvalidType"),
        (["module", "--type", "A", "--rank", "2", "--weight", "1"],
         "ValueError"),
        (["qsl2", "copoisson", "--element", "X+", "--power", "0"], "ValueError"),
        (["qsl2", "copoisson", "--element", "X+", "--power", "-3"], "ValueError"),
        (["table", "--max-rank", "2", "--dim-budget", "-5"], "ValueError"),
        (["classify", "--type", "A2", "--weight", "1,0", "--dim-budget", "-5"],
         "ValueError"),
        (["table", "--max-rank", "0", "--dim-budget", "16"], "ValueError"),
        # a weight starting with a minus sign is a value, not an option
        (["module", "--type", "A", "--rank", "2", "--weight", "-1,0"],
         "NotDominant"),
        (["classify", "--type", "A", "--rank", "2", "--weight", "-1,0"],
         "NotDominant"),
        (["rmatrix", "--type", "A", "--rank", "2", "--module", "-1,0"],
         "NotDominant"),
        (["module", "--type", "A", "--rank", "2", "--weight", "1,0",
          "--out", str(tmp_path / "missing" / "x.json")], "FileNotFoundError"),
        # an empty --out is a path that cannot be opened, not a request for stdout
        (["roots", "--type", "A2", "--out", ""], "FileNotFoundError"),
        # product types are refused by name, not as an unparsable type
        (["roots", "--type", "A1xA1"], "InvalidType"),
        (["module", "--type", "A1xA1", "--weight", "1,0"], "InvalidType"),
        (["rmatrix", "--type", "A1xA1"], "InvalidType"),
        (["bd", "--type", "A1xA1"], "InvalidType"),
        (["double", "--type", "A1xA1"], "InvalidType"),
    ]
    for argv, errname in cases:
        code, out = run_cli(argv, capsys)
        assert code == 1, argv
        lines = out.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: %s:" % errname)
        if "A1xA1" in argv:
            assert "product type" in lines[0] and "not supported" in lines[0], argv
        if "--rank" in argv and errname == "InvalidType":
            spelling = argv[argv.index("--type") + 1]
            assert lines[0] == ("error: InvalidType: with --rank, --type must be one "
                                "series letter, got %r" % spelling), argv
    # a --rank out of range for the series names the type the same way on
    # every subcommand, whether or not it builds through the shared cache
    for cmd in ["roots", "rmatrix", "bd", "double"]:
        for letter, rank in [("A", "-1"), ("B", "1")]:
            argv = [cmd, "--type", letter, "--rank", rank]
            assert run_cli(argv, capsys) == (
                1, "error: InvalidType: no simple type %s%s\n" % (letter, rank)), argv
    # classify and table reject a budget below 1 with the same line
    assert run_cli(["classify", "--type", "A2", "--weight", "1,0", "--dim-budget", "-5"],
                   capsys) == run_cli(["table", "--max-rank", "2", "--dim-budget", "-5"], capsys)


def test_empty_module_weight_is_refused(capsys):
    """rmatrix --module '' is a weight that does not parse, refused like
    --module ,, with exit 1 and one error line, not read as an absent option
    (it printed the adjoint report with exit 0)."""
    for text in ["", ",,"]:
        argv = ["rmatrix", "--type", "A2", "--module", text]
        assert run_cli(argv, capsys) == (
            1, "error: ValueError: weight must be comma-separated integers, got %r\n"
            % text), argv


def test_module_commands_refuse_weights_over_the_dimension_budget(capsys):
    """module and rmatrix --module check the Weyl dimension against
    cli.MODULE_DIM_BUDGET before any Freudenthal run or module build: a
    weight of dimension 5 * 10^39 and A2 (40, 40), 68,921 dimensions, which
    ran without end, exit 1 with one error line, and the largest module the
    tests weigh, C3 (2, 2, 1) of 5,460 dimensions, is still in."""
    assert cli.MODULE_DIM_BUDGET == 10000
    refused = [
        (["module", "--type", "A2", "--weight", "99999999999999999999,0"],
         5000000000000000000050000000000000000000),
        (["rmatrix", "--type", "A2", "--module", "40,40"], 68921),
        (["module", "--type", "E8", "--weight", "1,0,0,0,0,0,0,1"], 779247),
    ]
    for argv, dim in refused:
        assert run_cli(argv, capsys) == (
            1, "error: BudgetExceeded: dim V = %d exceeds the budget 10000\n" % dim), argv
    code, out = run_cli(["module", "--type", "C3", "--weight", "2,2,1"], capsys)
    assert code == 0 and json.loads(out)["dim"] == 5460


def test_ints_read_from_text_are_ascii(capsys):
    """Every int the command line reads from text, a type's rank, a weight
    and every int option, is an optional sign and ASCII digits: the digits
    of other scripts, superscripts and underscores, which int() takes, exit
    1 with one error line (e٦ read E6, --rank ٣ read 3, --weight
    1_0,0 read (10, 0))."""
    refused = [
        (["roots", "--type", "e\u0666"], "InvalidType: cannot parse type 'e\u0666'"),
        (["roots", "--type", "A\u00b2"], "InvalidType: cannot parse type 'A\u00b2'"),
        (["module", "--type", "A2", "--weight", "\u0661,0"],
         "ValueError: weight must be comma-separated integers, got '\u0661,0'"),
        (["module", "--type", "A2", "--weight", "1_0,0"],
         "ValueError: weight must be comma-separated integers, got '1_0,0'"),
        (["rmatrix", "--type", "A2", "--module", "1,\u0660"],
         "ValueError: weight must be comma-separated integers, got '1,\u0660'"),
    ]
    for argv, line in refused:
        assert run_cli(argv, capsys) == (1, "error: %s\n" % line), argv
    # an int option, last in each argv, is refused by argparse: usage, then
    # one error line, on stderr
    usage = [
        ["roots", "--type", "A", "--rank", "\u0663"],
        ["table", "--dim-budget", "20", "--max-rank", "\u0663"],
        ["table", "--max-rank", "2", "--dim-budget", "2_0"],
        ["classify", "--type", "A2", "--weight", "1,0", "--dim-budget", "\u0663"],
        ["qsl2", "braided", "--l", "1_0"],
        ["qsl2", "braided", "--l", "2", "--max-degree", "\u0662"],
        ["qsl2", "copoisson", "--element", "X+", "--power", "\u0662"],
    ]
    for argv in usage:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 1 and captured.out == "", argv
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == ["error: argument %s: invalid ascii_int value: %r"
                          % (argv[-2], argv[-1])], argv


def test_internal_assertion_single_line(capsys, monkeypatch):
    """A failed internal invariant is one error line with exit 1, too."""
    def broken(args):
        raise AssertionError("bracket table is not antisymmetric")

    monkeypatch.setattr(cli, "_cmd_roots", broken)
    code, out = run_cli(["roots", "--type", "A", "--rank", "2"], capsys)
    assert code == 1
    assert out == "error: AssertionError: bracket table is not antisymmetric\n"


def test_alias_types_normalize(capsys):
    """so10 and sl3 map onto their canonical series labels."""
    for alias, label in [("so10", "D5"), ("sl3", "A2"), ("sp4", "C2")]:
        code, out = run_cli(["roots", "--type", alias], capsys)
        assert code == 0
        assert json.loads(out)["type"] == label


def test_output_is_deterministic_across_runs(capsys):
    """Table output is byte-identical with cold and with warm caches."""
    outs = []
    for _ in range(2):
        code, out = run_cli(["table", "--max-rank", "2", "--dim-budget", "16"],
                            capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_flag_writes_file(tmp_path, capsys):
    """--out sends the JSON to a file and leaves stdout empty."""
    target = tmp_path / "roots.json"
    code, out = run_cli(["roots", "--type", "A", "--rank", "1",
                         "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["type"] == "A1"
    assert data["positive_roots"] == 1


def test_qsl2_out_flag_belongs_to_the_subcommand(tmp_path, capsys):
    """qsl2 braided --l 1 --out PATH writes the file; --out before the qsl2
    subcommand is a usage error that writes nothing."""
    target = tmp_path / "braided.json"
    code, out = run_cli(["qsl2", "braided", "--l", "1", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["flat_through_degree"] == 3
    misplaced = tmp_path / "misplaced.json"
    code, out = run_cli(["qsl2", "--out", str(misplaced), "braided", "--l", "1"], capsys)
    assert code == 1
    assert out == ""
    assert not misplaced.exists()


def test_rmatrix_and_double_reports(capsys):
    """The standard r-matrix certifies and the double report is clean."""
    code, out = run_cli(["rmatrix", "--type", "A", "--rank", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["cybe_holds"] is True
    assert data["symmetric_part_invariant"] is True
    code, out = run_cli(["double", "--type", "A", "--rank", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 6
    assert data["jacobi_holds"] is True
    assert data["manin_triple"] is True


def test_bd_triples_count(capsys):
    """Triple enumeration is exposed with the expected count for A2."""
    code, out = run_cli(["bd", "--type", "A", "--rank", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["triples"]) == 3


def test_braided_report(capsys):
    """The flatness report round-trips through the JSON layer."""
    code, out = run_cli(["qsl2", "braided", "--l", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim_S2"] == 3
    assert data["dim_L2"] == 1
    assert data["dim_S3"] == 4
    assert data["flat_through_degree"] == 3


def test_braided_refuses_l_over_the_budget(capsys, monkeypatch):
    """qsl2 braided checks l against cli.BRAIDED_MAX_L before any
    computation: --l 1000, which ran without end, and --l 7 exit 1 with one
    error line and never reach braided_flatness; l = 6, the largest taken,
    reaches it."""
    assert cli.BRAIDED_MAX_L == 6
    reached = []

    def recording(l, max_degree=3):
        reached.append(l)
        return {"l": l}

    monkeypatch.setattr(cli.qsl2, "braided_flatness", recording)
    for l in (1000, 7):
        for extra in ([], ["--max-degree", "2"]):
            argv = ["qsl2", "braided", "--l", str(l)] + extra
            assert run_cli(argv, capsys) == (
                1, "error: BudgetExceeded: l = %d exceeds the budget 6\n" % l), argv
    assert reached == []
    assert run_cli(["qsl2", "braided", "--l", "6"], capsys) == (0, '{\n  "l": 6\n}\n')
    assert reached == [6]


def test_copoisson_refuses_a_power_over_the_budget(capsys, monkeypatch):
    """qsl2 copoisson checks --power against cli.COPOISSON_MAX_POWER before
    any computation: --power 1000, which ran without end, and --power 9
    exit 1 with one error line and never reach copoisson_limit; power 8,
    the largest taken, reaches it."""
    assert cli.COPOISSON_MAX_POWER == 8
    reached = []
    real = cli.qsl2.copoisson_limit

    def recording(elem):
        reached.append(elem)
        return real(elem)

    monkeypatch.setattr(cli.qsl2, "copoisson_limit", recording)
    for power in (1000, 9):
        for name in ("X0", "C", "1"):
            argv = ["qsl2", "copoisson", "--element", name, "--power", str(power)]
            assert run_cli(argv, capsys) == (
                1, "error: BudgetExceeded: power %d exceeds the budget 8\n" % power), argv
    assert reached == []
    code, _ = run_cli(["qsl2", "copoisson", "--element", "X+", "--power", "8"], capsys)
    assert code == 0 and len(reached) == 1


def test_donin_report(capsys):
    """The graded relation report carries brackets and the identity table."""
    code, out = run_cli(["qsl2", "donin"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["jacobi_holds"] is True
    assert data["normalization_vs_classical"] == "-2"
    assert data["poisson_brackets"]["{X+,X-}"] == {"X0 X0": "-4"}
    assert data["identity"]["-"]["C"] is True
    assert data["identity"]["+"]["2K^-2 - C"] is True
    assert len(data["relations"]) == 3


def _qsl2_golden_argv():
    xs = ("X+", "X-", "X0")
    argv = [["qsl2", "donin"]]
    argv += [["qsl2", "sigma", "--left", left, "--right", right, "--variant", variant]
             for left in xs for right in xs for variant in "+-"]
    argv += [["qsl2", "copoisson", "--element", name, "--power", power]
             for name in ("X+", "X-", "X0", "C", "E", "F", "K", "K^-1", "1")
             for power in "12"]
    argv += [["qsl2", "braided", "--l", str(l)] for l in range(1, 5)]
    return argv


# sha256 prefixes of the stdout of each _qsl2_golden_argv() run, in order
QSL2_GOLDEN = [
    "35de0696344e3cbf", "3278e707807fe821", "3278e707807fe821", "fb3782f6a3372a5a",
    "a0273c77de07cd8f", "2d285c28e3f2515a", "a47d1295e974e302", "6490f85477d3e01f",
    "b43d5ca70be5471f", "69310a5bf8775a2c", "69310a5bf8775a2c", "e44dbef2e0de0800",
    "0c0138b24bdabe17", "19b28b3270c3cccc", "60a501d7d49aa5e5", "12ace92d10237eb8",
    "0d25519313969752", "63f263a5b34976d3", "f007ea5093d49645", "b9062c7d0827f4da",
    "f91f1b728df085d6", "83e8c14dc6c453df", "150d62722336c4da", "9a271f2a916b0b6e",
    "9a271f2a916b0b6e", "9a271f2a916b0b6e", "9a271f2a916b0b6e", "b9062c7d0827f4da",
    "f91f1b728df085d6", "83e8c14dc6c453df", "150d62722336c4da", "9a271f2a916b0b6e",
    "9a271f2a916b0b6e", "9a271f2a916b0b6e", "9a271f2a916b0b6e", "9a271f2a916b0b6e",
    "9a271f2a916b0b6e", "313404076f054010", "c37da249478587e8", "16f362064a7b03ea",
    "0d42e0894e9b147b",
]


def test_qsl2_stdout_golden(capsys):
    """Every qsl2 subcommand prints byte-identical stdout and exits 0: donin,
    sigma on all nine ordered pairs in both variants, copoisson on every named
    element at powers 1 and 2, and braided for l = 1..4."""
    argvs = _qsl2_golden_argv()
    assert len(argvs) == len(QSL2_GOLDEN) == 41
    for argv, want in zip(argvs, QSL2_GOLDEN):
        code, out = run_cli(argv, capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, argv


def test_module_entry_point():
    """python -m invocation works end to end with the documented exit code."""
    # the child imports the same qsym as this process, installed or not
    src = os.path.dirname(os.path.dirname(cli.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + inherited if inherited else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "qsym.cli", "table", "--max-rank", "2",
         "--dim-budget", "16", "--diff-paper"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["diff"] == {"missing": [], "extra": []}


def test_cli_deterministic_cold_and_warm_property(capsys):
    """Small random argv for roots, module and classify on rank <= 3, with
    valid and invalid weights: a cold run (empty algebra cache) and a warm
    rerun in the same process print the same stdout and exit the same way."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from qsym import liealg

    ranks = {"A1": 1, "A2": 2, "A3": 3, "B3": 3, "C2": 2, "C3": 3, "G2": 2}

    def spelled(label):
        # "--type A3" or "--type A --rank 3"
        return st.sampled_from([["--type", label],
                                ["--type", label[0], "--rank", label[1:]]])

    def weight(rank):
        # a fundamental weight, any nonnegative one (zero included), then a
        # negative entry, a wrong length and text that is no weight at all
        return st.one_of(
            st.integers(0, rank - 1).map(lambda i: [int(k == i) for k in range(rank)]),
            st.lists(st.integers(0, 2), min_size=rank, max_size=rank),
            st.lists(st.integers(-1, 1), min_size=rank, max_size=rank),
            st.lists(st.integers(0, 1), min_size=rank + 1, max_size=rank + 1),
            st.just(["x"] * rank),
        ).map(lambda cs: ["--weight", ",".join(map(str, cs))])

    def argv_for(label):
        rank = ranks[label]
        return st.one_of(
            st.tuples(st.just(["roots"]), spelled(label)),
            st.tuples(st.just(["module"]), spelled(label), weight(rank)),
            st.tuples(st.just(["classify"]), spelled(label), weight(rank),
                      st.just(["--dim-budget", "15"])),
        ).map(lambda parts: [tok for part in parts for tok in part])

    @hypothesis.settings(max_examples=40, deadline=None, database=None,
                         derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(ranks)).flatmap(argv_for))
    def check(argv):
        liealg.shared_type.cache_clear()
        cold = run_cli(argv, capsys)
        warm = run_cli(argv, capsys)
        assert cold == warm, argv
        assert cold[0] in (0, 1), argv

    check()
