"""The argparse front end: output shapes and exit codes."""

import doctest
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from buchi4.cli import build_parser, main
from buchi4.search import records_csv, records_json, run_pipeline

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_examples(capsys):
    code, out, _ = run(capsys, "classify", "6", "23", "32", "39")
    assert code == 0 and out.strip() == "Xi(n=1, t=0)"
    code, out, _ = run(capsys, "classify", "1", "2", "3", "4")
    assert code == 0 and out.strip() == "Trivial(x=0)"
    code, out, _ = run(capsys, "classify", "59", "630", "889", "1088")
    assert code == 0 and out.strip() == "Sporadic"


def test_classify_rejects_off_surface_input(capsys):
    code, _, err = run(capsys, "classify", "1", "2", "2", "1")
    assert code == 1
    assert "error:" in err


def test_xi_polynomials_and_values(capsys):
    code, out, _ = run(capsys, "xi", "--n", "1")
    assert code == 0
    assert out.splitlines()[0] == "x1 = 2t^3 + 12t^2 + 19t + 6"
    code, out, _ = run(capsys, "xi", "--n", "2", "--t", "0")
    assert code == 0 and out.split() == ["59", "228", "317", "386"]
    code, out, _ = run(capsys, "xi", "--n", "0", "--t", "5")
    assert code == 0 and out.split() == ["6", "7", "8", "9"]
    code, _, err = run(capsys, "xi", "--n", "-1")
    assert code == 1 and "negative index" in err


def test_search_csv(capsys):
    code, out, _ = run(capsys, "search", "--x2-max", "100", "--classify", "--extend")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x1,x2,x3,x4,classification,extends_left,extends_right"
    assert lines[1] == "6,23,32,39,xi:1:0,,"
    assert lines[2] == "16,87,122,149,r:4:6,,"
    assert lines[3] == "39,70,91,108,xi:1:1,,"
    assert len(lines) == 4


def test_search_json_without_classification(capsys):
    # what search did not compute has no key, not a null
    code, out, _ = run(capsys, "search", "--x2-max", "50", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"x1": 6, "x2": 23, "x3": 32, "x4": 39}]
    code, out, _ = run(capsys, "search", "--x2-max", "50", "--extend", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"x1": 6, "x2": 23, "x3": 32, "x4": 39, "extends_left": None, "extends_right": None}
    ]


def test_search_csv_writes_only_the_computed_columns(capsys):
    want = {
        (): ["x1,x2,x3,x4", "6,23,32,39"],
        ("--classify",): ["x1,x2,x3,x4,classification", "6,23,32,39,xi:1:0"],
        ("--extend",): ["x1,x2,x3,x4,extends_left,extends_right", "6,23,32,39,,"],
    }
    for flags, lines in want.items():
        code, out, _ = run(capsys, "search", "--x2-max", "50", *flags)
        assert code == 0 and out.splitlines() == lines, flags


def test_search_output_is_the_library_records(capsys):
    records = run_pipeline(700)
    code, out, _ = run(capsys, "search", "--x2-max", "700", "--classify", "--extend")
    assert code == 0
    assert out.splitlines() == list(records_csv(records))
    code, out, _ = run(
        capsys, "search", "--x2-max", "700", "--classify", "--extend",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == records_json(records)


def test_a_closed_pipe_ends_the_output_quietly():
    # `buchi4 xi --n 300` writes about 800 KB, far more than a pipe holds, so
    # the write fails once the reader has closed its end
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "buchi4.cli", "xi", "--n", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(10) == b"x1 = 20370"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == b""


def test_descend_prints_the_chain(capsys):
    code, out, _ = run(capsys, "descend", "5781", "22342", "31063", "37824")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(5781, 22342, 31063, 37824)"
    assert lines[-2] == "(1, 2, 3, 4)"
    assert lines[-1] == "verdict: Xi(n=4, t=0)"


def test_curve_output(capsys):
    code, out, _ = run(capsys, "curve", "--n", "1", "--side", "right")
    assert code == 0
    assert (
        out.strip()
        == "4t^6 + 80t^5 + 620t^4 + 2400t^3 + 4905t^2 + 5020t + 2020"
    )
    code, out, _ = run(
        capsys, "curve", "--n", "1", "--side", "left", "--squarefree",
        "--scan", "-4", "-1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "squarefree: yes"
    assert lines[2] == "genus: 2"
    assert lines[3] == "t,y,trivial"
    assert lines[4] == "-4,7,yes"
    code, out, _ = run(capsys, "curve", "--n", "3", "--side", "right", "--squarefree")
    assert code == 0
    assert out.splitlines()[1:] == ["squarefree: yes", "genus: 6"]


def test_a_bad_scan_range_prints_nothing_to_stdout(capsys):
    code, out, err = run(capsys, "curve", "--n", "1", "--side", "right", "--scan", "5", "1")
    assert code == 1
    assert out == ""
    assert err == "error: empty range\n"


def test_table_modes(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 121
    assert lines[0] == "1 59 630 889 1088"

    code, out, _ = run(capsys, "table", "--plot-data")
    assert code == 0
    assert out.splitlines()[0] == "59,1"

    code, out, _ = run(capsys, "table", "--compare", "--x2-bound", "700")
    assert code == 0
    assert "2 matches, 0 misses, 0 extras" in out

    code, _, err = run(capsys, "table", "--compare")
    assert code == 2 and "--x2-bound" in err

    code, out, err = run(capsys, "table", "--compare", "--x2-bound", "100", "--plot-data")
    assert code == 2 and not out
    assert "error: --plot-data cannot be combined with --compare" in err

    code, out, err = run(capsys, "table", "--x2-bound", "5")
    assert code == 2 and not out
    assert "error: --x2-bound requires --compare" in err


def test_verify_exits_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "pass" in out and "FAIL" not in out


def test_usage_errors_exit_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "1", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_readme_library_examples():
    # the `>>>` examples in the README run as a doctest
    result = doctest.testfile(
        str(README),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    assert result.attempted >= 7
    assert result.failed == 0


def _readme_examples():
    """(command line, shown output lines) for every `$ buchi4 ...` line of
    the README; the output is the lines that follow it up to a blank line,
    the next `$` line or the end of the code block."""
    examples = []
    shown = None
    for line in README.read_text().splitlines():
        if line.strip().startswith("$ buchi4 "):
            shown = []
            examples.append((line.strip()[2:], shown))
        elif shown is not None and line.strip() and not line.startswith("```"):
            shown.append(line)
        else:
            shown = None
    return examples


def test_readme_command_lines_parse(capsys):
    # every `$ buchi4 ...` example in the README is accepted by the parser,
    # and every one whose output the README shows prints that output; a
    # `...` line ends the comparison
    examples = _readme_examples()
    assert len(examples) >= 10
    parser = build_parser()
    shown = 0
    for line, want in examples:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command line rejected: {line}")
        if not want:
            continue
        shown += 1
        code, out, _ = run(capsys, *argv)
        assert code == 0, line
        got = out.splitlines()
        if want[-1] == "...":
            want = want[:-1]
            got = got[: len(want)]
        assert got == want, line
    assert shown == 10
