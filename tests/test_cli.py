"""Command-line surface: subcommands, exit codes, JSON output contracts."""

import json
import re

import pytest

from conftest import (
    failing_verify_rows,
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    two_arc_layer_graph,
    unit_step,
)
import mixedcirc.cli
import mixedcirc.harness
import mixedcirc.transfer
from mixedcirc import spec_to_json
from mixedcirc.cli import main
from mixedcirc.numthy import MAX_N
from mixedcirc.transfer import mst_sufficient_rows


def write_spec(tmp_path, spec, name="graph.json"):
    path = tmp_path / name
    path.write_text(spec_to_json(spec), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ spectrum

def test_spectrum_golden_output(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_i_graph())
    code, out, err = run(capsys, ["spectrum", "--spec", path])
    assert code == 0
    assert out == '{"gamma":[4,2,0,-2,-4,2,0,-2],"n":8,"schema":1}\n'
    assert err  # human summary on the other stream


def test_spectrum_output_is_reproducible(tmp_path, capsys):
    path = write_spec(tmp_path, mst_example_graph())
    _, first, _ = run(capsys, ["spectrum", "--spec", path])
    _, second, _ = run(capsys, ["spectrum", "--spec", path])
    assert first == second


# ----------------------------------------------------------------- check-pst

def test_check_pst_antipodal(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_i_graph())
    code, out, _ = run(capsys, ["check-pst", "--spec", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["kind"] == "antipodal_pst"
    assert payload["pair"] == [0, 4]
    assert payload["m"] == 1
    assert payload["t_prime"] == {"p": 1, "q": 4}
    assert payload["residual"] < 1e-9
    re, im = payload["phase"]["re"], payload["phase"]["im"]
    assert abs((re * re + im * im) - 1) < 1e-9


def test_check_pst_explicit_pair(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_i_graph())
    code, out, _ = run(capsys, ["check-pst", "--spec", path, "--pair", "0", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "quarter_pst"
    assert payload["t_prime"] == {"p": 3, "q": 8}


def test_check_pst_negative_graph(tmp_path, capsys):
    path = write_spec(tmp_path, two_arc_layer_graph())
    code, out, _ = run(capsys, ["check-pst", "--spec", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "none"
    assert payload["t_prime"] is None


def test_check_pst_pair_validation(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_i_graph())
    for pair in (("0", "0"), ("0", "9")):
        code, out, _ = run(capsys, ["check-pst", "--spec", path, "--pair", *pair])
        assert code == 2
        assert "error" in json.loads(out)


# ----------------------------------------------------------------- check-mst

def test_check_mst_positive(tmp_path, capsys):
    path = write_spec(tmp_path, mst_example_graph())
    code, out, _ = run(capsys, ["check-mst", "--spec", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "mst"
    assert payload["pair"] == [0, 4, 8, 12]
    assert payload["t_prime"] == {"p": 1, "q": 8}


def test_check_mst_negative(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_ii_graph())
    code, out, _ = run(capsys, ["check-mst", "--spec", path])
    assert code == 0
    assert json.loads(out)["kind"] == "none"


# ------------------------------------------------------- verdict goldens

# stdout bytes of check-pst (antipodal pair, --pair 0 1, --pair 1 3) and
# check-mst on fixed specs covering every verdict kind; the residual and the
# rounded phase are pinned to the last digit, so a drift in the numeric check
# shows
VERDICT_ARGS = (
    ["check-pst"],
    ["check-pst", "--pair", "0", "1"],
    ["check-pst", "--pair", "1", "3"],
    ["check-mst"],
)
VERDICT_GOLDENS = [
    ('{"B": [1], "n": 5}', [
        '{"kind":"none","m":null,"pair":[],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
    ('{"D": [1], "n": 4, "sigma": {"1": 1}}', [
        '{"kind":"antipodal_pst","m":1,"pair":[0,2],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"antipodal_pst","m":1,"pair":[1,3],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1,2,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
    ('{"B": [1], "D": [2], "n": 8, "sigma": {"2": 1}}', [
        '{"kind":"antipodal_pst","m":1,"pair":[0,4],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"quarter_pst","m":1,"pair":[1,3],"phase":{"im":0.0,"re":-1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":8}}',
        '{"kind":"mst","m":1,"pair":[0,2,4,6],"phase":{"im":0.0,"re":-1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":8}}',
    ]),
    ('{"B": [2, 4], "D": [1], "n": 8, "sigma": {"1": -1}}', [
        '{"kind":"antipodal_pst","m":2,"pair":[0,4],"phase":{"im":0.707106781187,"re":-0.707106781187},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":8}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[0,2,4,6],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
    ('{"B": [1], "D": [2, 4], "n": 16, "sigma": {"2": 1, "4": -1}}', [
        '{"kind":"antipodal_pst","m":1,"pair":[0,8],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"mst","m":1,"pair":[0,4,8,12],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":8}}',
    ]),
    ('{"B": [4, 8, 16, 24, 32, 48], "D": [2, 3, 6, 12], "n": 96, "sigma": {"12": 1, "2": -1, "3": 1, "6": -1}}', [
        '{"kind":"antipodal_pst","m":2,"pair":[0,48],"phase":{"im":0.707106781187,"re":-0.707106781187},"residual":1.1102230246251565e-16,"schema":1,"t_prime":{"p":1,"q":8}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[0,24,48,72],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
    ('{"B": [1, 4, 16, 32, 48], "D": [2, 6, 12, 24, 96, 192], "n": 768, "sigma": {"12": -1, "192": 1, "2": -1, "24": 1, "6": -1, "96": -1}}', [
        '{"kind":"antipodal_pst","m":1,"pair":[0,384],"phase":{"im":-0.0,"re":1.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[0,192,384,576],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
    ('{"B": [512], "n": 1024}', [
        '{"kind":"antipodal_pst","m":1,"pair":[0,512],"phase":{"im":1.0,"re":0.0},"residual":0.0,"schema":1,"t_prime":{"p":1,"q":4}}',
        '{"kind":"none","m":null,"pair":[0,1],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[1,3],"phase":null,"residual":null,"schema":1,"t_prime":null}',
        '{"kind":"none","m":null,"pair":[0,256,512,768],"phase":null,"residual":null,"schema":1,"t_prime":null}',
    ]),
]


@pytest.mark.parametrize("spec, lines", VERDICT_GOLDENS, ids=[s for s, _ in VERDICT_GOLDENS])
def test_verdict_stdout_is_pinned(tmp_path, capsys, spec, lines):
    path = tmp_path / "graph.json"
    path.write_text(spec, encoding="utf-8")
    for argv, line in zip(VERDICT_ARGS, lines, strict=True):
        code, out, _ = run(capsys, [*argv, "--spec", str(path)])
        assert (code, out) == (0, line + "\n"), argv


# -------------------------------------------------------------------- search

def test_search_output(capsys):
    code, out, _ = run(capsys, ["search", "--n", "8", "--mode", "mst"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert {(tuple(s["B"]), tuple(s["D"])) for s in payload["specs"]} == {
        ((), (1, 2)),
        ((1,), (2,)),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4096"],  # 8,388,608 specs
        ["--n", "720720"],  # 2^239 subsets of its proper divisors alone
        ["--n", "16", "--budget", "100"],  # 128 specs
    ],
)
def test_search_over_budget_is_an_input_error(capsys, argv):
    code, out, _ = run(capsys, ["search", *argv])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "input"
    assert "exceed budget" in payload["error"]["message"]


def test_search_budget_flag_admits_a_larger_order(capsys):
    code, out, _ = run(capsys, ["search", "--n", "16", "--mode", "mst", "--budget", "128"])
    assert code == 0
    assert json.loads(out)["count"] == 24


def test_search_is_byte_identical_across_runs(capsys):
    _, first, _ = run(capsys, ["search", "--n", "16", "--mode", "pst"])
    _, second, _ = run(capsys, ["search", "--n", "16", "--mode", "pst"])
    assert first == second


# ---------------------------------------------------------------- crosscheck

def test_crosscheck_clean_sweep_exits_zero(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "pst"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == []
    assert payload["specs_checked"] == 40
    assert "wall_time" not in payload  # stdout stays byte-stable


def test_crosscheck_disagreement_exits_one(capsys, monkeypatch):
    # a classifier narrower than the truth (the sufficient-only condition)
    # yields the two order-8 mismatches and exit code 1
    monkeypatch.setattr(mixedcirc.harness, "classify_mst_rows", mst_sufficient_rows)
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "mst"])
    assert code == 1
    payload = json.loads(out)
    assert payload["mst_positive"] == 4
    assert len(payload["mismatches"]) == 2
    for row in payload["mismatches"]:
        assert (row["classifier"], row["valuation"], row["numeric"]) == (False, True, True)


def test_crosscheck_failed_numeric_check_exits_one(capsys, monkeypatch):
    # a witness failing the numeric check is a mismatch row, not a traceback
    monkeypatch.setattr(mixedcirc.transfer, "verify_rows", failing_verify_rows)
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "mst"])
    assert code == 1
    payload = json.loads(out)
    assert len(payload["mismatches"]) == payload["mst_positive"] > 0
    for row in payload["mismatches"]:
        assert row["numeric"] is False


def test_crosscheck_row_off_the_pair_restriction_exits_one(capsys, monkeypatch):
    # a spec whose feasible differences stray off the quarter points is a
    # mismatch row with "restriction": false, not a traceback
    monkeypatch.setattr(mixedcirc.transfer, "_step", unit_step)
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "pst"])
    assert code == 1
    payload = json.loads(out)
    assert payload["mismatches"]
    for row in payload["mismatches"]:
        assert (row["numeric"], row["restriction"]) == (True, False)


def test_crosscheck_reports_progress_per_order_on_stderr(capsys, monkeypatch):
    # one stderr line per order: the order, the specs and mismatches so far
    # and the rate; stdout holds the one JSON document it held without them
    monkeypatch.setattr(mixedcirc.harness, "classify_mst_rows", mst_sufficient_rows)
    code, out, err = run(capsys, ["crosscheck", "--n-max", "16", "--mode", "mst"])
    assert code == 1
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    progress = [line for line in err.splitlines() if line.startswith("crosscheck mst: ")]
    pattern = r"crosscheck mst: order (\d+) done, (\d+) specs, \d+ specs/s, (\d+) mismatch\(es\)"
    got = [tuple(map(int, re.fullmatch(pattern, line).groups())) for line in progress]
    assert got == [(8, 32, 2), (16, 160, len(payload["mismatches"]))]
    assert payload["specs_checked"] == 160 and len(payload["mismatches"]) > 2


def test_crosscheck_budget_error(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "16", "--budget", "3"])
    assert code == 2
    assert "error" in json.loads(out)


@pytest.mark.parametrize("argv", [["--n-max", "0"], ["--n-max", "-5", "--mode", "mst"]])
def test_crosscheck_n_max_below_the_first_order_exits_two(capsys, argv):
    code, out, _ = run(capsys, ["crosscheck", *argv])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


# -------------------------------------------------------------------- export

def test_export_dot(tmp_path, capsys):
    path = write_spec(tmp_path, pst_case_i_graph())
    code, out, _ = run(capsys, ["export", "--spec", path, "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph mixedcirc_8 {")
    assert "[dir=none];" in out


def test_export_json_round_trips(tmp_path, capsys):
    spec = mst_example_graph()
    path = write_spec(tmp_path, spec)
    code, out, _ = run(capsys, ["export", "--spec", path, "--format", "json"])
    assert code == 0
    assert out == spec_to_json(spec) + "\n"


# ------------------------------------------------------------- error surface

def test_malformed_spec_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["spectrum", "--spec", str(path)])
    assert code == 2
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["error"]["type"] == "input"
    assert err.startswith("error:")


def test_invalid_spec_contents(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n":6,"B":[],"D":[1],"sigma":{"1":1}}', encoding="utf-8")
    code, out, _ = run(capsys, ["check-pst", "--spec", str(path)])
    assert code == 2
    assert "error" in json.loads(out)


def test_boolean_spec_fields_are_input_errors(tmp_path, capsys):
    for text in (
        '{"n": true}',
        '{"n":8,"B":[true,4]}',
        '{"n":8,"D":[2],"sigma":{"2":true}}',
    ):
        path = tmp_path / "bool.json"
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, ["spectrum", "--spec", str(path)])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "input"


def test_undecodable_spec_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 8\xff}')
    code, out, _ = run(capsys, ["spectrum", "--spec", str(path)])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


def test_search_order_below_two_is_an_input_error(capsys):
    # and so is an order over the cap; both keep their messages
    for n, message in (
        (1, "enumeration needs n >= 2, got 1"),
        (MAX_N + 1, f"modulus {MAX_N + 1} exceeds supported cap {MAX_N}"),
    ):
        code, out, _ = run(capsys, ["search", "--n", str(n)])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "input", "message": message}


def test_internal_value_error_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    # a fault inside a decider must surface, not be reported as exit 2
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(mixedcirc.cli, "antipodal_verdict", broken)
    path = write_spec(tmp_path, pst_case_i_graph())
    with pytest.raises(ValueError, match="internal fault"):
        main(["check-pst", "--spec", path])
    assert capsys.readouterr().out == ""


def test_missing_file(capsys):
    code, out, _ = run(capsys, ["spectrum", "--spec", "/nonexistent/g.json"])
    assert code == 2
    assert "error" in json.loads(out)


def test_bad_usage_exits_two(capsys):
    assert run(capsys, ["no-such-command"])[0] == 2
    assert run(capsys, ["export", "--spec", "x", "--format", "png"])[0] == 2
    # the numeric tolerance is fixed: there is no --tol to set
    assert run(capsys, ["check-pst", "--spec", "x", "--tol", "1e-9"])[0] == 2


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # the parser is built once per process, and a call after any other gives
    # the stdout and exit code of the same call on a freshly built parser:
    # no option value, default or usage error carries over
    path = write_spec(tmp_path, pst_case_i_graph())
    sequences = [
        (["check-pst", "--spec", path, "--pair", "0", "2"], ["check-pst", "--spec", path], 0),
        (["crosscheck", "--n-max", "16", "--budget", "3"], ["crosscheck", "--n-max", "16"], 2),
        (["search", "--n", "8", "--mode", "mst"], ["search", "--n", "8"], 0),
        (["crosscheck", "--mode", "all"], ["crosscheck", "--n-max", "16", "--mode", "mst"], 2),
    ]
    build = mixedcirc.cli._build_parser
    for first, then, first_code in sequences:
        build.cache_clear()
        fresh = run(capsys, then)[:2]
        build.cache_clear()
        assert run(capsys, first)[0] == first_code
        assert run(capsys, then)[:2] == fresh, then
        assert build.cache_info().misses == 1
