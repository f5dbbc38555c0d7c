"""Command-line surface: subcommands, exit codes, JSON output contracts."""

import json

import pytest

from conftest import (
    mst_example_graph,
    pst_case_i_graph,
    pst_case_ii_graph,
    two_arc_layer_graph,
)
import mixedcirc.cli
import mixedcirc.harness
from mixedcirc import mst_sufficient_condition, spec_to_json
from mixedcirc.cli import main


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
    monkeypatch.setattr(mixedcirc.harness, "classify_mst", mst_sufficient_condition)
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "mst"])
    assert code == 1
    payload = json.loads(out)
    assert payload["mst_positive"] == 4
    assert len(payload["mismatches"]) == 2
    for row in payload["mismatches"]:
        assert (row["classifier"], row["valuation"], row["numeric"]) == (False, True, True)


def test_crosscheck_failed_numeric_check_exits_one(capsys, monkeypatch):
    # a witness failing the numeric check is a mismatch row, not a traceback
    monkeypatch.setattr(
        mixedcirc.harness, "verify_numeric", lambda *args: (False, 1 + 0j, 0.5)
    )
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "8", "--mode", "mst"])
    assert code == 1
    payload = json.loads(out)
    assert len(payload["mismatches"]) == payload["mst_positive"] > 0
    for row in payload["mismatches"]:
        assert row["numeric"] is False


def test_crosscheck_budget_error(capsys):
    code, out, _ = run(capsys, ["crosscheck", "--n-max", "16", "--budget", "3"])
    assert code == 2
    assert "error" in json.loads(out)


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
    code, out, _ = run(capsys, ["search", "--n", "1"])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["check-pst", "check-mst", "crosscheck"])
def test_tol_must_be_finite_and_positive(tmp_path, capsys, command, tol):
    # --tol 0 used to end a transfer-positive check in a ConsistencyError,
    # and crosscheck --n-max 8 --tol 0 in false mismatches
    path = write_spec(tmp_path, pst_case_i_graph())
    args = ["--n-max", "8"] if command == "crosscheck" else ["--spec", path]
    code, out, _ = run(capsys, [command, *args, "--tol", tol])
    assert code == 2
    assert json.loads(out)["error"]["type"] == "input"


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
