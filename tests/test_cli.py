import json
from pathlib import Path

import pytest

from circlegather.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def write_json(path, doc):
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


@pytest.fixture
def worked_config():
    return str(FIXTURES / "worked_example.json")


def run_config_doc(initial=None, **overrides):
    if initial is None:
        initial = json.loads((FIXTURES / "worked_example.json").read_text())
    doc = {
        "initial": initial,
        "policy": {"kind": "fsync"},
        "limits": {"max_events": 100000},
        "options": {"multiplicity_threshold": "pi/2"},
    }
    doc.update(overrides)
    return doc


def test_analyze_reports_class_and_leader(worked_config, capsys):
    assert main(["analyze", worked_config]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["class"] == "A"
    assert report["leader"] == "0/1"


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 1
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1


def test_analyze_rejects_illegal_configurations(tmp_path, capsys):
    symmetric = write_json(
        tmp_path / "sym.json",
        {"robots": [{"id": c, "pos": p} for c, p in
                    zip("abcd", ["0/1", "1/4", "1/2", "3/4"])]},
    )
    assert main(["analyze", symmetric]) == 2
    doubled = write_json(
        tmp_path / "dup.json",
        {"robots": [{"id": "a", "pos": "0/1"}, {"id": "b", "pos": "0/1"},
                    {"id": "c", "pos": "1/4"}]},
    )
    assert main(["analyze", doubled]) == 2


def test_run_gathers_and_writes_artifacts(tmp_path, capsys):
    rc = write_json(tmp_path / "run.json", run_config_doc())
    trace_path = tmp_path / "trace.jsonl"
    svg_path = tmp_path / "run.svg"
    code = main(["run", rc, "--trace", str(trace_path), "--render", str(svg_path)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["gathered"] is True
    lines = trace_path.read_text().splitlines()
    assert json.loads(lines[-1])["kind"] == "summary"
    assert svg_path.read_text().startswith("<svg")


def test_run_traces_are_byte_identical(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(policy={"kind": "async-random", "seed": 3}),
    )
    out = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        assert main(["run", rc, "--trace", str(path)]) == 0
        out.append(path.read_bytes())
    capsys.readouterr()
    assert out[0] == out[1]


def test_run_limit_exit_code_and_partial_trace(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json", run_config_doc(limits={"max_events": 5})
    )
    trace_path = tmp_path / "partial.jsonl"
    assert main(["run", rc, "--trace", str(trace_path)]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["limit_exceeded"] is True
    assert trace_path.exists()


def test_run_rejects_unknown_policy_and_threshold(tmp_path, capsys):
    rc = write_json(tmp_path / "p.json", run_config_doc(policy={"kind": "nope"}))
    assert main(["run", rc]) == 1
    rc = write_json(
        tmp_path / "t.json", run_config_doc(options={"multiplicity_threshold": "tau"})
    )
    assert main(["run", rc]) == 1


def test_run_accepts_wide_threshold_and_scripted_policy(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(
            options={"multiplicity_threshold": "pi"},
            policy={
                "kind": "scripted",
                "events": [
                    {"robot": "r0", "look": "0/1", "decide": "1/4"},
                    {"robot": "r1", "look": "0/1", "decide": "1/4"},
                ],
            },
        ),
    )
    # The short script parses and runs but cannot gather: exit 3.
    assert main(["run", rc]) == 3
    summary = json.loads(capsys.readouterr().out)
    assert summary["gathered"] is False
    assert summary["limit_exceeded"] is False


def test_run_rejects_overlapping_script(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(
            policy={
                "kind": "scripted",
                "events": [
                    {"robot": "r0", "look": "0/1", "decide": "1/1"},
                    {"robot": "r0", "look": "1/2", "decide": "2/1"},
                ],
            }
        ),
    )
    assert main(["run", rc]) == 2


def test_verify_small_sweep(capsys):
    code = main(
        [
            "verify",
            "--n", "3..5",
            "--count", "30",
            "--seed", "1",
            "--denominator-bound", "40",
            "--search-budget", "5000",
            "--sim-count", "5",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["configs_checked"] == 30
    assert report["leader_mismatches"] == 0
    assert set(report["classes_found"]) == {"A", "BI", "BII", "C"}


def _worked_robots():
    return json.loads((FIXTURES / "worked_example.json").read_text())["robots"]


MALFORMED_RUN_CONFIGS = {
    "max_time_divides_by_zero": run_config_doc(limits={"max_time": "1/0"}),
    "max_time_not_a_number": run_config_doc(limits={"max_time": "abc"}),
    "policy_not_an_object": run_config_doc(policy="fsync"),
    "zero_delay_denominator_bound": run_config_doc(
        policy={"kind": "async-random", "delay_denominator_bound": 0}
    ),
    "duplicate_robot_ids": run_config_doc(
        initial={"robots": [{**r, "id": "a"} for r in _worked_robots()]}
    ),
    "scripted_time_not_a_number": run_config_doc(
        policy={"kind": "scripted", "events": [{"robot": "r0", "look": "x", "decide": "1/4"}]}
    ),
    "scripted_event_missing_field": run_config_doc(
        policy={"kind": "scripted", "events": [{"robot": "r0", "look": "0/1"}]}
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RUN_CONFIGS))
def test_run_malformed_config_is_a_parse_error(name, tmp_path, capsys):
    rc = write_json(tmp_path / "run.json", MALFORMED_RUN_CONFIGS[name])
    assert main(["run", rc]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ")
    assert "Traceback" not in err


def test_run_rejects_script_naming_an_unknown_robot(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(
            policy={
                "kind": "scripted",
                "events": [{"robot": "ghost", "look": "0/1", "decide": "1/4"}],
            }
        ),
    )
    assert main(["run", rc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bad schedule: ") and "ghost" in err
    assert "Traceback" not in err
