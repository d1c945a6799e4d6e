import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circlegather
from circlegather.cli import main
from circlegather.configuration import Configuration
from circlegather.render import MAX_IMAGE_SIZE

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


#: An integer of 5,000 digits, over Python's default limit for int <-> str conversion.
HUGE = "7" * 5000


def assert_one_parse_error_line(err):
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_position_over_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    doc = {"robots": [{"id": "a", "pos": f"{HUGE}/3"}, {"id": "b", "pos": "1/7"}]}
    assert main(["analyze", write_json(tmp_path / "cfg.json", doc)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_parse_error_line(err)


@pytest.mark.parametrize("command", ["analyze", "run"])
def test_json_integer_over_the_digit_limit_is_a_parse_error(command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text('{"robots": [{"id": "a", "pos": "0/1"}], "limits": {"max_events": %s}}\n' % HUGE)
    assert main([command, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert_one_parse_error_line(err)


@pytest.mark.parametrize(
    "doc",
    [
        {"robots": [{"id": "a", "pos": "0/1", "pso": "1/2"}, {"id": "b", "pos": "1/3"},
                    {"id": "c", "pos": "1/2"}]},
        {"robots": [{"id": "a", "pos": "0/1"}, {"id": "b", "pos": "1/3"},
                    {"id": "c", "pos": "1/2"}], "robts": 1},
    ],
    ids=["pso", "robts"],
)
def test_configuration_unknown_keys_are_parse_errors(doc, tmp_path, capsys):
    path = write_json(tmp_path / "config.json", doc)
    assert main(["analyze", path]) == 1
    assert main(["run", write_json(tmp_path / "run.json", run_config_doc(initial=doc))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and all(line.startswith("parse error: unknown ") for line in lines)


def test_analyze_into_a_closed_pipe_exits_quietly(tmp_path):
    n = 200
    doc = {"robots": [{"id": f"r{i}", "pos": f"{i}/{2 * n + 1}"} for i in range(n)]}
    path = write_json(tmp_path / "big.json", doc)
    read_end, write_end = os.pipe()
    # A one-page pipe cannot hold the report (over 20 kB), so the writer is
    # still writing when the reader closes its end after the first line.
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    src = str(Path(circlegather.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "circlegather.cli", "analyze", path],
        stdout=write_end,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    os.close(write_end)
    with os.fdopen(read_end) as out:
        first = out.readline()
    _, err = proc.communicate(timeout=120)
    assert first == "{\n"
    assert proc.returncode == 0
    assert err == b""


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


def test_verify_reports_sweep_failures_with_exit_3(monkeypatch, capsys):
    import circlegather.oracle as oracle

    elect = oracle._elect

    def next_after_leader(gaps):
        """A wrong leader: the robot clockwise after the true one."""
        return (elect(gaps) + 1) % len(gaps)

    monkeypatch.setattr(oracle, "_elect", next_after_leader)
    code = main(
        [
            "verify",
            "--n", "3..5",
            "--count", "30",
            "--seed", "1",
            "--denominator-bound", "40",
            "--search-budget", "5000",
            "--sim-count", "0",
        ]
    )
    assert code == 3
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert report["configs_checked"] == 30
    assert report["leader_mismatches"] > 0
    failures = report["proposition_failures"]
    assert failures
    claims = oracle.check_propositions(Configuration.from_json({"robots": _worked_robots()}))
    assert all(f["check"] in claims for f in failures)
    assert all(f["witness"] and f["config"]["robots"] for f in failures)
    # Only the sweep failed: every class was found and nothing was simulated.
    assert all(report["classes_found"].values()) and report["sim_failures"] == []


BAD_VERIFY_FLAGS = {
    "n_not_a_number": ["--n", "abc"],
    "n_range_empty": ["--n", "5..3"],
    "n_range_longer_than_an_index": ["--n", "3.." + "1" + "0" * 30],
    "n_below_two": ["--n", "1"],
    "denominator_bound_zero": ["--denominator-bound", "0"],
    # The class search places 6 robots; on 6 lattice points only the hexagon fits.
    "denominator_bound_below_the_class_search": ["--denominator-bound", "5"],
    "denominator_bound_at_the_class_search": ["--denominator-bound", "6"],
    # No class C set of 6 robots fits on a lattice below 12.
    "denominator_bound_below_class_c": ["--denominator-bound", "11"],
    "count_zero": ["--count", "0"],
    "sim_count_negative": ["--sim-count", "-1"],
    "search_budget_negative": ["--search-budget", "-1"],
    "max_events_zero": ["--max-events", "0"],
}


@pytest.mark.parametrize("name", sorted(BAD_VERIFY_FLAGS))
def test_verify_bad_flags_are_parse_errors_before_any_work(name, monkeypatch, capsys):
    import circlegather.cli as cli

    swept = []
    monkeypatch.setattr(cli, "verify_sweep", lambda **kw: swept.append(kw))
    assert main(["verify", *BAD_VERIFY_FLAGS[name]]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert not out and not swept


USAGE_ERRORS = {
    "verify_count_not_an_int": ["verify", "--count", "abc"],
    "run_frame_stride_not_an_int": ["run", "x.json", "--frame-stride", "x"],
    "no_command": [],
    "unknown_command": ["bogus"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_are_parse_errors(name, capsys):
    assert main(USAGE_ERRORS[name]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert not out


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "gather-sim" in capsys.readouterr().out


def test_verify_finds_every_class_under_an_odd_denominator_bound(capsys):
    # An odd lattice holds no antipodal pair, so the class search draws on 1/40.
    argv = ["verify", "--n", "3..4", "--denominator-bound", "41", "--count", "4",
            "--sim-count", "1"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert sorted(report["classes_found"]) == ["A", "BI", "BII", "C"]
    for found in report["classes_found"].values():
        positions = Configuration.from_json(found).positions
        assert all(40 % p.denominator == 0 for p in positions)


def test_verify_reports_a_run_cut_at_its_event_limit_with_exit_3(capsys):
    argv = ["verify", "--n", "3..4", "--count", "4", "--sim-count", "1", "--max-events", "1",
            "--denominator-bound", "41"]
    assert main(argv) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert [f["reason"] for f in report["sim_failures"]] == ["limit"]
    # Only the simulation failed.
    assert all(report["classes_found"].values()) and not report["proposition_failures"]


def test_verify_rejects_a_denominator_bound_below_class_c(capsys):
    argv = ["verify", "--n", "3..4", "--denominator-bound", "11", "--count", "4",
            "--sim-count", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "parse error: --denominator-bound must be at least 12, got 11\n"
    assert not out


def test_verify_with_no_configuration_to_generate_is_a_parse_error(capsys):
    # No asymmetric 10-robot configuration fits on 5 lattice points.
    argv = ["verify", "--n", "10", "--denominator-bound", "5", "--count", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err and not out


def test_verify_with_more_robots_than_lattice_points_is_a_parse_error(capsys):
    argv = ["verify", "--n", "13", "--denominator-bound", "12", "--count", "1"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == (
        "parse error: no configuration of n=13 distinct points with denominator bound 12\n"
    )
    assert not out


def test_verify_reads_a_huge_n_range_without_listing_it(capsys):
    # Listing 3..10**12 would take about 8 TB.
    assert main(["verify", "--n", "3..1000000000000", "--count", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["configs_checked"] == 3


def _worked_robots():
    return json.loads((FIXTURES / "worked_example.json").read_text())["robots"]


def _time_literal_doc(field, literal):
    """A run configuration with ``literal`` as its max_time or a scripted look."""
    if field == "max_time":
        return run_config_doc(limits={"max_time": literal})
    event = {"robot": "r0", "look": literal, "decide": "12"}
    return run_config_doc(policy={"kind": "scripted", "events": [event]})


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
    **{
        f"{field}_{name}": _time_literal_doc(field, literal)
        for field in ("max_time", "scripted_look")
        for name, literal in (
            ("negative", "-1"),
            ("signed", "+11"),
            ("underscored", "1_0"),
            ("negative_denominator", "3/-4"),
        )
    },
    "scripted_time_not_a_number": run_config_doc(
        policy={"kind": "scripted", "events": [{"robot": "r0", "look": "x", "decide": "1/4"}]}
    ),
    "scripted_event_missing_field": run_config_doc(
        policy={"kind": "scripted", "events": [{"robot": "r0", "look": "0/1"}]}
    ),
    "scripted_robot_not_a_string": run_config_doc(
        policy={"kind": "scripted", "events": [{"robot": 0, "look": "0/1", "decide": "1/4"}]}
    ),
    "scripted_events_not_a_list": run_config_doc(
        policy={"kind": "scripted", "events": {"robot": "r0", "look": "0/1", "decide": "1/4"}}
    ),
    "missing_initial": {k: v for k, v in run_config_doc().items() if k != "initial"},
    "negative_max_skips": run_config_doc(policy={"kind": "ssync", "max_skips": -1}),
    "max_events_zero": run_config_doc(limits={"max_events": 0}),
    "max_events_negative": run_config_doc(limits={"max_events": -1}),
    "removed_option_key": run_config_doc(
        options={"strict_transient_multiplicity": "false"}
    ),
    "misspelled_option_key": run_config_doc(options={"multiplicity_treshold": "pi"}),
    "float_seed": run_config_doc(policy={"kind": "ssync", "seed": 3.9}),
    "string_seed": run_config_doc(policy={"kind": "async-random", "seed": "3"}),
    "bool_delay_denominator_bound": run_config_doc(
        policy={"kind": "async-random", "delay_denominator_bound": True}
    ),
    "float_max_skips": run_config_doc(policy={"kind": "ssync", "max_skips": 2.0}),
    "bool_max_events": run_config_doc(limits={"max_events": True}),
    "unknown_policy_kind": run_config_doc(policy={"kind": "round-robin"}),
    "unhashable_policy_kind": run_config_doc(policy={"kind": ["fsync"]}),
    "fsync_policy_with_seed": run_config_doc(policy={"kind": "fsync", "seed": 1}),
    "misspelled_ssync_key": run_config_doc(policy={"kind": "ssync", "sed": 3}),
    "async_policy_with_max_skips": run_config_doc(
        policy={"kind": "async-random", "seed": 1, "max_skips": 2}
    ),
    "scripted_policy_with_seed": run_config_doc(
        policy={"kind": "scripted", "events": [], "seed": 1}
    ),
    "misspelled_limits_key": run_config_doc(limits={"max_event": 10}),
    "misspelled_top_level_key": {
        "polcy" if k == "policy" else k: v for k, v in run_config_doc().items()
    },
    "scripted_event_extra_key": run_config_doc(
        policy={
            "kind": "scripted",
            "events": [{"robot": "r0", "look": "0/1", "decide": "1/4", "decdie": "1/2"}],
        }
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_RUN_CONFIGS))
def test_run_malformed_config_is_a_parse_error(name, tmp_path, capsys):
    rc = write_json(tmp_path / "run.json", MALFORMED_RUN_CONFIGS[name])
    assert main(["run", rc]) == 1
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_run_rejects_a_lone_robot_before_simulating(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(initial={"robots": [{"id": "r0", "pos": "0/1"}]}),
    )
    assert main(["run", rc]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("illegal configuration: ") and err.count("\n") == 1


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


@pytest.mark.parametrize(
    "flags",
    [
        ["--frame-stride", "0"],
        ["--image-size", "59"],
        ["--image-size", str(MAX_IMAGE_SIZE + 1)],
        ["--image-size", "1" + "0" * 400],
    ],
    ids=[
        "frame_stride_zero",
        "image_size_below_60",
        "image_size_above_max",
        "image_size_of_401_digits",
    ],
)
def test_run_rejects_bad_render_flags_before_simulating(flags, tmp_path, capsys):
    rc = write_json(tmp_path / "run.json", run_config_doc())
    assert main(["run", rc, "--render", str(tmp_path / "run.svg"), *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # no summary: the run never started
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert not (tmp_path / "run.svg").exists()


@pytest.mark.parametrize("option", ["--trace", "--render"])
def test_run_unwritable_output_path_is_a_one_line_error(option, tmp_path, capsys):
    rc = write_json(tmp_path / "run.json", run_config_doc())
    target = tmp_path / "missing-dir" / "out"
    assert main(["run", rc, option, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot write {target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_ssync_policy_reads_max_skips(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(policy={"kind": "ssync", "seed": 4, "max_skips": 0}),
    )
    trace_path = tmp_path / "trace.jsonl"
    assert main(["run", rc, "--trace", str(trace_path)]) == 0
    # max_skips 0 activates every robot in every round, as fsync does.
    looks = [json.loads(line) for line in trace_path.read_text().splitlines()[:-1]]
    by_round = {}
    for rec in looks:
        if rec["kind"] == "activate":
            by_round.setdefault(rec["t"], set()).add(rec["robot"])
    robots = {r["id"] for r in _worked_robots()}
    assert by_round and all(ids == robots for ids in by_round.values())


def test_run_ssync_old_fairness_window_key_is_an_unknown_field(tmp_path, capsys):
    rc = write_json(
        tmp_path / "run.json",
        run_config_doc(policy={"kind": "ssync", "seed": 4, "fairness_window": 1}),
    )
    assert main(["run", rc]) == 1
    err = capsys.readouterr().err
    assert err == "parse error: unknown ssync policy field(s) ['fairness_window']\n"
