import json
import os
import shutil
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

from a5fano import cli


def test_catalog_is_complete_and_ordered():
    names = [name for name, _, _ in cli.CATALOG]
    assert names == [
        "burkhardt/orbits", "burkhardt/nodes", "burkhardt/incidence",
        "burkhardt/meet-rule", "burkhardt/gram-rank", "burkhardt/invariant-ranks",
        "barth/orbits", "barth/invariance", "barth/nodes", "barth/restrictions",
        "barth/plane-classification", "barth/surfaces", "barth/table1",
        "barth/table2", "barth/invariant-rank", "barth/rationality",
    ]


def test_list_checks_output(capsys):
    assert cli.main(["list-checks"]) == 0
    out = capsys.readouterr().out
    for name, _, _ in cli.CATALOG:
        assert name in out
    # stable across runs
    cli.main(["list-checks"])
    assert capsys.readouterr().out == out


def test_verify_single_check_exit_zero(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = cli.main([
        "verify", "burkhardt", "--check", "gram-rank",
        "--format", "json", "--out", str(out_file),
    ])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["suite"] == "burkhardt"
    assert report["summary"] == {"pass": 1, "fail": 0, "skipped": 0}
    (chk,) = report["checks"]
    assert chk["name"] == "burkhardt/gram-rank"
    assert "full 16" in chk["actual"]
    assert chk["status"] == "pass"


def test_verify_barth_table2_json(capsys):
    code = cli.main(["verify", "barth", "--check", "table2", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    (chk,) = report["checks"]
    assert chk["name"] == "barth/table2"
    assert "400/400 entries" in chk["actual"]
    assert "rank 14" in chk["actual"]


def test_verify_all_gives_the_pinned_verdicts():
    # the benchmark's verdict file, read only
    path = Path(__file__).resolve().parents[1] / "perfbench" / "verdicts.json"
    pinned = json.loads(path.read_text(encoding="utf-8"))
    report = cli.run_suite("all")
    assert {chk["name"]: {k: v for k, v in chk.items() if k not in ("name", "millis")}
            for chk in report["checks"]} == pinned
    assert report["summary"] == {"pass": 16, "fail": 0, "skipped": 0}


def test_full_burkhardt_suite_passes(burkhardt_report):
    assert burkhardt_report["summary"]["fail"] == 0
    assert burkhardt_report["summary"]["pass"] == 6
    assert [c["name"] for c in burkhardt_report["checks"]] == \
        [n for n, _, _ in cli.CATALOG if n.startswith("burkhardt/")]


def test_reports_are_deterministic_except_millis(burkhardt_report):
    again = cli.run_suite("burkhardt")

    def strip(report):
        return [
            {k: v for k, v in chk.items() if k != "millis"}
            for chk in report["checks"]
        ]

    assert strip(again) == strip(burkhardt_report)
    assert again["summary"] == burkhardt_report["summary"]


def copy_fixtures(directory):
    src = resources.files("a5fano.fixtures")
    for name in ("xi_planes.json", "theta_planes.json",
                 "table1_words.json", "table2.json"):
        shutil.copy(str(src.joinpath(name)), directory / name)


def test_corrupted_fixture_fails_with_coordinates(tmp_path, capsys):
    copy_fixtures(tmp_path)
    data = json.loads((tmp_path / "table2.json").read_text())
    assert data["rows"][0][1] == 1
    data["rows"][0][1], data["rows"][1][0] = 0, 0
    (tmp_path / "table2.json").write_text(json.dumps(data))
    code = cli.main([
        "verify", "barth", "--check", "table2",
        "--fixtures", str(tmp_path), "--format", "json",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    (chk,) = report["checks"]
    assert chk["status"] == "fail"
    assert "(1,1,1)" in chk["actual"] and "(1,1,-1)" in chk["actual"]


def run_with_fixtures(directory, check, capsys):
    code = cli.main([
        "verify", "barth", "--check", check,
        "--fixtures", str(directory), "--format", "json",
    ])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    (chk,) = json.loads(out)["checks"]
    assert chk["status"] == "fail"
    return code, chk["actual"]


def test_malformed_json_fixture_names_the_file(tmp_path, capsys):
    copy_fixtures(tmp_path)
    text = (tmp_path / "xi_planes.json").read_text()
    (tmp_path / "xi_planes.json").write_text(text[: len(text) // 2])
    code, actual = run_with_fixtures(tmp_path, "orbits", capsys)
    assert code == 1
    assert "xi_planes.json" in actual and "malformed JSON" in actual


def swap_first_labels(data):
    data["labels"][0], data["labels"][1] = data["labels"][1], data["labels"][0]


def test_misshapen_table2_names_the_file(tmp_path, capsys):
    cuts = [
        (lambda data: data.__setitem__("rows", data["rows"][:19]), "20 rows of 20 integers"),
        (lambda data: data.__setitem__("labels", [1] * 20), "not the xi labels"),
        (swap_first_labels, "not the xi labels"),
    ]
    for k, (cut, message) in enumerate(cuts):
        directory = tmp_path / str(k)
        directory.mkdir()
        copy_fixtures(directory)
        data = json.loads((directory / "table2.json").read_text())
        cut(data)
        (directory / "table2.json").write_text(json.dumps(data))
        code, actual = run_with_fixtures(directory, "table2", capsys)
        assert code == 1
        assert "table2.json" in actual and message in actual


def test_misshapen_plane_fixture_names_the_file(tmp_path, capsys):
    cuts = [
        ("xi_planes.json", lambda data: data["vectors"][3].pop()),
        ("xi_planes.json", lambda data: data["labels"].pop()),
        ("theta_planes.json", lambda data: data["vectors"][0][1].append(0)),
        ("theta_planes.json", lambda data: data["vectors"][2][2].__setitem__(0, "1")),
    ]
    for k, (name, cut) in enumerate(cuts):
        directory = tmp_path / str(k)
        directory.mkdir()
        copy_fixtures(directory)
        data = json.loads((directory / name).read_text())
        cut(data)
        (directory / name).write_text(json.dumps(data))
        code, actual = run_with_fixtures(directory, "restrictions", capsys)
        assert code == 1
        assert name in actual and "3 coordinates" in actual


def test_misshapen_table1_words_names_the_file(tmp_path, capsys):
    cuts = [
        lambda words: {**words, "(1,1,1)": "Q(("},
        lambda words: {**words, "(1,1,1)": "M^x"},
        lambda words: {**words, "(1,1,1)": 3},
        lambda words: {k: w for k, w in words.items() if k != "(1,1,-1)"},
        lambda words: list(words.values()),
        # refused before a single product is taken: either would run for minutes
        lambda words: {**words, "(1,1,1)": "R^1000000"},
        lambda words: {**words, "(1,-1,-1)": "R^-1000000000"},
    ]
    for k, cut in enumerate(cuts):
        directory = tmp_path / str(k)
        directory.mkdir()
        copy_fixtures(directory)
        words = json.loads((directory / "table1_words.json").read_text())
        (directory / "table1_words.json").write_text(json.dumps(cut(words)))
        started = time.monotonic()
        code, actual = run_with_fixtures(directory, "table1", capsys)
        assert time.monotonic() - started < 10
        assert code == 1
        assert "table1_words.json" in actual


def test_missing_fixture_reported_as_failure(tmp_path, capsys):
    code = cli.main([
        "verify", "barth", "--check", "table1",
        "--fixtures", str(tmp_path), "--format", "json",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["status"] == "fail"
    assert "error" in report["checks"][0]["actual"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nonsense"])
    assert exc.value.code == 2
    assert cli.main(["verify", "barth", "--check", "no-such-check"]) == 2


def test_text_format_mentions_every_check(burkhardt_report):
    text = cli.format_text(burkhardt_report)
    for name in (n for n, _, _ in cli.CATALOG if n.startswith("burkhardt/")):
        assert name in text
    assert "pass 6, fail 0" in text


def test_every_catalog_entry_is_selected_by_verify_all():
    names = cli.checks_for_suite("all")
    assert names == [n for n, _, _ in cli.CATALOG]
    assert cli.checks_for_suite("barth") == [n for n, _, _ in cli.CATALOG
                                             if n.startswith("barth/")]


TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Run in a fresh interpreter: the traced benchmark imports a5fano.cli alone
# and then looks every module and target up, so a suite module that cli
# stops importing at load time, or a wrapped name that is deleted, breaks
# every traced run.
TRACER_LOOKUP = """
import importlib.util, sys
import a5fano.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
for module in tracer.MODULES:
    if "a5fano." + module not in sys.modules:
        print("not loaded:", module)
for module, path, span, _ in tracer.TARGETS:
    owner = sys.modules.get("a5fano." + module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    if not callable(owner):
        print("unresolved:", span)
"""


def test_tracer_targets_resolve():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_LOOKUP, str(TRACER_PATH)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
