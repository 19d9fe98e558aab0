"""The one evidence store: every entry of ``goldens.json`` still holds.

Each entry was captured at the commit before the change it guards, so
its value is the parent's bytes: the three trace readers on 14 runs, the
37 dicts a one-event-per-kind trace renders to, a telemetry hub's three
products on five runs, a recovered run's first cut, and the files of a
``naspipe`` command line run on every example config (serial and
``--jobs 2`` where a sweep shards).  ``python tools/goldens.py --check
--tree DIR`` runs the same producers against another checkout.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from goldens import (
    MANIFEST,
    READER_RUNS,
    TELEMETRY_RUNS,
    frozen,
    one_event_per_kind,
    produce,
    rendered_by_kind,
    stale,
    to_perfetto,
)
from repro.obs import validate_chrome_trace, validate_trace
from repro.obs.telemetry import INSTRUMENTS

ROOT = Path(__file__).resolve().parents[1]
PINNED = json.loads(MANIFEST.read_text())


def _called(name):
    return {entry["call"][1] for entry in PINNED.values() if entry.get("call", [""])[0] == name}


def _command_lines():
    return {name: entry["argv"] for name, entry in PINNED.items() if "argv" in entry}


@pytest.mark.parametrize("name", list(PINNED))
def test_the_tree_gives_the_pinned_value(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert frozen(produce(PINNED[name])) == frozen(PINNED[name]["value"])


def test_the_manifest_covers_what_it_claims():
    assert _called("reader") == set(READER_RUNS) and len(READER_RUNS) >= 13
    assert len(_called("rendered")) == 37
    assert _called("telemetry") == set(TELEMETRY_RUNS)


def test_each_rendered_kind_exports_the_pinned_dict():
    trace = one_event_per_kind()
    assert validate_trace(trace) == []
    payload = to_perfetto(trace)
    assert validate_chrome_trace(payload) == []
    rendered = rendered_by_kind(payload)
    assert _called("rendered") == set(rendered)
    for kind, event in rendered.items():
        assert frozen(event) == frozen(PINNED[f"rendered.{kind}"]["value"]), kind


def test_the_telemetry_runs_touch_every_instrument(monkeypatch):
    monkeypatch.chdir(ROOT)
    touched = {
        instrument.name
        for build in TELEMETRY_RUNS.values()
        for instrument in build().registry.instruments()
    }
    assert touched == set(INSTRUMENTS)


def test_every_example_config_is_run_by_a_command_line():
    configs = {arg for argv in _command_lines().values() for arg in argv}
    assert {
        f"examples/{path.name}" for path in (ROOT / "examples").glob("*.json")
    } <= configs


def test_every_sharded_sweep_pins_its_serial_twins_bytes():
    lines = _command_lines()
    twins = 0
    for name, argv in lines.items():
        if "--jobs" in argv:
            at = argv.index("--jobs")
            assert argv[at + 1] == "2"
            serial = argv[:at] + argv[at + 2:]
            (twin,) = [other for other, line in lines.items() if line == serial]
            assert PINNED[name]["value"] == PINNED[twin]["value"], name
            twins += 1
    assert twins == 3


@pytest.fixture(scope="module")
def printed():
    """What ``tools/goldens.py`` prints (and ``--write`` writes) here."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "goldens.py")],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_write_over_an_unchanged_tree_reproduces_the_manifest(printed):
    assert printed == MANIFEST.read_text()


def test_the_checker_names_an_edited_entry(printed):
    fresh = json.loads(printed)
    assert stale(PINNED, fresh) == []
    edited = copy.deepcopy(PINNED)
    edited["cli.serve"]["value"]["report.json"] = "0" * 16
    assert stale(edited, fresh) == ["cli.serve"]


def test_ci_runs_no_cmp_step():
    """Byte identity is a manifest entry, not a job that runs twice."""
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert re.search(r"\bcmp\b", ci) is None
