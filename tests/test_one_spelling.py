"""``tools/check_one_spelling.py`` holds on the tree and fires on a
planted second spelling of an engine's layer facts, of the dependency
tracker's record or of the CSP decision path; ``tools/test_only_api.py``
holds on the tree and fires on a planted definition only tests read."""

import importlib.util
import shutil
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_one_spelling.py"
ENGINE = "engines/pipeline.py"
#: the tracker as it was before it kept one record (verbatim copy)
REFERENCE_TRACKER = TOOL.parents[1] / "tests" / "dependency_reference.py"


def _tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sources(tool):
    return {p.relative_to(tool.SRC).as_posix(): p.read_text() for p in tool.SRC.rglob("*.py")}


def test_every_rule_holds_on_the_tree():
    tool = _tool()
    assert tool.violations(_sources(tool)) == []


def test_a_second_read_of_a_layer_profile_in_the_engine_fires():
    tool = _tool()
    sources = _sources(tool)
    read = "self._layers[layer][3] / bandwidth"
    assert read in sources[ENGINE]
    sources[ENGINE] = sources[ENGINE].replace(
        read, "self.supernet.profile(layer).param_bytes / bandwidth"
    )
    (error,) = tool.violations(sources)
    assert error.startswith("'supernet\\\\.profile\\\\b': 2 hit(s)")


def test_the_deleted_cost_memo_cannot_come_back():
    tool = _tool()
    sources = _sources(tool)
    sources[ENGINE] += "\n_layer_cost = {}\n"
    (error,) = tool.violations(sources)
    assert error.startswith("'_layer_cost': 1 hit(s)")


def test_the_old_dependency_records_cannot_come_back():
    """The tracker that kept ``_users`` / ``_released`` / ``_watchers``
    beside its unreleased-user lists breaks the rule (and, with its
    elimination frontier, the one-decision-path rule)."""
    tool = _tool()
    sources = _sources(tool)
    sources["core/dependency.py"] = REFERENCE_TRACKER.read_text()
    records, _ = tool.violations(sources)
    assert records.startswith("'self\\\\._(users|released|watchers)\\\\b': 17 hit(s)")


def test_the_second_csp_decision_path_cannot_come_back():
    """The old tracker's frontier, which only Algorithm 2's whole-subnet
    scan read, and the config switch that selected that scan both fire
    the one-decision-path rule."""
    tool = _tool()
    sources = _sources(tool)
    sources["core/dependency.py"] = REFERENCE_TRACKER.read_text()
    sources["config.py"] += 'SCHEDULER_MODES = ("index", "conservative")\n'
    _, path = tool.violations(sources)
    assert path.startswith("'conservative|scheduler_mode|stage_finished|")
    assert ": 10 hit(s); " in path
    assert "['config.py', 'core/dependency.py']" in path


def test_src_holds_no_test_only_api_and_a_planted_definition_fires(tmp_path):
    scan = _tool(TOOL.parent / "test_only_api.py")
    assert sorted(q for _, q in scan.scan()) == sorted(scan.ALLOWED)
    for directory in scan.CALLER_DIRS:
        shutil.copytree(
            scan.ROOT / directory, tmp_path / directory,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    module = tmp_path / "src" / "repro" / "sim" / "devices.py"
    text = module.read_text()
    # named in __all__, the package's _exports table, a docstring and a
    # comment: none of them reads it; the ledger's span table does read
    # ``a_span_reads_this``, by its name
    module.write_text(
        text
        + "\n\ndef only_a_test_reads_this():\n    pass\n"
        + "\n\ndef a_span_reads_this():\n"
        + '    """Not ``only_a_test_reads_this``."""  # only_a_test_reads_this\n'
        + '\n\n__all__ += ["only_a_test_reads_this", "a_span_reads_this"]\n'
    )
    for path, old, new in (
        (module.with_name("__init__.py"), '("CopyEngine", "Link")',
         '("CopyEngine", "Link", "only_a_test_reads_this")'),
        (tmp_path / "ledger" / "programs.py", '("cancel",)', '("cancel", "a_span_reads_this")'),
    ):
        source = path.read_text()
        assert source.count(old) == 1, (path, old)
        path.write_text(source.replace(old, new))
    line = len(text.splitlines()) + 3
    found = scan.scan(tmp_path)
    assert (f"src/repro/sim/devices.py:{line}", "only_a_test_reads_this") in found
    assert "a_span_reads_this" not in {qualified for _, qualified in found}
