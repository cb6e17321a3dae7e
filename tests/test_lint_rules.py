"""reprolint unit tests: every rule fires on a violation AND stays quiet
on conforming code, plus the suppression grammar, the baseline partition
logic and the CLI exit-code contract.

The rules are constructed with small fixture manifests so the tests pin
the *mechanics* (what each rule detects) independently of the committed
manifests; ``tests/test_lint_clean.py`` pins the committed manifests
against the real tree.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.lint.baseline import (  # noqa: E402
    BaselineError,
    BaselineEntry,
    load_baseline,
    partition,
    write_baseline,
)
from repro.lint.framework import (  # noqa: E402
    META_RULE_BAD_SUPPRESSION,
    META_RULE_PARSE_ERROR,
    FileContext,
    Finding,
    Project,
    parse_project,
    run_rules,
)
from repro.lint.cli import main as lint_main  # noqa: E402
from repro.lint.rules import (  # noqa: E402
    CacheKeyCompletenessRule,
    CanonicalJsonRule,
    DeterminismRule,
    EventSourceRegistryRule,
    HotPathAllocationRule,
    NoReflectionRule,
    default_rules,
)


def lint_source(rule, source, rel_path="src/repro/artifacts/mod.py", root=None):
    """Run one rule over one in-memory module; return the findings."""
    source = textwrap.dedent(source)
    tree = ast.parse(source)
    ctx = FileContext(rel_path, source, tree)
    project = Project(root or pathlib.Path("."), {rel_path: ctx})
    return run_rules(project, [rule]).findings


def rule_names(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------------- #
# no-reflection
# --------------------------------------------------------------------------- #

class TestNoReflectionRule:
    RULE = NoReflectionRule  # default targets: the artifact + specs zone

    def test_fires_on_setattr(self):
        findings = lint_source(self.RULE(), "setattr(obj, name, value)\n")
        assert rule_names(findings) == ["no-reflection"]
        assert "setattr()" in findings[0].message

    def test_fires_on_eval_and_exec(self):
        findings = lint_source(self.RULE(), "eval(text)\nexec(text)\n")
        assert rule_names(findings) == ["no-reflection", "no-reflection"]

    def test_fires_on_object_setattr_bypass(self):
        findings = lint_source(
            self.RULE(), "object.__setattr__(header, 'seq', 7)\n"
        )
        assert rule_names(findings) == ["no-reflection"]
        assert "frozen" in findings[0].message

    def test_fires_on_vars_subscript_write(self):
        findings = lint_source(self.RULE(), "vars(obj)[key] = value\n")
        assert rule_names(findings) == ["no-reflection"]

    def test_fires_on_dict_mutation(self):
        findings = lint_source(
            self.RULE(),
            """\
            obj.__dict__["seq"] = 7
            obj.__dict__.update(payload)
            obj.__dict__ = payload
            """,
        )
        assert rule_names(findings) == ["no-reflection"] * 3

    def test_quiet_on_plain_attribute_code(self):
        findings = lint_source(
            self.RULE(),
            """\
            class Header:
                def describe(self):
                    return self.kind  # plain reads are fine

            header = Header()
            value = getattr(header, "kind", None)  # read-only reflection is allowed
            """,
        )
        assert findings == []

    def test_quiet_on_mentions_in_strings_and_comments(self):
        # The old regex scan false-positived on exactly this.
        findings = lint_source(
            self.RULE(),
            '''\
            def explain():
                """Never call setattr( or eval( on parsed input."""
                return "setattr(x, 'y', 1) is banned"  # setattr( in a comment
            ''',
        )
        assert findings == []

    def test_scoped_to_target_paths(self):
        findings = lint_source(
            self.RULE(), "setattr(obj, name, value)\n",
            rel_path="src/repro/dram/bank.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# hot-path-alloc
# --------------------------------------------------------------------------- #

HOT_FIXTURE_PATH = "src/repro/controller/fixture.py"


def hot_rule(qualnames=("Ctl.tick",)):
    return HotPathAllocationRule({HOT_FIXTURE_PATH: frozenset(qualnames)})


class TestHotPathAllocationRule:
    def test_fires_on_comprehensions_and_genexp(self):
        findings = lint_source(
            hot_rule(),
            """\
            class Ctl:
                def tick(self):
                    a = [r for r in self.queue]
                    b = {r for r in self.queue}
                    c = {r: 1 for r in self.queue}
                    d = any(r.ready for r in self.queue)
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert rule_names(findings) == ["hot-path-alloc"] * 4

    def test_fires_on_lambda_and_nested_def(self):
        findings = lint_source(
            hot_rule(),
            """\
            class Ctl:
                def tick(self):
                    self.queue.sort(key=lambda r: r.request_id)
                    def helper():
                        return 1
                    return helper
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert rule_names(findings) == ["hot-path-alloc"] * 2
        assert all("closure" in f.message for f in findings)

    def test_fires_on_string_building_and_expansion(self):
        findings = lint_source(
            hot_rule(),
            """\
            class Ctl:
                def tick(self):
                    label = f"bank {self.bank}"
                    other = "bank {}".format(self.bank)
                    self.sink.emit(*self.args, **self.kwargs)
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert rule_names(findings) == ["hot-path-alloc"] * 3

    def test_exempts_raise_statements(self):
        findings = lint_source(
            hot_rule(),
            """\
            class Ctl:
                def tick(self):
                    if self.bank < 0:
                        raise ValueError(f"bad bank {self.bank}")
                    return self.bank
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert findings == []

    def test_quiet_on_unregistered_functions(self):
        findings = lint_source(
            hot_rule(qualnames=("Ctl.tick",)),
            """\
            class Ctl:
                def tick(self):
                    return self.cycle + 1

                def describe(self):
                    return f"controller at {self.cycle}"  # cold path: fine
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert findings == []

    def test_fires_on_stale_manifest_entry(self):
        findings = lint_source(
            hot_rule(qualnames=("Ctl.renamed_away",)),
            """\
            class Ctl:
                def tick(self):
                    return 1
            """,
            rel_path=HOT_FIXTURE_PATH,
        )
        assert rule_names(findings) == ["hot-path-alloc"]
        assert "stale hot-path manifest entry" in findings[0].message

    def test_committed_manifest_matches_real_functions(self):
        """Every committed manifest qualname must resolve (no silent rot)."""
        from repro.lint import manifest

        project, errors = parse_project(
            REPO_ROOT, sorted(manifest.HOT_PATH_FUNCTIONS)
        )
        assert errors == []
        stale = [
            f for f in HotPathAllocationRule().check_project(project)
            if "stale hot-path manifest entry" in f.message
        ]
        assert stale == [], "\n".join(f.render() for f in stale)


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #

DET_PATH = "src/repro/dram/fixture.py"


class TestDeterminismRule:
    def test_fires_on_wall_clock_reads(self):
        findings = lint_source(
            DeterminismRule(),
            """\
            import time
            from time import perf_counter

            def sample():
                return time.time(), perf_counter(), time.monotonic_ns()
            """,
            rel_path=DET_PATH,
        )
        assert rule_names(findings) == ["determinism"] * 3

    def test_fires_on_global_random_and_unseeded_rng(self):
        findings = lint_source(
            DeterminismRule(),
            """\
            import random

            def roll():
                a = random.random()
                b = random.Random()        # unseeded: OS entropy
                c = random.SystemRandom()
                return a, b, c
            """,
            rel_path=DET_PATH,
        )
        assert rule_names(findings) == ["determinism"] * 3

    def test_quiet_on_seeded_random(self):
        findings = lint_source(
            DeterminismRule(),
            """\
            import random

            def make_rng(seed):
                return random.Random(seed)
            """,
            rel_path=DET_PATH,
        )
        assert findings == []

    def test_fires_on_str_set_iteration(self):
        findings = lint_source(
            DeterminismRule(),
            """\
            def order():
                out = []
                for name in {"act", "pre", "rd"}:
                    out.append(name)
                more = [n for n in set(["a", "b"])]
                return out, more
            """,
            rel_path=DET_PATH,
        )
        assert rule_names(findings) == ["determinism"] * 2

    def test_quiet_on_tuple_iteration_and_membership_sets(self):
        findings = lint_source(
            DeterminismRule(),
            """\
            COMMANDS = ("act", "pre", "rd")
            VALID = {"act", "pre", "rd"}  # membership tests don't iterate

            def order():
                return ["x" for name in COMMANDS if name in VALID]
            """,
            rel_path=DET_PATH,
        )
        assert findings == []

    def test_scoped_to_simulation_packages(self):
        findings = lint_source(
            DeterminismRule(),
            "import time\nstamp = time.time()\n",
            rel_path="src/repro/service/jobs.py",  # service may read clocks
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# canonical-json
# --------------------------------------------------------------------------- #

class TestCanonicalJsonRule:
    def test_fires_on_json_dumps(self):
        findings = lint_source(
            CanonicalJsonRule(),
            "import json\npayload = json.dumps({'a': 1})\n",
            rel_path="src/repro/artifacts/fixture.py",
        )
        assert rule_names(findings) == ["canonical-json"]

    def test_fires_on_from_import_alias(self):
        findings = lint_source(
            CanonicalJsonRule(),
            "from json import dumps as _d\npayload = _d({'a': 1})\n",
            rel_path="src/repro/service/fixture.py",
        )
        assert rule_names(findings) == ["canonical-json"]

    def test_quiet_in_the_canonical_helper_module(self):
        findings = lint_source(
            CanonicalJsonRule(),
            "import json\npayload = json.dumps({'a': 1})\n",
            rel_path="src/repro/artifacts/spec.py",
        )
        assert findings == []

    def test_quiet_on_other_dumps_and_loads(self):
        findings = lint_source(
            CanonicalJsonRule(),
            """\
            import json
            import pickle

            def load(blob):
                return json.loads(blob)  # parsing is fine; encoding is not

            def freeze(obj):
                return pickle.dumps(obj)
            """,
            rel_path="src/repro/artifacts/fixture.py",
        )
        assert findings == []


# --------------------------------------------------------------------------- #
# cache-key-completeness
# --------------------------------------------------------------------------- #

CONFIG_SRC = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class SystemConfig:
    nrh: int
    blast_radius: int
    progress_interval: float
"""


def cache_key_project(payload_src, tmp_path):
    """A two-module fixture project for the cross-file rule."""
    files = {
        "src/repro/system/config.py": CONFIG_SRC,
        "src/repro/experiments/cache.py": payload_src,
    }
    contexts = {}
    for rel_path, source in files.items():
        source = textwrap.dedent(source)
        contexts[rel_path] = FileContext(rel_path, source, ast.parse(source))
    return Project(tmp_path, contexts)


class TestCacheKeyCompletenessRule:
    def test_quiet_when_payload_uses_asdict(self, tmp_path):
        project = cache_key_project(
            """\
            from dataclasses import asdict

            def config_payload(config):
                return asdict(config)
            """,
            tmp_path,
        )
        assert CacheKeyCompletenessRule().check_project(project) == []

    def test_fires_on_missing_field_in_explicit_payload(self, tmp_path):
        project = cache_key_project(
            """\
            def config_payload(config):
                return {"nrh": config.nrh, "blast_radius": config.blast_radius}
            """,
            tmp_path,
        )
        findings = CacheKeyCompletenessRule().check_project(project)
        assert rule_names(findings) == ["cache-key-completeness"]
        assert "progress_interval" in findings[0].message
        assert "stale cached result" in findings[0].message

    def test_fires_on_key_that_is_not_a_field(self, tmp_path):
        project = cache_key_project(
            """\
            def config_payload(config):
                return {
                    "nrh": config.nrh,
                    "blast_radius": config.blast_radius,
                    "progress_interval": config.progress_interval,
                    "n_rh": 7,
                }
            """,
            tmp_path,
        )
        findings = CacheKeyCompletenessRule().check_project(project)
        assert rule_names(findings) == ["cache-key-completeness"]
        assert "'n_rh'" in findings[0].message

    def test_quiet_on_partial_scans(self, tmp_path):
        source = "x = 1\n"
        project = Project(
            tmp_path,
            {"src/repro/dram/bank.py": FileContext(
                "src/repro/dram/bank.py", source, ast.parse(source)
            )},
        )
        assert CacheKeyCompletenessRule().check_project(project) == []


# --------------------------------------------------------------------------- #
# event-source-registry
# --------------------------------------------------------------------------- #

HINT_PATH = "src/repro/dram/fixture.py"


def hint_project(source, tmp_path, doc_text=None):
    source = textwrap.dedent(source)
    if doc_text is not None:
        doc = tmp_path / "docs" / "ARCH.md"
        doc.parent.mkdir(parents=True, exist_ok=True)
        doc.write_text(doc_text, encoding="utf-8")
    return Project(
        tmp_path, {HINT_PATH: FileContext(HINT_PATH, source, ast.parse(source))}
    )


class TestEventSourceRegistryRule:
    def test_fires_on_unregistered_hint_method(self, tmp_path):
        rule = EventSourceRegistryRule(registry=(), architecture_doc=None)
        project = hint_project(
            """\
            class RetentionModel:
                def next_due_cycle(self):
                    return 0
            """,
            tmp_path,
        )
        findings = rule.check_project(project)
        assert rule_names(findings) == ["event-source-registry"]
        assert "RetentionModel.next_due_cycle" in findings[0].message
        assert "not in the hint-contract registry" in findings[0].message

    def test_quiet_when_registered_and_documented(self, tmp_path):
        rule = EventSourceRegistryRule(
            registry=((HINT_PATH, "RetentionModel", "next_due_cycle"),),
            architecture_doc="docs/ARCH.md",
        )
        project = hint_project(
            """\
            class RetentionModel:
                def next_due_cycle(self):
                    return 0
            """,
            tmp_path,
            doc_text="The RetentionModel hint is folded into the horizon.\n",
        )
        assert rule.check_project(project) == []

    def test_fires_when_registered_but_undocumented(self, tmp_path):
        rule = EventSourceRegistryRule(
            registry=((HINT_PATH, "RetentionModel", "next_due_cycle"),),
            architecture_doc="docs/ARCH.md",
        )
        project = hint_project(
            """\
            class RetentionModel:
                def next_due_cycle(self):
                    return 0
            """,
            tmp_path,
            doc_text="This doc never names the class.\n",
        )
        findings = rule.check_project(project)
        assert rule_names(findings) == ["event-source-registry"]
        assert "not named in docs/ARCH.md" in findings[0].message

    def test_fires_on_stale_registry_entry(self, tmp_path):
        rule = EventSourceRegistryRule(
            registry=((HINT_PATH, "RetentionModel", "next_due_cycle"),),
            architecture_doc=None,
        )
        project = hint_project("class RetentionModel:\n    pass\n", tmp_path)
        findings = rule.check_project(project)
        assert rule_names(findings) == ["event-source-registry"]
        assert "stale registry entry" in findings[0].message

    def test_ignores_non_hint_methods(self, tmp_path):
        rule = EventSourceRegistryRule(registry=(), architecture_doc=None)
        project = hint_project(
            """\
            class Bank:
                def next_command(self):
                    return None

                def cycle_of_next_refresh(self):
                    return 0
            """,
            tmp_path,
        )
        assert rule.check_project(project) == []


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #

class TestSuppressions:
    PATH = "src/repro/artifacts/fixture.py"

    def test_trailing_suppression_with_reason_silences(self):
        findings = lint_source(
            NoReflectionRule(),
            "setattr(o, n, v)  # reprolint: disable=no-reflection -- test fixture\n",
            rel_path=self.PATH,
        )
        assert findings == []

    def test_standalone_suppression_covers_next_statement(self):
        findings = lint_source(
            NoReflectionRule(),
            """\
            # reprolint: disable=no-reflection -- the reason block can be
            # longer than one line and still cover the statement below.
            setattr(o, n, v)
            """,
            rel_path=self.PATH,
        )
        assert findings == []

    def test_file_scope_suppression(self):
        findings = lint_source(
            NoReflectionRule(),
            """\
            # reprolint: disable-file=no-reflection -- fixture module
            setattr(o, n, v)
            eval(text)
            """,
            rel_path=self.PATH,
        )
        assert findings == []

    def test_reasonless_suppression_is_a_finding_and_does_not_silence(self):
        findings = lint_source(
            NoReflectionRule(),
            "setattr(o, n, v)  # reprolint: disable=no-reflection\n",
            rel_path=self.PATH,
        )
        assert sorted(rule_names(findings)) == [
            META_RULE_BAD_SUPPRESSION, "no-reflection",
        ]

    def test_unknown_rule_name_is_a_finding(self):
        findings = lint_source(
            NoReflectionRule(),
            "x = 1  # reprolint: disable=no-such-rule -- misspelled\n",
            rel_path=self.PATH,
        )
        assert rule_names(findings) == [META_RULE_BAD_SUPPRESSION]
        assert "no-such-rule" in findings[0].message

    def test_directive_in_docstring_is_ignored(self):
        findings = lint_source(
            NoReflectionRule(),
            '''\
            def document():
                """Write ``# reprolint: disable=RULE`` to suppress."""
                return "# reprolint: disable=no-reflection"
            ''',
            rel_path=self.PATH,
        )
        assert findings == []

    def test_meta_findings_cannot_be_suppressed(self):
        findings = lint_source(
            NoReflectionRule(),
            "x = 1  # reprolint: disable=bad-suppression,no-such -- try it\n",
            rel_path=self.PATH,
        )
        assert META_RULE_BAD_SUPPRESSION in rule_names(findings)

    def test_suppression_of_project_rule_finding(self, tmp_path):
        rule = EventSourceRegistryRule(registry=(), architecture_doc=None)
        source = textwrap.dedent(
            """\
            class RetentionModel:
                # reprolint: disable=event-source-registry -- folded into the
                # refresh scheduler's hint; kept as a fixture of suppression.
                def next_due_cycle(self):
                    return 0
            """
        )
        ctx = FileContext(HINT_PATH, source, ast.parse(source))
        project = Project(tmp_path, {HINT_PATH: ctx})
        result = run_rules(project, [rule])
        assert result.findings == []

    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n", encoding="utf-8")
        project, errors = parse_project(tmp_path, ["src/repro"])
        assert rule_names(errors) == [META_RULE_PARSE_ERROR]
        result = run_rules(project, [NoReflectionRule()], errors)
        assert rule_names(result.findings) == [META_RULE_PARSE_ERROR]


# --------------------------------------------------------------------------- #
# baseline
# --------------------------------------------------------------------------- #

def finding(rule="canonical-json", path="src/repro/service/x.py",
            line=1, message="msg"):
    return Finding(rule=rule, path=path, line=line, col=0, message=message)


class TestBaseline:
    def test_partition_new_accepted_stale(self):
        baseline = [
            BaselineEntry(rule="canonical-json", path="src/repro/service/x.py",
                          message="msg", reason="why"),
            BaselineEntry(rule="determinism", path="src/repro/dram/y.py",
                          message="gone", reason="why"),
        ]
        split = partition([finding(), finding(message="fresh")], baseline)
        assert [f.message for f in split.accepted] == ["msg"]
        assert [f.message for f in split.new] == ["fresh"]
        assert [e.message for e in split.stale] == ["gone"]

    def test_matching_ignores_line_numbers_but_counts_multiplicity(self):
        baseline = [
            BaselineEntry(rule="canonical-json", path="src/repro/service/x.py",
                          message="msg", reason="why", line=10),
        ]
        # Two identical findings, one baseline entry: one accepted, one new.
        split = partition([finding(line=99), finding(line=120)], baseline)
        assert len(split.accepted) == 1
        assert len(split.new) == 1
        assert split.stale == []

    def test_load_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == []

    def test_load_rejects_placeholder_and_empty_reasons(self, tmp_path):
        path = tmp_path / "baseline.json"
        for reason in ("", "   ", "TODO: justify or fix"):
            path.write_text(json.dumps({
                "version": 1,
                "entries": [{"rule": "r", "path": "p", "message": "m",
                             "reason": reason}],
            }), encoding="utf-8")
            with pytest.raises(BaselineError, match="no\\s+justification"):
                load_baseline(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "entries": []}', encoding="utf-8")
        with pytest.raises(BaselineError, match="version"):
            load_baseline(path)

    def test_write_carries_reasons_and_stamps_placeholders(self, tmp_path):
        path = tmp_path / "baseline.json"
        previous = [
            BaselineEntry(rule="canonical-json", path="src/repro/service/x.py",
                          message="msg", reason="kept reason"),
        ]
        count = write_baseline(path, [finding(), finding(message="fresh")],
                               previous)
        assert count == 2
        data = json.loads(path.read_text(encoding="utf-8"))
        reasons = {e["message"]: e["reason"] for e in data["entries"]}
        assert reasons["msg"] == "kept reason"
        assert reasons["fresh"] == "TODO: justify or fix"
        # The stamped placeholder makes the written baseline unloadable
        # until a human writes the justification.
        with pytest.raises(BaselineError):
            load_baseline(path)


# --------------------------------------------------------------------------- #
# CLI exit codes (the CI contract)
# --------------------------------------------------------------------------- #

def write_tree(root, files):
    for rel_path, source in files.items():
        path = root / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


CLEAN_TREE = {
    # The committed manifest registers the device's per-command path in
    # this file, so the clean fixture must define every registered qualname
    # (else the stale-entry detection fires, by design).
    "src/repro/dram/device.py": """\
        class DramDevice:
            def __init__(self):
                self.open_rows = [-1]

            def activate(self, bank_id, row, cycle):
                return cycle

            def precharge(self, bank_id, cycle):
                return cycle

            def read(self, bank_id, cycle):
                return cycle

            def write(self, bank_id, cycle):
                return cycle
        """,
}

#: One violating fixture tree per rule: `python -m repro lint` must exit
#: nonzero when any single rule's violation is introduced.
VIOLATIONS = {
    "no-reflection": {
        "src/repro/artifacts/evil.py": "setattr(obj, name, value)\n",
    },
    "determinism": {
        "src/repro/dram/evil.py": """\
            import time

            def stamp():
                return time.time()
            """,
    },
    "canonical-json": {
        "src/repro/service/evil.py": """\
            import json

            def encode(payload):
                return json.dumps(payload)
            """,
    },
    "hot-path-alloc": {
        # The committed manifest registers MemoryController.tick in this file.
        "src/repro/controller/controller.py": """\
            class MemoryController:
                def tick(self):
                    return [r for r in self.queue]
            """,
    },
    "cache-key-completeness": {
        "src/repro/system/config.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SystemConfig:
                nrh: int
                blast_radius: int
            """,
        "src/repro/experiments/cache.py": """\
            def config_payload(config):
                return {"nrh": config.nrh}
            """,
    },
    "event-source-registry": {
        "src/repro/attacks/evil.py": """\
            class BurstPattern:
                def next_event_cycle(self):
                    return 0
            """,
    },
}


class TestCliExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_TREE)
        assert lint_main(["--root", str(tmp_path)]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("rule_name", sorted(VIOLATIONS))
    def test_each_rule_violation_exits_nonzero(self, rule_name, tmp_path,
                                               capsys):
        write_tree(tmp_path, CLEAN_TREE)
        write_tree(tmp_path, VIOLATIONS[rule_name])
        assert lint_main(["--root", str(tmp_path)]) == 1
        assert rule_name in capsys.readouterr().out

    def test_repro_cli_subcommand_wiring(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        write_tree(tmp_path, CLEAN_TREE)
        write_tree(tmp_path, VIOLATIONS["determinism"])
        assert repro_main(["lint", "--root", str(tmp_path)]) == 1
        assert repro_main(
            ["lint", "--root", str(tmp_path), "src/repro/dram/device.py"]
        ) == 0
        capsys.readouterr()

    def test_json_format_reports_new_findings(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_TREE)
        write_tree(tmp_path, VIOLATIONS["canonical-json"])
        assert lint_main(["--root", str(tmp_path), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["new"] == 1
        assert report["new"][0]["rule"] == "canonical-json"
        assert report["new"][0]["path"] == "src/repro/service/evil.py"

    def test_baseline_accepts_reviewed_findings(self, tmp_path, capsys):
        write_tree(tmp_path, CLEAN_TREE)
        write_tree(tmp_path, VIOLATIONS["canonical-json"])
        baseline = tmp_path / "tools" / "reprolint_baseline.json"

        # --write-baseline stamps a placeholder the next load rejects ...
        assert lint_main(
            ["--root", str(tmp_path), "--write-baseline"]
        ) == 0
        assert lint_main(["--root", str(tmp_path)]) == 2  # usage error

        # ... and editing in a real reason makes the run clean.
        data = json.loads(baseline.read_text(encoding="utf-8"))
        for entry in data["entries"]:
            entry["reason"] = "reviewed in a test fixture"
        baseline.write_text(json.dumps(data), encoding="utf-8")
        assert lint_main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_missing_root_exits_two(self, tmp_path, capsys):
        assert lint_main(["--root", str(tmp_path / "nowhere")]) == 2
        capsys.readouterr()

    def test_list_rules_names_all_six(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in default_rules():
            assert rule.name in out
