#!/usr/bin/env python3
"""Unit tests for tools/analyze (commsig-analyzer).

Covers both frontends and all five passes:
  - cpplite parses every real TU in src/ and tools/
  - each pass flags its bad fixture and stays quiet on the good twin
  - the clang AST-JSON walker lowers the captured-shape dump fixture to
    the same IR (no clang binary needed), and the lexical rules report
    the same findings on its facts as on cpplite's
  - suppression, baseline fingerprints, IR round-trip
  - docs/obs_schema.json is in sync with the code (freshness gate)
  - the driver itself exits clean on the repo

Run directly or via ctest (analyzer_test).
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "tools", "analyze"))

import analyze  # noqa: E402
import clang_frontend  # noqa: E402
import cpplite  # noqa: E402
from ir import Finding, Project, TuFacts  # noqa: E402
from passes import determinism, hygiene, lock_order, obs_schema  # noqa: E402
from passes import result_discipline  # noqa: E402

FIXTURES = os.path.join(REPO, "tests", "tools", "fixtures")


def lexed(tu: TuFacts, name: str) -> TuFacts:
    """`tu` with fixture `name`'s tokens, as the driver lexes a file."""
    with open(os.path.join(FIXTURES, name + ".cc"), encoding="utf-8") as f:
        tu.tokens, tu.token_lines = cpplite.lex(f.read())
    return tu


def fixture_project(name: str, rel: str) -> Project:
    path = os.path.join(FIXTURES, name + ".cc")
    return Project([lexed(cpplite.parse_file(path, rel), name)])


def lexical_findings(project: Project) -> list:
    """(line, rule) of the lexical rules' findings, in line order."""
    found = hygiene.run(project, None) + result_discipline.run(project, None)
    return sorted((f.line, f.rule) for f in found
                  if f.rule in ("naked-new", "endl", "unchecked-temporary"))


def expected_lexical_findings() -> list:
    """(line, rule) for each `expect: <rule>` comment in lexical_bad.cc."""
    with open(os.path.join(FIXTURES, "lexical_bad.cc"),
              encoding="utf-8") as f:
        return [(n, rule) for n, line in enumerate(f, 1)
                for rule in re.findall(r"expect: ([\w-]+)", line)]


def rules(findings) -> set:
    return {f.rule for f in findings}


class SchemaCtx:
    schema_path = os.path.join(FIXTURES, "obs_schema.json")
    schema_rel = "tests/tools/fixtures/obs_schema.json"


class CpplineFrontendTest(unittest.TestCase):
    def test_parses_every_real_tu(self):
        files = analyze.source_files(REPO)
        self.assertGreater(len(files), 100)
        for rel in files:
            tu = cpplite.parse_file(os.path.join(REPO, rel), rel)
            self.assertEqual(tu.path, rel)

    def test_extracts_thread_safety_annotations(self):
        tu = cpplite.parse_file(
            os.path.join(REPO, "src", "obs", "metrics.h"),
            "src/obs/metrics.h")
        fields = {(f.cls, f.name): f for f in tu.fields}
        self.assertEqual(fields[("MetricsRegistry", "counters_")].guarded_by,
                         "mutex_")
        methods = {(m.cls, m.name): m for m in tu.methods}
        self.assertIn("mutex_",
                      methods[("MetricsRegistry", "GetCounter")].excludes)

    def test_ir_json_round_trip(self):
        tu = cpplite.parse_file(
            os.path.join(REPO, "src", "data", "flow_generator.cc"),
            "src/data/flow_generator.cc")
        restored = TuFacts.from_json(tu.to_json())
        self.assertIsNotNone(restored)
        self.assertEqual(len(restored.functions), len(tu.functions))
        gen = [f for f in restored.functions if f.name == "Generate"][0]
        self.assertTrue(any("unordered_set" in d.type_text
                            for d in gen.decls))

    def test_version_mismatch_invalidates_cache(self):
        tu = cpplite.parse_file(
            os.path.join(FIXTURES, "result_good.cc"), "x.cc")
        stale = tu.to_json().replace('"ir_version": ', '"ir_version": 1')
        self.assertIsNone(TuFacts.from_json(stale))


class DeterminismPassTest(unittest.TestCase):
    def test_bad_fixture_flagged(self):
        proj = fixture_project("determinism_bad", "src/core/fixture.cc")
        found = determinism.run(proj, None)
        self.assertEqual(rules(found),
                         {"unordered-order-escape", "unordered-iter-sink",
                          "raw-rand", "nondeterministic-seed",
                          "wall-clock-in-core", "raw-simd-intrinsic"})

    def test_good_fixture_clean(self):
        proj = fixture_project("determinism_good", "src/core/fixture.cc")
        self.assertEqual(determinism.run(proj, None), [])

    def test_clock_rules_scoped_to_deterministic_layers(self):
        # The same fixture parsed as an obs/ TU keeps the container rules
        # but drops the clock rule: obs code may read real time.
        proj = fixture_project("determinism_bad", "src/obs/fixture.cc")
        self.assertNotIn("wall-clock-in-core", rules(determinism.run(proj,
                                                                     None)))


class LockOrderPassTest(unittest.TestCase):
    def test_cycle_through_obs_macro(self):
        proj = fixture_project("lock_order_bad", "src/foo/locks.cc")
        found = lock_order.run(proj, None)
        self.assertEqual(rules(found), {"cycle"})
        self.assertIn("MetricsRegistry::mutex_", found[0].message)
        self.assertIn("Worker::mu_", found[0].message)

    def test_released_guard_breaks_the_cycle(self):
        proj = fixture_project("lock_order_good", "src/foo/locks.cc")
        self.assertEqual(lock_order.run(proj, None), [])

    def test_real_tree_is_acyclic(self):
        tus = [cpplite.parse_file(os.path.join(REPO, rel), rel)
               for rel in analyze.source_files(REPO)]
        self.assertEqual(lock_order.run(Project(tus), None), [])


class ObsSchemaPassTest(unittest.TestCase):
    def test_bad_fixture_drifts_in_every_way(self):
        proj = fixture_project("obs_schema_bad", "src/foo/obs.cc")
        found = obs_schema.run(proj, SchemaCtx())
        self.assertLessEqual(
            {"undeclared", "stale", "prereg-drift", "dynamic-name",
             "naming", "not-preregistered"},
            rules(found))

    def test_good_fixture_only_hits_the_stale_entry(self):
        # fixture/stale_counter is deliberately unused by the good twin.
        proj = fixture_project("obs_schema_good", "src/foo/obs.cc")
        found = obs_schema.run(proj, SchemaCtx())
        self.assertEqual([(f.rule, "fixture/stale_counter" in f.message)
                          for f in found], [("stale", True)])

    def test_checked_in_schema_is_fresh(self):
        # Regenerating docs/obs_schema.json from the live tree must be a
        # no-op; if this fails, run tools/analyze/analyze.py
        # --update-schema and commit the diff.
        tus = [cpplite.parse_file(os.path.join(REPO, rel), rel)
               for rel in analyze.source_files(REPO)]
        built = obs_schema.build_schema(Project(tus))
        with open(os.path.join(REPO, "docs", "obs_schema.json"),
                  encoding="utf-8") as f:
            checked_in = json.load(f)
        self.assertEqual(built["categories"], checked_in["categories"])
        self.assertEqual(built["preregistered"],
                         checked_in["preregistered"])

    def test_dir_fsync_site_is_extracted(self):
        # FsyncDir is a fail-point helper like FsyncFd: the checkpoint
        # writer's directory fsync site must land in failpoint_sites.
        rel = "src/robust/checkpoint.cc"
        tu = cpplite.parse_file(os.path.join(REPO, rel), rel)
        built = obs_schema.build_schema(Project([tu]))
        self.assertIn("checkpoint/dirsync",
                      built["categories"]["failpoint_sites"])


class ResultPassTest(unittest.TestCase):
    def test_bad_fixture_flagged(self):
        proj = fixture_project("result_bad", "src/foo/result.cc")
        found = result_discipline.run(proj, None)
        self.assertEqual([f.rule for f in sorted(found,
                                                 key=lambda f: f.line)],
                         ["discarded", "discarded", "unchecked-value"])

    def test_good_fixture_clean(self):
        proj = fixture_project("result_good", "src/foo/result.cc")
        self.assertEqual(result_discipline.run(proj, None), [])

    def test_ambiguous_names_never_flagged(self):
        code = (
            "namespace commsig {\n"
            "Status Run();\n"
            "int Run(int x);\n"          # same name, non-Result overload
            "void F() { Run(); }\n"
            "}\n")
        tu = cpplite.parse_file("mem.cc", "src/foo/amb.cc", text=code)
        self.assertEqual(result_discipline.run(Project([tu]), None), [])


class LexicalRulesTest(unittest.TestCase):
    """The rules that replaced the per-line lint: naked new at any scope,
    std::endl, and Results dereferenced as temporaries."""

    def test_bad_fixture_flagged(self):
        proj = fixture_project("lexical_bad", "src/foo/lexical.cc")
        expected = expected_lexical_findings()
        self.assertEqual(
            sorted({rule for _, rule in expected}),
            ["endl", "naked-new", "unchecked-temporary"])
        self.assertEqual(lexical_findings(proj), expected)

    def test_good_fixture_clean(self):
        proj = fixture_project("lexical_good", "src/foo/lexical.cc")
        self.assertEqual(hygiene.run(proj, None), [])
        self.assertEqual(result_discipline.run(proj, None), [])

    def test_some_result_declaration_is_enough(self):
        # U64 is also a LogEvent& builder method. `discarded` leaves the
        # name alone, but .value() on the call can only mean the Result.
        code = ("namespace commsig {\n"
                "struct LogEvent { LogEvent& U64(const char* k, int v); };\n"
                "struct ByteReader { Result<uint64_t> U64(); };\n"
                "uint64_t F(ByteReader& in) { return in.U64().value(); }\n"
                "}\n")
        tu = cpplite.parse_file("mem.cc", "src/foo/u64.cc", text=code)
        tu.tokens, tu.token_lines = cpplite.lex(code)
        found = result_discipline.run(Project([tu]), None)
        self.assertEqual([(f.rule, f.line) for f in found],
                         [("unchecked-temporary", 4)])


class ClangFrontendTest(unittest.TestCase):
    """The AST-JSON walker, exercised on a captured-shape dump (the
    container has no clang; CI runs the live-frontend path)."""

    def setUp(self):
        with open(os.path.join(FIXTURES, "clang_ast_fixture.json"),
                  encoding="utf-8") as f:
            ast = json.load(f)
        self.tu = clang_frontend.facts_from_ast(
            "src/foo/fixture.cc", "/repo/src/foo/fixture.cc", ast)

    def test_fields_and_annotations(self):
        items = [f for f in self.tu.fields if f.name == "items_"][0]
        self.assertEqual(items.cls, "Store")
        self.assertEqual(items.guarded_by, "mu_")
        flush = [m for m in self.tu.methods if m.name == "Flush"][0]
        self.assertEqual(flush.excludes, ["mu_"])

    def test_function_body_facts(self):
        emit = [f for f in self.tu.functions if f.name == "Emit"][0]
        self.assertEqual([l.mutex_text for l in emit.locks], ["store.mu_"])
        get = [c for c in emit.calls if c.name == "GetCounter"][0]
        self.assertEqual(get.str_args, ["fixture/emitted"])
        self.assertEqual(get.line, 16)
        self.assertEqual([(l.seq_text, l.line) for l in emit.loops],
                         [("store.items_", 18)])
        self.assertIn("PutU64", [c.name for c in emit.calls])

    def test_result_pass_runs_on_clang_ir(self):
        found = result_discipline.run(Project([self.tu]), None)
        self.assertEqual([(f.rule, f.line) for f in found],
                         [("discarded", 22)])

    def test_lexical_rules_run_on_clang_facts(self):
        # The driver lexes every file whichever frontend built its facts.
        # Here ByteReader's Result-returning reads are known only from the
        # AST's included-header declarations.
        self.assertIn(("ByteReader", "U32"),
                      {(m.cls, m.name) for m in self.tu.methods})
        proj = Project([lexed(self.tu, "lexical_bad")])
        self.assertEqual(lexical_findings(proj), expected_lexical_findings())


class DriverTest(unittest.TestCase):
    def test_suppression_matches_pass_and_rule(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s.cc")
            with open(path, "w", encoding="utf-8") as f:
                f.write("int a;\n"
                        "Go();  // NOLINT(analyze-result)\n"
                        "// NOLINT(analyze-result-discarded)\n"
                        "Go();\n"
                        "Go();  // NOLINT(analyze-determinism)\n")
            def finding(line):
                return Finding("s.cc", line, "result", "discarded", "m")
            self.assertTrue(analyze.suppressed(tmp, finding(2)))
            self.assertTrue(analyze.suppressed(tmp, finding(4)))
            self.assertFalse(analyze.suppressed(tmp, finding(5)))

    def test_naked_new_suppressed_by_its_marker(self):
        with tempfile.TemporaryDirectory() as tmp:
            os.makedirs(os.path.join(tmp, "src"))
            with open(os.path.join(tmp, "src", "leak.cc"), "w",
                      encoding="utf-8") as f:
                # The marker covers its own line and the one below it.
                f.write("int* flagged = new int(1);\n"
                        "\n"
                        "int* kept = new int(2);  "
                        "// NOLINT(analyze-hygiene-naked-new)\n")
            proc = subprocess.run(
                [sys.executable,
                 os.path.join(REPO, "tools", "analyze", "analyze.py"),
                 "--root", tmp, "--frontend", "cpplite",
                 "--passes", "hygiene"],
                capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual([line.split(" naked new;")[0]
                          for line in proc.stdout.splitlines()],
                         ["src/leak.cc:1: [analyze-hygiene-naked-new]"])

    def test_baseline_hides_known_findings_only(self):
        f1 = Finding("a.cc", 3, "result", "discarded", "m1")
        f2 = Finding("a.cc", 9, "result", "discarded", "m2")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"fingerprints": [f1.fingerprint()]}, f)
            baseline = analyze.load_baseline(path)
        self.assertIn(f1.fingerprint(), baseline)
        self.assertNotIn(f2.fingerprint(), baseline)
        # Fingerprints are line-independent: moving a finding does not
        # churn the baseline.
        moved = Finding("a.cc", 300, "result", "discarded", "m1")
        self.assertEqual(moved.fingerprint(), f1.fingerprint())

    def test_shipped_baseline_is_empty(self):
        with open(os.path.join(REPO, "tools", "analyze", "baseline.json"),
                  encoding="utf-8") as f:
            self.assertEqual(json.load(f)["fingerprints"], [])

    def test_driver_clean_on_repo(self):
        proc = subprocess.run(
            [sys.executable,
             os.path.join(REPO, "tools", "analyze", "analyze.py"),
             "--frontend", "cpplite"],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0,
                         proc.stdout + "\n" + proc.stderr)


if __name__ == "__main__":
    unittest.main()
