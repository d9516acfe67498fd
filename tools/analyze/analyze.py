#!/usr/bin/env python3
"""commsig-analyzer: cross-TU invariant analysis for the commsig tree.

Five passes over a shared per-TU fact IR:

  determinism   hash-order / randomness / clock hazards on persisted paths
  hygiene       naked `new`, std::endl
  lock-order    lock acquisition graph from annotations + nesting; cycles
  obs-schema    metric / span / log-event / fail-point names vs the
                checked-in registry (docs/obs_schema.json)
  result        discarded Result/Status returns, unchecked value() access,
                Results dereferenced as temporaries

Frontends (--frontend) build the semantic facts; the driver itself lexes
every file with the cpplite lexer for the lexical rules (hygiene and
result/unchecked-temporary), so those see the same tokens under both:

  clang         per-TU `clang++ -fsyntax-only -Xclang -ast-dump=json` using
                the command lines from compile_commands.json; distilled
                facts are cached by content hash under --cache-dir
  cpplite       built-in token/scope parser; no toolchain dependency
  auto          clang when a clang binary is found, else cpplite (default)

Workflow:

  tools/analyze/analyze.py                      # analyze src/ and tools/
  tools/analyze/analyze.py --passes result      # one pass
  tools/analyze/analyze.py --update-schema      # refresh obs registry
  tools/analyze/analyze.py --write-baseline     # accept current findings
  cmake --build build --target analyze          # the same, via CMake

Suppress a single site with `// NOLINT(analyze-<pass>)` or
`// NOLINT(analyze-<pass>-<rule>)` on the flagged line or the line above.
Known legacy findings live in tools/analyze/baseline.json (fingerprints are
line-independent, so pure moves don't churn it); the analyzer fails only on
findings not in the baseline.  The baseline ships empty — keep it that way.

Exit codes: 0 clean, 1 new findings, 2 usage/environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cpplite  # noqa: E402
import clang_frontend  # noqa: E402
from ir import Finding, Project, TuFacts  # noqa: E402
from passes import ALL_PASSES  # noqa: E402
from passes import obs_schema as obs_schema_pass  # noqa: E402

_SCAN_DIRS = ("src",)
_SCAN_TOOL_GLOB = "tools"
_SUPPRESS = re.compile(r"NOLINT\(([^)]*)\)")


class PassContext:
    def __init__(self, root: str, schema_path: str):
        self.root = root
        self.schema_path = schema_path
        self.schema_rel = os.path.relpath(schema_path, root).replace(
            os.sep, "/")


def source_files(root: str) -> list[str]:
    """Repo-relative analysis targets: src/**/*.{h,cc} + tools/*.cc."""
    out: list[str] = []
    for top in _SCAN_DIRS:
        for dirpath, dirs, names in os.walk(os.path.join(root, top)):
            dirs.sort()
            for n in sorted(names):
                if n.endswith((".h", ".cc")):
                    out.append(os.path.relpath(os.path.join(dirpath, n),
                                               root).replace(os.sep, "/"))
    tools_dir = os.path.join(root, _SCAN_TOOL_GLOB)
    if os.path.isdir(tools_dir):
        for n in sorted(os.listdir(tools_dir)):
            if n.endswith(".cc"):
                out.append(f"tools/{n}")
    return out


def load_facts(args, root: str, files: list[str]) -> tuple[list[TuFacts], str]:
    """Facts for every file, plus the frontend actually used."""
    frontend = args.frontend
    clang = ""
    if frontend in ("auto", "clang"):
        clang = clang_frontend.find_clang(args.clang)
        if not clang and frontend == "clang":
            print("analyze: no clang binary found (tried --clang and PATH); "
                  "rerun with --frontend cpplite", file=sys.stderr)
            sys.exit(2)
        frontend = "clang" if clang else "cpplite"
    if frontend == "cpplite":
        return [cpplite.parse_file(os.path.join(root, f), f)
                for f in files], "cpplite"
    cc_path = args.compile_commands or os.path.join(
        args.build_dir, "compile_commands.json")
    if not os.path.isfile(cc_path):
        print(f"analyze: {cc_path} not found; configure the build first "
              "(cmake -B build -S .) or pass --compile-commands",
              file=sys.stderr)
        sys.exit(2)
    commands = clang_frontend.load_compile_commands(cc_path)
    version = clang_frontend.clang_version(clang)
    tus: list[TuFacts] = []
    for f in files:
        abs_src = os.path.join(root, f)
        entry = commands.get(os.path.normpath(abs_src))
        if entry is None:
            # Headers and TUs outside the build graph: the built-in
            # frontend still produces the shared IR for them.
            tus.append(cpplite.parse_file(abs_src, f))
            continue
        tu = clang_frontend.parse_file(clang, abs_src, f, entry,
                                       args.cache_dir, root, version)
        if tu is None:
            print(f"analyze: warning: clang AST dump failed for {f}; "
                  "falling back to cpplite for this TU", file=sys.stderr)
            tu = cpplite.parse_file(abs_src, f)
        tus.append(tu)
    return tus, "clang"


def lex_files(root: str, tus: list[TuFacts]) -> None:
    """Gives each TU its whole file's tokens (TuFacts.tokens)."""
    for tu in tus:
        with open(os.path.join(root, tu.path), encoding="utf-8",
                  errors="replace") as f:
            tu.tokens, tu.token_lines = cpplite.lex(f.read())


def suppressed(root: str, finding: Finding) -> bool:
    """NOLINT(analyze-<pass>[-<rule>]) on the finding line or the line above."""
    path = os.path.join(root, finding.path)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            lines = f.readlines()
    except OSError:
        return False
    tags = {f"analyze-{finding.pass_name}",
            f"analyze-{finding.pass_name}-{finding.rule}"}
    for lineno in (finding.line, finding.line - 1):
        if 1 <= lineno <= len(lines):
            m = _SUPPRESS.search(lines[lineno - 1])
            if m and tags & {t.strip() for t in m.group(1).split(",")}:
                return True
    return False


def load_baseline(path: str) -> set[str]:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
        return set(data.get("fingerprints", []))
    except (OSError, ValueError):
        return set()


def main() -> int:
    ap = argparse.ArgumentParser(
        prog="analyze.py",
        description="cross-TU invariant analysis (determinism, hygiene, "
                    "lock order, obs schema, Result discipline)")
    repo_root = os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--root", default=repo_root)
    ap.add_argument("--build-dir", default=os.path.join(repo_root, "build"))
    ap.add_argument("--compile-commands", default="")
    ap.add_argument("--frontend", choices=("auto", "clang", "cpplite"),
                    default="auto")
    ap.add_argument("--clang", default="",
                    help="clang++ binary for the clang frontend")
    ap.add_argument("--cache-dir",
                    default=os.path.join(repo_root, "build",
                                         "analyze-cache"),
                    help="facts cache for the clang frontend")
    ap.add_argument("--passes", default="all",
                    help="comma list of: " + ",".join(ALL_PASSES))
    ap.add_argument("--baseline",
                    default=os.path.join(repo_root, "tools", "analyze",
                                         "baseline.json"))
    ap.add_argument("--write-baseline", action="store_true",
                    help="accept all current findings into the baseline")
    ap.add_argument("--schema",
                    default=os.path.join(repo_root, "docs",
                                         "obs_schema.json"))
    ap.add_argument("--update-schema", action="store_true",
                    help="regenerate docs/obs_schema.json from call sites")
    ap.add_argument("--list-observables", action="store_true",
                    help="print every extracted observable name and exit")
    args = ap.parse_args()

    root = os.path.abspath(args.root)
    wanted = (list(ALL_PASSES) if args.passes == "all"
              else [p.strip() for p in args.passes.split(",") if p.strip()])
    for p in wanted:
        if p not in ALL_PASSES:
            print(f"analyze: unknown pass '{p}' (have: "
                  f"{', '.join(ALL_PASSES)})", file=sys.stderr)
            return 2

    files = source_files(root)
    tus, frontend = load_facts(args, root, files)
    project = Project(tus)
    ctx = PassContext(root, args.schema)

    if args.list_observables:
        used, _ = obs_schema_pass.extract(project)
        for category in obs_schema_pass.SCHEMA_CATEGORIES:
            for name in sorted(used[category]):
                print(f"{category}\t{name}")
        return 0
    if args.update_schema:
        schema = obs_schema_pass.build_schema(project)
        with open(args.schema, "w", encoding="utf-8") as f:
            json.dump(schema, f, indent=2, sort_keys=False)
            f.write("\n")
        print(f"analyze: wrote {ctx.schema_rel}")
        return 0

    lex_files(root, tus)
    findings: list[Finding] = []
    for p in wanted:
        findings.extend(ALL_PASSES[p](project, ctx))
    findings = [f for f in findings if not suppressed(root, f)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if args.write_baseline:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({"comment": "Accepted legacy findings; keep empty. "
                                  "Regenerate with --write-baseline.",
                       "fingerprints":
                           sorted(f2.fingerprint() for f2 in findings)},
                      f, indent=2)
            f.write("\n")
        print(f"analyze: baselined {len(findings)} finding(s)")
        return 0

    baseline = load_baseline(args.baseline)
    new = [f for f in findings if f.fingerprint() not in baseline]
    for f in new:
        print(f.render())
    known = len(findings) - len(new)
    summary = (f"analyze[{frontend}]: {len(files)} files, "
               f"{', '.join(wanted)}: {len(new)} new finding(s)")
    if known:
        summary += f", {known} baselined"
    print(summary, file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
