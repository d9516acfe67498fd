"""Hygiene pass: lexical rules over each file's whole token stream.

  naked-new   a `new` expression (not `operator new`).  Ownership goes
              through std::make_unique or a container; the leaked
              singletons that must outlive static destruction say so with
              NOLINT(analyze-hygiene-naked-new).
  endl        std::endl, which flushes on every use; write '\\n'.

The rules read `TuFacts.tokens`, so they see namespace scope as well as
function bodies, and comments and string literals never match.
"""

from __future__ import annotations

from ir import Finding, Project


def run(project: Project, ctx) -> list[Finding]:
    findings: list[Finding] = []
    for tu in project.tus:
        toks = tu.tokens
        for i, tok in enumerate(toks):
            if tok == "new" and (i == 0 or toks[i - 1] != "operator"):
                findings.append(Finding(
                    tu.path, tu.token_lines[i], "hygiene", "naked-new",
                    "naked new; use std::make_unique or a container, or "
                    "mark an intentionally leaked singleton "
                    "NOLINT(analyze-hygiene-naked-new)"))
            elif tok == "endl" and toks[i - 2:i] == ["std", "::"]:
                findings.append(Finding(
                    tu.path, tu.token_lines[i], "hygiene", "endl",
                    "std::endl flushes on every use; write '\\n'"))
    return findings
