"""Intermediate representation shared by the commsig-analyzer frontends.

Both frontends — the Clang AST-JSON walker (`clang_frontend.py`) and the
built-in token/scope parser (`cpplite.py`) — lower a translation unit to the
same `TuFacts` structure.  Passes consume only this IR, so every rule runs
identically regardless of which frontend produced the facts, and the facts
for a TU can be cached as plain JSON keyed by content hash.

The IR is deliberately coarse: names, spans, calls with literal arguments,
range-for loops, lock acquisitions, declarations, and the file's tokens.
It captures exactly what the five passes need and nothing the cache would
bloat on: the clang frontend caches its facts before the driver adds the
tokens.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Optional

IR_VERSION = 5  # bump to invalidate cached facts when the schema changes


@dataclass
class Call:
    """One call expression: `recv.name(args)` / `name(args)` / `A::name(...)`."""

    name: str                     # last identifier of the callee
    line: int
    recv: str = ""                # receiver expression text ("" for free calls)
    args: list[str] = field(default_factory=list)   # raw argument text
    # For each argument: the string-literal value when the argument is a
    # (possibly concatenated) string literal, else None.
    str_args: list[Optional[str]] = field(default_factory=list)
    is_stmt: bool = False         # full expression statement `foo(...);`
    depth: int = 0                # brace depth relative to function body


@dataclass
class RangeLoop:
    """`for (decl : seq)` — `seq_base` is the base identifier of `seq`."""

    seq_text: str
    seq_base: str
    line: int
    body_start: int = 0           # token index into Function.tokens
    body_end: int = 0
    subscripted: bool = False     # seq is `base[...]` (element of container)


@dataclass
class LockAcq:
    """A lock acquisition: RAII guard construction or a manual `.Lock()`."""

    mutex_text: str               # argument text, e.g. "mutex_" / "other.mu_"
    line: int
    depth: int = 0                # brace depth; held until depth closes
    kind: str = "raii"            # "raii" | "manual"
    release_line: int = 0         # line the guard's scope closes; 0 = held
                                  # to the end of the function


@dataclass
class Decl:
    """A local variable declaration inside a function body."""

    name: str
    type_text: str
    line: int
    init_call: str = ""           # callee name when initialised from a call


@dataclass
class Function:
    """One function definition with the facts extracted from its body."""

    name: str                     # unqualified name
    qual_class: str = ""          # enclosing / qualifying class, "" if free
    ret_type: str = ""
    start_line: int = 0
    end_line: int = 0
    excludes: list[str] = field(default_factory=list)   # EXCLUDES(mu) args
    requires: list[str] = field(default_factory=list)   # REQUIRES(mu) args
    calls: list[Call] = field(default_factory=list)
    loops: list[RangeLoop] = field(default_factory=list)
    locks: list[LockAcq] = field(default_factory=list)
    decls: list[Decl] = field(default_factory=list)
    # Flat body token text (identifiers, punctuation, literals) for the
    # passes' targeted scans (sorted-afterwards checks, ok()-guard checks).
    tokens: list[str] = field(default_factory=list)
    token_lines: list[int] = field(default_factory=list)

    def decl_type(self, name: str) -> str:
        for d in self.decls:
            if d.name == name:
                return d.type_text
        return ""


@dataclass
class FieldDecl:
    """A class data member, with its thread-safety annotation if any."""

    cls: str
    name: str
    type_text: str
    line: int
    guarded_by: str = ""          # GUARDED_BY(mu) argument text
    acquired_before: list[str] = field(default_factory=list)
    acquired_after: list[str] = field(default_factory=list)


@dataclass
class MethodDecl:
    """A method declaration (possibly body-less) with lock annotations."""

    cls: str
    name: str
    ret_type: str
    line: int
    excludes: list[str] = field(default_factory=list)
    requires: list[str] = field(default_factory=list)


@dataclass
class TuFacts:
    """Everything the passes need to know about one source file."""

    path: str                     # repo-relative, '/'-separated
    functions: list[Function] = field(default_factory=list)
    fields: list[FieldDecl] = field(default_factory=list)
    methods: list[MethodDecl] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)
    # The whole file's tokens, namespace scope included, for the lexical
    # rules. The driver fills them with `cpplite.lex` whichever frontend
    # built the facts above, so both frontends feed those rules alike.
    tokens: list[str] = field(default_factory=list)
    token_lines: list[int] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({"ir_version": IR_VERSION,
                           "facts": dataclasses.asdict(self)})

    @staticmethod
    def from_json(text: str) -> Optional["TuFacts"]:
        try:
            obj = json.loads(text)
        except ValueError:
            return None
        if obj.get("ir_version") != IR_VERSION:
            return None
        d = obj["facts"]
        tu = TuFacts(path=d["path"], includes=d.get("includes", []),
                     tokens=d.get("tokens", []),
                     token_lines=d.get("token_lines", []))
        for f in d.get("functions", []):
            fn = Function(
                name=f["name"], qual_class=f.get("qual_class", ""),
                ret_type=f.get("ret_type", ""),
                start_line=f.get("start_line", 0),
                end_line=f.get("end_line", 0),
                excludes=f.get("excludes", []),
                requires=f.get("requires", []),
                tokens=f.get("tokens", []),
                token_lines=f.get("token_lines", []))
            fn.calls = [Call(**c) for c in f.get("calls", [])]
            fn.loops = [RangeLoop(**l) for l in f.get("loops", [])]
            fn.locks = [LockAcq(**l) for l in f.get("locks", [])]
            fn.decls = [Decl(**dd) for dd in f.get("decls", [])]
            tu.functions.append(fn)
        tu.fields = [FieldDecl(**f) for f in d.get("fields", [])]
        tu.methods = [MethodDecl(**m) for m in d.get("methods", [])]
        return tu


@dataclass(frozen=True)
class Finding:
    """One analyzer diagnostic."""

    path: str
    line: int
    pass_name: str                # determinism | hygiene | lock-order |
                                  # obs-schema | result
    rule: str                     # short rule id within the pass
    message: str

    def fingerprint(self) -> str:
        """Line-independent identity used for baseline matching."""
        return f"{self.path}|{self.pass_name}|{self.rule}|{self.message}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}: "
                f"[analyze-{self.pass_name}-{self.rule}] {self.message}")


class Project:
    """Merged cross-TU view handed to each pass."""

    def __init__(self, tus: list[TuFacts]):
        self.tus = tus
        # (class, method) -> MethodDecl, plus name-level index for receiver-
        # free resolution when the name is unambiguous across classes.
        self.methods: dict[tuple[str, str], MethodDecl] = {}
        self.methods_by_name: dict[str, list[MethodDecl]] = {}
        self.fields: dict[tuple[str, str], FieldDecl] = {}
        for tu in tus:
            for m in tu.methods:
                prev = self.methods.get((m.cls, m.name))
                if prev is None:
                    self.methods[(m.cls, m.name)] = m
                    self.methods_by_name.setdefault(m.name, []).append(m)
                else:
                    # Merge declaration and definition: annotations usually
                    # live only on the in-class declaration.
                    for e in m.excludes:
                        if e not in prev.excludes:
                            prev.excludes.append(e)
                    for r in m.requires:
                        if r not in prev.requires:
                            prev.requires.append(r)
                    if not prev.ret_type:
                        prev.ret_type = m.ret_type
            for f in tu.fields:
                self.fields[(f.cls, f.name)] = f

    def result_return_table(self) -> dict[str, set[str]]:
        """Function name -> set of return-type kinds seen across the project.

        Kinds are "result" (Result<T> / Status) and "other".  A name is safe
        to flag for a discarded return only when every declaration agrees.
        """
        table: dict[str, set[str]] = {}
        def add(name: str, ret: str) -> None:
            ret = ret.strip()
            changed = True
            while changed:
                changed = False
                for qual in ("static", "inline", "constexpr", "virtual",
                             "friend", "[[nodiscard]]"):
                    if ret.startswith(qual):
                        ret = ret[len(qual):].lstrip()
                        changed = True
            kind = ("result"
                    if ret.startswith(("Result<", "Result <", "Status"))
                    or "::Result<" in ret or ret.endswith("::Status")
                    else "other")
            table.setdefault(name, set()).add(kind)
        for tu in self.tus:
            for m in tu.methods:
                add(m.name, m.ret_type)
            for fn in tu.functions:
                add(fn.name, fn.ret_type)
        return table
