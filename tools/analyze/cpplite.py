"""Built-in C++ token/scope frontend for commsig-analyzer.

Lowers a source file to the shared `TuFacts` IR without a compiler: a
hand-rolled lexer plus a single-pass structure scanner that understands the
subset of C++ this repo actually uses (namespaces, classes, member/free
function definitions, RAII lock guards, range-for, call expressions, local
declarations, and the COMMSIG_* thread-safety annotation macros).

This is the reference frontend: it has no toolchain dependency, runs on a
GCC-only host, and is what CI gates on.  The Clang AST-JSON frontend
(`clang_frontend.py`) produces the same IR with compiler-grade accuracy when
a clang binary is available.

It is a heuristic parser by design — macro-expanded or generated code could
confuse it — but it parses every file in src/ and tools/ today, and the
fixture suite in tests/tools/ pins the behaviours the passes rely on.
"""

from __future__ import annotations

from ir import (Call, Decl, FieldDecl, Function, LockAcq, MethodDecl,
                RangeLoop, TuFacts)

# --- Lexer -----------------------------------------------------------------

_PUNCT2 = {"::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
           "+=", "-=", "*=", "/=", "|=", "&=", "^=", "++", "--"}

_KEYWORDS_NOT_CALLS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "decltype", "static_assert", "static_cast", "dynamic_cast",
    "reinterpret_cast", "const_cast", "noexcept", "throw", "new", "delete",
    "assert", "defined", "alignas", "co_return", "co_await", "typeid",
}

_TYPE_KEYWORDS = {"const", "auto", "unsigned", "signed", "long", "short",
                  "int", "char", "bool", "float", "double", "void", "size_t",
                  "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
                  "int16_t", "int32_t", "int64_t", "struct", "class",
                  "typename", "volatile", "mutable", "static", "constexpr",
                  "inline", "extern", "thread_local", "wchar_t"}

_STMT_KEYWORDS = {"return", "if", "else", "for", "while", "do", "switch",
                  "case", "default", "break", "continue", "goto", "throw",
                  "delete", "new", "try", "catch", "using", "typedef",
                  "template", "public", "private", "protected", "friend",
                  "operator", "co_return", "co_yield", "co_await"}

_ANNOTATION_MACROS = {
    "COMMSIG_GUARDED_BY", "GUARDED_BY",
    "COMMSIG_PT_GUARDED_BY", "PT_GUARDED_BY",
    "COMMSIG_EXCLUDES", "EXCLUDES", "LOCKS_EXCLUDED",
    "COMMSIG_REQUIRES", "REQUIRES", "EXCLUSIVE_LOCKS_REQUIRED",
    "COMMSIG_ACQUIRE", "COMMSIG_RELEASE", "COMMSIG_RETURN_CAPABILITY",
    "COMMSIG_CAPABILITY", "COMMSIG_SCOPED_CAPABILITY",
    "COMMSIG_ACQUIRED_BEFORE", "ACQUIRED_BEFORE",
    "COMMSIG_ACQUIRED_AFTER", "ACQUIRED_AFTER",
}

_LOCK_GUARD_TYPES = {"MutexLock", "lock_guard", "unique_lock", "scoped_lock",
                     "shared_lock"}


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind: str, text: str, line: int):
        self.kind = kind   # "id" | "num" | "str" | "char" | "punct"
        self.text = text
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Tok({self.kind},{self.text!r},{self.line})"


def tokenize(text: str) -> tuple[list[Tok], list[str]]:
    """Lexes `text`; returns (tokens, include targets)."""
    toks: list[Tok] = []
    includes: list[str] = []
    i, n, line = 0, len(text), 1
    at_line_start = True
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            i = j
            continue
        if c == "#" and at_line_start:
            # Preprocessor directive: record includes, swallow the rest
            # (honouring backslash continuations).
            j = i
            while j < n:
                k = text.find("\n", j)
                if k == -1:
                    k = n
                if text[max(j, k - 1):k] == "\\":
                    line += 1
                    j = k + 1
                    continue
                break
            directive = text[i:k]
            if directive.lstrip("# \t").startswith("include"):
                inc = directive.split("include", 1)[1].strip()
                includes.append(inc.strip('"<>'))
            line += directive.count("\n")
            i = k
            continue
        at_line_start = False
        if c == 'R' and text[i:i + 2] == 'R"':
            # Raw string literal R"delim( ... )delim"
            j = text.find("(", i + 2)
            if j != -1:
                delim = text[i + 2:j]
                end = text.find(")" + delim + '"', j + 1)
                if end != -1:
                    value = text[j + 1:end]
                    toks.append(Tok("str", value, line))
                    line += text.count("\n", i, end)
                    i = end + len(delim) + 2
                    continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                elif text[j] == quote:
                    j += 1
                    break
                else:
                    j += 1
            raw = text[i + 1:max(i + 1, j - 1)]
            toks.append(Tok("str" if quote == '"' else "char", raw, line))
            line += text.count("\n", i, j)
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(Tok("id", text[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "._'+-"
                             if text[j - 1] in "eEpP" or text[j] not in "+-"
                             else False):
                j += 1
            toks.append(Tok("num", text[i:j], line))
            i = j
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            toks.append(Tok("punct", two, line))
            i += 2
            continue
        toks.append(Tok("punct", c, line))
        i += 1
    return toks, includes


def lex(text: str) -> tuple[list[str], list[int]]:
    """The whole file's tokens and their lines, for the lexical rules.

    String and char literals keep their quotes, so the identifier `new`
    and the literal "new" stay apart.
    """
    toks, _ = tokenize(text)
    quote = {"str": '"', "char": "'"}
    return ([quote[t.kind] + t.text + quote[t.kind] if t.kind in quote
             else t.text for t in toks],
            [t.line for t in toks])


# --- Structure scanner -----------------------------------------------------

def _match(toks: list[Tok], i: int, open_c: str, close_c: str) -> int:
    """Index just past the bracket group opening at `i` (toks[i] == open_c)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _text(toks: list[Tok], lo: int, hi: int) -> str:
    parts: list[str] = []
    for t in toks[lo:hi]:
        if t.kind == "str":
            parts.append('"' + t.text + '"')
        else:
            parts.append(t.text)
    out = ""
    for p in parts:
        if out and (out[-1].isalnum() or out[-1] == "_") and \
                (p[0].isalnum() or p[0] == "_"):
            out += " "
        out += p
    return out


def _split_args(toks: list[Tok], lo: int, hi: int) -> list[tuple[int, int]]:
    """Splits the token span (inside parens) at top-level commas."""
    spans: list[tuple[int, int]] = []
    depth = 0
    start = lo
    for i in range(lo, hi):
        t = toks[i].text
        if t in "([{<" and not (t == "<" and toks[i].kind == "punct" and
                                _is_comparison(toks, i)):
            depth += 1
        elif t in ")]}>" and depth > 0 and not (
                t == ">" and _is_comparison(toks, i)):
            depth -= 1
        elif t == "," and depth == 0:
            spans.append((start, i))
            start = i + 1
    if hi > start:
        spans.append((start, hi))
    return spans


def _is_comparison(toks: list[Tok], i: int) -> bool:
    """Crude guard so `a < b` in an argument doesn't unbalance depth:
    treat < / > as brackets only when adjacent to an identifier that looks
    like a template name (starts uppercase or is a std type)."""
    if toks[i].text == "<":
        prev = toks[i - 1] if i > 0 else None
        return bool(prev and prev.kind == "id" and
                    (prev.text[0].isupper() or prev.text in (
                        "vector", "map", "set", "unordered_map",
                        "unordered_set", "pair", "span", "optional",
                        "unique_ptr", "shared_ptr", "function", "array",
                        "string", "basic_string", "atomic", "tuple",
                        "lock_guard", "unique_lock", "scoped_lock")))
    return True


class _Parser:
    def __init__(self, path: str, text: str):
        self.tu = TuFacts(path=path)
        self.toks, self.tu.includes = tokenize(text)

    # -- declarations at namespace / class scope ---------------------------

    def parse(self) -> TuFacts:
        self._scan_decls(0, len(self.toks), cls="")
        return self.tu

    def _scan_decls(self, lo: int, hi: int, cls: str) -> None:
        i = lo
        toks = self.toks
        while i < hi:
            t = toks[i]
            if t.kind == "id" and t.text == "namespace":
                j = i + 1
                while j < hi and toks[j].text not in ("{", ";", "="):
                    j += 1
                if j < hi and toks[j].text == "{":
                    end = _match(toks, j, "{", "}")
                    self._scan_decls(j + 1, end - 1, cls)
                    i = end
                else:
                    i = j + 1
                continue
            if t.kind == "id" and t.text in ("class", "struct"):
                name_at = self._class_name_at(i + 1, hi)
                if name_at != -1:
                    i = self._scan_class(i, name_at, hi, cls)
                    continue
            if t.kind == "id" and t.text == "enum":
                j = i
                while j < hi and toks[j].text not in ("{", ";"):
                    j += 1
                i = _match(toks, j, "{", "}") if (
                    j < hi and toks[j].text == "{") else j + 1
                continue
            if t.kind == "id" and t.text in ("using", "typedef", "friend",
                                             "static_assert"):
                while i < hi and toks[i].text != ";":
                    i += 1
                i += 1
                continue
            if t.kind == "id" and t.text == "template":
                if i + 1 < hi and toks[i + 1].text == "<":
                    depth = 0
                    j = i + 1
                    while j < hi:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif toks[j].text == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                        j += 1
                    i = j + 1
                else:
                    i += 1
                continue
            if t.text in ("public", "private", "protected") and \
                    i + 1 < hi and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text == ";" or t.text == "}":
                i += 1
                continue
            i = self._scan_one_decl(i, hi, cls)

    def _class_name_at(self, j: int, hi: int) -> int:
        """Index of the class name after `class`, skipping [[attr]] blocks
        and annotation macros like COMMSIG_CAPABILITY("mutex")."""
        toks = self.toks
        while j < hi:
            t = toks[j]
            if t.text == "[" and j + 1 < hi and toks[j + 1].text == "[":
                j = _match(toks, j, "[", "]")
                continue
            if t.kind == "id" and (t.text in _ANNOTATION_MACROS or
                                   t.text == "alignas"):
                j += 1
                if j < hi and toks[j].text == "(":
                    j = _match(toks, j, "(", ")")
                continue
            return j if t.kind == "id" else -1
        return -1

    def _scan_class(self, i: int, name_at: int, hi: int, outer: str) -> int:
        toks = self.toks
        name = toks[name_at].text
        j = name_at + 1
        # Annotation macros / final / base clause before the body.
        while j < hi and toks[j].text not in ("{", ";"):
            if toks[j].text == "(":
                j = _match(toks, j, "(", ")")
            else:
                j += 1
        if j >= hi or toks[j].text == ";":
            return j + 1  # forward declaration
        end = _match(toks, j, "{", "}")
        self._scan_decls(j + 1, end - 1, name)
        return end

    def _scan_one_decl(self, i: int, hi: int, cls: str) -> int:
        """Parses one namespace/class-scope declaration starting at `i`.

        Returns the index just past it.  Emits Function / MethodDecl /
        FieldDecl facts as appropriate.
        """
        toks = self.toks
        j = i
        paren_at = -1          # first top-level '(' owned by a plain id
        annot: dict[str, list[str]] = {}
        while j < hi:
            t = toks[j].text
            if t == "(":
                owner = toks[j - 1].text if j > i else ""
                if owner in _ANNOTATION_MACROS:
                    close = _match(toks, j, "(", ")")
                    args = [_text(toks, a, b)
                            for a, b in _split_args(toks, j + 1, close - 1)]
                    annot.setdefault(owner, []).extend(a for a in args if a)
                    j = close
                    continue
                if paren_at == -1 and toks[j - 1].kind == "id" and j > i:
                    paren_at = j
                j = _match(toks, j, "(", ")")
                continue
            if t == "{":
                # Function body, or a brace initialiser on a field.
                if paren_at != -1:
                    return self._finish_function(i, paren_at, j, hi, cls,
                                                 annot)
                j = _match(toks, j, "{", "}")
                if j < hi and toks[j].text == ";":
                    j += 1
                self._maybe_field(i, j, cls, annot)
                return j
            if t == ";":
                if paren_at != -1:
                    self._emit_method_decl(i, paren_at, cls, annot)
                else:
                    self._maybe_field(i, j, cls, annot)
                return j + 1
            if t == "=":
                # `= default` / `= delete` / field initialiser.
                while j < hi and toks[j].text != ";":
                    if toks[j].text in "([{":
                        j = _match(toks, j, toks[j].text,
                                   {"(": ")", "[": "]", "{": "}"}[toks[j].text])
                    else:
                        j += 1
                if paren_at != -1:
                    self._emit_method_decl(i, paren_at, cls, annot)
                else:
                    self._maybe_field(i, j, cls, annot)
                return j + 1
            j += 1
        return hi

    def _callee_chain(self, paren_at: int, lo: int) -> tuple[str, str, int]:
        """(name, qual_class, chain_start) for the callee ending at `paren_at`."""
        toks = self.toks
        k = paren_at - 1
        if toks[k].kind != "id":
            return "", "", k
        name = toks[k].text
        qual = ""
        start = k
        while start - 2 >= lo and toks[start - 1].text == "::" and \
                toks[start - 2].kind == "id":
            if not qual:
                qual = toks[start - 2].text
            start -= 2
        return name, qual, start

    def _emit_method_decl(self, lo: int, paren_at: int, cls: str,
                          annot: dict[str, list[str]]) -> None:
        toks = self.toks
        name, qual, start = self._callee_chain(paren_at, lo)
        if not name or name in _STMT_KEYWORDS:
            return
        ret = _text(toks, lo, start)
        self.tu.methods.append(MethodDecl(
            cls=qual or cls, name=name, ret_type=ret, line=toks[paren_at].line,
            excludes=(annot.get("COMMSIG_EXCLUDES", []) +
                      annot.get("EXCLUDES", []) +
                      annot.get("LOCKS_EXCLUDED", [])),
            requires=(annot.get("COMMSIG_REQUIRES", []) +
                      annot.get("REQUIRES", []) +
                      annot.get("EXCLUSIVE_LOCKS_REQUIRED", []))))

    def _maybe_field(self, lo: int, hi: int, cls: str,
                     annot: dict[str, list[str]]) -> None:
        if not cls:
            return
        toks = self.toks
        # Field name: last plain identifier before '=' / '{' / annotation.
        name = ""
        name_at = -1
        k = lo
        while k < hi:
            t = toks[k]
            if t.text in ("=", "{"):
                break
            if t.text == "[":
                k = _match(toks, k, "[", "]")
                continue
            if t.kind == "id" and t.text in _ANNOTATION_MACROS:
                break
            if t.kind == "id" and t.text not in _TYPE_KEYWORDS:
                name, name_at = t.text, k
            k += 1
        if not name or name_at <= lo:
            return
        type_text = _text(toks, lo, name_at)
        if not type_text:
            return
        guarded = (annot.get("COMMSIG_GUARDED_BY", []) +
                   annot.get("GUARDED_BY", []))
        self.tu.fields.append(FieldDecl(
            cls=cls, name=name, type_text=type_text, line=toks[name_at].line,
            guarded_by=guarded[0] if guarded else "",
            acquired_before=(annot.get("COMMSIG_ACQUIRED_BEFORE", []) +
                             annot.get("ACQUIRED_BEFORE", [])),
            acquired_after=(annot.get("COMMSIG_ACQUIRED_AFTER", []) +
                            annot.get("ACQUIRED_AFTER", []))))

    def _finish_function(self, lo: int, paren_at: int, brace_at: int,
                         hi: int, cls: str,
                         annot: dict[str, list[str]]) -> int:
        toks = self.toks
        name, qual, start = self._callee_chain(paren_at, lo)
        body_end = _match(toks, brace_at, "{", "}")
        if not name or name in _STMT_KEYWORDS:
            return body_end
        fn = Function(
            name=name, qual_class=qual or cls,
            ret_type=_text(toks, lo, start),
            start_line=toks[lo].line, end_line=toks[body_end - 1].line,
            excludes=(annot.get("COMMSIG_EXCLUDES", []) +
                      annot.get("EXCLUDES", []) +
                      annot.get("LOCKS_EXCLUDED", [])),
            requires=(annot.get("COMMSIG_REQUIRES", []) +
                      annot.get("REQUIRES", []) +
                      annot.get("EXCLUSIVE_LOCKS_REQUIRED", [])))
        self.tu.methods.append(MethodDecl(
            cls=fn.qual_class, name=name, ret_type=fn.ret_type,
            line=toks[paren_at].line, excludes=list(fn.excludes),
            requires=list(fn.requires)))
        # Parameters double as declarations so receiver types resolve.
        close = _match(toks, paren_at, "(", ")")
        for a, b in _split_args(toks, paren_at + 1, close - 1):
            if b - a >= 2 and toks[b - 1].kind == "id" and \
                    toks[b - 1].text not in _TYPE_KEYWORDS:
                fn.decls.append(Decl(name=toks[b - 1].text,
                                     type_text=_text(toks, a, b - 1),
                                     line=toks[b - 1].line))
        self._scan_body(fn, brace_at + 1, body_end - 1)
        self.tu.functions.append(fn)
        return body_end

    # -- function bodies ---------------------------------------------------

    def _scan_body(self, fn: Function, lo: int, hi: int) -> None:
        toks = self.toks
        fn.tokens = [t.text if t.kind != "str" else '"' + t.text + '"'
                     for t in toks[lo:hi]]
        fn.token_lines = [t.line for t in toks[lo:hi]]
        depth = 0
        stmt_start = True
        i = lo
        while i < hi:
            t = toks[i]
            if t.text == "{":
                depth += 1
                stmt_start = True
                i += 1
                continue
            if t.text == "}":
                depth -= 1
                # RAII guards declared in the closing scope are released
                # here; locks at depth <= new depth stay held.
                for l in fn.locks:
                    if l.release_line == 0 and l.depth > depth:
                        l.release_line = t.line
                stmt_start = True
                i += 1
                continue
            if t.text == ";":
                stmt_start = True
                i += 1
                continue
            if t.kind == "id" and t.text == "for" and i + 1 < hi and \
                    toks[i + 1].text == "(":
                close = _match(toks, i + 1, "(", ")")
                self._maybe_range_for(fn, i + 1, close, lo, depth)
                stmt_start = True
                i = close
                continue
            if stmt_start and t.kind == "id":
                self._maybe_local_decl(fn, i, hi, depth)
            if t.kind == "id" and i + 1 < hi and toks[i + 1].text == "(" \
                    and t.text not in _KEYWORDS_NOT_CALLS:
                self._record_call(fn, i, lo, hi, depth, stmt_start)
            if t.text not in ("else", "do", "try"):
                stmt_start = False
            i += 1

    def _maybe_range_for(self, fn: Function, open_at: int, close: int,
                         body_lo: int, depth: int) -> None:
        toks = self.toks
        colon = -1
        pdepth = 0
        for k in range(open_at, close):
            t = toks[k].text
            if t == "(":
                pdepth += 1
            elif t == ")":
                pdepth -= 1
            elif t == ":" and pdepth == 1:
                colon = k
                break
        if colon == -1:
            return
        seq_lo, seq_hi = colon + 1, close - 1
        seq_text = _text(toks, seq_lo, seq_hi)
        base = ""
        subscripted = "[" in seq_text
        for k in range(seq_lo, seq_hi):
            if toks[k].kind == "id" and toks[k].text not in _TYPE_KEYWORDS:
                base = toks[k].text
                break
        body_start = close
        if body_start < len(toks) and toks[body_start].text == "{":
            body_end = _match(toks, body_start, "{", "}")
        else:
            body_end = body_start
            while body_end < len(toks) and toks[body_end].text != ";":
                if toks[body_end].text == "(":
                    body_end = _match(toks, body_end, "(", ")")
                else:
                    body_end += 1
        fn.loops.append(RangeLoop(
            seq_text=seq_text, seq_base=base, line=toks[open_at].line,
            body_start=body_start - body_lo, body_end=body_end - body_lo,
            subscripted=subscripted))

    def _maybe_local_decl(self, fn: Function, i: int, hi: int,
                          depth: int) -> None:
        toks = self.toks
        if toks[i].text in _STMT_KEYWORDS or \
                toks[i].text in _KEYWORDS_NOT_CALLS:
            if toks[i].text not in _TYPE_KEYWORDS:
                return
        j = i
        last_id = -1
        ids = 0
        while j < hi:
            t = toks[j]
            if t.kind == "id":
                if t.text in _ANNOTATION_MACROS:
                    break
                last_id = j
                ids += 1
                j += 1
                continue
            if t.text == "<" and _is_comparison(toks, j):
                d = 0
                while j < hi:
                    if toks[j].text == "<":
                        d += 1
                    elif toks[j].text == ">":
                        d -= 1
                        if d == 0:
                            j += 1
                            break
                    elif toks[j].text == ">>":
                        d -= 2
                        if d <= 0:
                            j += 1
                            break
                    elif toks[j].text in (";", "{", ")"):
                        return
                    j += 1
                continue
            if t.text in ("::", "&", "*", "const"):
                j += 1
                continue
            break
        if last_id == -1 or ids < 2 or j >= hi:
            return
        term = toks[j].text
        if term not in ("=", ";", "(", "{"):
            return
        name = toks[last_id].text
        type_text = _text(toks, i, last_id)
        if not type_text or type_text in ("return",):
            return
        # `std::sort(...)` / `Foo::Bar(...)` at statement start is a
        # qualified call, not a declaration.
        if term == "(" and type_text.rstrip().endswith("::"):
            return
        init_call = ""
        if term in ("=", "(", "{"):
            k = j if term != "=" else j + 1
            limit = min(hi, k + 12)
            while k < limit:
                if toks[k].kind == "id" and k + 1 < hi and \
                        toks[k + 1].text == "(" and \
                        toks[k].text not in _KEYWORDS_NOT_CALLS:
                    init_call = toks[k].text
                    break
                if toks[k].text in (";", "{"):
                    break
                k += 1
        d = Decl(name=name, type_text=type_text, line=toks[last_id].line,
                 init_call=init_call)
        fn.decls.append(d)
        base = type_text.split("<")[0].split("::")[-1].strip()
        if base in _LOCK_GUARD_TYPES and term in ("(", "{"):
            close = _match(toks, j, term, ")" if term == "(" else "}")
            args = _split_args(toks, j + 1, close - 1)
            if args:
                mutex = _text(toks, *args[0]).lstrip("&* ")
                fn.locks.append(LockAcq(mutex_text=mutex,
                                        line=toks[j].line, depth=depth))

    def _record_call(self, fn: Function, i: int, lo: int, hi: int,
                     depth: int, stmt_start_hint: bool) -> None:
        toks = self.toks
        name = toks[i].text
        open_at = i + 1
        close = _match(toks, open_at, "(", ")")
        # Receiver: walk the `a.b->c::` chain backwards.
        recv_start = i
        k = i - 1
        while k > lo:
            t = toks[k].text
            if t in (".", "->", "::"):
                k -= 1
                if k > lo and toks[k].text in (")", "]"):
                    # match backwards over the bracket group
                    target = "(" if toks[k].text == ")" else "["
                    d = 0
                    while k > lo:
                        if toks[k].text in (")", "]"):
                            d += 1
                        elif toks[k].text in ("(", "["):
                            d -= 1
                            if d == 0:
                                break
                        k -= 1
                    k -= 1
                    recv_start = k + 1
                    continue
                if k > lo and (toks[k].kind == "id" or
                               toks[k].text == "this"):
                    recv_start = k
                    k -= 1
                    continue
                break
            break
        recv = _text(toks, recv_start, i - 1) if recv_start < i else ""
        before = toks[recv_start - 1].text if recv_start - 1 >= lo else ";"
        is_stmt = before in (";", "{", "}") and close < hi and \
            toks[close].text == ";"
        spans = _split_args(toks, open_at + 1, close - 1)
        args: list[str] = []
        str_args: list[str | None] = []
        for a, b in spans:
            args.append(_text(toks, a, b))
            if b > a and all(toks[x].kind == "str" for x in range(a, b)):
                str_args.append("".join(toks[x].text for x in range(a, b)))
            else:
                str_args.append(None)
        fn.calls.append(Call(name=name, line=toks[i].line, recv=recv,
                             args=args, str_args=str_args, is_stmt=is_stmt,
                             depth=depth))
        if name in ("Lock", "lock") and recv and not args:
            fn.locks.append(LockAcq(mutex_text=recv, line=toks[i].line,
                                    depth=depth, kind="manual"))
        if name in ("Unlock", "unlock") and recv and not args:
            for l in fn.locks:
                if l.kind == "manual" and l.mutex_text == recv and \
                        l.release_line == 0:
                    l.release_line = toks[i].line
                    break


def parse_file(path: str, rel: str, text: str | None = None) -> TuFacts:
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    return _Parser(rel, text).parse()
