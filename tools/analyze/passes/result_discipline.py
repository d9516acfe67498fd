"""Result pass: discipline for Result<T> / Status error flow.

The rules understand declarations: the return-kind table is built from
every function and method declaration across the project.

  discarded        a full-statement call to a Result/Status-returning
                   function whose return value is dropped (not bound,
                   not (void)-cast).  Flagged only when *every*
                   declaration of the name returns Result/Status, so an
                   overloaded or ambiguous name is never guessed at.
                   [[nodiscard]] on Result/Status makes the compiler catch
                   most of these; this rule also covers TUs compiled
                   without -Wall and pre-compile review.
  unchecked-value  r.value() / r.status() use on a Result local with no
                   preceding r.ok() check in the same function —
                   COMMSIG_CHECK aborts at runtime on a bad access, so an
                   unchecked value() is a latent crash.
  unchecked-temporary
                   .value(), unary * or -> applied straight to a call of a
                   name that *some* declaration returns Result/Status from,
                   e.g. `*reader.U32()`: a temporary cannot have been
                   checked, so every error aborts the process.  A
                   same-named method that returns something else (U64 is
                   also obs::LogEvent::U64) has no value(), * or -> to
                   match.  Lexical: it reads the file's whole token stream,
                   so it covers checkpoint decoding at any scope.
"""

from __future__ import annotations

from ir import Finding, Project

# Generated/driver entry points where a trailing Run() statement's Status
# feeds the process exit code via the call itself.
_DISCARD_OK = {"main"}


def run(project: Project, ctx) -> list[Finding]:
    table = project.result_return_table()
    result_only = {name for name, kinds in table.items()
                   if kinds == {"result"}}
    result_some = {name for name, kinds in table.items()
                   if "result" in kinds}
    findings: list[Finding] = []
    for tu in project.tus:
        for fn in tu.functions:
            if fn.name in _DISCARD_OK:
                continue
            _check_discards(tu, fn, result_only, findings)
            _check_unchecked_value(tu, fn, findings)
        _check_temporaries(tu, result_some, findings)
    return findings


def _check_discards(tu, fn, result_only: set[str],
                    findings: list[Finding]) -> None:
    for c in fn.calls:
        if not c.is_stmt or c.name not in result_only:
            continue
        findings.append(Finding(
            tu.path, c.line, "result", "discarded",
            f"return value of {c.name}() is a Result/Status and is "
            "discarded; bind it, check ok(), or cast to (void) with a "
            "reason"))


def _check_unchecked_value(tu, fn, findings: list[Finding]) -> None:
    # Result-typed locals in this function.
    result_locals = {d.name: d.line for d in fn.decls
                     if d.type_text.replace("commsig::", "")
                     .lstrip("const ").startswith(("Result<", "Result "))}
    if not result_locals:
        return
    checked: set[str] = set()
    accesses: list = []
    for c in fn.calls:
        base = c.recv.replace("->", ".").split(".")[0].strip("()& ")
        if base not in result_locals:
            continue
        if c.name in ("ok", "status"):
            checked.add(base)
        elif c.name == "value" and base not in checked:
            accesses.append((base, c.line))
    for base, line in accesses:
        if base in checked:
            continue  # checked later on another path; give the benefit
        findings.append(Finding(
            tu.path, line, "result", "unchecked-value",
            f"'{base}.value()' is reached with no ok() check in this "
            "function; COMMSIG_CHECK aborts the process on error"))


# A `*` dereferences after these keywords and after any punctuation but
# the operand endings below; after an identifier or a literal it multiplies.
_PREFIX_KEYWORDS = {"return", "co_return", "co_yield", "throw", "case"}
_OPERAND_END = {")", "]", ">", ">>", "++", "--"}


def _check_temporaries(tu, result_names: set[str],
                       findings: list[Finding]) -> None:
    toks = tu.tokens
    for i, name in enumerate(toks):
        if name not in result_names or toks[i + 1:i + 2] != ["("]:
            continue
        after = _close_paren(toks, i + 1)
        start = _chain_start(toks, i)
        if (toks[after:after + 3] == [".", "value", "("]
                or toks[after:after + 1] == ["->"]
                or (start > 0 and toks[start - 1] == "*"
                    and _prefix_position(toks, start - 1))):
            findings.append(Finding(
                tu.path, tu.token_lines[i], "result", "unchecked-temporary",
                f"the Result of {name}() is dereferenced in the same "
                "expression, unchecked; bind it and check ok() first"))


def _close_paren(toks: list[str], open_at: int) -> int:
    """Index just past the `)` matching the `(` at `open_at`."""
    depth = 0
    for k in range(open_at, len(toks)):
        if toks[k] == "(":
            depth += 1
        elif toks[k] == ")":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(toks)


def _chain_start(toks: list[str], i: int) -> int:
    """First token of the member chain ending in the callee `toks[i]`:
    `in` for `in.U32`, `this` for `this->reader_->U32`."""
    k = i
    while k >= 2 and toks[k - 1] in (".", "->", "::") and \
            _is_identifier(toks[k - 2]):
        k -= 2
    return k


def _prefix_position(toks: list[str], star: int) -> bool:
    """Whether the `*` at `star` is unary: nothing before it ends an
    operand, as `x` does in `x * f()`."""
    if star == 0:
        return True
    prev = toks[star - 1]
    if prev in _PREFIX_KEYWORDS:
        return True
    if _is_identifier(prev) or prev[0].isdigit() or prev[0] in "\"'":
        return False
    return prev not in _OPERAND_END


def _is_identifier(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"
