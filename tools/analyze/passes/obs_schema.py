"""Obs-schema pass: keep docs/obs_schema.json in lockstep with the code.

Every metric, span, log event, and fail-point is addressed by a string
literal at its call site.  Dashboards, scrape configs, and the chaos
harness key on those names, so a renamed counter or a new log event that
never lands in the schema silently breaks consumers.  This pass extracts
all names from call sites and diffs them against the checked-in registry:

  undeclared       a name used in code but missing from its schema category
  stale            a schema entry no call site uses any more
  prereg-drift     PreRegisterCoreMetrics (the startup registration set
                   that makes metrics visible to scrapers before first use)
                   disagrees with the schema's `preregistered` lists
  dynamic-name     an observable addressed by a non-literal expression,
                   which the schema can never account for
  naming           a literal that violates the `area/metric_name`
                   (metrics/spans/failpoints) or `snake_case` (log events)
                   conventions

`--update-schema` rewrites the registry from the extracted facts; the diff
then goes through normal code review.
"""

from __future__ import annotations

import json
import re

from ir import Finding, Project

SCHEMA_CATEGORIES = ("counters", "gauges", "histograms", "spans",
                     "log_events", "failpoint_sites")

# call name -> (category, index of the name argument)
_SITES = {
    "COMMSIG_COUNTER_ADD": ("counters", 0),
    "COMMSIG_GAUGE_SET": ("gauges", 0),
    "COMMSIG_HISTOGRAM_OBSERVE": ("histograms", 0),
    "COMMSIG_SPAN": ("spans", 0),
    "GetCounter": ("counters", 0),
    "GetGauge": ("gauges", 0),
    "GetHistogram": ("histograms", 0),
    "LogDebug": ("log_events", 0),
    "LogInfo": ("log_events", 0),
    "LogWarn": ("log_events", 0),
    "LogError": ("log_events", 0),
    "Log": ("log_events", 1),  # obs::Log(level, "event")
    "Inject": ("failpoint_sites", 0),
    "OpenForWrite": ("failpoint_sites", 0),
    "WriteAll": ("failpoint_sites", 0),
    "FsyncFd": ("failpoint_sites", 0),
    "RenameFile": ("failpoint_sites", 0),
    "FsyncDir": ("failpoint_sites", 0),
}

_PATH_NAME = re.compile(r"^[a-z0-9_]+(/[a-z0-9_]+)+$")
_FLAT_NAME = re.compile(r"^[a-z0-9_.]+$")

# Files allowed to address observables dynamically: the obs/fail-point
# plumbing itself, where names are forwarded parameters by design.
_INFRA = ("src/obs/", "src/robust/failpoints", "src/robust/checkpoint",
          "src/robust/io")
# Conventional forwarded-parameter spellings a wrapper uses for the name.
_FORWARDED = {"name", "site", "event", "label", "key", "site_name",
              "metric", "event_name"}


def extract(project: Project) -> tuple[dict[str, dict[str, list]], list]:
    """(category -> name -> [(path, line), ...], dynamic-name sites)."""
    used: dict[str, dict[str, list]] = {c: {} for c in SCHEMA_CATEGORIES}
    dynamic: list[tuple[str, int, str, str]] = []
    for tu in project.tus:
        for fn in tu.functions:
            for c in fn.calls:
                site = _SITES.get(c.name)
                if site is None:
                    continue
                category, arg_idx = site
                if c.name in ("Inject", "OpenForWrite", "WriteAll",
                              "FsyncFd", "RenameFile", "FsyncDir") and \
                        c.recv not in ("", "failpoints",
                                       "commsig::failpoints"):
                    continue  # same-named method on an unrelated class
                if c.name == "Log" and \
                        c.recv not in ("", "obs", "commsig::obs"):
                    continue  # Log() on an unrelated class
                if arg_idx >= len(c.args):
                    continue
                literal = (c.str_args[arg_idx]
                           if arg_idx < len(c.str_args) else None)
                if literal is not None:
                    used[category].setdefault(literal, []).append(
                        (tu.path, c.line))
                else:
                    arg = c.args[arg_idx].strip()
                    if tu.path.startswith(_INFRA) or arg in _FORWARDED or \
                            arg.split(".")[-1] in _FORWARDED:
                        continue
                    dynamic.append((tu.path, c.line, c.name, arg))
    return used, dynamic


def preregistered_in_code(project: Project) -> set[str]:
    """Every metric name PreRegisterCoreMetrics registers at startup.

    The function registers via both direct literal calls and range-for
    loops over initializer lists of names, so the reliable extraction is
    "all string literals in the body" (both frontends record them).
    """
    out: set[str] = set()
    for tu in project.tus:
        for fn in tu.functions:
            if fn.name != "PreRegisterCoreMetrics":
                continue
            for tok in fn.tokens:
                if tok.startswith('"') and tok.endswith('"') and len(tok) > 2:
                    out.add(tok[1:-1])
            for c in fn.calls:
                if c.str_args and c.str_args[0] is not None:
                    out.add(c.str_args[0])
    return out


def load_schema(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def build_schema(project: Project) -> dict:
    used, _ = extract(project)
    prereg = preregistered_in_code(project)
    return {
        "comment": "Registry of every observable name the code emits. "
                   "Regenerate with: tools/analyze/analyze.py "
                   "--update-schema; review the diff like any API change.",
        "categories": {c: sorted(used[c]) for c in SCHEMA_CATEGORIES},
        "preregistered": sorted(prereg),
    }


def run(project: Project, ctx) -> list[Finding]:
    findings: list[Finding] = []
    used, dynamic = extract(project)
    for path, line, call, arg in dynamic:
        findings.append(Finding(
            path, line, "obs-schema", "dynamic-name",
            f"{call} is addressed by expression '{arg}'; observable names "
            "must be string literals so the schema stays complete"))
    for category, names in used.items():
        pattern = _FLAT_NAME if category == "log_events" else _PATH_NAME
        style = ("snake_case" if category == "log_events"
                 else "area/metric_name")
        for name, sites in sorted(names.items()):
            if not pattern.match(name):
                path, line = sites[0]
                findings.append(Finding(
                    path, line, "obs-schema", "naming",
                    f"{category[:-1]} '{name}' violates the {style} "
                    "convention"))
    schema = load_schema(ctx.schema_path)
    if schema is None:
        findings.append(Finding(
            ctx.schema_rel, 1, "obs-schema", "missing-schema",
            f"cannot read {ctx.schema_rel}; regenerate with "
            "--update-schema"))
        return findings
    declared = schema.get("categories", {})
    for category, names in used.items():
        known = set(declared.get(category, []))
        for name, sites in sorted(names.items()):
            if name not in known:
                path, line = sites[0]
                findings.append(Finding(
                    path, line, "obs-schema", "undeclared",
                    f"{category[:-1]} '{name}' is not in "
                    f"{ctx.schema_rel}; add it (or run --update-schema)"))
        for name in sorted(known - set(names)):
            findings.append(Finding(
                ctx.schema_rel, 1, "obs-schema", "stale",
                f"{category[:-1]} '{name}' is in the schema but no call "
                "site uses it"))
    prereg_code = preregistered_in_code(project)
    prereg_decl = schema.get("preregistered", [])
    prereg_decl = set(prereg_decl if isinstance(prereg_decl, list) else [])
    for name in sorted(prereg_code - prereg_decl):
        findings.append(Finding(
            ctx.schema_rel, 1, "obs-schema", "prereg-drift",
            f"PreRegisterCoreMetrics registers '{name}' but the schema's "
            "preregistered list omits it"))
    for name in sorted(prereg_decl - prereg_code):
        findings.append(Finding(
            ctx.schema_rel, 1, "obs-schema", "prereg-drift",
            f"schema expects '{name}' preregistered but "
            "PreRegisterCoreMetrics does not register it"))
    # The startup set must cover every counter/gauge/histogram the code
    # writes: that is exactly the real drift fixed when this pass landed —
    # metrics invisible to scrapers until their first increment.
    writers = {"COMMSIG_COUNTER_ADD", "COMMSIG_GAUGE_SET",
               "COMMSIG_HISTOGRAM_OBSERVE"}
    for tu in project.tus:
        for fn in tu.functions:
            for c in fn.calls:
                if c.name in writers and c.str_args and \
                        c.str_args[0] is not None and \
                        c.str_args[0] not in prereg_code:
                    findings.append(Finding(
                        tu.path, c.line, "obs-schema", "not-preregistered",
                        f"metric '{c.str_args[0]}' is written here but "
                        "PreRegisterCoreMetrics never registers it, so it "
                        "is invisible to /metrics scrapers until first "
                        "use"))
    return findings
