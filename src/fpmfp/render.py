"""Plain-text renderings: MiniIR statements and edge labels, the DOT form
of a program's CFGs, and the ``compare --format table`` report.

Only ``dump-dot``, ``detect-mips --dot`` and ``compare --format table``
load this module; a run that writes JSON compiles none of it.
"""
from __future__ import annotations

from .frontend import (
    Cond, EdgeLabel, Expr, LabelKind, MiniIrProgram, Statement, StKind)


def expr_text(expr: Expr) -> str:
    if expr.kind == "const":
        return str(expr.value)
    if expr.kind == "var":
        return expr.name
    return f"{expr_text(expr.left)} {expr.op} {expr_text(expr.right)}"


def cond_text(cond: Cond) -> str:
    if cond.op in ("&&", "||"):
        text = f"{cond_text(cond.left)} {cond.op} {cond_text(cond.right)}"
    elif cond.op == "var":
        text = cond.var
    else:
        text = f"{cond.var} {cond.op} {cond.rhs}"
    return f"@atomic_cond {text}" if cond.atomic else text


def statement_text(st: Statement) -> str:
    k = st.kind
    if k == StKind.ASSIGN:
        return f"{st.var} = {expr_text(st.expr)};"
    if k == StKind.READ:
        return f"read {st.var};"
    if k == StKind.PRINT:
        return f"print {expr_text(st.expr)};"
    if k == StKind.ASSERT:
        return f"assert({cond_text(st.cond)});"
    if k == StKind.BRANCH:
        head = "while" if st.is_loop else "if"
        return f"{head} ({cond_text(st.cond)})"
    if k == StKind.SWITCH:
        return f"switch ({st.var})"
    if k == StKind.CALL:
        return f"{st.callee}();"
    if k == StKind.SKIP:
        return "skip;"
    return "exit;"


def label_text(label: EdgeLabel) -> str:
    if label.kind == LabelKind.CASE:
        return f"case {label.value}"
    return label.kind


def emit_dot_program(program: MiniIrProgram,
                     annotations: dict[int, str] | None = None) -> str:
    """One digraph with a cluster per procedure."""
    annotations = annotations or {}
    lines = ["digraph program {", "  node [shape=box];"]
    for idx, proc in enumerate(program.procedures):
        cfg = proc.cfg
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append(f'    label="{proc.name}";')
        for nid in sorted(cfg.nodes):
            st = cfg.nodes[nid].statement
            text = statement_text(st).replace('"', '\\"')
            lines.append(f'    n{nid} [label="n{nid}: {text}"];')
        for eid in sorted(cfg.edges):
            e = cfg.edges[eid]
            parts = []
            if e.label.kind != LabelKind.NONE:
                parts.append(label_text(e.label))
            if eid in annotations:
                parts.append(annotations[eid])
            label = f"e{eid}"
            if parts:
                label += ": " + ", ".join(parts)
            lines.append(f'    n{e.source} -> n{e.target} [label="{label}"];')
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def comparison_table(report) -> str:
    """A ``clients.ComparisonReport``'s analysis, segment count and
    strict locations, then each node's value in both modes."""
    fmt = report.analysis.format
    lines = [
        f"analysis={report.analysis.name}  segments={report.segment_count}"
        f"  strict nodes={list(report.strict_nodes)}"
        f"  strict edges={list(report.strict_edges)}",
    ]
    for nid, row in sorted(report.node_rows.items()):
        mark = "*" if row.strict else " "
        lines.append(f"  n{nid} {mark} mfp: {fmt(row.mfp)}")
        lines.append(f"       {mark} fp:  {fmt(row.fpmfp)}")
    return "\n".join(lines)


def _percent_text(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}%"


# Per client report's ``compare_key``: its table's header and the text of
# one finding.
_CLIENT_ROWS = {
    "def_use": ("def-use pairs",
                lambda p: f"n{p.def_node} -> n{p.use_node}  {p.var}"),
    "alarms": ("uninitialized uses", lambda a: f"n{a.use_node}  {a.var}"),
}


def client_table(client) -> str:
    """A def-use or alarm report's totals and reduction, then each plain
    finding, marked kept or gone in the feasible-path mode."""
    header, row = _CLIENT_ROWS[client.compare_key]
    lines = [f"{header}  mfp={len(client.mfp)}  fpmfp={len(client.fpmfp)}"
             f"  reduction={_percent_text(client.reduction)}"]
    fpmfp = set(client.fpmfp)
    for item in client.mfp:
        kept = "kept " if item in fpmfp else "gone "
        lines.append(f"  {kept} {row(item)}")
    return "\n".join(lines)
