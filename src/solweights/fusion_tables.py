"""Machine-readable centric radical classification tables and Hasse data.

The four tables and the two Hasse diagrams are shipped as structured text
under ``data/``; they are source-of-truth inputs for the parts of the
2-local structure that this package does not rebuild from scratch (the
spin-group side).  Loading validates row counts, the descriptors (each is
checked against the spec grammar of ``zoo``; its group is built on first
read, by :func:`resolve_out_descriptor`), order-exponent expressions, the
column dichotomy of the full system against the two local systems, and the
exponent consistency between tables and diagrams.

Weight counts evaluate the defect-zero block count of every resolved outer
automorphism group in a column and sum them; ``solmodel.bound_check`` holds
the count against 2^s(S).
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from dataclasses import dataclass
from importlib import resources

from .errors import UnknownSpec, ValidationFailure
from .groups import FiniteGroup, cached_per_cap
from .robinson import defect_zero_block_count
from .zoo import named_group, spec_builder, split_top

SYSTEMS = ("H", "K", "F")


@dataclass(frozen=True)
class TableRow:
    label: str
    order_exp: str                      # affine expression in l, e.g. "9+2l"
    out: dict                           # system -> descriptor or None

    def order_exponent(self, l: int) -> int:
        return eval_exponent(self.order_exp, l)


@dataclass(frozen=True)
class HasseDiagram:
    nodes: list[tuple[str, str]]        # (label, order exponent expression)
    edges: list[tuple[str, str]]        # (lower, upper)


def eval_exponent(expr: str, l: int) -> int:
    """Evaluate an affine exponent expression like '10+3l' or '8'."""
    m = re.fullmatch(r"(\d+)(?:\+(\d*)l)?", expr.replace(" ", ""))
    if not m:
        raise ValidationFailure(f"bad order exponent expression {expr!r}")
    base = int(m.group(1))
    if m.group(2) is None:
        return base
    coeff = int(m.group(2)) if m.group(2) else 1
    return base + coeff * l


# ---------------------------------------------------------------------------
# descriptor resolution
# ---------------------------------------------------------------------------

_DESCRIPTOR_MAP = {
    "1": "1",
    "S3": "S3",
    "S5": "S5",
    "S6": "S6",
    "S7": "S7",
    "A7": "A7",
    "GL3(2)": "GL(3,2)",
    "GL4(2)": "GL(4,2)",
    "(C3xC3):-1:C2": "dih(C3xC3)",
    "(C3)^3:(C2xC2)": "m108",
    "(C3)^3:(C2xS3)": "m324",
}


def _parse_descriptor(desc: str) -> str:
    """Normalize a table descriptor to a zoo spec (wr binds tighter than x)."""
    d = desc.strip()
    if d in _DESCRIPTOR_MAP:
        return _DESCRIPTOR_MAP[d]
    if re.fullmatch(r"[SACD]\d+", d):
        return d
    # strip outer parentheses that wrap it all: the depth first returns to 0 at the end
    depths = itertools.accumulate((ch == "(") - (ch == ")") for ch in d)
    if d.startswith("(") and next((i for i, n in enumerate(depths) if not n), None) == len(d) - 1:
        return _parse_descriptor(d[1:-1])
    # split on top-level ' x '
    parts = split_top(d, " x ")
    if len(parts) > 1:
        specs = [_parse_descriptor(p) for p in parts]
        acc = specs[-1]
        for s in reversed(specs[:-1]):
            acc = f"x({s},{acc})"
        return acc
    parts = split_top(d, " wr ")
    if len(parts) == 2:
        return f"wr({_parse_descriptor(parts[0])},{_parse_descriptor(parts[1])})"
    raise UnknownSpec(f"unrecognized table descriptor {desc!r}")


def resolve_out_descriptor(desc: str) -> FiniteGroup:
    """Resolve a table descriptor to its registry group."""
    return named_group(_parse_descriptor(desc))


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------

_EXPECTED_ROWS = {"l0": 10, "k_lpos": 11, "h_lpos": 18, "f_lpos": 17}


def _read_data(name: str) -> str:
    return resources.files("solweights.data").joinpath(name).read_text()


def _parse_table(text: str) -> list[TableRow]:
    rows = []
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValidationFailure(f"malformed table row: {line!r}")
        label, order_exp, out_h, out_k, out_f, _ = parts
        out = {s: (v if v != "-" else None)
               for s, v in zip(SYSTEMS, (out_h, out_k, out_f))}
        rows.append(TableRow(label=label, order_exp=order_exp, out=out))
    return rows


@functools.lru_cache(maxsize=None)
def load_tables() -> dict[str, list[TableRow]]:
    """Load and validate all four tables.

    Descriptors are checked against the spec grammar; groups are built on
    first read, so loading closes no group."""
    tables = {
        "l0": _parse_table(_read_data("table_l0.tsv")),
        "k_lpos": _parse_table(_read_data("table_k_lpos.tsv")),
        "h_lpos": _parse_table(_read_data("table_h_lpos.tsv")),
        "f_lpos": _parse_table(_read_data("table_f_lpos.tsv")),
    }
    for key, rows in tables.items():
        if len(rows) != _EXPECTED_ROWS[key]:
            raise ValidationFailure(
                f"table {key}: {len(rows)} rows, expected {_EXPECTED_ROWS[key]}")
        for row in rows:
            for desc in row.out.values():
                if desc is None:
                    continue
                try:
                    spec_builder(_parse_descriptor(desc))
                except UnknownSpec as exc:
                    raise ValidationFailure(
                        f"table {key} row {row.label}: {exc}") from exc
            for l in (0, 1, 2):
                if row.order_exponent(l) <= 0:
                    raise ValidationFailure(
                        f"table {key} row {row.label}: nonpositive exponent")
        if key == "f_lpos":
            for row in rows:
                f_desc = row.out["F"]
                if f_desc is None:
                    raise ValidationFailure(
                        f"table {key} row {row.label}: F column must be present")
                partners = [row.out["K"], row.out["H"]]
                present = [p for p in partners if p is not None]
                if present and _parse_descriptor(f_desc) not in {
                        _parse_descriptor(p) for p in present}:
                    raise ValidationFailure(
                        f"table {key} row {row.label}: F column matches neither "
                        f"local column")
    # exponent multisets of the diagrams match the corresponding tables
    for tag, table_key in (("l0", "l0"), ("lpos", "f_lpos")):
        diagram = load_hasse(tag)
        node_exps = sorted(exp for _, exp in diagram.nodes)
        table_exps = sorted(r.order_exp.replace(" ", "") for r in tables[table_key])
        if node_exps != table_exps:
            raise ValidationFailure(
                f"hasse {tag}: node exponents {node_exps} do not match table")
    return tables


@functools.lru_cache(maxsize=None)
def load_hasse(tag: str) -> HasseDiagram:
    """Load a Hasse diagram ('l0' or 'lpos') and validate its shape."""
    if tag not in ("l0", "lpos"):
        raise ValidationFailure(f"unknown hasse diagram {tag!r}")
    nodes: list[tuple[str, str]] = []
    edges: list[tuple[str, str]] = []
    for line in _read_data(f"hasse_{tag}.tsv").splitlines():
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if parts[0] == "N" and len(parts) == 3:
            nodes.append((parts[1], parts[2]))
        elif parts[0] == "E" and len(parts) == 3:
            edges.append((parts[1], parts[2]))
        else:
            raise ValidationFailure(f"malformed hasse line: {line!r}")
    labels = {label for label, _ in nodes}
    exps = dict(nodes)
    l_value = 0 if tag == "l0" else 1
    for low, high in edges:
        if low not in labels or high not in labels:
            raise ValidationFailure(f"hasse {tag}: edge endpoint missing: {low}-{high}")
        if eval_exponent(exps[low], l_value) >= eval_exponent(exps[high], l_value):
            raise ValidationFailure(
                f"hasse {tag}: edge {low}->{high} does not increase the order")
    # acyclicity follows from the strict exponent increase
    return HasseDiagram(nodes=nodes, edges=edges)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


@cached_per_cap
def _z_for_spec(spec: str) -> int:
    return defect_zero_block_count(named_group(spec))[0]


def weight_count(system: str, l: int) -> dict:
    """Total weight count for the given local system and level, with the
    per-row defect-zero counts."""
    if system not in ("H", "F"):
        raise ValidationFailure("weights are computed for systems H and F")
    tables = load_tables()
    if l == 0:
        rows = tables["l0"]
    else:
        rows = tables["f_lpos"] if system == "F" else tables["h_lpos"]
    per_row = []
    total = 0
    for row in rows:
        desc = row.out[system]
        if desc is None:
            continue
        z = _z_for_spec(_parse_descriptor(desc))
        per_row.append({"label": row.label, "descriptor": desc, "z": z})
        total += z
    return {"system": system, "l": l, "total": total, "rows": per_row}


# ---------------------------------------------------------------------------
# Hasse export
# ---------------------------------------------------------------------------


def hasse_export(l: int, fmt: str = "dot") -> str:
    """DOT or JSON text for a Hasse diagram, deterministic node order."""
    tag = "l0" if l == 0 else "lpos"
    diagram = load_hasse(tag)
    nodes = sorted(diagram.nodes, key=lambda n: (eval_exponent(n[1], l), n[0]))
    edges = sorted(diagram.edges)
    if fmt == "json":
        return json.dumps({
            "l": l,
            "nodes": [{"label": lab, "order_exponent": exp,
                       "order_exponent_at_l": eval_exponent(exp, l)}
                      for lab, exp in nodes],
            "edges": [[a, b] for a, b in edges],
        }, indent=2, sort_keys=True)
    if fmt != "dot":
        raise ValidationFailure(f"unknown hasse format {fmt!r}")
    lines = [f"digraph centric_radical_poset_l{l} {{", "  rankdir=BT;"]
    by_exp: dict[int, list[str]] = {}
    for lab, exp in nodes:
        by_exp.setdefault(eval_exponent(exp, l), []).append(lab)
    for lab, exp in nodes:
        lines.append(f'  "{lab}" [label="{lab} (2^{exp})"];')
    for exp_val in sorted(by_exp):
        group = "; ".join(f'"{lab}"' for lab in by_exp[exp_val])
        lines.append(f"  {{ rank=same; {group}; }}")
    for a, b in edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
