"""Text renderers: the paper's tables and figures as aligned ASCII.

Figures are rendered as grouped bar tables plus a normalized-runtime
column, which is what the reproduction actually claims (shapes and
ratios, not absolute seconds).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence],
    note: Optional[str] = None,
) -> str:
    """Aligned monospace table."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    out = [title, "=" * len(title)]
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        out.append("")
        out.append(note)
    return "\n".join(out)


def render_bar_figure(
    title: str,
    groups: Sequence[str],
    series: Sequence[str],
    values: Dict[str, Dict[str, Optional[float]]],
    unit: str = "s",
    normalize_to: Optional[str] = None,
    width: int = 34,
    note: Optional[str] = None,
) -> str:
    """Grouped horizontal bars: ``values[group][series] -> value``.

    Missing values (None) render as ``n/a`` — e.g. MANA-legacy under
    Open MPI, which cannot run at all.
    """
    finite = [
        v
        for g in groups
        for v in values.get(g, {}).values()
        if v is not None
    ]
    vmax = max(finite) if finite else 1.0
    out = [title, "=" * len(title)]
    label_w = max(len(s) for s in series) + 2
    for g in groups:
        out.append(f"\n{g}")
        base = values.get(g, {}).get(normalize_to) if normalize_to else None
        for s in series:
            v = values.get(g, {}).get(s)
            if v is None:
                out.append(f"  {s.ljust(label_w)} n/a")
                continue
            bar = "#" * max(1, round(v / vmax * width))
            rel = ""
            if base:
                rel = f"  ({v / base:.2f}x)"
            out.append(f"  {s.ljust(label_w)} {bar} {v:.1f}{unit}{rel}")
    if note:
        out.append("")
        out.append(note)
    return "\n".join(out)
