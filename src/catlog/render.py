"""Plain-text pictures: paths on a grid, trees as indented listings."""

from __future__ import annotations

from .multisets import CyclicMultiset
from .paths import GoodPath, Ornament, diagonal_touches
from .trees import CycleRootedTree, PlaneTree, slot_walk


def render_path(p: GoodPath) -> str:
    """Character grid, origin bottom left. Path points are '*', diagonal
    lattice points '/', touches 'o'; labeled heights are annotated."""
    points = {(0, 0)}
    r = u = 0
    for ch in p.steps:
        if ch == "R":
            r += 1
        else:
            u += 1
        points.add((r, u))
    touch_heights = {h for h, _ in diagonal_touches(p)}
    lines = []
    for y in range((p.k - 1) * p.n, -1, -1):
        row = []
        for x in range(p.n + 1):
            on_path = (x, y) in points
            on_diag = y == (p.k - 1) * x
            if on_path and on_diag and y in touch_heights:
                row.append("o")
            elif on_path:
                row.append("*")
            elif on_diag:
                row.append("/")
            else:
                row.append(".")
        text = "".join(row)
        if y % (p.k - 1) == 0 and y // (p.k - 1) < p.n:
            text += f"  y={y} [{p.labels[y // (p.k - 1)]}]"
        lines.append(text)
    return "\n".join(lines)


def _render_slots(slot_map, v: int, lines: list[str]) -> None:
    for depth, q, child in slot_walk(slot_map, v):
        occupant = "-" if child is None else child
        lines.append("  " * depth + f"[{q + 1}] {occupant}")


def render_tree(t: PlaneTree) -> str:
    lines = [f"tree k={t.k}", str(t.root)]
    _render_slots(t.slot_map, t.root, lines)
    return "\n".join(lines)


def render_cycle_tree(c: CycleRootedTree) -> str:
    header = " -> ".join(str(v) for v in c.cycle) + f" -> ({c.cycle[0]})"
    lines = [f"cycle-tree k={c.k}", header]
    for r in c.cycle:
        lines.append(f"root {r}")
        _render_slots(c.slot_map, r, lines)
    return "\n".join(lines)


def render(x) -> str:
    if isinstance(x, GoodPath):
        return render_path(x)
    if isinstance(x, Ornament):
        return f"ornament (representative)\n{render_path(x.rep)}"
    if isinstance(x, PlaneTree):
        return render_tree(x)
    if isinstance(x, CycleRootedTree):
        return render_cycle_tree(x)
    if isinstance(x, CyclicMultiset):
        raise ValueError("multisets have no picture; renderable kinds are "
                         "path, ornament, tree, cycle-tree")
    raise ValueError(f"cannot render {type(x).__name__}")
