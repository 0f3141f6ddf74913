"""Per-run counters shared by the enumerators."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EnumStats:
    """Counters filled by an enumeration run.

    ``max_gap`` is the largest number of inner search nodes visited between
    two consecutive outputs (including before the first and after the
    last).  The refined enumerator keeps it <= 2n; the subset walk behind
    both simple enumerators counts the frames it enters and keeps
    ``max_gap`` <= n and ``tree_nodes`` <= (n + 1) * ``solutions``; the
    CLI's oracle mode sets both to 3^n, the assignments it examines, which
    bounds its gap.  ``tree_ratio`` is tree_nodes / 1.9332^n, the refined
    tree against the paper's bound; ``rule_fires`` counts each reduction
    rule's relabellings and ``prunes`` the children the extension test cut
    before reduction (all three refined only).
    """

    solutions: int = 0
    tree_nodes: int = 0
    max_gap: int = 0
    wall_ms: int = 0
    phase_transitions: dict[str, int] = field(default_factory=dict)
    tree_ratio: float = 0.0
    rule_fires: dict[str, int] = field(default_factory=dict)
    prunes: int = 0
