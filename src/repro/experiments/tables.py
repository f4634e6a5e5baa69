"""Formatting helpers that render RunStores the way the paper's tables look."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.experiments.settings import get_setting
from repro.utils.records import RunIndex, RunStore
from repro.utils.textplot import ascii_table, format_mean_std

__all__ = [
    "setting_table_rows",
    "format_setting_table",
    "top_finish_rows",
    "format_top_finish_table",
    "rank_table_rows",
    "format_rank_table",
]

_SCHEDULE_LABELS = {
    "none": "None",
    "step": "+ Step Schedule",
    "cosine": "+ Cosine Schedule",
    "onecycle": "+ OneCycle",
    "linear": "+ Linear Schedule",
    "plateau": "+ Decay on Plateau",
    "exponential": "+ Exp decay",
    "rex": "+ REX",
    "delayed_linear": "+ Linear Delayed",
    "polynomial": "+ Polynomial",
    "cyclic": "+ Cyclic",
    "cosine_restarts": "+ Cosine Restarts",
}


def schedule_label(name: str) -> str:
    return _SCHEDULE_LABELS.get(name, f"+ {name}")


def setting_table_rows(
    store: RunStore,
    setting: str,
    optimizer: str,
    schedules: Sequence[str] | None = None,
    budgets: Sequence[float] | None = None,
) -> tuple[list[list[str]], list[str]]:
    """Build (rows, headers) for one optimizer block of a per-setting table.

    Each row is ``[schedule label, "mean ± std" per budget...]``, matching the
    layout of the paper's Tables 4-9.
    """
    setting_obj = get_setting(setting)
    sub = store.filter(setting=setting_obj.name, optimizer=optimizer.lower())
    if len(sub) == 0:
        raise ValueError(f"no records for setting={setting!r}, optimizer={optimizer!r}")
    schedules = list(schedules if schedules is not None else sub.unique("schedule"))
    budgets = list(budgets if budgets is not None else sorted(sub.unique("budget_fraction")))

    headers = [optimizer.upper()] + [f"{b * 100:g}%" for b in budgets]
    cells = RunIndex(sub, "schedule", "budget_fraction")
    rows: list[list[str]] = []
    for schedule in schedules:
        row = [schedule_label(schedule)]
        for budget in budgets:
            cell = cells.lookup(schedule, budget)
            if len(cell) == 0:
                row.append("—")
            else:
                row.append(format_mean_std(cell.mean_metric(), cell.std_metric()))
        rows.append(row)
    return rows, headers


def format_setting_table(
    store: RunStore,
    setting: str,
    optimizers: Sequence[str] | None = None,
    schedules: Sequence[str] | None = None,
    budgets: Sequence[float] | None = None,
) -> str:
    """Render the full per-setting table (one block per optimizer) as text."""
    setting_obj = get_setting(setting)
    optimizers = list(optimizers if optimizers is not None else setting_obj.optimizers)
    blocks: list[str] = [f"== {setting_obj.name} ({setting_obj.metric_name}) =="]
    for optimizer in optimizers:
        rows, headers = setting_table_rows(store, setting, optimizer, schedules, budgets)
        blocks.append(ascii_table(rows, headers))
    return "\n\n".join(blocks)


def top_finish_rows(table: dict[str, dict[str, float]]) -> tuple[list[list[str]], list[str]]:
    """Build (rows, headers) for the Table 1 layout (Top-1/Top-3 % per regime)."""
    headers = ["Method", "Low Top-1", "Low Top-3", "High Top-1", "High Top-3", "Overall Top-1", "Overall Top-3"]
    rows = []
    for schedule, entry in sorted(table.items(), key=lambda kv: -kv[1]["overall_top1"]):
        rows.append(
            [
                schedule_label(schedule),
                f"{entry['low_top1']:.0f}%",
                f"{entry['low_top3']:.0f}%",
                f"{entry['high_top1']:.0f}%",
                f"{entry['high_top3']:.0f}%",
                f"{entry['overall_top1']:.0f}%",
                f"{entry['overall_top3']:.0f}%",
            ]
        )
    return rows, headers


def format_top_finish_table(table: dict[str, dict[str, float]]) -> str:
    """Render the Table 1 layout (Top-1 / Top-3 percentages per regime)."""
    rows, headers = top_finish_rows(table)
    return ascii_table(rows, headers)


def rank_table_rows(ranks: dict[str, dict[float, float]]) -> tuple[list[list[str]], list[str]]:
    """Build (rows, headers) for Figure 1's data: average rank per schedule per budget."""
    budgets = sorted({b for by_budget in ranks.values() for b in by_budget})
    headers = ["Method"] + [f"{b * 100:g}%" for b in budgets]
    rows = []
    for schedule in sorted(ranks, key=lambda s: np.mean(list(ranks[s].values()))):
        row = [schedule_label(schedule)]
        for budget in budgets:
            value = ranks[schedule].get(budget)
            row.append(f"{value:.2f}" if value is not None else "—")
        rows.append(row)
    return rows, headers


def format_rank_table(ranks: dict[str, dict[float, float]]) -> str:
    """Render Figure 1's underlying data: average rank per schedule per budget."""
    rows, headers = rank_table_rows(ranks)
    return ascii_table(rows, headers)
