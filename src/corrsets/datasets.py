"""Built-in benchmark data.

The tic-tac-toe endgame benchmark is fully determined by the game rules,
so rather than shipping a file we enumerate it: all board configurations
reachable when x moves first and play stops at the first three-in-a-row
(or a full board). That yields the standard 958 instances, 626 labelled
positive (win for x). Row order carries no information for count-based
scores; we emit boards in sorted order for reproducibility.
"""

from __future__ import annotations

from functools import lru_cache

from .data import RawTable

__all__ = ["tic_tac_toe_table", "write_tic_tac_toe_csv", "TIC_TAC_TOE_COLUMNS"]

TIC_TAC_TOE_COLUMNS = (
    "top-left", "top-middle", "top-right",
    "middle-left", "middle-middle", "middle-right",
    "bottom-left", "bottom-middle", "bottom-right",
    "class",
)

_LINES = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),
    (0, 3, 6), (1, 4, 7), (2, 5, 8),
    (0, 4, 8), (2, 4, 6),
)


def _winner(board: tuple[str, ...]) -> str | None:
    for i, j, k in _LINES:
        if board[i] != "b" and board[i] == board[j] == board[k]:
            return board[i]
    return None


@lru_cache(maxsize=1)
def _terminal_boards() -> tuple[tuple[str, ...], ...]:
    seen: set[tuple[str, ...]] = set()
    terminal: set[tuple[str, ...]] = set()
    stack = [(("b",) * 9, "x")]
    while stack:
        board, player = stack.pop()
        if board in seen:
            continue
        seen.add(board)
        if _winner(board) is not None or "b" not in board:
            terminal.add(board)
            continue
        nxt = "o" if player == "x" else "x"
        for i in range(9):
            if board[i] == "b":
                stack.append((board[:i] + (player,) + board[i + 1:], nxt))
    return tuple(sorted(terminal))


def tic_tac_toe_table() -> RawTable:
    """The 958-row, 10-column tic-tac-toe endgame table."""
    rows = [
        board + ("positive" if _winner(board) == "x" else "negative",)
        for board in _terminal_boards()
    ]
    return RawTable(
        column_names=TIC_TAC_TOE_COLUMNS,
        columns=tuple(zip(*rows)),
        row_count=len(rows),
    )


def write_tic_tac_toe_csv(path) -> None:
    table = tic_tac_toe_table()
    with open(path, "w", encoding="utf-8") as fh:
        for row in (table.column_names, *zip(*table.columns)):
            fh.write(",".join(row) + "\n")
