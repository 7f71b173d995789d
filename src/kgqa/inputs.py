"""One reader for every input file and one loop over its records: UTF-8, a
leading BOM dropped, only LF ending a line (a lone ``\\r`` is data), blank
and ``#`` lines skipped, and errors read ``<path>: line N: …``."""
from __future__ import annotations

from typing import Callable, Iterable, Iterator, TypeVar

_R = TypeVar("_R")


def read_lines(path: str) -> Iterator[str]:
    """The lines of the file at ``path``, each with its line end."""
    try:
        with open(path, encoding="utf-8-sig", newline="\n") as f:
            yield from f
    except UnicodeDecodeError:
        # The decoder's position is into its buffer. LF is never inside a
        # multi-byte sequence, so the bad bytes fail their own line's decode.
        with open(path, "rb") as f:
            for line_number, raw in enumerate(f, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{path}: line {line_number}: not UTF-8: {exc}") from None


def named(source: str, fn: Callable[..., _R], *args) -> _R:
    """``fn(*args)``; its ``ValueError``, or a ``RecursionError`` from input
    nested too deep to parse, is raised as a ``ValueError`` after ``<source>: ``."""
    try:
        return fn(*args)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


def parse_records(lines: Iterable[str], source: str, parse_one: Callable[[str], _R]) -> list[_R]:
    """``parse_one`` of each stripped line that is neither blank nor a ``#`` comment."""
    return [
        named(f"{source}: line {line_number}", parse_one, line)
        for line_number, line in enumerate(map(str.strip, lines), start=1)
        if line and line[0] != "#"
    ]
