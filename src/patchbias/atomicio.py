"""Replace an artifact in one step, so no stage ever reads a half-written file.

Writes go to a temporary file in the target's directory (`.<name>.<pid>.tmp`)
and `os.replace` moves it over the target, a rename within one file system.
A whole directory is built the same way and swapped in with two renames.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """A temporary path to write to, moved over `path` when the block exits normally.

    If the block raises, or the replace fails, the temporary file is removed
    and `path` keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def atomic_dir(path: str | Path) -> Iterator[Path]:
    """An empty temporary directory to fill, swapped in for `path` when the block exits normally.

    The previous `path` moves aside to `.<name>.<pid>.old`, the new tree moves
    in, and the old tree is deleted. If the block raises, or either rename
    fails, the temporary tree is removed and `path` keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = path.with_name(f".{path.name}.{os.getpid()}.old")
    for stale in (tmp, old):
        shutil.rmtree(stale, ignore_errors=True)
    tmp.mkdir()
    try:
        yield tmp
        if path.exists():
            os.replace(path, old)
        try:
            os.replace(tmp, path)
        except BaseException:
            if old.exists():
                os.replace(old, path)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)


@contextmanager
def open_atomic(path: str | Path, newline: str | None = None) -> Iterator[IO[str]]:
    """A UTF-8 text handle whose contents replace `path` when the block exits normally."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline=newline) as fh:
        yield fh


def write_atomic(path: str | Path, text: str) -> None:
    """Replace `path` with `text` in one step."""
    with open_atomic(path) as fh:
        fh.write(text)
