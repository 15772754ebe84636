"""Replace an artifact in one step, so no stage ever reads a half-written one.

Each pipeline stage owns one directory under the output root. It builds that
directory's new contents in a temporary directory beside it
(`.<name>.<pid>.tmp`), and `atomic_dir` swaps the tree in with two renames.
The run manifest, a single file, is written to a temporary file beside it and
moved over the target with `os.replace`, a rename within one file system.
"""

from __future__ import annotations

import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


@contextmanager
def atomic_dir(path: str | Path) -> Iterator[Path]:
    """An empty temporary directory to fill, swapped in for `path` when the block exits normally.

    The previous `path` moves aside to `.<name>.<pid>.old`, the new tree moves
    in, and the old tree is deleted. If the block raises, or either rename
    fails, the temporary tree is removed and `path` keeps its previous contents.
    Every `.<name>.*.tmp` and `.<name>.*.old` sibling is deleted on entry, so
    the tree of a process killed mid-block does not stay on disk.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    old = path.with_name(f".{path.name}.{os.getpid()}.old")
    for suffix in ("tmp", "old"):
        for stale in path.parent.glob(f".{path.name}.*.{suffix}"):
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


def write_atomic(path: str | Path, text: str) -> None:
    """Replace `path` with UTF-8 `text` in one step.

    The text goes to `.<name>.<pid>.tmp` beside `path` first. If the write or
    the replace fails, the temporary is removed and `path` keeps its previous
    contents.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
