"""Atomic text writes, shared by the CLI's tables and the domain files."""

from __future__ import annotations

import os
import tempfile


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` as UTF-8 with bare newlines through a temp file in the
    target's directory and a rename, so no reader sees a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schifferlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
