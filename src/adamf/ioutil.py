"""Atomic file emission: write to a sibling temp file, then rename.

Keeps error exits from leaving half-written files behind — an interrupted
write never touches the destination path, and its temp file is removed.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Yield a handle on a sibling temp file; on a clean exit rename it onto
    `path`, on any failure delete it.  `mode` is "w" (UTF-8 text) or "wb".

    The file gets the permissions a plain ``open`` would (0666 less the
    umask), not mkstemp's owner-only 0600.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_open(path, "w") as handle:
        handle.write(text)
