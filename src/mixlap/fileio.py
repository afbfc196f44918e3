"""Atomic file writes shared by every file the package produces."""

import os
import uuid


def atomic_write(path, data):
    """Write ``data`` (str, or any bytes-like object) to ``path`` via a temporary file.

    Readers see either the old file or the complete new one, never a partial
    write; concurrent writers are last-write-wins.  The file gets the mode a
    plain ``open`` would give it (0666 less the umask).
    """
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
