"""Atomic file writes shared by every file the package produces."""

import json
import os
import uuid

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


def atomic_write(path, data):
    """Write ``data`` (str, or any bytes-like object) to ``path`` via a temporary file.

    Readers see either the old file or the complete new one, never a partial
    write; concurrent writers are last-write-wins.  The file gets the mode a
    plain ``open`` would give it (0666 less the umask).  A missing directory
    is created, and the temporary file is removed if the write or the rename
    fails; a write that succeeds pays for neither.
    """
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        fd = os.open(tmp, _CREATE, 0o666)
    except FileNotFoundError:
        os.makedirs(d, exist_ok=True)
        fd = os.open(tmp, _CREATE, 0o666)
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(path, obj):
    """Write ``obj`` to ``path`` as indented JSON, atomically.

    ``obj`` is serialised before the file is touched, so a value JSON cannot
    hold raises TypeError and leaves the old file as it was.
    """
    atomic_write(str(path), json.dumps(obj, indent=2))
