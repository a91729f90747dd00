"""The one writer and the one reader of every file the program persists.

* :func:`write_atomic` writes a temp file next to the target, named per
  process and thread (``<path>.<pid>.<tid>.tmp``), fsyncs it and
  renames it over the target with ``os.replace``.  A reader sees the
  old document or the new one, never a torn one, and two threads
  writing one path never share a temp file.
* :func:`read_json` turns every way a JSON document can fail to load
  (missing, unreadable, torn mid-write, not UTF-8) into the caller's
  own typed error.

Like :mod:`repro.exitcodes` it imports only the standard library, so
every layer can use it, :mod:`repro.obs` included.  Append-mode streams
(the JSON-lines logger, the sandbox heartbeat file) are not documents
and do not come through here.  ``tools/check_invariants.py`` (check 9)
keeps every write-mode ``open`` and every ``os.fsync`` under
``src/repro/`` in this module.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Optional

__all__ = ["read_json", "write_atomic"]


def write_atomic(
    path: str,
    text: str,
    before_replace: Optional[Callable[[], None]] = None,
) -> str:
    """Replace ``path`` with ``text`` (UTF-8) atomically; returns ``path``.

    ``before_replace`` runs once the temp file is durable but before the
    rename: the checkpoint and journal writers pass their fault points
    here, so an injected fault leaves ``path`` as it was.  A ``path``
    that exists and is not a regular file (``--metrics /dev/stdout``, a
    pipe) is written in place: there is no document to tear, and a
    rename would replace the device or pipe itself.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        return path
    temp = f"{path}.{os.getpid()}.{threading.get_native_id()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        if before_replace is not None:
            before_replace()
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise
    return path


def read_json(
    path: str, error: Callable[[str], Exception], what: str
) -> Any:
    """The JSON document at ``path``, or ``error(message)`` raised.

    ``what`` names the document in the message (``"checkpoint"``,
    ``"run report"``, ...), which also names ``path``.  No ``OSError``
    or decode exception escapes.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError as exc:
        raise error(f"cannot read {what}: no {what} at {path}") from exc
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:
        # json.JSONDecodeError (torn mid-write) and UnicodeDecodeError
        # (not UTF-8) are both ValueErrors
        raise error(
            f"{what} {path} is unreadable: not valid JSON ({exc})"
        ) from exc
