"""The shared core of every committed-file gate.

``BENCH_core.json``, ``BENCH_serve.json`` and ``PROTO_BASELINE.json``
pin behaviour: CI regenerates each and fails on drift.  The decisions
those gates share live here, once:

* :func:`canonical_json` — the byte-stable rendering of a committed
  document (sorted keys, two-space indent, trailing newline);
* :func:`atomic_write` — temp file in the destination directory plus
  ``os.replace``, so an interrupted run never leaves a truncated file;
* :func:`load` — read a committed JSON object, raising
  :class:`GateError` when it is missing, unreadable or not an object
  (the CLI maps that to ``error: cannot read ...`` and exit 2);
* :func:`diff` — the structural document diff (drift is exit 1).

What a gate ignores (``strip_wall`` in :mod:`repro.bench.core_bench`)
and how the analyzer's accepted-set baseline is keyed stay with their
owners; this module never branches on its caller.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from typing import List

__all__ = ["GateError", "canonical_json", "atomic_write", "load", "diff"]


class GateError(ValueError):
    """A committed file is missing, unreadable or malformed."""


def canonical_json(doc) -> str:
    """Canonical byte-stable serialization (committed file contents)."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def atomic_write(path: str, text: str) -> str:
    """Write ``text`` to ``path`` via temp file + ``os.replace``.

    Either the old contents survive or the new ones land whole.  The
    temp file lives in the destination directory so the replace stays
    on one filesystem; it is removed if anything fails.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load(path) -> dict:
    """The JSON object committed at ``path``; :class:`GateError` if not."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise GateError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise GateError(f"cannot read {path}: top level is "
                        f"{type(doc).__name__}, not an object")
    return doc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(fresh, committed, rel_tol: float = 1e-9,
         path: str = "") -> List[str]:
    """Mismatches between a regenerated doc and the committed one.

    Exact on structure, strings, ints and bools; floats compare to
    ``rel_tol`` (with a ``1e-30`` floor on the scale) so a NumPy point
    release can't fail CI on last-bit noise, while a float that became
    ``inf`` or ``nan`` is drift.  Any other type mismatch (a number that
    became ``null``, a string or a list; a bool against a number) is
    drift at its dotted path.  Empty list = documents agree.
    """
    if isinstance(fresh, dict) and isinstance(committed, dict):
        diffs: List[str] = []
        for key in sorted(set(fresh) | set(committed)):
            here = f"{path}.{key}" if path else str(key)
            if key not in fresh:
                diffs.append(f"{here}: missing from regenerated doc")
            elif key not in committed:
                diffs.append(f"{here}: missing from committed doc")
            else:
                diffs.extend(diff(fresh[key], committed[key], rel_tol, here))
        return diffs
    if isinstance(fresh, list) and isinstance(committed, list):
        if len(fresh) != len(committed):
            return [f"{path}: length {len(fresh)} != {len(committed)}"]
        diffs = []
        for i, (a, b) in enumerate(zip(fresh, committed)):
            diffs.extend(diff(a, b, rel_tol, f"{path}[{i}]"))
        return diffs
    if (_is_number(fresh) and _is_number(committed)
            and (isinstance(fresh, float) or isinstance(committed, float))):
        a, b = float(fresh), float(committed)
        if not math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol * 1e-30):
            return [f"{path}: {a!r} != {b!r}"]
        return []
    if type(fresh) is not type(committed):
        return [f"{path}: type {type(fresh).__name__} != "
                f"{type(committed).__name__}"]
    if fresh != committed:
        return [f"{path}: {fresh!r} != {committed!r}"]
    return []
