"""Crash-safe JSON persistence: the primitives and the one entry store.

Every on-disk store in the project (sweep result cache, agent artifacts,
fleet artifacts, shard manifests, per-app Q-table files) persists JSON
documents into directories that may be shared by several runner processes
and scanned by later sessions.  Three invariants make that safe and
deterministic, and all live here so the static-analysis pass
(:mod:`repro.lint`) can enforce that nothing bypasses them:

* **Atomic publication** (:func:`atomic_write_json`): a write is staged in
  the target directory under a PID-suffixed temporary name and published
  with ``os.replace``, so readers observe either the complete previous
  document or the complete new one -- never a truncated intermediate
  (lint rule REP004).
* **Deterministic enumeration** (:func:`list_entry_paths`): directory
  scans are sorted by filename, so load order -- and therefore any
  insertion-order-dependent downstream serialisation -- never depends on
  filesystem enumeration order (lint rule REP003).
* **Quarantine, never raise** (:func:`quarantine_entry`): a store that
  finds an unparseable entry (a torn copy, a filled disk on a non-atomic
  filesystem) moves it aside as ``<path>.bad`` and recomputes, instead of
  letting one bad file abort a whole sweep.

The result cache, the agent-artifact store and the fleet store are one
:class:`EntryStore` each: it alone knows where an entry lives, how it is
read, when it is corrupt and what the shard merge compares.

The write path is also a named fault-injection seam
(:mod:`repro.reliability.faults`): a seeded chaos plan can tear a write
(truncated document at the final path) or crash it after staging (temp
debris, destination untouched), which is how the crash-safety of every
consumer -- result cache, shard status files, artifact stores -- is tested
deterministically.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar

from repro.reliability.faults import (
    KIND_TORN_WRITE,
    SITE_ATOMIC_WRITE,
    SITE_ATOMIC_WRITE_STAGED,
    fault_point,
)


def list_entry_paths(directory: Optional[str], suffix: str) -> List[str]:
    """Paths of every store entry file under ``directory``, sorted by name.

    The shared directory-scan of every fingerprint-keyed store (result
    cache, agent artifacts, fleets): entries are regular files with the
    store's suffix; quarantined (``.bad``), staging (``.tmp.<pid>``) and
    subdirectory names fall through the filter.
    """
    if directory is None or not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, filename)
        for filename in sorted(os.listdir(directory))
        if filename.endswith(suffix)
        and os.path.isfile(os.path.join(directory, filename))
    ]


def quarantine_entry(path: str) -> Optional[str]:
    """Move a corrupt store entry aside as ``<path>.bad`` (best effort).

    Renaming instead of deleting keeps the evidence for post-mortems, frees
    the canonical path so a re-run can store a fresh entry, and -- because
    every store's enumeration filters on its entry suffix -- keeps the
    quarantined file out of all later store operations.  Returns the
    quarantine path, or ``None`` when the rename failed (e.g. a racing
    runner already quarantined or replaced the entry).
    """
    bad_path = f"{path}.bad"
    try:
        os.replace(path, bad_path)
    except OSError:
        return None
    return bad_path


def atomic_write_json(
    path: str,
    payload: Mapping[str, Any],
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> str:
    """Write ``payload`` as JSON via a same-directory rename; returns ``path``.

    Readers either see the complete previous file or the complete new one,
    never a truncated intermediate -- the property that lets several sweep
    runners share one artifact directory.  The temporary name carries the
    writer's PID so concurrent writers cannot clobber each other's staging
    file.

    ``indent`` / ``sort_keys`` pass through to :func:`json.dump` for
    human-reviewed documents (e.g. the lint baseline) that must serialise
    deterministically and diff cleanly.

    Fault seams (active only under an injected
    :class:`~repro.reliability.faults.FaultPlan`, keyed by the target's
    basename): a *torn_write* publishes a truncated document at ``path``
    and returns normally -- modelling a non-atomic filesystem losing the
    tail -- so consumers must quarantine-and-recompute on their next load;
    a *crash* after staging raises before the ``os.replace``, leaving temp
    debris and the previous document intact -- modelling a process dying
    mid-write.
    """
    key = os.path.basename(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    rule = fault_point(SITE_ATOMIC_WRITE, key)
    if rule is not None and rule.kind == KIND_TORN_WRITE:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: max(1, len(text) // 2)])
        return path
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    fault_point(SITE_ATOMIC_WRITE_STAGED, key)  # crash seam: debris stays
    os.replace(tmp_path, path)
    return path


def atomic_write_text(path: str, text: str) -> str:
    """Publish pre-serialised text via the same stage-then-rename protocol.

    The non-JSON sibling of :func:`atomic_write_json`, used for documents
    whose serialisation is line-oriented (merged ``trace.jsonl`` files)
    rather than a single JSON value.  Shares the atomicity guarantee but
    not the fault seams: merge outputs are rebuildable from their inputs,
    so torn-write chaos coverage stays focused on the stores.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)
    return path


def append_jsonl(path: str, payload: Mapping[str, Any]) -> str:
    """Append ``payload`` as one JSON line; the sanctioned trace appender.

    Traces are append-only event logs, so the whole-document replace of
    :func:`atomic_write_json` is the wrong shape: this writes the full
    serialised line (newline included) in a single ``write()`` on a
    handle opened in append mode, so concurrent writers -- pool workers
    sharing one ``trace.jsonl`` -- interleave whole lines.  A process
    killed mid-append leaves at most one torn final line, which trace
    readers skip by contract (:func:`repro.obs.trace.read_trace`).
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    line = json.dumps(payload, sort_keys=True) + "\n"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
    return path


#: What reading a store entry raises when the file holds no valid document
#: of the store's kind; every store treats them alike, as a corrupt entry.
CORRUPT_ENTRY_ERRORS = (OSError, ValueError, KeyError, TypeError, AttributeError)

T = TypeVar("T")


def parse_json_object(raw: bytes) -> Dict[str, Any]:
    """Decode a stored document; ``ValueError`` unless it is a JSON object."""
    data = json.loads(raw.decode("utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"stored document is a {type(data).__name__}, not an object")
    return data


def read_json_object(path: str) -> Dict[str, Any]:
    """:func:`parse_json_object` of the file at ``path``."""
    with open(path, "rb") as handle:
        return parse_json_object(handle.read())


class EntryStore:
    """JSON documents keyed by fingerprint, at ``<directory>/<fingerprint><suffix>``.

    Without a directory every read misses and every write is dropped.
    Constructing or reading a store never creates its directory; the first
    write does.  Readers pass a ``decode`` callable that turns the parsed
    object into their value: it returns ``None`` for a well-formed entry
    the caller must not use (a plain miss, left on disk) and raises one of
    :data:`CORRUPT_ENTRY_ERRORS` for a document of the wrong shape.
    """

    #: Filename suffix of the entries; ``.bad`` quarantines, ``.tmp.<pid>``
    #: staging files and subdirectories are not entries.
    ENTRY_SUFFIX: str

    def __init__(self, directory: Optional[str] = None) -> None:
        self.directory = directory

    def entry_path(self, fingerprint: str) -> Optional[str]:
        """Where the entry for ``fingerprint`` lives (``None`` without a directory)."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, fingerprint + self.ENTRY_SUFFIX)

    def entry_paths(self) -> List[str]:
        """Paths of every entry in the store directory, sorted by name."""
        return list_entry_paths(self.directory, self.ENTRY_SUFFIX)

    def fingerprints(self) -> List[str]:
        """Fingerprints of every entry in the store directory, sorted by name."""
        cut = len(self.ENTRY_SUFFIX)
        return [os.path.basename(path)[:-cut] for path in self.entry_paths()]

    def read_entry(
        self, fingerprint: str, decode: Callable[[Dict[str, Any]], Optional[T]]
    ) -> Tuple[Optional[T], Optional[str]]:
        """``(value, corrupt_path)`` of one entry, without side effects.

        ``value`` is ``None`` on a miss; ``corrupt_path`` names the file
        when the miss was caused by a corrupt entry.
        """
        path = self.entry_path(fingerprint)
        if path is None or not os.path.exists(path):
            return None, None
        try:
            return decode(read_json_object(path)), None
        except CORRUPT_ENTRY_ERRORS:
            return None, path

    def load_entry(
        self, fingerprint: str, decode: Callable[[Dict[str, Any]], Optional[T]]
    ) -> Optional[T]:
        """:meth:`read_entry` that quarantines a corrupt entry as a miss."""
        value, corrupt_path = self.read_entry(fingerprint, decode)
        if corrupt_path is not None:
            self.quarantine(corrupt_path)
        return value

    def quarantine(self, path: str) -> None:
        """Move a corrupt entry aside (:func:`quarantine_entry`)."""
        quarantine_entry(path)

    def write_entry(self, fingerprint: str, payload: Mapping[str, Any]) -> None:
        """Atomically publish ``payload`` as the entry for ``fingerprint``."""
        path = self.entry_path(fingerprint)
        if path is not None:
            atomic_write_json(path, payload)

    @staticmethod
    def canonical_entry(data: Dict[str, Any]) -> Dict[str, Any]:
        """The content identity the shard merge compares: the whole document.

        A store whose entries carry machine-dependent fields drops them.
        """
        return data

    @classmethod
    def canonical_document(cls, raw: bytes) -> Optional[Dict[str, Any]]:
        """:meth:`canonical_entry` of an entry's bytes; ``None`` if they are torn."""
        try:
            return cls.canonical_entry(parse_json_object(raw))
        except ValueError:
            return None
