"""Shared domain types and time arithmetic for action-instance reconstruction.

A file-system object is observed post-mortem as a path plus up to four
timestamps.  Every timestamp value is causally tied to some past action
instance that wrote it within a bounded delay, so observed values can be
mapped back to the interval of time in which the causing instance must have
occurred; :func:`instance_interval` is that mapping's one definition.  The
types here are plain immutable values; every operation is a pure function.
Every reader of numbers in input text uses :func:`read_int`, so no result
depends on the interpreter's ``int()`` digit limit.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

# Timestamps are integer seconds since the Unix epoch, UTC.  The metadata
# formats we ingest carry no sub-second precision, so neither do we.
Timestamp = int

EPOCH_FLOOR: Timestamp = 0

# The lowest digit limit sys.set_int_max_str_digits accepts: int() reads text
# of this length under any limit.
_INT_TEXT_MAX = 640


def read_int(text: str) -> int:
    """``int(text)``; text longer than 640 characters raises ValueError."""
    if len(text) > _INT_TEXT_MAX:
        raise ValueError(f"number text longer than {_INT_TEXT_MAX} characters")
    return int(text)


# The simulator's and the calibration's errors and the calibration's default k
# (of the cutoff ``mean + k * sigma``) live here, so the CLI can map those
# errors to exit codes and offer that default without importing either module.
DEFAULT_SIGMA_MULTIPLIER = 2.0


class SimulationError(ValueError):
    """A schedule that cannot run against its actions."""


class CalibrationError(ValueError):
    """Duration samples or statistics that give no threshold."""


class TimestampKind(Enum):
    """Which of an object's timestamps a value is; the value names its ObjectRecord field.

    Kinds are ordered by their value, so a sort of (path, kind) pairs needs
    no key and gives the same order on every run.

    A kind hashes by identity, a C slot, where Enum's own ``__hash__`` is a
    Python call (``hash(self._name_)``) on every dict or set lookup.  No
    output depends on the hash: a name's hash already changes with
    ``PYTHONHASHSEED``, and every output is byte-stable under any hash seed.
    """

    ACCESSED = "accessed"
    MODIFIED = "modified"
    CREATED = "created"
    METACHANGED = "metachanged"

    __hash__ = object.__hash__

    def __lt__(self, other: TimestampKind) -> bool:
        return self.value < other.value


class InstanceRank(Enum):
    """Whether an approximation is the most recent known instance of its action."""

    MOST_RECENT = "MostRecent"
    PAST = "Past"


class ConfidenceNote(Enum):
    """Qualifier attached to an approximation.

    DEFINITE: backed by traces that only the named action updates.
    SHARED_AMBIGUOUS: derived from a trace multiple actions can update,
    attributed by eliminating the other candidates.
    PARALLEL_INSTANCE_DIAGNOSTIC: always-updated traces of one action
    disagree by more than its threshold, which indicates overlapping
    concurrent instances (for example an object held locked by a
    still-running earlier instance).
    """

    DEFINITE = "definite"
    SHARED_AMBIGUOUS = "shared-ambiguous"
    PARALLEL_INSTANCE_DIAGNOSTIC = "parallel-instance-diagnostic"


class ObjectRecord(
    namedtuple("ObjectRecord", "path accessed modified metachanged created deleted")
):
    """One file-system object and its surviving timestamps.

    Paths use forward-slash separators (normalization happens at ingest);
    absent timestamps are ``None``.  At least one timestamp must be present:
    an object with no surviving times carries no reconstructable evidence.
    """

    __slots__ = ()

    def __new__(
        cls,
        path: str,
        accessed: Timestamp | None = None,
        modified: Timestamp | None = None,
        metachanged: Timestamp | None = None,
        created: Timestamp | None = None,
        deleted: bool = False,
    ) -> ObjectRecord:
        if not path:
            raise ValueError("ObjectRecord requires a non-empty path")
        present = [t for t in (accessed, modified, metachanged, created) if t is not None]
        if not present:
            raise ValueError(f"ObjectRecord {path!r} has no timestamps")
        if any(t < EPOCH_FLOOR for t in present):
            raise ValueError(f"ObjectRecord {path!r} has a negative timestamp")
        return tuple.__new__(cls, (path, accessed, modified, metachanged, created, deleted))

    @property
    def timestamps(self) -> dict[TimestampKind, Timestamp]:
        """Mapping of the timestamp kinds actually present on this record."""
        values = ((kind, getattr(self, kind.value)) for kind in TimestampKind)
        return {kind: value for kind, value in values if value is not None}


class TraceState(namedtuple("TraceState", "object_path kind value")):
    """A resolved (object path, timestamp kind, value) observation."""

    object_path: str
    kind: TimestampKind
    value: Timestamp

    __slots__ = ()


def trace_sort_key(state: TraceState) -> tuple[Timestamp, str, TimestampKind]:
    """Total ordering for trace states: by value, then path, then kind.

    The secondary keys make matching output independent of input order even
    when several objects carry the same timestamp value.  Kinds compare by
    :meth:`TimestampKind.__lt__`, which a tuple calls only on a (value, path)
    tie, since it tests its elements with ``==`` first.
    """
    return (state.value, state.object_path, state.kind)


class TimeInterval(namedtuple("TimeInterval", "start end")):
    """A closed interval of time, both bounds included."""

    __slots__ = ()

    def __new__(cls, start: Timestamp, end: Timestamp) -> TimeInterval:
        if start > end:
            raise ValueError(f"interval start {start} exceeds end {end}")
        return tuple.__new__(cls, (start, end))

    def contains(self, value: Timestamp) -> bool:
        return self.start <= value <= self.end


class ActionInstanceApproximation(
    namedtuple("ActionInstanceApproximation", "action_name interval evidence rank note")
):
    """An action plus the interval in which one instance of it must have run."""

    __slots__ = ()

    def __new__(
        cls,
        action_name: str,
        interval: TimeInterval,
        evidence: tuple[TraceState, ...],
        rank: InstanceRank,
        note: ConfidenceNote,
    ) -> ActionInstanceApproximation:
        if not evidence:
            raise ValueError("an approximation requires at least one evidence trace")
        return tuple.__new__(cls, (action_name, interval, evidence, rank, note))

    @property
    def detected(self) -> Timestamp:
        """Anchor time of the instance: the oldest evidence value.

        The instance occurred at or shortly before this time, never after it.
        """
        return min(state.value for state in self.evidence)


def instance_interval(oldest: Timestamp, newest: Timestamp, threshold: int) -> TimeInterval:
    """Interval in which the instance behind trace values ``oldest..newest`` ran.

    A trace update lands between zero and ``threshold`` seconds after its
    causing instance, so every instance that wrote one of the values ran
    within one threshold before that value: all of them ran in
    ``[oldest - threshold, newest]``.
    The start is clamped at the epoch floor; values before 1970 are
    meaningless in this domain.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    return TimeInterval(max(EPOCH_FLOOR, oldest - threshold), newest)
