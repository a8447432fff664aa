"""Interaction-log parsing, temporal splitting, and sliding-window sample construction.

The split cuts the temporally sorted log into 10 contiguous equal-count periods
(remainder records go one-per-period starting from the earliest): periods 1-8
train, 9 valid, 10 test. Samples use a fixed history window of 10 items,
left-padded with the reserved PAD token; histories may cross partition
boundaries, so a test sample can see valid-period interactions.

The log is held as columns (user ids, item ids, timestamps, tags) put in
(timestamp, file-position) order by one stable index sort; the partitions are
slices of them. The timestamps are one int64 column (array("q"), 8 bytes a
row); a log holding a timestamp beyond int64 keeps them as a list of Python
ints instead, so such values round-trip. Either form gives Python ints. Each
user also gets an integer code, which lets popularity and co-occurrence
counting group and count with numpy instead of per-record loops. numpy is
imported only by the functions that use it, so commands that read just a
catalog and samples (generate) never load it.

Large inputs are held once. parse_interactions reads READ_BLOCK characters
of text at a time, so it never holds the file's text or its line list, and
passes every user and item id through one dict, so each distinct id is one
string object however many lines name it; a log already in timestamp order
skips the index sort. read_samples with a draw checks every line in a first
pass, keeping only its line number, and splits only the drawn lines in a
second; the known sets it returns share one string per item id.

Samples come from one lazy walk per user timeline, linear in its length: it
keeps the 10-item window and the sorted known set, which grows as the walk
passes each timestamp, and joins the known set's text again only when it
grows. heapq.merge puts the walks' rows into global (timestamp, user) order.
Each partition is a contiguous range of the sorted log, so routing each row
to its partition gives every partition in its own (timestamp, user) order.
write_sample_files streams the rows into the three samples files, holding
O(users x known set) in memory rather than O(samples); build_samples reads
the same stream into SequenceSamples.
"""

from __future__ import annotations

import heapq
import random
from array import array
from bisect import insort
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter, le
from pathlib import Path

from .errors import DataError, open_input, parse_int, rows

PAD = "<PAD>"
HISTORY_LEN = 10
READ_BLOCK = 1 << 16  # characters of interaction-log text parsed at a time
NUM_PERIODS = 10
PARTITIONS = ("train", "valid", "test")


@dataclass
class InteractionLog:
    """Interaction columns, stably sorted by (timestamp, input-file position).

    user_codes numbers the users by first appearance in that order. A slice
    keeps the codes of the log it was cut from.
    """

    user_ids: list[str]
    item_ids: list[str]
    timestamps: array | list[int]  # int64 unless a value lies beyond it
    tags: list[str | None]
    user_codes: np.ndarray
    rejected: int = 0

    @classmethod
    def from_columns(cls, user_ids, item_ids, timestamps, tags, rejected=0):
        """A log from columns in input-file order, sorted by one stable index
        sort on the timestamps, so file order breaks timestamp ties; columns
        already in timestamp order are kept as they are. A reordered
        timestamp column keeps its form, array("q") or list."""
        import numpy as np

        n = len(timestamps)
        if not all(map(le, timestamps, islice(timestamps, 1, None))):
            order = sorted(range(n), key=timestamps.__getitem__)
            user_ids, item_ids, tags = ([col[i] for i in order]
                                        for col in (user_ids, item_ids, tags))
            stamps = map(timestamps.__getitem__, order)
            timestamps = (array("q", stamps) if isinstance(timestamps, array)
                          else list(stamps))
        code_of = {user: k for k, user in enumerate(dict.fromkeys(user_ids))}
        codes = np.fromiter(map(code_of.__getitem__, user_ids), np.int64, n)
        return cls(user_ids, item_ids, timestamps, tags, codes, rejected)

    def __len__(self):
        return len(self.timestamps)

    def slice(self, lo, hi) -> InteractionLog:
        return InteractionLog(self.user_ids[lo:hi], self.item_ids[lo:hi],
                              self.timestamps[lo:hi], self.tags[lo:hi],
                              self.user_codes[lo:hi])

    def user_order(self) -> np.ndarray:
        """Positions grouped by user code, in log order within each user."""
        import numpy as np

        return np.argsort(self.user_codes, kind="stable")


@dataclass
class ItemCatalog:
    """item_id -> title, with a canonical index from sorted item_id order."""

    entries: dict[str, str]
    index_of: dict[str, int] = field(init=False)
    ids: list[str] = field(init=False)

    def __post_init__(self):
        if not self.entries:
            raise DataError("catalog is empty")
        for item_id, title in self.entries.items():
            if not item_id:
                raise DataError("catalog contains an empty item_id")
            if not title:
                raise DataError(f"catalog item {item_id!r} has an empty title")
        if PAD in self.entries:
            raise DataError(f"catalog item_id collides with the PAD token {PAD!r}")
        self.ids = sorted(self.entries)
        self.index_of = {item_id: i for i, item_id in enumerate(self.ids)}

    def __len__(self):
        return len(self.ids)

    def title(self, item_id):
        return self.entries[item_id]

    def titles(self):
        return [self.entries[i] for i in self.ids]

    def indices(self, item_ids) -> np.ndarray:
        """Canonical index of each id, -1 for an id not in the catalog."""
        import numpy as np

        get = self.index_of.get
        return np.fromiter((get(i, -1) for i in item_ids), np.int64, len(item_ids))

    def index_set(self, item_ids) -> frozenset[int]:
        """The canonical indices of the ids in the catalog; others are ignored."""
        index_of = self.index_of
        return frozenset(index_of[i] for i in item_ids if i in index_of)


@dataclass
class SplitLog:
    full: InteractionLog
    boundaries: list[int]  # 9 cut indices into the sorted full log
    train: InteractionLog = field(init=False)
    valid: InteractionLog = field(init=False)
    test: InteractionLog = field(init=False)

    def __post_init__(self):
        for name in PARTITIONS:
            setattr(self, name, self.full.slice(*self.partition_range(name)))

    def partition_range(self, name):
        b = self.boundaries
        n = len(self.full)
        if name == "train":
            return 0, b[7]
        if name == "valid":
            return b[7], b[8]
        if name == "test":
            return b[8], n
        raise ValueError(f"unknown partition {name!r}")


@dataclass(frozen=True)
class SequenceSample:
    history: tuple[str, ...]  # exactly HISTORY_LEN, PAD-prefixed
    target: str
    user_id: str
    target_timestamp: int
    known_items: frozenset[str]


def _line_blocks(fh):
    """The lines of a text input as lists, one per READ_BLOCK characters read:
    each block is split on newlines, its partial last line carried into the
    next block."""
    tail = ""
    while block := fh.read(READ_BLOCK):
        lines = (tail + block).split("\n")
        tail = lines.pop()
        yield lines
    yield [tail]


def parse_interactions(path) -> InteractionLog:
    """Parse a TSV of user_id, item_id, timestamp[, tag].

    Malformed lines are counted and skipped; more than 10% rejects is fatal.
    The text is split a block at a time (_line_blocks), so the parse holds
    one block's lines, never the whole file's. User and item ids go through
    one dict, so the columns hold one string object per distinct id; the
    timestamps fill an int64 column, which becomes a list at the first value
    beyond int64.
    """
    users, items, tags = [], [], []
    stamps = array("q")
    share = {}.setdefault
    rejected = 0
    total = 0
    with open_input(path, "interactions") as fh:
        for lineno, line in enumerate(chain.from_iterable(_line_blocks(fh)), 1):
            if not line or line.startswith("#"):
                continue
            total += 1
            parts = line.split("\t")
            if len(parts) < 3 or not parts[0] or not parts[1]:
                rejected += 1
                continue
            try:
                ts = int(parts[2])
            except ValueError:
                rejected += 1
                continue
            if parts[1] == PAD:
                raise DataError(f"item_id collides with PAD token at line {lineno} "
                                f"in {path}")
            user, item = parts[0], parts[1]
            users.append(share(user, user))
            items.append(share(item, item))
            try:
                stamps.append(ts)
            except OverflowError:  # beyond int64: the column holds Python ints
                stamps = [*stamps, ts]
            tags.append(parts[3] if len(parts) > 3 and parts[3] else None)
    if total and rejected / total > 0.10:
        raise DataError(
            f"{rejected}/{total} lines rejected in {path} (>10%); "
            "check the file format (user \\t item \\t integer timestamp)"
        )
    return InteractionLog.from_columns(users, items, stamps, tags, rejected)


def parse_catalog(path) -> ItemCatalog:
    """Parse a TSV of item_id, title[, tag]; the tag is accepted and not kept."""
    entries = {}
    for lineno, parts in rows(path, "catalog"):
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise DataError(f"malformed catalog line {lineno} in {path}")
        if parts[0] in entries:
            raise DataError(f"duplicate catalog item_id {parts[0]!r} at line {lineno} "
                            f"in {path}")
        entries[parts[0]] = parts[1]
    return ItemCatalog(entries)


def period_sizes(n, periods=NUM_PERIODS):
    """Equal-count period sizes; remainder assigned one-per-period from the earliest."""
    base, rem = divmod(n, periods)
    return [base + 1 if k < rem else base for k in range(periods)]


def temporal_split(log: InteractionLog) -> SplitLog:
    n = len(log)
    if n < NUM_PERIODS:
        raise DataError(
            f"temporal split needs at least {NUM_PERIODS} interactions, got {n}"
        )
    sizes = period_sizes(n)
    boundaries = []
    acc = 0
    for s in sizes[:-1]:
        acc += s
        boundaries.append(acc)
    return SplitLog(log, boundaries)


def _timelines(full: InteractionLog):
    """Each user's log positions, in global (timestamp, position) order."""
    import numpy as np

    order = full.user_order()
    cuts = np.flatnonzero(np.diff(full.user_codes[order])) + 1
    return [t.tolist() for t in np.split(order, cuts)] if len(full) else []


def _check_id(item, clean):
    """Raise DataError if an item id holds a separator; `clean` gains the ids
    that pass, so each is checked once."""
    if "," in item or "\t" in item:
        raise DataError(
            f"item_id {item!r} contains a separator; cannot serialize samples"
        )
    clean.add(item)


def _walk(split: SplitLog, timeline, clean):
    """One user's samples as (timestamp, user, partition index, history text,
    target, known text) rows, in timeline order.

    The window holds the last HISTORY_LEN items, PAD-filled. The known set
    grows as the walk passes each timestamp; its sorted list gains each new
    item by insertion, and the joined text is rebuilt only when it grows, so
    rows with an unchanged set share one text object.
    """
    full = split.full
    train_end = split.partition_range("train")[1]
    valid_end = split.partition_range("valid")[1]
    user = full.user_ids[timeline[0]]
    window = deque([PAD] * HISTORY_LEN, maxlen=HISTORY_LEN)
    seen: set[str] = set()
    known: list[str] = []  # seen, sorted
    known_text = ""
    pending: list[str] = []  # items at the current timestamp, not yet known
    now = None
    for k, pos in enumerate(timeline):
        item, ts = full.item_ids[pos], full.timestamps[pos]
        if item not in clean:
            _check_id(item, clean)
        if ts != now:
            now = ts
            size = len(seen)
            for new in pending:
                if new not in seen:
                    seen.add(new)
                    insort(known, new)
            pending.clear()
            if len(seen) != size:
                known_text = ",".join(known)
        if k:
            part = 0 if pos < train_end else 1 if pos < valid_end else 2
            yield ts, user, part, ",".join(window), item, known_text
        window.append(item)
        pending.append(item)


def _sample_rows(split: SplitLog):
    """The rows of every partition's samples file, merged into global
    (timestamp, user) order; a user's rows at one timestamp keep timeline
    order.

    One sample per interaction that has >=1 predecessor, filed under the
    partition holding the interaction. History is the 10 immediately
    preceding interactions from the user's full timeline (crossing partition
    boundaries), left-padded with PAD. The known set holds everything the
    user touched strictly before the target timestamp. Each partition is a
    contiguous range of the sorted log, so the rows of one partition come out
    in the order of its (timestamp, user) stable sort.

    Linear per user, and lazy: memory is one walk's state per user, not the
    samples.
    """
    clean: set[str] = set()
    # a one-event timeline yields no row, so its item id is never written
    walks = [_walk(split, t, clean) for t in _timelines(split.full) if len(t) > 1]
    return heapq.merge(*walks, key=itemgetter(0, 1))


def _line(user, history, target, ts, known):
    return f"{user}\t{history}\t{target}\t{ts}\t{known}\n"


def _sample(user, history, target, ts, known):
    """A SequenceSample from the text fields of a samples row; `known` is the
    known set, already a frozenset."""
    return SequenceSample(tuple(history.split(",")), target, user, ts, known)


def _known_set(text, ids):
    """The known set of a samples row; `ids` maps each item id to the one
    string object the sets share for it."""
    share = ids.setdefault
    return frozenset([share(i, i) for i in text.split(",")]) if text else frozenset()


def write_sample_files(split: SplitLog, out_dir):
    """Write samples_{train,valid,test}.tsv into out_dir from one pass over
    _sample_rows, each row to its partition's file."""
    with ExitStack() as stack:
        writes = [
            stack.enter_context(
                open(Path(out_dir) / f"samples_{name}.tsv", "w", encoding="utf-8")
            ).write
            for name in PARTITIONS
        ]
        for ts, user, part, history, target, known in _sample_rows(split):
            writes[part](_line(user, history, target, ts, known))


def build_samples(split: SplitLog) -> dict[str, list[SequenceSample]]:
    """The samples of all three partitions, in memory: the rows of
    _sample_rows, each in (timestamp, user) order. Rows whose known text is
    one object share one frozenset, so consecutive samples with an unchanged
    known set share one immutable snapshot."""
    out: dict[str, list[SequenceSample]] = {name: [] for name in PARTITIONS}
    lists = [out[name] for name in PARTITIONS]
    last: dict[str, tuple[str, frozenset[str]]] = {}  # user -> text, set
    ids: dict[str, str] = {}
    for ts, user, part, history, target, known in _sample_rows(split):
        memo = last.get(user)
        if memo is None or memo[0] is not known:
            memo = last[user] = (known, _known_set(known, ids))
        lists[part].append(_sample(user, history, target, ts, memo[1]))
    return out


def write_interactions(path, log: InteractionLog):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{user}\t{item}\t{ts}\t{tag}\n" if tag else f"{user}\t{item}\t{ts}\n"
            for user, item, ts, tag in zip(log.user_ids, log.item_ids,
                                           log.timestamps, log.tags)
        )


def write_samples(path, samples):
    """TSV: user, comma-joined history, target, timestamp, comma-joined
    sorted known set, from in-memory samples.

    Item ids must not contain commas or tabs (enforced at write time).
    """
    clean: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            for item in (*s.history, s.target, *s.known_items):
                if item not in clean:
                    _check_id(item, clean)
            fh.write(_line(s.user_id, ",".join(s.history), s.target,
                           s.target_timestamp, ",".join(sorted(s.known_items))))


def _checked(parts, lineno, path):
    """The fields of a samples line, timestamp parsed, once the line is
    checked: 5 fields, a history of HISTORY_LEN ids, an integer timestamp."""
    if len(parts) != 5:
        raise DataError(f"malformed sample line {lineno} in {path}")
    length = parts[1].count(",") + 1
    if length != HISTORY_LEN:
        raise DataError(
            f"sample line {lineno} in {path}: history length "
            f"{length} != {HISTORY_LEN}"
        )
    parts[3] = parse_int(parts[3], "timestamp", lineno, path)
    return parts


def read_samples(path, n=None, seed=0) -> list[SequenceSample]:
    """Samples from a samples TSV. With n, only the seeded draw of n of them:
    exactly sample_eval(read_samples(path), n, seed).

    Every line is checked before any sample is returned. With n, a first
    pass checks every line and keeps only its line number, and a second
    splits only the drawn lines, so memory holds the draw, not the file.
    The returned known sets share one string per item id.
    """
    if n is None:
        lines = [_checked(parts, lineno, path) for lineno, parts in rows(path, "samples")]
    else:
        linenos = array("q")
        for lineno, parts in rows(path, "samples"):
            _checked(parts, lineno, path)
            linenos.append(lineno)
        slot = {lineno: k for k, lineno in enumerate(sample_eval(linenos, n, seed))}
        lines = [None] * len(slot)
        with open_input(path, "samples") as fh:
            for lineno, line in enumerate(fh, 1):
                k = slot.get(lineno)
                if k is not None:
                    lines[k] = _checked(line.rstrip("\n").split("\t"), lineno, path)
        if None in lines:
            raise DataError(f"samples file {path} changed while it was read")
    ids: dict[str, str] = {}
    return [_sample(user, hist, target, ts, _known_set(known, ids))
            for user, hist, target, ts, known in lines]


def sample_eval(samples, n, seed) -> list:
    """Seeded uniform draw without replacement (Mersenne Twister via random.Random)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n >= len(samples):
        return list(samples)
    rng = random.Random(seed)
    idx = rng.sample(range(len(samples)), n)
    return [samples[i] for i in idx]
