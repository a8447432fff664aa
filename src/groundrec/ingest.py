"""Interaction-log parsing, temporal splitting, and sliding-window sample construction.

The split cuts the temporally sorted log into 10 contiguous equal-count periods
(remainder records go one-per-period starting from the earliest): periods 1-8
train, 9 valid, 10 test. Samples use a fixed history window of 10 items,
left-padded with the reserved PAD token; histories may cross partition
boundaries, so a test sample can see valid-period interactions.

The log is held as columns put in (timestamp, file-position) order by one
stable index sort; the partitions are slices of them. Each column has one
form. The users are held once: the distinct ids, numbered by first
appearance in the file, and one int64 code per row, which lets popularity
and co-occurrence counting group and count with numpy instead of per-record
loops. The timestamps are one int64 column (array("q"), 8 bytes a row); a
line whose timestamp is not an integer in int64 is a rejected line. numpy is
imported only by the functions that use it, so commands that read just a
catalog and samples (generate) never load it.

Large inputs are held once. Every text input is read through errors.rows,
which splits errors.READ_BLOCK characters at a time, so parse_interactions
never holds the file's text or its line list; every item id goes through
one dict, so each distinct id is one string object however many lines name
it, and a log already in timestamp order skips the index sort. read_samples
with a draw checks every line in a first pass, keeping only its line number,
and splits only the drawn lines in a second. A SequenceSample holds its items
as catalog indices: the readers map each id once (one row-to-sample function)
and write_samples maps them back; the split side needs no catalog. The
catalog keeps no id -> title dict and no string per title: its titles are
one Strings in canonical order (one string and an array("i") of end
offsets), and titles() yields one at a time, so the term column and the
embedder never hold a list of every title.

Samples come from one lazy walk per user timeline, linear in its length
(_walk), merged into global (timestamp, user) order (_sample_rows). Each
timeline is a memoryview slice of one int64 array of log positions, so the
walks hold no Python int per row.
write_sample_files streams the rows into the three samples files, holding
O(users x known set) in memory rather than O(samples); build_samples reads
the same stream into SequenceSamples.
"""

from __future__ import annotations

import heapq
import random
from array import array
from bisect import bisect_left, insort
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import itemgetter
from pathlib import Path

from .errors import DataError, parse_int, rows

PAD = "<PAD>"
PAD_INDEX = -1  # a history slot before the user's first item
OUTSIDE_INDEX = -2  # a history item that is not in the catalog
HISTORY_LEN = 10
NUM_PERIODS = 10
PARTITIONS = ("train", "valid", "test")


@dataclass
class InteractionLog:
    """Interaction columns, stably sorted by (timestamp, input-file position).

    users holds each distinct user id once, numbered by first appearance in
    the file, and user_codes each row's number; a slice shares users.
    """

    users: list[str]
    user_codes: np.ndarray  # int64
    item_ids: list[str]
    timestamps: array  # int64
    rejected: int = 0

    @classmethod
    def from_columns(cls, users, user_codes, item_ids, timestamps, rejected=0):
        """A log from columns in input-file order (user_codes and timestamps
        as array("q")), stably sorted on the timestamps, so file order breaks
        ties; columns already in timestamp order are kept as they are. Out of
        order, each column is reordered through the one numpy order, with no
        Python int per row."""
        import numpy as np

        codes = np.frombuffer(user_codes, np.int64)
        stamps = np.frombuffer(timestamps, np.int64)
        if (stamps[1:] < stamps[:-1]).any():
            order = np.argsort(stamps, kind="stable")
            codes, timestamps = codes[order], array("q", [0]) * len(order)
            np.take(stamps, order, out=np.frombuffer(timestamps, np.int64))
            item_ids = list(map(item_ids.__getitem__, memoryview(order)))
        return cls(users, codes, item_ids, timestamps, rejected)

    def __len__(self):
        return len(self.timestamps)

    def slice(self, lo, hi) -> InteractionLog:
        return InteractionLog(self.users, self.user_codes[lo:hi], self.item_ids[lo:hi],
                              self.timestamps[lo:hi])

    def user_order(self) -> np.ndarray:
        """Positions grouped by user code, in log order within each user."""
        import numpy as np

        return np.argsort(self.user_codes, kind="stable")


class Strings:
    """A list of strings held as one: `_text` joins them, and `_ends` holds
    each one's end offset in it (in characters), so no object per string is
    held. s[i] slices one out; iterating yields them one at a time. Built
    from a sequence of strings, which it reads twice and does not keep.

    The catalog's titles and the title terms (text.Terms) are held in one.
    It lives here, not in text.py, so that a command that reads a catalog
    but never tokenizes (popularity, collab-fit) does not load the
    tokenizer's module."""

    def __init__(self, strings):
        self._text = "".join(strings)
        self._ends = array("i", accumulate(map(len, strings)))

    def __len__(self):
        return len(self._ends)

    def __getitem__(self, i):
        return self._text[self._ends[i - 1] if i else 0:self._ends[i]]

    def __iter__(self):
        text, start = self._text, 0
        for end in self._ends:
            yield text[start:end]
            start = end


class ItemCatalog:
    """The catalog's ids and titles, each at its canonical index: the index
    of its id in sorted id order.

    Built from an item_id -> title dict, which it does not keep. The titles
    are one Strings in canonical order, so the catalog holds no object
    per title: title(item_id) slices one, and titles() yields them one at a
    time.
    """

    def __init__(self, entries: dict[str, str]):
        if not entries:
            raise DataError("catalog is empty")
        for item_id, title in entries.items():
            if not item_id:
                raise DataError("catalog contains an empty item_id")
            if not title:
                raise DataError(f"catalog item {item_id!r} has an empty title")
        self.ids = sorted(entries)
        self.index_of = {item_id: i for i, item_id in enumerate(self.ids)}
        self._titles = Strings([entries[item_id] for item_id in self.ids])

    def __len__(self):
        return len(self.ids)

    def title(self, item_id):
        return self._titles[self.index_of[item_id]]

    def titles(self):
        """The titles in canonical order, one string at a time."""
        return iter(self._titles)

    def indices(self, item_ids) -> np.ndarray:
        """Canonical index of each id, -1 for an id not in the catalog."""
        import numpy as np

        return np.fromiter(map(self.index_of.get, item_ids, repeat(-1)), np.int64,
                           len(item_ids))


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
    history: tuple[int, ...]  # HISTORY_LEN canonical indices, PAD_INDEX-prefixed
    target: int
    user_id: str
    target_timestamp: int
    # "i": the indices seen before the target, sorted, each once; samples whose
    # known set is unchanged share one array, so it is never mutated, nor hashed
    known: array = field(hash=False)
    line: int  # the sample's line in its samples file

    def knows(self, index) -> bool:
        """Whether index is in the known array, by a binary search."""
        at = bisect_left(self.known, index)
        return at < len(self.known) and self.known[at] == index


def parse_interactions(path) -> InteractionLog:
    """Parse a TSV of user_id, item_id, timestamp[, tag]; a tag is not kept.

    Malformed lines are counted and skipped, a timestamp outside int64
    among them; more than 10% rejects is fatal. The lines come from
    errors.rows, a block at a time. Each user gets its code at its first
    line, and item ids go through one dict, so the columns hold one string
    object per distinct id.
    """
    code_of, codes = {}, array("q")
    items = []
    stamps = array("q")
    share = {}.setdefault
    rejected = 0
    for lineno, parts in rows(path, "interactions"):
        if len(parts) < 3 or not parts[0] or not parts[1]:
            rejected += 1
            continue
        try:
            stamps.append(int(parts[2]))
        except (ValueError, OverflowError):  # not an integer, or outside int64
            rejected += 1
            continue
        if parts[1] == PAD:
            raise DataError(f"item_id collides with PAD token at line {lineno} "
                            f"in {path}")
        codes.append(code_of.setdefault(parts[0], len(code_of)))
        items.append(share(parts[1], parts[1]))
    total = len(stamps) + rejected  # every other line raised or has a timestamp
    if total and rejected / total > 0.10:
        raise DataError(
            f"{rejected}/{total} lines rejected in {path} (>10%); "
            "check the file format (user \\t item \\t integer timestamp)"
        )
    return InteractionLog.from_columns(list(code_of), codes, items, stamps, rejected)


def parse_catalog(path) -> ItemCatalog:
    """Parse a TSV of item_id, title[, tag]; the tag is accepted and not kept."""
    entries = {}
    for lineno, parts in rows(path, "catalog"):
        if len(parts) < 2 or not parts[0] or not parts[1]:
            raise DataError(f"malformed catalog line {lineno} in {path}")
        if parts[0] == PAD:
            raise DataError(f"catalog item_id collides with the PAD token {PAD!r} "
                            f"at line {lineno} in {path}")
        if parts[0] in entries:
            raise DataError(f"duplicate catalog item_id {parts[0]!r} at line {lineno} "
                            f"in {path}")
        entries[parts[0]] = parts[1]
    if not entries:
        raise DataError(f"catalog is empty: no item lines in {path}")
    return ItemCatalog(entries)


def period_sizes(n, periods=NUM_PERIODS):
    """Equal-count period (or decile) sizes; remainder one per period from the earliest."""
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
    """Each user's log positions, in global (timestamp, position) order: one
    memoryview slice per user of the one array of all users' positions."""
    import numpy as np

    order = full.user_order()
    ends = np.cumsum(np.bincount(full.user_codes)).tolist()
    positions = memoryview(order)
    return [positions[lo:hi] for lo, hi in zip([0, *ends], ends) if hi > lo]


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
    user = full.users[full.user_codes[timeline[0]]]
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


def _checked(parts, lineno, path, index_of):
    """The fields of a samples row, checked (5 fields, HISTORY_LEN history ids,
    an integer timestamp, a target in the catalog), the last two converted."""
    if len(parts) != 5:
        raise DataError(f"malformed sample line {lineno} in {path}")
    length = parts[1].count(",") + 1
    if length != HISTORY_LEN:
        raise DataError(f"sample line {lineno} in {path}: history length "
                        f"{length} != {HISTORY_LEN}")
    parts[3] = parse_int(parts[3], "timestamp", lineno, path)
    parts[2] = _target(parts[2], lineno, path, index_of)
    return parts


def _target(item, lineno, where, index_of):
    """The canonical index of a sample's target id, refused if it has none."""
    if (target := index_of.get(item)) is None:
        raise DataError(f"sample target {item!r} at line {lineno} in {where} "
                        "is not in the catalog")
    return target


def _known(text, index_of):
    """The indices of a known set's ids, sorted, each once; ids not in the
    catalog (and the empty text's one empty id) are dropped."""
    found = set(map(index_of.get, text.split(","), repeat(OUTSIDE_INDEX)))
    found.discard(OUTSIDE_INDEX)
    return array("i", sorted(found))


def _sample(fields, known, lineno, index_of):
    """The SequenceSample of a checked row, `known` its mapped known set."""
    user, history, target, ts, _ = fields
    history = tuple([PAD_INDEX if i == PAD else index_of.get(i, OUTSIDE_INDEX)
                     for i in history.split(",")])
    return SequenceSample(history, target, user, ts, known, lineno)


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


def build_samples(split: SplitLog, catalog: ItemCatalog) -> dict[str, list[SequenceSample]]:
    """The samples of all three partitions, in memory: the rows of
    _sample_rows, each in (timestamp, user) order, each numbered by the line
    it takes in the file write_sample_files writes. Rows whose known text is
    one object share one index array. Only tests call it (split streams); it
    stays here because perfbench/spans.py traces it under this name."""
    index_of = catalog.index_of
    lists: list[list[SequenceSample]] = [[] for _ in PARTITIONS]
    last: dict[str, tuple[str, array]] = {}  # user -> text, indices
    for ts, user, part, history, target, known in _sample_rows(split):
        lineno = len(lists[part]) + 1
        target = _target(target, lineno, f"the {PARTITIONS[part]} samples", index_of)
        memo = last.get(user)
        if memo is None or memo[0] is not known:
            memo = last[user] = (known, _known(known, index_of))
        lists[part].append(_sample((user, history, target, ts, known), memo[1],
                                   lineno, index_of))
    return dict(zip(PARTITIONS, lists))


def write_interactions(path, log: InteractionLog):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{log.users[code]}\t{item}\t{ts}\n" for code, item, ts
                      in zip(log.user_codes, log.item_ids, log.timestamps))


def write_samples(path, samples, catalog: ItemCatalog):
    """TSV: user, comma-joined history, target, timestamp, comma-joined sorted
    known set, from in-memory samples, each index written as its id. Item ids
    must not contain commas or tabs, and a history item outside the catalog
    has no id (both enforced at write time). Only tests call it; see build_samples."""
    ids = catalog.ids
    clean: set[str] = set()
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            if OUTSIDE_INDEX in s.history:
                raise DataError(f"a history item of sample {s.line} is not in the catalog")
            history = [PAD if i == PAD_INDEX else ids[i] for i in s.history]
            known = [ids[i] for i in s.known]
            for item in (*history, ids[s.target], *known):
                if item not in clean:
                    _check_id(item, clean)
            fh.write(_line(s.user_id, ",".join(history), ids[s.target],
                           s.target_timestamp, ",".join(known)))


def read_samples(path, catalog: ItemCatalog, n=None, seed=0) -> list[SequenceSample]:
    """Samples from a samples TSV, their items as canonical indices of the
    catalog. With n, only the seeded draw of n of them: exactly
    sample_eval(read_samples(path, catalog), n, seed).

    Every line is checked, a target outside the catalog refused, before any
    sample is returned. With n, a first pass checks every line and keeps only
    its line number, and a second splits only the drawn lines. Each sample is
    made as its line is read, so memory holds the samples, not their lines.
    """
    index_of = catalog.index_of

    def sample(lineno, parts):
        fields = _checked(parts, lineno, path, index_of)
        return _sample(fields, _known(fields[4], index_of), lineno, index_of)

    if n is None:
        return [sample(lineno, parts) for lineno, parts in rows(path, "samples")]
    linenos = array("q")
    for lineno, parts in rows(path, "samples"):
        _checked(parts, lineno, path, index_of)
        linenos.append(lineno)
    slot = {lineno: k for k, lineno in enumerate(sample_eval(linenos, n, seed))}
    samples = [None] * len(slot)
    for lineno, parts in rows(path, "samples", slot):
        samples[slot[lineno]] = sample(lineno, parts)
    if None in samples:
        raise DataError(f"samples file {path} changed while it was read")
    return samples


def sample_eval(samples, n, seed) -> list:
    """Seeded uniform draw without replacement (Mersenne Twister via random.Random)."""
    if n < 1:
        raise ValueError("sample count must be >= 1")
    if n >= len(samples):
        return list(samples)
    rng = random.Random(seed)
    idx = rng.sample(range(len(samples)), n)
    return [samples[i] for i in idx]
