"""Whole logs and snapshots decoded through the incremental readers.

:class:`repro.persist.AofReader` applies records to a keyspace; tests
that check *which* records a log holds, in order, give it a
:class:`RecordLog` instead of a dict.
"""

from repro.persist import OP_DEL, OP_SET, AofReader, AofRecord, RdbReader


class RecordLog:
    """A keyspace that holds nothing and logs every record replayed
    into it, in order (it holds no value, so every SET is stored)."""

    def __init__(self):
        self.records: list[AofRecord] = []

    def get(self, key):
        return None

    def __setitem__(self, key, value):
        self.records.append(AofRecord(op=OP_SET, key=key, value=value))

    def pop(self, key, default=None):
        self.records.append(AofRecord(op=OP_DEL, key=key))
        return default


def decode(*windows) -> list[AofRecord]:
    """The valid record run of the stream ``windows`` make up."""
    log = RecordLog()
    reader = AofReader(log)
    for window in windows:
        reader.feed(window)
    return log.records


def read_records(sink, account):
    """Every record ``sink.read_all`` feeds (a simulation generator)."""
    log = RecordLog()
    yield from sink.read_all(account, AofReader(log))
    return log.records


def read_rdb(data, compressor=None) -> list[tuple[bytes, bytes]]:
    """The entries of a whole snapshot stream fed as one window;
    raises :class:`repro.persist.CorruptRecord` as the reader does."""
    reader = RdbReader(compressor)
    entries = reader.feed(data)
    reader.finish()
    return entries
