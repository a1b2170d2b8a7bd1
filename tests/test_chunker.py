import io
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rowstream.chunker
from rowstream import (
    ApplyConfig,
    Chunk,
    ChunkerConfig,
    RecordTooLarge,
    chunk_apply,
    iter_chunks,
)


def chunk_bytes(source, **kw):
    return [c.data for c in iter_chunks(source, ChunkerConfig(**kw))]


# 1, 3 and 7 bytes per read make small inputs take the paths that large
# inputs take at the default: a cut or a record that spans many reads
READ_SIZES = (1, 3, 7, rowstream.chunker._READ_SIZE)


def outcome(cut):
    """The chunks ``cut()`` returns, or the message of its RecordTooLarge."""
    try:
        return cut()
    except RecordTooLarge as exc:
        return str(exc)


def chunk_bytes_every_read_size(data: bytes, target: int):
    """``chunk_bytes`` at every read size in READ_SIZES, which must agree on
    the chunks or on the RecordTooLarge they raise."""
    outcomes = []
    for n in READ_SIZES:
        with mock.patch.object(rowstream.chunker, "_READ_SIZE", n):
            outcomes.append(
                outcome(lambda: chunk_bytes(data, target_bytes=target))
            )
    assert all(o == outcomes[0] for o in outcomes), outcomes
    if isinstance(outcomes[0], str):
        raise RecordTooLarge(outcomes[0])
    return outcomes[0]


def test_window_rule_worked_example():
    # target 4: window 0 ends at the first separator at or past byte 3,
    # which is the newline after "bb"
    assert chunk_bytes(b"a\nbb\nccc", target_bytes=4) == [b"a\nbb\n", b"ccc"]


def test_empty_input_yields_nothing():
    assert chunk_bytes(b"", target_bytes=4) == []


def test_tiny_target_one_record_per_chunk():
    data = b"aa\nbb\ncc\n"
    assert chunk_bytes(data, target_bytes=1) == [b"aa\n", b"bb\n", b"cc\n"]


def test_single_chunk_when_target_large():
    data = b"aa\nbb\ncc\n"
    assert chunk_bytes(data, target_bytes=1 << 20) == [data]


def test_seq_is_gapless_from_zero():
    chunks = list(iter_chunks(b"a\nb\nc\n", ChunkerConfig(target_bytes=2)))
    assert [c.seq for c in chunks] == [0, 1, 2]
    assert all(isinstance(c, Chunk) for c in chunks)


def test_unterminated_final_record_kept():
    assert chunk_bytes(b"aa\nbb", target_bytes=3) == [b"aa\n", b"bb"]


def test_record_overrunning_windows_absorbs_them():
    # one record spans windows 0-2, so window 1 contributes no chunk; the
    # following chunk is governed by window 2's edge at byte 11
    data = b"x" * 10 + b"\n" + b"y\nz\n"
    assert chunk_bytes(data, target_bytes=4) == [b"x" * 10 + b"\n", b"y\n", b"z\n"]


def test_sources_path_stream_bytes_agree(tmp_path):
    data = b"".join(b"%d\n" % i for i in range(1000))
    path = tmp_path / "rows.txt"
    path.write_bytes(data)
    from_bytes = chunk_bytes(data, target_bytes=256)
    from_path = chunk_bytes(path, target_bytes=256)
    with open(path, "rb") as fh:
        from_stream = chunk_bytes(fh, target_bytes=256)
    assert from_bytes == from_path == from_stream


def make_records(lengths, terminated):
    records = [bytes([65 + (i % 26)]) * n for i, n in enumerate(lengths)]
    data = b"\n".join(records)
    if terminated and records:
        data += b"\n"
    return data


def over_cap(lengths, target):
    return any(n > 8 * target for n in lengths)


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    target=st.integers(min_value=1, max_value=64),
    terminated=st.booleans(),
)
def test_chunk_invariants(lengths, target, terminated):
    data = make_records(lengths, terminated)
    if over_cap(lengths, target):
        with pytest.raises(RecordTooLarge):
            chunk_bytes_every_read_size(data, target)
        return
    chunks = chunk_bytes_every_read_size(data, target)
    assert b"".join(chunks) == data
    for c in chunks[:-1]:
        assert c.endswith(b"\n")
    assert all(c != b"" for c in chunks)
    # boundaries are absolute: every non-final chunk ends at the first
    # separator at or past its window edge
    pos = 0
    for c in chunks[:-1]:
        end = pos + len(c)
        window_edge = (pos // target + 1) * target
        assert end >= window_edge
        assert data.find(b"\n", window_edge - 1) == end - 1
        pos = end


def identity(data: bytes) -> bytes:
    return data


@settings(max_examples=60, deadline=None)
# one 2-byte record at target 1: the second worker's window starts inside
# it and no separator follows, so that worker must yield nothing
@example(lengths=[2], target=1, parallel=2, terminated=False)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
    target=st.integers(min_value=1, max_value=48),
    parallel=st.integers(min_value=1, max_value=5),
    terminated=st.booleans(),
)
def test_split_equals_sequential(tmp_path_factory, lengths, target, parallel,
                                 terminated):
    # workers that chunk their own windows must cut exactly the chunks of
    # one sequential pass; records may span many windows, and a window
    # may start inside the file's unterminated last record
    path = tmp_path_factory.mktemp("split") / "rows.txt"
    path.write_bytes(make_records(lengths, terminated))
    chunker = ChunkerConfig(target)
    seq = ApplyConfig(chunker=chunker)
    split = ApplyConfig(mode="split", parallel=parallel, chunker=chunker)
    if over_cap(lengths, target):
        for cfg in (seq, split):
            with pytest.raises(RecordTooLarge):
                chunk_apply(path, identity, cfg)
        return
    assert chunk_apply(path, identity, split) == chunk_apply(
        path, identity, seq
    )


def test_hard_cap_exact_boundary():
    # target 1 caps a record at 8 bytes
    assert chunk_bytes_every_read_size(b"ab\n" + b"x" * 8 + b"\ncd\n", 1)
    with pytest.raises(RecordTooLarge):
        chunk_bytes_every_read_size(b"ab\n" + b"x" * 9 + b"\ncd\n", 1)
    # target 5 caps it at 40; the record crosses byte 4, the end of window
    # 0, and starts after a short record in the same chunk
    assert chunk_bytes_every_read_size(b"aaa\n" + b"x" * 40 + b"\n", 5)
    with pytest.raises(RecordTooLarge):
        chunk_bytes_every_read_size(b"aaa\n" + b"x" * 41 + b"\n", 5)


def test_hard_cap_catches_interior_record():
    # the over-long record begins and ends inside a single read block
    data = b"a\n" + b"x" * 50 + b"\n" + b"b\n" * 100
    with pytest.raises(RecordTooLarge):
        chunk_bytes_every_read_size(data, 4)


def test_hard_cap_unterminated_tail():
    with pytest.raises(RecordTooLarge):
        chunk_bytes_every_read_size(b"ok\n" + b"y" * 40, 2)


def test_hard_cap_defaults_to_eight_targets():
    record = b"x" * 80 + b"\n"
    assert chunk_bytes_every_read_size(record, 10) == [record]
    with pytest.raises(RecordTooLarge):
        chunk_bytes_every_read_size(b"x" * 81 + b"\n", 10)


@settings(max_examples=300, deadline=None)
# a record exactly at the cap that starts after a short one, inside the
# window whose last byte it crosses
@example(lengths=[3, 40], target=5, terminated=True, read_size=1, cuts=[],
         prefix=b"")
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
    target=st.integers(min_value=1, max_value=8),
    terminated=st.booleans(),
    read_size=st.sampled_from(READ_SIZES),
    cuts=st.lists(st.integers(min_value=0, max_value=1000), max_size=4),
    prefix=st.binary(max_size=4),
)
def test_window_tiling_equals_one_pass(lengths, target, terminated, read_size,
                                       cuts, prefix):
    # split workers call _raw_chunks on a handle that stands past ``prefix``,
    # each over its own run of windows; in window order, their chunks are the
    # chunks of one pass, and the first RecordTooLarge is the same one
    data = make_records(lengths, terminated)
    n_windows = -(-len(data) // target)
    edges = sorted({0, n_windows, *(c % (n_windows + 1) for c in cuts)})
    cfg = ChunkerConfig(target)

    def tiled():
        chunks = []
        for lo, hi in zip(edges, edges[1:]):
            stream = io.BytesIO(prefix + data)
            stream.seek(len(prefix))
            chunks += rowstream.chunker._raw_chunks(
                stream, cfg, lo * target, hi * target
            )
        return chunks

    with mock.patch.object(rowstream.chunker, "_READ_SIZE", read_size):
        got = outcome(tiled)
    assert got == outcome(lambda: chunk_bytes(data, target_bytes=target))
    assert isinstance(got, str) == over_cap(lengths, target)


def test_iter_chunks_holds_a_few_targets(tmp_path):
    # reads stop at the window: the chunk the caller holds, the window being
    # read and the chunk cut from it, however large the file
    target = 128 * 1024
    path = tmp_path / "rows.txt"
    path.write_bytes(b"".join(b"%d,%d\n" % (i, i * 7) for i in range(400_000)))
    tracemalloc.start()
    try:
        n = sum(1 for _ in iter_chunks(path, ChunkerConfig(target)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n > 30
    assert peak < 4 * target, peak / target
