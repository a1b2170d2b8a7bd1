import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowstream import (
    Chunk,
    ChunkerConfig,
    NotSeekable,
    RecordTooLarge,
    adjust_split,
    byte_range_splits,
    iter_chunks,
    next_chunk,
)


def chunk_bytes(source, **kw):
    return [c.data for c in iter_chunks(source, ChunkerConfig(**kw))]


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


def test_seq_and_is_last_flags():
    chunks = list(iter_chunks(b"a\nb\nc\n", ChunkerConfig(target_bytes=2)))
    assert [c.seq for c in chunks] == [0, 1, 2]
    assert [c.is_last for c in chunks] == [False, False, True]
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


@settings(max_examples=200, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=40), max_size=60),
    target=st.integers(min_value=1, max_value=64),
    terminated=st.booleans(),
)
def test_chunk_invariants(lengths, target, terminated):
    records = [bytes([65 + (i % 26)]) * n for i, n in enumerate(lengths)]
    data = b"\n".join(records)
    if terminated and records:
        data += b"\n"
    chunks = chunk_bytes(data, target_bytes=target, hard_cap_bytes=1 << 20)
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


def test_hard_cap_exact_boundary():
    cfg = dict(target_bytes=4, hard_cap_bytes=8)
    assert chunk_bytes(b"ab\n" + b"x" * 8 + b"\ncd\n", **cfg)  # payload == cap: fine
    with pytest.raises(RecordTooLarge):
        chunk_bytes(b"ab\n" + b"x" * 9 + b"\ncd\n", **cfg)


def test_hard_cap_catches_interior_record():
    # the over-long record begins and ends inside a single read block
    data = b"a\n" + b"x" * 50 + b"\n" + b"b\n" * 100
    with pytest.raises(RecordTooLarge):
        chunk_bytes(data, target_bytes=16, hard_cap_bytes=32)


def test_hard_cap_unterminated_tail():
    with pytest.raises(RecordTooLarge):
        chunk_bytes(b"ok\n" + b"y" * 40, target_bytes=8, hard_cap_bytes=16)


def test_hard_cap_defaults_to_eight_targets():
    assert ChunkerConfig(target_bytes=10).hard_cap_bytes == 80
    with pytest.raises(ValueError):
        ChunkerConfig(target_bytes=10, hard_cap_bytes=5)


def test_next_chunk_matches_iterator():
    data = b"".join(b"row%d\n" % i for i in range(50))
    cfg = ChunkerConfig(target_bytes=32)
    stream = io.BytesIO(data)
    pulled = []
    while True:
        piece = next_chunk(stream, cfg)
        if piece == b"":
            break
        pulled.append(piece)
    assert pulled == chunk_bytes(data, target_bytes=32)
    assert next_chunk(stream, cfg) == b""  # stays at EOF


def test_next_chunk_requires_seekable():
    class Pipe(io.RawIOBase):
        def readable(self):
            return True

    with pytest.raises(NotSeekable):
        next_chunk(Pipe())


def test_byte_range_splits_exact_tiling():
    assert byte_range_splits(10, 3) == [(0, 4), (4, 3), (7, 3)]
    assert byte_range_splits(3, 5) == [(0, 1), (1, 1), (2, 1), (3, 0), (3, 0)]
    assert byte_range_splits(0, 2) == [(0, 0), (0, 0)]
    with pytest.raises(ValueError):
        byte_range_splits(10, 0)


@settings(max_examples=150, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=0, max_value=25), max_size=40),
    n_splits=st.integers(min_value=1, max_value=8),
    terminated=st.booleans(),
)
def test_adjust_split_tiles_the_file(lengths, n_splits, terminated):
    records = [b"r" * n for n in lengths]
    data = b"\n".join(records)
    if terminated and records:
        data += b"\n"
    stream = io.BytesIO(data)
    adjusted = [
        adjust_split(stream, off, ln)
        for off, ln in byte_range_splits(len(data), n_splits)
    ]
    # ranges chain with no gaps or overlap and cover the whole file
    pos = 0
    for start, end in adjusted:
        assert start <= end
        covered = max(start, pos), max(end, pos)
        assert covered[0] == pos or start >= pos
        pos = max(pos, end)
    starts = sorted(s for s, e in adjusted if e > s)
    ends = sorted(e for s, e in adjusted if e > s)
    assert all(e <= len(data) for e in ends)
    if data:
        spans = sorted((s, e) for s, e in adjusted if e > s)
        assert spans[0][0] == 0
        assert spans[-1][1] == len(data)
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 == s2
        # every span starts on a record boundary
        for s, _ in spans:
            assert s == 0 or data[s - 1] == 0x0A
    else:
        assert not starts and not ends


def test_adjust_split_record_at_offset_is_owned():
    data = b"aaa\nbbb\nccc\n"
    stream = io.BytesIO(data)
    # offset 4 is the first byte of "bbb"; that record belongs to this split
    assert adjust_split(stream, 4, 4) == (4, 8)
    assert adjust_split(stream, 0, 4) == (0, 4)
    # a zero-length split owns nothing
    s, e = adjust_split(stream, 5, 0)
    assert s == e

