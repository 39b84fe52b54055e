"""``parse_chunk`` against the record reference on lifecycle-heavy chunks.

Most lines a scanner writes are START and END lines, and runs of them
span many nodes.  Every chunk drawn here is parsed twice: by
:func:`parse_chunk`, and line by line through
:func:`~repro.logs.format.parse_line` into
:func:`tests.logs.record_reference.from_records`.  Both must give the
same columns (every array's dtype and bytes, and ``node_names``), or
both must raise :class:`LogFormatError`.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import LogFormatError
from repro.core.records import AllocFailRecord, EndRecord, ErrorRecord, StartRecord
from repro.logs.columnar import SHARD_COLUMNS, RecordColumns, parse_chunk
from repro.logs.format import format_record, parse_line

from .record_reference import from_records

#: Node names of differing widths, one wider than the parser's windows.
NODE_POOL = (
    "7", "01-02", "62-15", "c3-001", "node-0042", "blade_07-soc_11", "x%y",
    "rack-17/chassis-04/blade-07/soc-11/dimm-a3-long",
)

#: Lines the reference rejects.
MALFORMED = (
    "START|t=abc|node=01-02|mb=3072|temp=na",
    "START|t=1.0|node=01-02|mb=zz|temp=na",
    "END|t=1.0|node=01-02",
    "END|t=1.0|node=01-02|temp=warm",
    "ALLOC_FAIL|t=1.0|node=01-02|temp",
    "BOGUS|t=1.0|node=01-02",
    "ERROR|t=1.0|node=01-02|va=0x30|pp=0x80|exp=0x00000001|act=0x00000001|temp=na|rep=1",
)

#: Valid lines the canonical writer never emits, by how they differ.
NONCANONICAL = (
    "reorder", "temp_one_decimal", "temp_exponent", "mb_plus", "mb_zeros",
    "t_underscore", "crlf", "empty_node",
)


def reference(text: str) -> RecordColumns | type:
    try:
        return from_records(parse_line(line) for line in text.split("\n") if line.strip())
    except LogFormatError:
        return LogFormatError


def parsed(text: str) -> RecordColumns | type:
    try:
        return parse_chunk(text.encode("ascii"))
    except LogFormatError:
        return LogFormatError


def assert_same(got, want) -> None:
    if want is LogFormatError or got is LogFormatError:
        assert got is want
        return
    for name in [*SHARD_COLUMNS, "node_code"]:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.node_names == want.node_names


def canonical_line(kind: str, node: str, t: float, temp: float | None, value: int) -> str:
    if kind == "START":
        return format_record(StartRecord(t, node, (1024, 2048, 3072)[value % 3], temp))
    if kind == "END":
        return format_record(EndRecord(t, node, temp))
    if kind == "ALLOC_FAIL":
        return format_record(AllocFailRecord(t, node))
    expected = 0xFFFFFFFF if value % 2 else 0
    return format_record(
        ErrorRecord(t, node, 0x3000_0000 + 4 * value, 0x8_0000 + value, expected,
                    expected ^ (1 << value % 32), temp, 1 + value % 7)
    )


def restyle(line: str, style: str) -> str:
    """One valid but non-canonical spelling of ``line`` (or ``line``)."""
    kind, *fields = line.split("|")
    if style == "reorder":
        fields = fields[::-1]
    elif style == "temp_one_decimal":
        fields = ["temp=31.2" if f.startswith("temp=") else f for f in fields]
    elif style == "temp_exponent":
        fields = ["temp=1e1" if f.startswith("temp=") else f for f in fields]
    elif style == "mb_plus":
        fields = ["mb=+7" if f.startswith("mb=") else f for f in fields]
    elif style == "mb_zeros":
        fields = ["mb=007" if f.startswith("mb=") else f for f in fields]
    elif style == "t_underscore":
        fields = ["t=1_0" if f.startswith("t=") else f for f in fields]
    elif style == "crlf":
        return line + "\r"
    elif style == "empty_node":
        fields = ["node=" if f.startswith("node=") else f for f in fields]
    return "|".join([kind, *fields])


TIMES = st.one_of(
    st.integers(0, 40).map(lambda i: i / 8),  # ties
    st.floats(0, 1e5, allow_nan=False, allow_infinity=False),
)
TEMPS = st.one_of(st.none(), st.integers(-500, 9999).map(lambda c: c / 100))


@st.composite
def chunks(draw) -> str:
    nodes = draw(
        st.lists(
            st.sampled_from(NODE_POOL) | st.text("abz09-_.", min_size=1, max_size=20),
            min_size=1, max_size=8, unique=True,
        )
    )
    node = st.integers(0, len(nodes) - 1)
    lines: list[str] = []
    for kinds, size in draw(
        st.lists(
            st.sampled_from([
                (("START", "END"), 120),
                (("START", "END", "START", "END", "ALLOC_FAIL"), 120),
                (("ERROR",), 50),
                (("START", "ERROR", "END"), 12),
            ]),
            min_size=1, max_size=6,
        )
    ):
        rows = draw(st.lists(
            st.tuples(st.sampled_from(kinds), node, TIMES, TEMPS, st.integers(0, 1 << 20)),
            max_size=size,
        ))
        lines += [canonical_line(k, nodes[i], t, temp, v) for k, i, t, temp, v in rows]
    lines = lines[:400]
    if lines:
        for position, style in draw(st.lists(
            st.tuples(st.integers(0, len(lines) - 1), st.sampled_from(NONCANONICAL)),
            max_size=6,
        )):
            lines[position] = restyle(lines[position], style)
    bad = draw(st.none() | st.tuples(st.sampled_from(MALFORMED), st.sampled_from([0, 0.5, 1])))
    if bad is not None:
        line, where = bad
        lines.insert(int(where * len(lines)), line)
    return "".join(line + "\n" for line in lines)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=chunks())
def test_parse_chunk_matches_the_record_reference(text):
    assert_same(parsed(text), reference(text))


def test_long_canonical_lifecycle_run_over_many_nodes():
    lines = [
        canonical_line(("START", "END")[i % 2], NODE_POOL[i // 2 % len(NODE_POOL)],
                       i / 3, None if i % 9 == 0 else 20 + i / 4, i)
        for i in range(400)
    ]
    text = "".join(line + "\n" for line in lines)
    assert_same(parsed(text), reference(text))


def test_node_name_wider_than_the_parser_windows():
    """A run whose last line holds a short name after a long one."""
    wide = NODE_POOL[-1] + "-and-then-some"
    lines = [canonical_line("START", wide, i / 2, None, i) for i in range(40)]
    lines.append(canonical_line("ALLOC_FAIL", "a", 99.0, None, 0))
    text = "".join(line + "\n" for line in lines)
    assert_same(parsed(text), reference(text))
