import random

import pytest
from hypothesis import given, settings

from adimlab.errors import (
    BadParameter,
    MalformedHeader,
    NonCanonicalPadding,
    TruncatedPayload,
)
from adimlab.graph import (
    _g6_size,
    _g6_size_header,
    complete,
    empty_graph,
    from_graph6,
    path,
    petersen,
    to_graph6,
)

from conftest import graphs, random_graph


def oracle_decode(record: str):
    """Independent decoder: expand every payload byte to 6 bits and read the
    column-major upper triangle directly off the bit string."""
    data = record.encode("ascii")
    assert data[0] != 126, "oracle only handles short-form sizes"
    n = data[0] - 63
    bits = "".join(format(b - 63, "06b") for b in data[1:])
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos] == "1":
                edges.append((i, j))
            pos += 1
    assert set(bits[pos:]) <= {"0"}
    return n, edges


def test_fixed_vectors():
    assert to_graph6(complete(1)) == "@"
    assert to_graph6(complete(2)) == "A_"
    assert from_graph6("A_") == complete(2)
    assert from_graph6("@") == complete(1)


def test_hand_encoded_k2_layout():
    # single pair bit 1 followed by five zero pad bits: 100000 -> 32+63 = '_'
    n, edges = oracle_decode("A_")
    assert (n, edges) == (2, [(0, 1)])


def test_petersen_round_trip():
    assert from_graph6(to_graph6(petersen())) == petersen()


def test_encoding_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 20))
        n, edges = oracle_decode(to_graph6(g))
        assert n == g.n
        assert sorted(edges) == g.edges()


@given(graphs(min_n=1, max_n=24))
@settings(max_examples=200, deadline=None)
def test_round_trip_identity(g):
    assert from_graph6(to_graph6(g)) == g


def test_long_form_round_trip():
    g = path(80)
    rec = to_graph6(g)
    assert rec.startswith("~")
    assert from_graph6(rec) == g


def test_header_prefix_accepted():
    assert from_graph6(">>graph6<<A_") == complete(2)
    # surrounding whitespace is dropped before the prefix is looked for
    for text in (" >>graph6<<A_", "\t>>graph6<< A_\n", " A_"):
        assert from_graph6(text) == complete(2)


def test_malformed_header():
    with pytest.raises(MalformedHeader):
        from_graph6("")
    with pytest.raises(MalformedHeader):
        from_graph6("~?")  # extended size cut short
    with pytest.raises(MalformedHeader):
        from_graph6("A_?")  # trailing byte


def test_truncated_payload():
    with pytest.raises(TruncatedPayload):
        from_graph6("D")  # order 5 needs payload
    rec = to_graph6(petersen())
    with pytest.raises(TruncatedPayload):
        from_graph6(rec[:-1])


def test_non_canonical_padding():
    # K2's payload byte with a stray low bit: 100001 -> 33+63 = '`'
    with pytest.raises(NonCanonicalPadding):
        from_graph6("A" + chr(33 + 63))


def test_extended_size_must_be_large():
    bad = "~" + chr(63) + chr(63) + chr(63 + 5)
    with pytest.raises(MalformedHeader):
        from_graph6(bad)


@pytest.mark.parametrize("text,error,message", [
    ("", MalformedHeader, "empty record"),
    (">>graph6<<", MalformedHeader, "empty record"),
    ("~?", MalformedHeader, "extended size needs 4 bytes"),
    ("~~", MalformedHeader, "long-form size needs 8 bytes"),
    ("~~?????", MalformedHeader, "long-form size needs 8 bytes"),
    ("!", MalformedHeader, "byte 33 outside graph6 range"),
    ("\x7f", MalformedHeader, "byte 127 outside graph6 range"),
    ("~?@!", MalformedHeader, "size byte 33 outside graph6 range"),
    ("~~??!???", MalformedHeader, "size byte 33 outside graph6 range"),
    ("A!", MalformedHeader, "payload byte 33 outside graph6 range"),
    ("A\x7f", MalformedHeader, "payload byte 127 outside graph6 range"),
    ("D", TruncatedPayload, "need 2 payload bytes, got 0"),
    ("D?", TruncatedPayload, "need 2 payload bytes, got 1"),
    ("~?~~", TruncatedPayload, "need 1397078 payload bytes, got 0"),
    ("A_?", MalformedHeader, "1 trailing bytes"),
    ("A`", NonCanonicalPadding, "non-zero padding bits"),
    ("B~", NonCanonicalPadding, "non-zero padding bits"),
    ("~??D", MalformedHeader, "extended size form used for a small order"),
    ("~??}", MalformedHeader, "extended size form used for a small order"),
    ("~~??????", MalformedHeader, "long-long size form used for a small order"),
    ("~~?????~", MalformedHeader, "long-long size form used for a small order"),
    ("D\u00e9{", MalformedHeader, "graph6 records are ASCII"),
])
def test_each_format_error_has_its_type_and_message(text, error, message):
    with pytest.raises(error) as info:
        from_graph6(text)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("n,header", [
    (0, b"?"),
    (62, b"}"),
    (63, b"~??~"),
    (258047, b"~}~~"),
    (258048, b"~~???~??"),
    (68719476735, b"~~~~~~~~"),
])
def test_size_headers_round_trip_at_each_form_boundary(n, header):
    assert _g6_size_header(n) == header
    assert _g6_size(header + b"rest") == (n, b"rest")


def test_orders_beyond_the_long_form_are_refused():
    with pytest.raises(BadParameter, match="cannot encode order 68719476736"):
        _g6_size_header(68719476736)


def test_empty_and_extended_form_graphs_round_trip():
    for n in (62, 63, 64):
        g = empty_graph(n)
        assert from_graph6(to_graph6(g)) == g
    assert to_graph6(empty_graph(63))[:4] == "~??~"
