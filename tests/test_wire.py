"""The typed shard query frames: round trips, and every malformed frame
failing with DataError."""

import struct
import zlib

import pytest

from repro.errors import DataError
from repro.serving import Answer, BorderLink, NeighborInfo, Ownership
from repro.serving.wire import (
    ANSWERS_KIND,
    LINK,
    QUERY_KIND,
    RECORD,
    decode_answers,
    decode_query,
    encode_answers,
    encode_query,
)

LINK_A = BorderLink(index=0, vp_name="vp00", near_router=3, far_router=9,
                    neighbor_as=64501, relationship="peer", reason="onenet",
                    via_ixp=False)
LINK_B = BorderLink(index=7, vp_name="vp01", near_router=4, far_router=None,
                    neighbor_as=64502, relationship="customer",
                    reason="unrouted", via_ixp=True)


def small_answers(epoch=1):
    """One answer of every record tag, sharing links and link tuples."""
    both = (LINK_A, LINK_B)
    return [
        Answer("owner", 16843009, Ownership(64500, "interface", 3), epoch),
        Answer("owner", 2 ** 32 - 1, Ownership(64502, "bgp", None), epoch),
        Answer("owner", -1, None, epoch),
        Answer("border", 33686018, both, epoch),
        Answer("border", 33686019, both, epoch),
        Answer("border", 0, (), epoch),
        Answer("neighbors", 64501,
               NeighborInfo(64501, "peer", (LINK_A,), 0.93), epoch),
        Answer("neighbors", 1, None, epoch),
    ]


def reseal(body: bytes) -> bytes:
    """``body`` with its CRC recomputed, so only the structural checks
    stand between it and the decoder."""
    rest = body[5:]
    return body[:1] + struct.pack("<I", zlib.crc32(rest)) + rest


class TestQueryFrame:
    def test_round_trip(self):
        requests = [("owner", 1), ("border", -(2 ** 63)),
                    ("neighbors", 2 ** 63 - 1)]
        ctx = {"id": "00deadbeef00cafe", "seed": 5}
        frame = decode_query(encode_query(9, requests, ctx))
        assert frame.seq == 9
        assert frame.trace == ctx
        assert frame.requests == requests

    def test_trace_context_optional(self):
        assert decode_query(encode_query(1, [("owner", 1)])).trace is None
        frame = decode_query(encode_query(1, [], {"id": None, "seed": -1}))
        assert frame.trace == {"id": None, "seed": 2 ** 64 - 1}
        assert frame.requests == []

    @pytest.mark.parametrize("ident", [
        "root", "00DEADBEEF00CAFE", "1" * 17, "-" + "0" * 15, 7,
    ])
    def test_span_id_must_be_a_tracer_id(self, ident):
        with pytest.raises(DataError, match="span id"):
            encode_query(1, [("owner", 1)], {"id": ident, "seed": 5})

    def test_nine_bytes_per_request(self):
        one = encode_query(1, [("owner", 1)])
        three = encode_query(1, [("owner", 1)] * 3)
        assert len(three) - len(one) == 2 * 9

    @pytest.mark.parametrize("requests", [
        [("frobnicate", 1)],
        [("owner", 2 ** 64)],
        [("owner", -(2 ** 63) - 1)],
    ])
    def test_encoder_rejects_what_cannot_travel(self, requests):
        with pytest.raises(DataError):
            encode_query(1, requests)

    def test_unknown_op_code(self):
        body = bytearray(encode_query(1, [("owner", 1)]))
        body[-9] = 3    # the op-code column sits before the keys
        with pytest.raises(DataError, match="op code"):
            decode_query(reseal(bytes(body)))

    def test_unknown_trace_flags(self):
        body = bytearray(encode_query(1, [("owner", 1)]))
        body[17] = 2    # an id without a seed
        with pytest.raises(DataError, match="trace flags"):
            decode_query(reseal(bytes(body)))

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00" * 9])
    def test_overlong_body(self, tail):
        with pytest.raises(DataError, match="header says"):
            decode_query(reseal(encode_query(1, [("owner", 1)]) + tail))

    def test_answer_table_is_not_a_query(self):
        with pytest.raises(DataError, match="kind"):
            decode_query(encode_answers(1, 1, 0, small_answers()))


class TestAnswerTable:
    def test_round_trip_rebuilds_equal_answers(self):
        answers = small_answers(epoch=4)
        table = decode_answers(encode_answers(11, 4, 77, answers))
        assert (table.seq, table.epoch, table.token) == (11, 4, 77)
        assert [Answer(*entry) for entry in table.entries] == answers

    def test_each_link_and_tuple_crosses_once(self):
        table = decode_answers(encode_answers(1, 1, 0, small_answers()))
        values = [entry[2] for entry in table.entries]
        # The two border answers share one rebuilt tuple, and the
        # neighbor's link is the same object as the border's.
        assert values[3] is values[4]
        assert values[6].links[0] is values[3][0]

    def test_records_are_fixed_width(self):
        one = encode_answers(1, 1, 0, small_answers()[2:3])
        two = encode_answers(1, 1, 0, small_answers()[2:3] * 2)
        assert len(two) - len(one) == RECORD.size

    def test_empty_table(self):
        table = decode_answers(encode_answers(3, 2, 1, []))
        assert table.entries == [] and table.epoch == 2

    def _body(self):
        return bytearray(encode_answers(1, 1, 0, small_answers()))

    def _records_at(self, body):
        return len(body) - RECORD.size * len(small_answers())

    def test_unknown_tag(self):
        body = self._body()
        body[self._records_at(body) + 1] = 9
        with pytest.raises(DataError, match="tag"):
            decode_answers(reseal(bytes(body)))

    def test_unknown_op_code(self):
        body = self._body()
        body[self._records_at(body)] = 3
        with pytest.raises(DataError, match="index"):
            decode_answers(reseal(bytes(body)))

    @pytest.mark.parametrize("field,offset", [("text", 26), ("run", 30)])
    def test_table_index_out_of_range(self, field, offset):
        body = self._body()
        # The neighbors record names both a string and a run.
        start = self._records_at(body) + 6 * RECORD.size
        body[start + offset:start + offset + 4] = struct.pack("<I", 999)
        with pytest.raises(DataError, match="index"):
            decode_answers(reseal(bytes(body)))

    def test_link_flags(self):
        body = self._body()
        # The first link row follows the 45-byte header and the string
        # table, whose strings stand in the order the encoder met them.
        strings = ["interface", "bgp", "vp00", "peer", "onenet", "vp01",
                   "customer", "unrouted"]
        start = 45 + 4 * len(strings) + sum(map(len, strings))
        body[start + LINK.size - 1] = 0x80
        with pytest.raises(DataError, match="link flags"):
            decode_answers(reseal(bytes(body)))

    def test_malformed_string(self):
        answers = [Answer("owner", 1, Ownership(1, "bgp", None), 1)]
        body = bytearray(encode_answers(1, 1, 0, answers))
        body[49] = 0xFF     # "bgp", after the header and its length
        with pytest.raises(DataError, match="string"):
            decode_answers(reseal(bytes(body)))

    @pytest.mark.parametrize("tail", [b"\x00", b"\x00" * RECORD.size])
    def test_overlong_body(self, tail):
        body = encode_answers(1, 1, 0, small_answers()) + tail
        with pytest.raises(DataError, match="header says"):
            decode_answers(reseal(body))

    def test_query_is_not_an_answer_table(self):
        with pytest.raises(DataError, match="kind"):
            decode_answers(encode_query(1, [("owner", 1)] * 4))


@pytest.mark.parametrize("kind,body,decoder", [
    (QUERY_KIND, encode_query(
        4, [("owner", 16843009), ("border", -1), ("neighbors", 2 ** 40)],
        {"id": "00deadbeef00cafe", "seed": 5}), decode_query),
    (ANSWERS_KIND, encode_answers(4, 1, 7, small_answers()),
     decode_answers),
], ids=["query", "answers"])
def test_every_truncation_and_flip_raises_data_error(kind, body, decoder):
    """Exhaustive over one small real frame of each kind: the decoder
    never returns a wrong answer for a damaged frame, and never raises
    anything but DataError."""
    assert body[0] == kind
    decoder(body)
    mutations = [body[:end] for end in range(len(body))]
    for index in range(len(body)):
        flipped = bytearray(body)
        flipped[index] ^= 0xFF
        mutations.append(bytes(flipped))
    for damaged in mutations:
        with pytest.raises(DataError):
            decoder(damaged)
