"""Tests for the KRPC codec (repro.dht.krpc)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bencode import bdecode
from repro.bencode.reference import bencode_reference
from repro.dht.krpc import (
    ERROR_GENERIC,
    ERROR_PROTOCOL,
    ERROR_SERVER,
    ERROR_UNKNOWN_METHOD,
    KNOWN_METHODS,
    KrpcError,
    KrpcErrorMessage,
    KrpcQuery,
    KrpcResponse,
    decode_message,
    encode_error,
    encode_query,
    encode_response,
    node_id_to_bytes_or_raise,
    pack_compact_nodes,
    pack_compact_peer,
    unpack_compact_nodes,
    unpack_compact_peers,
)


class TestQueries:
    def test_query_round_trips(self):
        raw = encode_query(b"aa", "ping", {"id": b"\x01" * 20})
        message = decode_message(raw)
        assert isinstance(message, KrpcQuery)
        assert message.tid == b"aa"
        assert message.method == "ping"
        assert message.sender_id == b"\x01" * 20

    def test_get_peers_args_survive(self):
        raw = encode_query(
            b"\x00\x01", "get_peers", {"id": b"\x02" * 20, "info_hash": b"\x03" * 20}
        )
        message = decode_message(raw)
        assert message.args[b"info_hash"] == b"\x03" * 20

    def test_wire_shape_matches_bep5(self):
        decoded = bdecode(encode_query(b"tt", "find_node", {"id": b"\x04" * 20,
                                                            "target": b"\x05" * 20}))
        assert decoded[b"y"] == b"q"
        assert decoded[b"q"] == b"find_node"
        assert set(decoded) == {b"t", b"y", b"q", b"a"}

    def test_unknown_method_rejected_on_encode(self):
        with pytest.raises(KrpcError, match="unknown KRPC method"):
            encode_query(b"aa", "bogus", {})

    def test_unknown_method_rejected_on_decode(self):
        import repro.bencode as bencode_mod

        raw = bencode_mod.bencode(
            {"t": b"aa", "y": "q", "q": "evil", "a": {}}
        )
        with pytest.raises(KrpcError, match="unknown KRPC method"):
            decode_message(raw)

    def test_empty_tid_rejected(self):
        with pytest.raises(KrpcError, match="transaction id"):
            encode_query(b"", "ping", {})

    def test_missing_sender_id_raises(self):
        raw = encode_query(b"aa", "ping", {})
        message = decode_message(raw)
        with pytest.raises(KrpcError, match="'id'"):
            message.sender_id


class TestResponsesAndErrors:
    def test_response_round_trips(self):
        raw = encode_response(b"bb", {"id": b"\x06" * 20, "token": b"tok"})
        message = decode_message(raw)
        assert isinstance(message, KrpcResponse)
        assert message.tid == b"bb"
        assert message.values[b"token"] == b"tok"

    def test_error_round_trips(self):
        raw = encode_error(b"cc", ERROR_PROTOCOL, "bad token")
        message = decode_message(raw)
        assert isinstance(message, KrpcErrorMessage)
        assert (message.code, message.message) == (ERROR_PROTOCOL, "bad token")

    def test_all_error_codes_accepted(self):
        for code in (ERROR_GENERIC, 202, ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD):
            assert decode_message(encode_error(b"t", code, "x")).code == code

    def test_unknown_error_code_rejected(self):
        with pytest.raises(KrpcError, match="error code"):
            encode_error(b"t", 299, "x")


class TestDecodeStrictness:
    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"not bencoded",
            b"i42e",  # not a dict
            b"d1:t2:aa1:y1:xe",  # unknown y
            b"d1:y1:qe",  # no tid
            b"d1:t0:1:y1:re",  # empty tid
            b"d1:t2:aa1:y1:qe",  # query without method
            b"d1:t2:aa1:y1:re",  # response without r
            b"d1:e2:hi1:t2:aa1:y1:ee",  # error payload not a list
        ],
    )
    def test_malformed_messages_rejected(self, raw):
        with pytest.raises(KrpcError):
            decode_message(raw)

    def test_id_validator(self):
        assert node_id_to_bytes_or_raise(b"\x07" * 20, "id") == b"\x07" * 20
        with pytest.raises(KrpcError, match="'target'"):
            node_id_to_bytes_or_raise(b"short", "target")
        with pytest.raises(KrpcError):
            node_id_to_bytes_or_raise(12345, "id")


class TestCompactEncodings:
    def test_peer_round_trips(self):
        blob = pack_compact_peer(0x0A4D0001, 51413)
        assert len(blob) == 6
        assert unpack_compact_peers(blob) == [(0x0A4D0001, 51413)]

    def test_many_peers_round_trip(self):
        entries = [(i * 7919, 1024 + i) for i in range(20)]
        blob = b"".join(pack_compact_peer(ip, port) for ip, port in entries)
        assert unpack_compact_peers(blob) == entries

    def test_peer_range_checks(self):
        with pytest.raises(KrpcError):
            pack_compact_peer(-1, 80)
        with pytest.raises(KrpcError):
            pack_compact_peer(1, 70000)

    def test_ragged_peer_blob_rejected(self):
        with pytest.raises(KrpcError, match="6"):
            unpack_compact_peers(b"\x00" * 7)

    def test_nodes_round_trip(self):
        triples = [(bytes([i]) * 20, i * 1000, 6881 + i) for i in range(1, 9)]
        blob = pack_compact_nodes(triples)
        assert len(blob) == 26 * 8
        assert unpack_compact_nodes(blob) == triples

    def test_ragged_node_blob_rejected(self):
        with pytest.raises(KrpcError, match="26"):
            unpack_compact_nodes(b"\x00" * 27)

    def test_bad_node_id_rejected(self):
        with pytest.raises(KrpcError, match="20 bytes"):
            pack_compact_nodes([(b"short", 1, 2)])

    @pytest.mark.parametrize("length", [19, 21])
    def test_off_by_one_node_id_rejected(self, length):
        # The packer's fixed-width struct would pad or truncate silently;
        # the explicit length check must still fire.
        with pytest.raises(KrpcError, match="20 bytes"):
            pack_compact_nodes([(b"\x01" * 20, 1, 2), (b"\x02" * length, 3, 4)])

    def test_node_blob_ip_and_port_checked(self):
        with pytest.raises(KrpcError, match="IPv4"):
            pack_compact_nodes([(b"\x01" * 20, 1 << 32, 2)])
        with pytest.raises(KrpcError, match="port"):
            pack_compact_nodes([(b"\x01" * 20, 1, 1 << 16)])


# ----------------------------------------------------------------------
# Wire equivalence: the encoders build bytes-keyed canonical dicts for the
# bencoder's fast path; the bytes must be exactly what the frozen
# reference encoder makes of the plain str-keyed message.
# ----------------------------------------------------------------------
_ids = st.binary(min_size=20, max_size=20)
_tids = st.binary(min_size=1, max_size=8)
_compact_peers = st.lists(st.binary(min_size=6, max_size=6), max_size=160)
_args = st.fixed_dictionaries(
    {"id": _ids},
    optional={
        "info_hash": _ids,
        "target": _ids,
        "token": st.binary(max_size=20),
        "port": st.integers(min_value=0, max_value=0xFFFF),
        "seed": st.integers(min_value=0, max_value=1),
    },
)
_return_values = st.fixed_dictionaries(
    {"id": _ids},
    optional={
        "nodes": st.lists(st.binary(min_size=26, max_size=26), max_size=8).map(
            b"".join
        ),
        "token": st.binary(min_size=1, max_size=20),
        "values": _compact_peers,
        "seeds": st.integers(min_value=0, max_value=10**6),
        "peers": st.integers(min_value=0, max_value=10**6),
    },
)


def _bytes_keys(mapping):
    return {key.encode(): value for key, value in sorted(mapping.items())}


class TestWireEquivalence:
    @given(tid=_tids, method=st.sampled_from(KNOWN_METHODS), args=_args)
    @settings(max_examples=200, deadline=None)
    def test_query_matches_reference(self, tid, method, args):
        expected = bencode_reference({"t": tid, "y": "q", "q": method, "a": args})
        assert encode_query(tid, method, args) == expected
        assert encode_query(tid, method, _bytes_keys(args)) == expected

    @given(tid=_tids, values=_return_values)
    @settings(max_examples=200, deadline=None)
    def test_response_matches_reference(self, tid, values):
        expected = bencode_reference({"t": tid, "y": "r", "r": values})
        assert encode_response(tid, values) == expected
        assert encode_response(tid, _bytes_keys(values)) == expected

    @given(
        tid=_tids,
        code=st.sampled_from(
            [ERROR_GENERIC, ERROR_SERVER, ERROR_PROTOCOL, ERROR_UNKNOWN_METHOD]
        ),
        message=st.text(max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_error_matches_reference(self, tid, code, message):
        expected = bencode_reference({"t": tid, "y": "e", "e": [code, message]})
        assert encode_error(tid, code, message) == expected
