"""Wire-protocol tests: the frame codec, its failure modes, and negotiation.

Everything here is transport-free: the codec functions are exercised on raw
bytes (including a seed-pinned fuzz sweep), and the handshake negotiation on
plain tuples.  The live-socket behaviours -- oversized frames and garbage
against a real server -- live in ``test_service.py``.
"""

import json
import random
import struct

import pytest

from repro.service.protocol import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    ProtocolMismatch,
    RemoteError,
    ServerBusy,
    decode_body,
    decode_header,
    encode_frame,
    error_payload,
    exception_from_error,
    negotiate,
)

pytestmark = pytest.mark.service


class TestFrameCodec:
    def test_round_trip(self):
        for payload in (
            {},
            {"id": 1, "op": "ping"},
            {"id": 2, "rows": [[1, 2], None, {"s": [1, "x"]}], "done": True},
            {"unicode": "héllo ∀x"},
        ):
            frame = encode_frame(payload)
            length = decode_header(frame[:HEADER_BYTES])
            assert length == len(frame) - HEADER_BYTES
            assert decode_body(frame[HEADER_BYTES:]) == payload

    def test_header_is_big_endian_length(self):
        frame = encode_frame({"a": 1})
        assert frame[:HEADER_BYTES] == struct.pack("!I", len(frame) - HEADER_BYTES)

    def test_encode_refuses_oversized(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"x": "y" * 64}, max_bytes=16)

    def test_header_refuses_oversized_before_alloc(self):
        huge = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameTooLarge):
            decode_header(huge)

    def test_truncated_header_rejected(self):
        for n in range(HEADER_BYTES):
            with pytest.raises(ProtocolError):
                decode_header(b"\x00" * n)

    def test_non_json_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_body(b"{not json")
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfe")  # not UTF-8

    def test_non_object_body_rejected(self):
        for body in (b"[1,2]", b"42", b'"x"', b"null", b"true"):
            with pytest.raises(ProtocolError):
                decode_body(body)

    def test_fuzz_never_escapes_the_taxonomy(self):
        """Random bytes must decode, or fail typed -- never crash otherwise.

        Seed-pinned so a failure reproduces; the generator covers random
        binary, truncated valid frames, and valid-JSON-wrong-shape bodies.
        """
        rng = random.Random(0xC0FFEE)
        for _ in range(500):
            shape = rng.randrange(3)
            if shape == 0:
                body = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            elif shape == 1:
                full = encode_frame({"id": rng.randrange(100), "op": "x"})
                body = full[HEADER_BYTES:rng.randrange(HEADER_BYTES, len(full))]
            else:
                doc = rng.choice([[1], "s", 7, None, True, [[]]])
                body = json.dumps(doc).encode()
            try:
                out = decode_body(body)
                assert isinstance(out, dict)
            except ProtocolError:
                pass  # the typed refusal; anything else fails the test

    def test_fuzz_headers(self):
        rng = random.Random(0xBEEF)
        for _ in range(200):
            header = bytes(rng.randrange(256) for _ in range(HEADER_BYTES))
            try:
                length = decode_header(header, max_bytes=1 << 16)
                assert 0 <= length <= 1 << 16
            except (ProtocolError, FrameTooLarge):
                pass


class TestNegotiation:
    def test_exact_match(self):
        assert negotiate(list(PROTOCOL_VERSION)) == PROTOCOL_VERSION

    def test_minor_negotiates_down(self):
        major, minor = PROTOCOL_VERSION
        assert negotiate([major, minor + 5]) == PROTOCOL_VERSION
        assert negotiate([major, minor], server=(major, minor + 3)) == (major, minor)

    def test_major_mismatch_rejected(self):
        major, minor = PROTOCOL_VERSION
        with pytest.raises(ProtocolMismatch):
            negotiate([major + 1, 0])
        with pytest.raises(ProtocolMismatch):
            negotiate([major - 1, minor])

    def test_malformed_versions_rejected(self):
        for bad in (None, "1.0", [1], [1, 2, 3], [1, "0"], {"major": 1}):
            with pytest.raises(ProtocolMismatch):
                negotiate(bad)


class TestErrorMapping:
    def test_engine_errors_round_trip_as_themselves(self):
        from repro.nra.errors import NRAEvalError, NRAParseError, NRATypeError

        for exc in (
            NRAParseError("bad syntax"),
            NRATypeError("bad type"),
            NRAEvalError("bad eval"),
            KeyError("no such thing"),
            ValueError("nope"),
            TypeError("mismatch"),
            RuntimeError("closed"),
            ProtocolError("one backend per server"),
        ):
            back = exception_from_error(error_payload(exc))
            assert type(back) is type(exc)
            assert str(exc.args[0]) in str(back)

    def test_server_busy_is_typed_and_retryable(self):
        payload = error_payload(ServerBusy("queue full"))
        assert payload["code"] == "SERVER_BUSY"
        assert isinstance(exception_from_error(payload), ServerBusy)

    def test_unknown_classes_become_remote_error(self):
        back = exception_from_error(
            {"code": "INTERNAL", "error_class": "SomethingNovel", "message": "m"}
        )
        assert isinstance(back, RemoteError)
        assert back.error_class == "SomethingNovel"
        assert "m" in str(back)

    def test_key_error_message_survives_unquoted(self):
        payload = error_payload(KeyError("unknown session 's9'"))
        assert payload["message"] == "unknown session 's9'"
