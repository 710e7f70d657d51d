"""Property-based tests of the RSP wire format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import RspError
from repro.gdb import rsp


@given(payload=st.binary(max_size=256))
def test_frame_unframe_roundtrip(payload):
    assert rsp.unframe(rsp.frame(payload)) == payload


@given(payload=st.binary(max_size=256))
def test_escape_unescape_roundtrip(payload):
    assert rsp.unescape_binary(rsp.escape_binary(payload)) == payload


@given(payload=st.binary(max_size=256))
def test_escaped_payload_contains_no_framing_bytes(payload):
    escaped = rsp.escape_binary(payload)
    # '$' and '#' must never appear unescaped inside a packet body.
    index = 0
    while index < len(escaped):
        byte = escaped[index]
        if byte == 0x7D:
            index += 2
            continue
        assert byte not in (0x23, 0x24)
        index += 1


@given(payload=st.binary(max_size=128))
def test_frame_checksum_is_self_consistent(payload):
    packet = rsp.frame(payload)
    body = packet[1:packet.rfind(b"#")]
    declared = int(packet[-2:], 16)
    assert rsp.checksum(body) == declared


@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_register_coding_roundtrip(value):
    assert rsp.decode_register(rsp.encode_register(value)) == value


@given(payload=st.binary(max_size=128))
def test_hex_coding_roundtrip(payload):
    assert rsp.decode_hex(rsp.encode_hex(payload)) == payload


# ---------------------------------------------------------------------------
# Equivalence with the per-byte reference implementation.  The packet
# layer runs on compiled regex substitutions; these loops are the
# straightforward byte-at-a-time definition of the same wire format.

def _reference_escape(payload):
    out = bytearray()
    for byte in payload:
        if byte in (0x23, 0x24, 0x7D):
            out.append(0x7D)
            out.append(byte ^ 0x20)
        else:
            out.append(byte)
    return bytes(out)


def _reference_unescape(payload):
    out = bytearray()
    index = 0
    while index < len(payload):
        byte = payload[index]
        if byte == 0x7D:
            index += 1
            if index >= len(payload):
                raise RspError("dangling escape at end of packet")
            out.append(payload[index] ^ 0x20)
        else:
            out.append(byte)
        index += 1
    return bytes(out)


def _reference_frame(payload):
    if isinstance(payload, str):
        payload = payload.encode("ascii")
    escaped = _reference_escape(payload)
    return b"$" + escaped + b"#" + b"%02x" % rsp.checksum(escaped)


def _reference_unframe(packet):
    if len(packet) < 4 or packet[0:1] != b"$":
        raise RspError("malformed packet %r" % (packet[:32],))
    hash_index = packet.rfind(b"#")
    if hash_index == -1 or len(packet) < hash_index + 3:
        raise RspError("packet missing checksum: %r" % (packet[:32],))
    body = packet[1:hash_index]
    declared = int(packet[hash_index + 1:hash_index + 3], 16)
    actual = rsp.checksum(body)
    if declared != actual:
        raise RspError("checksum mismatch: declared %02x, actual %02x"
                       % (declared, actual))
    return _reference_unescape(body)


def _outcome(function, argument):
    """``("ok", result)`` or ``("error", message)``, for comparing."""
    try:
        return "ok", function(argument)
    except RspError as error:
        return "error", str(error)


#: Arbitrary bytes, about half of them drawn from '}', '$' and '#' so
#: escape runs, escaped escapes and dangling escapes are common.
framing_heavy = st.one_of(
    st.binary(max_size=64),
    st.lists(st.one_of(st.sampled_from([0x7D, 0x24, 0x23]),
                       st.integers(min_value=0, max_value=255)),
             max_size=64).map(bytes))


@given(payload=framing_heavy)
def test_escape_matches_reference(payload):
    assert rsp.escape_binary(payload) == _reference_escape(payload)


@given(payload=framing_heavy)
def test_unescape_matches_reference(payload):
    assert _outcome(rsp.unescape_binary, payload) \
        == _outcome(_reference_unescape, payload)


@pytest.mark.parametrize("payload", [b"}", b"}}}", b"a}", b"}a}",
                                     b"}}", b"}}}}", b"", b"}\n"])
def test_unescape_edge_cases_match_reference(payload):
    assert _outcome(rsp.unescape_binary, payload) \
        == _outcome(_reference_unescape, payload)


@given(payload=framing_heavy)
def test_frame_matches_reference(payload):
    assert rsp.frame(payload) == _reference_frame(payload)


@given(body=framing_heavy, corrupt=st.booleans())
def test_unframe_matches_reference(body, corrupt):
    # Bodies framed verbatim (unescaped '}' runs and all) with a valid
    # or a wrong checksum, so every unframe error path is drawn.
    packet = b"$" + body + b"#" + b"%02x" % (
        (rsp.checksum(body) + corrupt) & 0xFF)
    assert _outcome(rsp.unframe, packet) \
        == _outcome(_reference_unframe, packet)


@given(packet=framing_heavy)
def test_unframe_raw_bytes_matches_reference(packet):
    try:
        expected = _outcome(_reference_unframe, packet)
    except ValueError:
        # Non-hex checksum digits: both sides fail in int().
        with pytest.raises(ValueError):
            rsp.unframe(packet)
        return
    assert _outcome(rsp.unframe, packet) == expected
