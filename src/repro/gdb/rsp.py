"""GDB Remote Serial Protocol packet layer.

Implements the real wire format: ``$<payload>#<2-hex-checksum>`` with
run-length-free binary escaping (``}`` = 0x7d, escaped byte XOR 0x20).
Acknowledgement characters (``+``/``-``) are modelled at the transport
level by re-sending on checksum failure; since our channels are
reliable, acks are counted but always positive.

Every packet crosses :func:`escape_binary` / :func:`unescape_binary`,
so both run as compiled ``bytes`` regex substitutions rather than
per-byte Python loops, and return their input unchanged when it holds
nothing to rewrite (the common case: hex payloads never do).
"""

import re

from repro.errors import RspError

ESCAPE = 0x7D
ESCAPE_XOR = 0x20

# '#', '$', '}' in a payload; '}' plus the byte it escapes in a body.
# DOTALL: the escaped byte may be anything, newline included; the
# byte is optional only so a '}' ending the body still matches.
_SPECIAL_RE = re.compile(rb"[#$}]")
_ESCAPED_RE = re.compile(rb"}(.?)", re.DOTALL)
_ESCAPES = {bytes((byte,)): bytes((ESCAPE, byte ^ ESCAPE_XOR))
            for byte in b"#$}"}
_UNESCAPES = [bytes((byte ^ ESCAPE_XOR,)) for byte in range(256)]


def _escape_match(match):
    return _ESCAPES[match.group()]


def _unescape_match(match):
    escaped = match.group(1)
    if not escaped:
        raise RspError("dangling escape at end of packet")
    return _UNESCAPES[escaped[0]]


def checksum(payload):
    """Modulo-256 sum of the payload bytes."""
    return sum(payload) & 0xFF


def escape_binary(payload):
    """Escape '$', '#' and '}' for inclusion in a packet body."""
    payload = bytes(payload)
    if _SPECIAL_RE.search(payload) is None:
        return payload
    return _SPECIAL_RE.sub(_escape_match, payload)


def unescape_binary(payload):
    """Inverse of :func:`escape_binary`.

    Escapes pair left to right, so a ``}`` that is itself escaped
    never starts another pair; a ``}`` left unpaired at the end of the
    body raises :class:`~repro.errors.RspError`.
    """
    payload = bytes(payload)
    if b"}" not in payload:
        return payload
    return _ESCAPED_RE.sub(_unescape_match, payload)


def frame(payload):
    """Wrap *payload* (bytes or str) into ``$payload#xx``."""
    if isinstance(payload, str):
        payload = payload.encode("ascii")
    escaped = escape_binary(payload)
    return b"$%b#%02x" % (escaped, checksum(escaped))


def unframe(packet):
    """Extract and verify the payload of a framed packet."""
    if len(packet) < 4 or packet[0:1] != b"$":
        raise RspError("malformed packet %r" % (packet[:32],))
    hash_index = packet.rfind(b"#")
    if hash_index == -1 or len(packet) < hash_index + 3:
        raise RspError("packet missing checksum: %r" % (packet[:32],))
    body = packet[1:hash_index]
    declared = int(packet[hash_index + 1:hash_index + 3], 16)
    actual = checksum(body)
    if declared != actual:
        raise RspError("checksum mismatch: declared %02x, actual %02x"
                       % (declared, actual))
    return unescape_binary(body)


def encode_hex(payload):
    """Binary -> lowercase hex text (RSP memory/register payloads)."""
    return payload.hex()


def decode_hex(text):
    """Hex text -> binary."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise RspError("bad hex payload %r" % (text[:32],))


def encode_register(value):
    """32-bit register value -> little-endian hex (RSP convention)."""
    return (value & 0xFFFFFFFF).to_bytes(4, "little").hex()


def decode_register(text):
    """Little-endian hex -> 32-bit register value."""
    return int.from_bytes(decode_hex(text), "little")
