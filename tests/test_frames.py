import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrnet import (
    FRAME_SIZE,
    ForwardAction,
    FrameError,
    QuantumFrame,
    RepeaterClass,
    RouteState,
    build_routing_tables,
    decode_frame,
    encode_frame,
    forward_frame,
)
from qrnet.netlayer import (
    HEADER_SIZE,
    OP_ECC,
    OP_PIPELINING,
    OP_PURIFY,
    TRAILER_MAGIC,
)

from conftest import chain_topology


def _frame(**kw):
    base = dict(
        frame_id=0x1122334455667788,
        src_addr=1,
        dst_addr=4,
        qr_class=RepeaterClass.SECOND,
        op_flags=OP_PURIFY | OP_PIPELINING,
        hop_count=2,
        ttl=61,
        payload_qubits=7,
    )
    base.update(kw)
    return QuantumFrame(**base)


def test_wire_size_is_fixed():
    buf = encode_frame(_frame())
    assert len(buf) == FRAME_SIZE == 35
    assert HEADER_SIZE == 27
    assert buf[HEADER_SIZE:HEADER_SIZE + 4] == TRAILER_MAGIC


def test_golden_frame_bytes():
    # recorded from the encoder before it used precompiled structs
    assert encode_frame(_frame()).hex() == (
        "01112233445566778800000001000000040205023d00077a50b71051465254d9e08cdb"
    )


_VALID_FRAMES = st.builds(
    QuantumFrame,
    frame_id=st.integers(0, 2**64 - 1),
    src_addr=st.integers(0, 2**32 - 1),
    dst_addr=st.integers(0, 2**32 - 1),
    qr_class=st.sampled_from(list(RepeaterClass)),
    op_flags=st.integers(0, 255),
    hop_count=st.integers(0, 255),
    ttl=st.integers(0, 255),
    payload_qubits=st.integers(0, 2**16 - 1),
)


@settings(max_examples=200, deadline=None)
@given(_VALID_FRAMES)
def test_decode_then_encode_gives_back_the_same_bytes(frame):
    buf = encode_frame(frame)
    assert len(buf) == FRAME_SIZE
    assert encode_frame(decode_frame(buf)) == buf


def test_roundtrip_preserves_every_field():
    sent = _frame(op_flags=OP_ECC)
    got = decode_frame(encode_frame(sent))
    assert got.frame_id == sent.frame_id
    assert got.src_addr == sent.src_addr
    assert got.dst_addr == sent.dst_addr
    assert got.qr_class is sent.qr_class
    assert got.op_flags == sent.op_flags
    assert got.hop_count == sent.hop_count
    assert got.ttl == sent.ttl
    assert got.payload_qubits == sent.payload_qubits


def test_every_single_byte_flip_is_caught():
    buf = encode_frame(_frame())
    rng = np.random.default_rng(17)
    for pos in range(FRAME_SIZE):
        flip = 1 << int(rng.integers(0, 8))
        broken = bytes(
            b ^ flip if i == pos else b for i, b in enumerate(buf)
        )
        with pytest.raises(FrameError):
            decode_frame(broken)


def test_truncated_and_padded_buffers():
    buf = encode_frame(_frame())
    for bad in (buf[:-1], buf + b"\x00", b"", buf[:10]):
        with pytest.raises(FrameError) as err:
            decode_frame(bad)
        assert err.value.reason == "BadLength"


def test_reason_names_specific_checks():
    # magic damaged but header intact: header crc passes, magic check fires
    buf = bytearray(encode_frame(_frame()))
    buf[HEADER_SIZE] ^= 0xFF
    with pytest.raises(FrameError) as err:
        decode_frame(bytes(buf))
    assert err.value.reason in ("BadMagic", "CrcFail")
    # unknown version: rebuild with valid checksums
    odd = encode_frame(_frame(version=9))
    with pytest.raises(FrameError) as err:
        decode_frame(odd)
    assert err.value.reason == "BadVersion"


def test_unknown_class_code_rejected():
    import struct
    import zlib
    buf = bytearray(encode_frame(_frame()))
    buf[17] = 200  # class byte follows version(1)+id(8)+src(4)+dst(4)
    body = bytes(buf[:23])
    header = body + struct.pack(">I", zlib.crc32(body))
    full = header + TRAILER_MAGIC
    full += struct.pack(">I", zlib.crc32(full))
    with pytest.raises(FrameError) as err:
        decode_frame(full)
    assert err.value.reason == "BadClass"


def _line_tables():
    topo = chain_topology([10.0, 10.0, 10.0])
    return topo, build_routing_tables(RouteState(topo))


def test_forwarding_walks_the_line():
    topo, tables = _line_tables()
    frame = _frame(src_addr=topo.address_of("n0"), dst_addr=topo.address_of("n3"),
                   hop_count=0, ttl=8, qr_class=RepeaterClass.FIRST)
    at = "n0"
    hops = []
    buf = encode_frame(frame)
    while True:
        decision = forward_frame(topo, tables, at, buf)
        if decision.action is ForwardAction.DELIVERED:
            break
        assert decision.action is ForwardAction.FORWARDED
        hops.append(decision.edge_id)
        at = topo.edges[decision.edge_id].other(at)
        buf = encode_frame(decision.frame)
    assert hops == ["e0", "e1", "e2"]
    assert at == "n3"


def test_delivery_beats_ttl_spend():
    topo, tables = _line_tables()
    frame = _frame(src_addr=topo.address_of("n2"), dst_addr=topo.address_of("n3"),
                   ttl=0, qr_class=RepeaterClass.FIRST)
    decision = forward_frame(topo, tables, "n3", encode_frame(frame))
    assert decision.action is ForwardAction.DELIVERED
    assert decision.frame.ttl == 0


def test_ttl_exhaustion_drops():
    topo, tables = _line_tables()
    frame = _frame(src_addr=topo.address_of("n0"), dst_addr=topo.address_of("n3"),
                   ttl=1, qr_class=RepeaterClass.FIRST)
    decision = forward_frame(topo, tables, "n1", encode_frame(frame))
    assert decision.action is ForwardAction.DROPPED
    assert decision.reason == "TtlExpired"


def test_unroutable_destination_drops():
    topo, tables = _line_tables()
    frame = _frame(src_addr=topo.address_of("n0"), dst_addr=999,
                   ttl=8, qr_class=RepeaterClass.FIRST)
    decision = forward_frame(topo, tables, "n1", encode_frame(frame))
    assert decision.action is ForwardAction.DROPPED
    assert decision.reason == "NoRoute"


def test_corrupt_frame_dropped_with_codec_reason():
    topo, tables = _line_tables()
    frame = _frame(src_addr=topo.address_of("n0"), dst_addr=topo.address_of("n3"),
                   qr_class=RepeaterClass.FIRST)
    buf = bytearray(encode_frame(frame))
    buf[3] ^= 0x10
    decision = forward_frame(topo, tables, "n1", bytes(buf))
    assert decision.action is ForwardAction.DROPPED
    assert decision.reason == "CrcFail"
