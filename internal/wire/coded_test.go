package wire

import (
	"encoding/binary"
	"errors"
	"testing"
)

func TestCodedSymbolRoundTrip(t *testing.T) {
	cases := []CodedSymbol{
		{},
		{Block: 0, Index: 0, Value: 0},
		{Block: 7, Index: 42, Value: 3},
		{Block: 1<<32 - 1, Index: 1<<32 - 1, Value: -1},
	}
	for _, cs := range cases {
		buf := AppendCodedSymbol(nil, cs)
		if len(buf) != CodedSymbolLen {
			t.Fatalf("encoded %v to %d bytes, want %d", cs, len(buf), CodedSymbolLen)
		}
		got, err := ParseCodedSymbol(buf)
		if err != nil {
			t.Fatalf("ParseCodedSymbol(%v): %v", cs, err)
		}
		if got != cs {
			t.Fatalf("round trip %v -> %v", cs, got)
		}
	}
}

func TestDecodeAckRoundTrip(t *testing.T) {
	for _, a := range []DecodeAckMsg{
		{}, {Next: 1}, {Next: 1<<32 - 1},
		{Next: 3, Mask: 1}, {Next: 3, Mask: 1 << 63}, {Next: 9, Mask: 0b1011_0000},
		{Next: 0, Mask: 1<<64 - 1}, {Next: 1<<32 - 1, Mask: 1<<64 - 1},
	} {
		buf := AppendDecodeAck(nil, a)
		if len(buf) != DecodeAckLen {
			t.Fatalf("encoded %v to %d bytes, want %d", a, len(buf), DecodeAckLen)
		}
		got, err := ParseDecodeAck(buf)
		if err != nil {
			t.Fatalf("ParseDecodeAck(%v): %v", a, err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %v", a, got)
		}
	}
}

func TestParseCodedSymbolRejects(t *testing.T) {
	valid := AppendCodedSymbol(nil, CodedSymbol{Block: 3, Index: 9, Value: 2})

	check := func(name string, buf []byte) {
		t.Helper()
		_, err := ParseCodedSymbol(buf)
		if err == nil {
			t.Fatalf("%s: accepted malformed payload", name)
		}
		var ce *CodedError
		if !errors.As(err, &ce) {
			t.Fatalf("%s: error %T, want *CodedError", name, err)
		}
	}

	check("empty", nil)
	check("truncated", valid[:CodedSymbolLen-1])
	check("oversized", append(append([]byte(nil), valid...), 0))

	// Any single flipped byte must fail magic, version or checksum.
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		check("bitflip", mut)
	}
}

func TestParseDecodeAckRejects(t *testing.T) {
	valid := AppendDecodeAck(nil, DecodeAckMsg{Next: 5, Mask: 0x8000_0000_0000_0005})

	check := func(name string, buf []byte) {
		t.Helper()
		if _, err := ParseDecodeAck(buf); err == nil {
			t.Fatalf("%s: accepted malformed payload", name)
		}
	}

	check("empty", nil)
	check("truncated", valid[:DecodeAckLen-1])
	check("oversized", append(append([]byte(nil), valid...), 0))
	// A coded-symbol record must not parse as an ack (wrong magic).
	check("cross-kind", AppendCodedSymbol(nil, CodedSymbol{})[:DecodeAckLen])
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x41
		check("bitflip", mut)
	}
}

// v1Ack encodes the mask-less version-1 ack: magic, version 1, next,
// then FNV-32a over the first six bytes, 10 bytes in all.
func v1Ack(next uint32) []byte {
	buf := []byte{ackMagic, 1, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(buf[2:6], next)
	return binary.BigEndian.AppendUint32(buf, fnv32(buf))
}

// TestDecodeAckRejectsV1: a version-1 ack fails the length check as it
// stands, and the version check once padded to the version-2 length
// with a valid checksum.
func TestDecodeAckRejectsV1(t *testing.T) {
	old := v1Ack(5)
	if len(old) != 10 {
		t.Fatalf("v1 ack is %d bytes, want 10", len(old))
	}
	if _, err := ParseDecodeAck(old); err == nil {
		t.Fatal("accepted a 10-byte v1 ack")
	}
	padded := append(old[:6:6], make([]byte, 8)...)
	padded = binary.BigEndian.AppendUint32(padded, fnv32(padded))
	if len(padded) != DecodeAckLen {
		t.Fatalf("padded v1 ack is %d bytes, want %d", len(padded), DecodeAckLen)
	}
	var ce *CodedError
	if _, err := ParseDecodeAck(padded); !errors.As(err, &ce) {
		t.Fatalf("padded v1 ack: error %v, want a *CodedError", err)
	}
	padded[1] = ackVersion
	binary.BigEndian.PutUint32(padded[14:], fnv32(padded[:14]))
	if a, err := ParseDecodeAck(padded); err != nil || a != (DecodeAckMsg{Next: 5}) {
		t.Fatalf("the same record as version 2: %v, %v", a, err)
	}
}

func TestCodedPacketMirrors(t *testing.T) {
	cs := CodedSymbol{Block: 4, Index: 11, Value: 3}
	p := CodedPacket(cs)
	if p.Kind != Coded || p.Symbol != cs.Value || p.Tag != int(cs.Block) {
		t.Fatalf("CodedPacket(%v) = %v", cs, p)
	}
	a := DecodeAckPacket(DecodeAckMsg{Next: 9})
	if a.Kind != DecodeAck || a.Symbol != 9 {
		t.Fatalf("DecodeAckPacket = %v", a)
	}
}

func TestFrameCarriesCodedKinds(t *testing.T) {
	payload := AppendCodedSymbol(nil, CodedSymbol{Block: 1, Index: 2, Value: 3})
	f := Frame{Session: 8, Dir: TtoR, Seq: 17, P: CodedPacket(CodedSymbol{Block: 1, Index: 2, Value: 3}), Payload: string(payload)}
	buf, err := EncodeFrame(f)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	got, err := ParseFrame(buf)
	if err != nil {
		t.Fatalf("ParseFrame: %v", err)
	}
	if got.P.Kind != Coded {
		t.Fatalf("kind %v, want %v", got.P.Kind, Coded)
	}
	cs, err := ParseCodedSymbol([]byte(got.Payload))
	if err != nil {
		t.Fatalf("ParseCodedSymbol of frame payload: %v", err)
	}
	if cs != (CodedSymbol{Block: 1, Index: 2, Value: 3}) {
		t.Fatalf("payload round trip: %v", cs)
	}
}
