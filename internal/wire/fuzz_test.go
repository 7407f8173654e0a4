package wire

import (
	"encoding/binary"
	"testing"
)

// FuzzParseBits: ParseBits either errors or produces bits that format
// back to the input.
func FuzzParseBits(f *testing.F) {
	f.Add("")
	f.Add("0101")
	f.Add("2")
	f.Add("01x")
	f.Fuzz(func(t *testing.T, s string) {
		bits, err := ParseBits(s)
		if err != nil {
			return
		}
		if got := BitsToString(bits); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		for _, b := range bits {
			if !b.Valid() {
				t.Fatalf("parsed invalid bit %d", b)
			}
		}
	})
}

// FuzzParseFrame: ParseFrame must never panic on arbitrary bytes, and
// every accepted frame must re-encode to exactly the input buffer.
func FuzzParseFrame(f *testing.F) {
	// Valid frames.
	for _, fr := range []Frame{
		{Session: 1, Dir: TtoR, Seq: 1, P: DataPacket(3)},
		{Session: 9, Dir: RtoT, Seq: 7, P: AckPacket()},
		{Session: 2, Dir: TtoR, Seq: 2, P: DataPacket(0), Payload: "xy"},
		{Session: 3, Dir: TtoR, Seq: 5, P: CodedPacket(CodedSymbol{Block: 2, Index: 7, Value: 1}),
			Payload: string(AppendCodedSymbol(nil, CodedSymbol{Block: 2, Index: 7, Value: 1}))},
		{Session: 3, Dir: RtoT, Seq: 6, P: DecodeAckPacket(DecodeAckMsg{Next: 2, Mask: 0b101}),
			Payload: string(AppendDecodeAck(nil, DecodeAckMsg{Next: 2, Mask: 0b101}))},
		{Session: 4, Dir: RtoT, Seq: 1, P: DecodeAckPacket(DecodeAckMsg{Next: 0, Mask: 1<<64 - 1}),
			Payload: string(AppendDecodeAck(nil, DecodeAckMsg{Next: 0, Mask: 1<<64 - 1}))},
	} {
		buf, err := EncodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// Regression seed: declared payload length exceeds the buffered bytes.
	// Before length validation this class of input hit a slice-bounds
	// panic; it must now be rejected as a parse error.
	over, err := EncodeFrame(Frame{Session: 1, Dir: TtoR, Seq: 1, P: DataPacket(2), Payload: "\x01\x02\x03"})
	if err != nil {
		f.Fatal(err)
	}
	binary.BigEndian.PutUint16(over[32:34], 60000)
	f.Add(over)
	// Truncated header and junk.
	f.Add([]byte{})
	f.Add([]byte{'R', 1, 0, 0})
	f.Add([]byte("not a frame at all, just bytes"))
	// Chaos-style datagram corruption: a well-formed frame with one byte
	// flipped at every offset. The faults layer corrupts symbols *before*
	// encoding (those frames stay parseable — see the checked-in
	// chaos-corrupted-* corpus under testdata), but a hostile channel can
	// flip any wire byte; every such mutation must parse or error, never
	// panic. Flips in magic, version, dir, kind, or the length field land
	// in the malformed bucket.
	base, err := EncodeFrame(Frame{Session: 9, Dir: TtoR, Seq: 4, P: DataPacket(2), Payload: "chaos payload"})
	if err != nil {
		f.Fatal(err)
	}
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, err := ParseFrame(buf)
		if err != nil {
			return
		}
		out, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("accepted frame %v failed to re-encode: %v", fr, err)
		}
		if string(out) != string(buf) {
			t.Fatalf("round trip mismatch:\n in %x\nout %x", buf, out)
		}
	})
}
