package rateless

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// FuzzRatelessDecode: the coded-symbol and decode-ack codecs must never
// panic on arbitrary bytes, every accepted record must re-encode to
// exactly the input buffer (the codec is canonical), and any record
// that parses — however hostile its field values — must pass through a
// live peeling decoder without panicking. The checked-in corpus under
// testdata/fuzz mirrors FuzzParseFrame's: valid records, checksum and
// header mutations, truncations.
func FuzzRatelessDecode(f *testing.F) {
	// Valid records across the field ranges the automata use.
	for _, cs := range []wire.CodedSymbol{
		{Block: 0, Index: 0, Value: 0},
		{Block: 3, Index: 5, Value: 3},
		{Block: 1 << 20, Index: 1 << 30, Value: 2},
		{Block: ^uint32(0), Index: ^uint32(0), Value: -1 << 40}, // parses; the decoder must reject, not panic
	} {
		f.Add(wire.AppendCodedSymbol(nil, cs))
	}
	for _, a := range []wire.DecodeAckMsg{
		{Next: 0},
		{Next: 7},
		{Next: 7, Mask: 0b1101},
		{Next: 2, Mask: 1 << 63},
		{Next: ^uint32(0), Mask: 1<<64 - 1},
	} {
		f.Add(wire.AppendDecodeAck(nil, a))
	}
	// Truncations and junk.
	f.Add([]byte{})
	f.Add([]byte{'C', 1})
	f.Add([]byte("not a coded record, just bytes"))
	// Every one-byte flip of a well-formed symbol record: flips in magic,
	// version or checksum land in the malformed bucket; flips in block,
	// index or value must either fail the checksum or round-trip.
	base := wire.AppendCodedSymbol(nil, wire.CodedSymbol{Block: 9, Index: 11, Value: 1})
	for i := range base {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x41
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		if cs, err := wire.ParseCodedSymbol(buf); err == nil {
			if out := wire.AppendCodedSymbol(nil, cs); !bytes.Equal(out, buf) {
				t.Fatalf("coded symbol round trip mismatch:\n in %x\nout %x", buf, out)
			}
			// Whatever parsed must be safe to decode: a hostile value or a
			// wild index is an error or a no-op, never a panic.
			code, err := NewCode(4, 6, BlockSeed(1, cs.Block))
			if err != nil {
				t.Fatal(err)
			}
			dec := NewDecoder(code)
			if _, err := dec.Add(cs.Index, cs.Value); err == nil {
				// Accepted symbols keep the decoder consistent: feed the
				// systematic prefix and the block must still complete.
				for i := 0; i < code.N(); i++ {
					if _, err := dec.Add(uint32(i), 0); err != nil {
						t.Fatalf("systematic symbol %d rejected after fuzz symbol: %v", i, err)
					}
				}
				if !dec.Done() {
					t.Fatalf("block not decoded after full systematic prefix (fuzz symbol %+v)", cs)
				}
			}
		}
		if a, err := wire.ParseDecodeAck(buf); err == nil {
			if out := wire.AppendDecodeAck(nil, a); !bytes.Equal(out, buf) {
				t.Fatalf("decode ack round trip mismatch:\n in %x\nout %x", buf, out)
			}
		}
	})
}
