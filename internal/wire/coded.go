package wire

import (
	"encoding/binary"
	"fmt"
)

// Coded-symbol and decode-ack payload records — the wire vocabulary of
// the rateless burst subsystem (internal/rateless).
//
// A Coded frame carries one fountain-coded symbol of one block. The
// authoritative fields ride in the frame payload, checksummed, because
// the frame header's Packet fields are what a fault plan (and a
// hostile channel) corrupts: the receiver cross-checks Packet.Symbol
// against the payload's Value and drops mismatches as loss. A DecodeAck
// frame carries the receiver's cut-the-stream signal: the index of the
// next block it needs, and a selective mask of the blocks past it that
// it has already decoded.
//
// Both records are fixed-length and strictly validated: wrong length,
// wrong magic/version or a failed checksum is a CodedError, never a
// panic, mirroring ParseFrame's discipline for untrusted input.

// CodedSymbol is one fountain-coded symbol on the wire: coded symbol
// Index of block Block, with coded value Value. The (Block, Index) pair
// determines the symbol's source-neighbor set on both sides via the
// shared per-block seed, so the record never carries the neighbor list.
type CodedSymbol struct {
	// Block is the zero-based block index within the session's input.
	Block uint32
	// Index is the coded-symbol index within the block's endless stream;
	// indexes below the block length are systematic (value = source
	// symbol verbatim).
	Index uint32
	// Value is the coded symbol: the sum of the neighbor source symbols
	// modulo the packet alphabet size k.
	Value Symbol
}

// DecodeAckMsg is the rateless decode acknowledgement: the receiver has
// decoded every block below Next and cuts the symbol stream for them.
type DecodeAckMsg struct {
	// Next is the index of the first block the receiver still needs.
	Next uint32
	// Mask selectively acknowledges the 64 blocks past Next: bit i set
	// means block Next+1+i is already decoded. It is a hint for the
	// transmitter's repair order, never a promise: a restarted receiver
	// forgets the blocks it held past Next.
	Mask uint64
}

// Coded payload wire format (big-endian):
//
//	offset  size  field
//	0       1     magic 'C'
//	1       1     version (1)
//	2       4     block
//	6       4     index
//	10      8     value
//	18      4     FNV-32a over bytes [0, 18)
//
// DecodeAck payload wire format (big-endian):
//
//	offset  size  field
//	0       1     magic 'K'
//	1       1     version (2)
//	2       4     next block
//	6       8     mask: bit i = block next+1+i decoded
//	14      4     FNV-32a over bytes [0, 14)
//
// Version 1 of the ack was 10 bytes (no mask); it fails both the length
// and the version check.
const (
	codedMagic   = 'C'
	ackMagic     = 'K'
	codedVersion = 1
	ackVersion   = 2
	// CodedSymbolLen is the exact coded-symbol payload length in bytes.
	CodedSymbolLen = 22
	// DecodeAckLen is the exact decode-ack payload length in bytes.
	DecodeAckLen = 18
)

// CodedError describes a malformed coded-symbol or decode-ack payload.
type CodedError struct {
	// Reason explains the defect.
	Reason string
}

// Error renders the coded payload error.
func (e *CodedError) Error() string { return "wire: bad coded payload: " + e.Reason }

func codedErrf(format string, args ...any) error {
	return &CodedError{Reason: fmt.Sprintf(format, args...)}
}

// fnv32 is FNV-32a — the same dependency-free hash family the stabilized
// layer's checkpoints use, at the width a 22-byte record can afford.
func fnv32(data []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range data {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// AppendCodedSymbol appends the encoded coded-symbol record to dst.
func AppendCodedSymbol(dst []byte, cs CodedSymbol) []byte {
	var buf [CodedSymbolLen]byte
	buf[0] = codedMagic
	buf[1] = codedVersion
	binary.BigEndian.PutUint32(buf[2:6], cs.Block)
	binary.BigEndian.PutUint32(buf[6:10], cs.Index)
	binary.BigEndian.PutUint64(buf[10:18], uint64(int64(cs.Value)))
	binary.BigEndian.PutUint32(buf[18:22], fnv32(buf[:18]))
	return append(dst, buf[:]...)
}

// ParseCodedSymbol decodes one coded-symbol record occupying the whole
// buffer. Every defect — wrong length, magic, version or checksum — is a
// CodedError; untrusted input cannot panic the receiver.
func ParseCodedSymbol(buf []byte) (CodedSymbol, error) {
	if len(buf) != CodedSymbolLen {
		return CodedSymbol{}, codedErrf("coded symbol is %d bytes, want exactly %d", len(buf), CodedSymbolLen)
	}
	if buf[0] != codedMagic {
		return CodedSymbol{}, codedErrf("magic 0x%02x, want 0x%02x", buf[0], codedMagic)
	}
	if buf[1] != codedVersion {
		return CodedSymbol{}, codedErrf("version %d, want %d", buf[1], codedVersion)
	}
	if got, want := binary.BigEndian.Uint32(buf[18:22]), fnv32(buf[:18]); got != want {
		return CodedSymbol{}, codedErrf("checksum %08x, want %08x", got, want)
	}
	return CodedSymbol{
		Block: binary.BigEndian.Uint32(buf[2:6]),
		Index: binary.BigEndian.Uint32(buf[6:10]),
		Value: Symbol(int64(binary.BigEndian.Uint64(buf[10:18]))),
	}, nil
}

// AppendDecodeAck appends the encoded decode-ack record to dst.
func AppendDecodeAck(dst []byte, a DecodeAckMsg) []byte {
	var buf [DecodeAckLen]byte
	buf[0] = ackMagic
	buf[1] = ackVersion
	binary.BigEndian.PutUint32(buf[2:6], a.Next)
	binary.BigEndian.PutUint64(buf[6:14], a.Mask)
	binary.BigEndian.PutUint32(buf[14:18], fnv32(buf[:14]))
	return append(dst, buf[:]...)
}

// ParseDecodeAck decodes one decode-ack record occupying the whole
// buffer, with the same strict validation as ParseCodedSymbol.
func ParseDecodeAck(buf []byte) (DecodeAckMsg, error) {
	if len(buf) != DecodeAckLen {
		return DecodeAckMsg{}, codedErrf("decode ack is %d bytes, want exactly %d", len(buf), DecodeAckLen)
	}
	if buf[0] != ackMagic {
		return DecodeAckMsg{}, codedErrf("magic 0x%02x, want 0x%02x", buf[0], ackMagic)
	}
	if buf[1] != ackVersion {
		return DecodeAckMsg{}, codedErrf("version %d, want %d", buf[1], ackVersion)
	}
	if got, want := binary.BigEndian.Uint32(buf[14:18]), fnv32(buf[:14]); got != want {
		return DecodeAckMsg{}, codedErrf("checksum %08x, want %08x", got, want)
	}
	return DecodeAckMsg{
		Next: binary.BigEndian.Uint32(buf[2:6]),
		Mask: binary.BigEndian.Uint64(buf[6:14]),
	}, nil
}

// CodedPacket returns the header packet paired with a coded-symbol
// payload: the coded value rides in Symbol (so chaos-style symbol
// corruption is detectable against the checksummed payload) and the
// block index in Tag.
func CodedPacket(cs CodedSymbol) Packet {
	return Packet{Kind: Coded, Symbol: cs.Value, Tag: int(cs.Block)}
}

// DecodeAckPacket returns the header packet paired with a decode-ack
// payload; Symbol mirrors the next-block index for the same cross-check.
func DecodeAckPacket(a DecodeAckMsg) Packet {
	return Packet{Kind: DecodeAck, Symbol: Symbol(a.Next)}
}
