package wire

import (
	"encoding/binary"
	"fmt"
)

// Frame is one datagram of the session-serving subsystem: a Packet tagged
// with the session it belongs to, its direction of travel, and a per-link
// sequence number that pairs each delivery with its send (the serving
// layer's analogue of the simulator's PacketSeq).
//
// Frames are what internal/transport moves and internal/session routes.
// They are distinct from the bit-level application framing in
// internal/frame, which delimits byte payloads *inside* the transmitted
// sequence X; a Frame wraps a single protocol packet *on the channel*.
//
// Payload is an opaque extension area (unused by the RSTP protocols;
// the rateless subsystem rides its coded-symbol records on it). Its
// length is declared on the wire and strictly validated on parse. It is
// an immutable string, the same type as Send.Payload and Recv.Payload,
// so one payload value travels from the sender's action to the
// receiver's by reference: only a byte-level transport copies it, once,
// in ParseFrame.
type Frame struct {
	// Session identifies the RSTP session the packet belongs to.
	Session uint32
	// Dir is the direction of travel (TtoR or RtoT).
	Dir Dir
	// Seq is the sender-assigned packet instance number (> 0), used to
	// pair recv events with their send in merged traces. Zero means
	// "unassigned".
	Seq int64
	// P is the protocol packet the frame carries.
	P Packet
	// Payload is opaque extension data riding along with the packet.
	Payload string
}

// Frame wire format (big-endian):
//
//	offset  size  field
//	0       1     magic 'R'
//	1       1     version (1)
//	2       4     session
//	6       1     dir
//	7       1     packet kind
//	8       8     packet symbol
//	16      8     packet tag
//	24      8     seq
//	32      2     payload length L
//	34      L     payload
const (
	frameMagic   = 'R'
	frameVersion = 1
	// FrameHeaderLen is the fixed frame header size in bytes.
	FrameHeaderLen = 34
	// MaxFramePayload is the largest declarable payload length.
	MaxFramePayload = 1<<16 - 1
)

// FrameError describes a malformed frame buffer.
type FrameError struct {
	// Reason explains the defect.
	Reason string
}

// Error renders the frame error.
func (e *FrameError) Error() string { return "wire: bad frame: " + e.Reason }

func frameErrf(format string, args ...any) error {
	return &FrameError{Reason: fmt.Sprintf(format, args...)}
}

// AppendFrame appends the encoded frame to dst and returns the extended
// buffer. It fails if the payload exceeds MaxFramePayload.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxFramePayload {
		return dst, frameErrf("payload %d bytes exceeds max %d", len(f.Payload), MaxFramePayload)
	}
	var hdr [FrameHeaderLen]byte
	hdr[0] = frameMagic
	hdr[1] = frameVersion
	binary.BigEndian.PutUint32(hdr[2:6], f.Session)
	hdr[6] = byte(f.Dir)
	hdr[7] = byte(f.P.Kind)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(int64(f.P.Symbol)))
	binary.BigEndian.PutUint64(hdr[16:24], uint64(int64(f.P.Tag)))
	binary.BigEndian.PutUint64(hdr[24:32], uint64(f.Seq))
	binary.BigEndian.PutUint16(hdr[32:34], uint16(len(f.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, f.Payload...)
	return dst, nil
}

// EncodeFrame encodes the frame into a fresh buffer.
func EncodeFrame(f Frame) ([]byte, error) { return AppendFrame(nil, f) }

// ParseFrame decodes one frame occupying the whole buffer — the datagram
// transports' one-frame-per-datagram discipline.
//
// Every length is validated before any slice is taken: a frame whose
// declared payload length exceeds the bytes actually present is rejected
// with a FrameError rather than left to a slice-bounds panic, and so are
// truncated headers, trailing garbage, bad magic/version, and out-of-range
// direction or packet kind. Untrusted network input therefore cannot
// crash the demux loop.
func ParseFrame(buf []byte) (Frame, error) {
	if len(buf) < FrameHeaderLen {
		return Frame{}, frameErrf("%d bytes, need at least the %d-byte header", len(buf), FrameHeaderLen)
	}
	if buf[0] != frameMagic {
		return Frame{}, frameErrf("magic 0x%02x, want 0x%02x", buf[0], frameMagic)
	}
	if buf[1] != frameVersion {
		return Frame{}, frameErrf("version %d, want %d", buf[1], frameVersion)
	}
	dir := Dir(buf[6])
	if dir != TtoR && dir != RtoT {
		return Frame{}, frameErrf("direction %d out of range", buf[6])
	}
	kind := PacketKind(buf[7])
	if kind != Data && kind != Ack && kind != Coded && kind != DecodeAck {
		return Frame{}, frameErrf("packet kind %d out of range", buf[7])
	}
	declared := int(binary.BigEndian.Uint16(buf[32:34]))
	if got := len(buf) - FrameHeaderLen; declared > got {
		return Frame{}, frameErrf("declared payload length %d exceeds %d buffered bytes", declared, got)
	} else if declared < got {
		return Frame{}, frameErrf("%d trailing bytes after declared payload length %d", got-declared, declared)
	}
	f := Frame{
		Session: binary.BigEndian.Uint32(buf[2:6]),
		Dir:     dir,
		Seq:     int64(binary.BigEndian.Uint64(buf[24:32])),
		P: Packet{
			Kind:   kind,
			Symbol: Symbol(int64(binary.BigEndian.Uint64(buf[8:16]))),
			Tag:    int(int64(binary.BigEndian.Uint64(buf[16:24]))),
		},
	}
	if declared > 0 {
		f.Payload = string(buf[FrameHeaderLen : FrameHeaderLen+declared])
	}
	return f, nil
}

// String renders the frame, e.g. "frame[s=3 t->r #7 data(2)]".
func (f Frame) String() string {
	s := fmt.Sprintf("frame[s=%d %v #%d %v", f.Session, f.Dir, f.Seq, f.P)
	if len(f.Payload) > 0 {
		s += fmt.Sprintf(" +%dB", len(f.Payload))
	}
	return s + "]"
}
