package wire

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Session: 0, Dir: TtoR, Seq: 1, P: DataPacket(0)},
		{Session: 7, Dir: TtoR, Seq: 42, P: DataPacket(3)},
		{Session: 1 << 30, Dir: RtoT, Seq: 9, P: AckPacket()},
		{Session: 5, Dir: RtoT, Seq: 2, P: Packet{Kind: Data, Symbol: -4, Tag: 11}},
		{Session: 6, Dir: TtoR, Seq: 3, P: DataPacket(1), Payload: "hello"},
	}
	for _, f := range frames {
		buf, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("encode %v: %v", f, err)
		}
		got, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("parse %v: %v", f, err)
		}
		if got.Session != f.Session || got.Dir != f.Dir || got.Seq != f.Seq || got.P != f.P {
			t.Errorf("round trip %v -> %v", f, got)
		}
		if string(got.Payload) != string(f.Payload) {
			t.Errorf("payload round trip %q -> %q", f.Payload, got.Payload)
		}
	}
}

// TestFrameRejectsOverDeclaredLength is the regression case for the
// length-validation fix: a frame declaring more payload than the buffer
// holds must produce an error, never a slice-bounds panic.
func TestFrameRejectsOverDeclaredLength(t *testing.T) {
	buf, err := EncodeFrame(Frame{Session: 1, Dir: TtoR, Seq: 1, P: DataPacket(2), Payload: "\x01\x02\x03"})
	if err != nil {
		t.Fatal(err)
	}
	// Declare 300 payload bytes while only 3 are present.
	binary.BigEndian.PutUint16(buf[32:34], 300)
	_, err = ParseFrame(buf)
	if err == nil {
		t.Fatal("over-declared payload length accepted")
	}
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FrameError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("error should name the over-declared length: %v", err)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	good, err := EncodeFrame(Frame{Session: 2, Dir: RtoT, Seq: 5, P: AckPacket()})
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     good[:FrameHeaderLen-1],
		"bad magic":        mut(func(b []byte) { b[0] = 'X' }),
		"bad version":      mut(func(b []byte) { b[1] = 9 }),
		"bad dir":          mut(func(b []byte) { b[6] = 7 }),
		"bad kind":         mut(func(b []byte) { b[7] = 0 }),
		"trailing garbage": append(append([]byte(nil), good...), 0xff),
	}
	for name, buf := range cases {
		if _, err := ParseFrame(buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestAppendFrameRejectsOversizePayload(t *testing.T) {
	_, err := EncodeFrame(Frame{Dir: TtoR, P: DataPacket(1), Payload: string(make([]byte, MaxFramePayload+1))})
	if err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Session: 3, Dir: TtoR, Seq: 7, P: DataPacket(2)}
	if got := f.String(); got != "frame[s=3 t->r #7 data(2)]" {
		t.Errorf("String() = %q", got)
	}
	f.Payload = "\x01\x02"
	if got := f.String(); !strings.Contains(got, "+2B") {
		t.Errorf("String() with payload = %q", got)
	}
}
