package rateless

import (
	"testing"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// TestRatelessAckNoAllocPayload: a new ack's payload is a substring of
// the receiver's ack arena, so a new (Next, Mask) costs one allocation,
// its box, plus one arena per ackArenaRecords acks. Every ack's payload
// is still the encoded record it names after the arena has been
// replaced, so an ack in flight keeps its bytes.
func TestRatelessAckNoAllocPayload(t *testing.T) {
	_, rx := newPair(t, testOptions(5), testInput(t, testOptions(5), 4))
	const acks = 200
	sent := make([]ioa.Action, 0, acks+1)
	allocs := testing.AllocsPerRun(acks, func() {
		rx.mask++
		sent = append(sent, rx.ackAction())
	})
	if allocs > 1 {
		t.Errorf("new ack: %v allocs, want at most 1 (its box)", allocs)
	}
	for i, act := range sent {
		s := act.(wire.Send)
		ack := wire.DecodeAckMsg{Next: rx.next, Mask: uint64(i + 1)}
		if want := string(wire.AppendDecodeAck(nil, ack)); s.Payload != want {
			t.Fatalf("ack %d: payload %x, want %x", i, s.Payload, want)
		}
		if s.P != wire.DecodeAckPacket(ack) {
			t.Fatalf("ack %d: packet %v, want %v", i, s.P, wire.DecodeAckPacket(ack))
		}
	}
}
