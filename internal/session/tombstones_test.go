package session

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// TestTombstonesMatchSet checks the watermark set against a plain map
// over seeded insertion orders: in order, shuffled within a window (as
// concurrent sessions finish), and sparse IDs including 0 and the
// largest ID. It also pins the point of the representation: in-order
// retirements leave nothing above the watermark.
func TestTombstonesMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var ts tombstones
		want := map[uint32]struct{}{}
		ids := make([]uint32, 300)
		for i := range ids {
			ids[i] = uint32(i + 1)
		}
		window := 1 + rng.Intn(64)
		for i := range ids {
			j := i + rng.Intn(min(window, len(ids)-i))
			ids[i], ids[j] = ids[j], ids[i]
		}
		ids = append(ids, 0, ^uint32(0), 1000+uint32(rng.Intn(1000)), ids[rng.Intn(len(ids))])
		for _, id := range ids {
			ts.add(id)
			want[id] = struct{}{}
		}
		for id := uint32(0); id < 2100; id++ {
			if _, ok := want[id]; ok != ts.has(id) {
				t.Fatalf("trial %d: has(%d) = %v, want %v", trial, id, ts.has(id), ok)
			}
		}
		if !ts.has(^uint32(0)) || ts.len() != len(want) {
			t.Fatalf("trial %d: len %d, want %d", trial, ts.len(), len(want))
		}
		if ts.low != 300 || len(ts.above) != 3 {
			t.Fatalf("trial %d: watermark %d with %d above, want 300 with 3 (0, the max ID and one sparse ID)", trial, ts.low, len(ts.above))
		}
	}
}

// refuseID admits every session but one.
type refuseID uint32

func (r refuseID) Admit(_ context.Context, id uint32) error {
	if id == uint32(r) {
		return errors.New("refused")
	}
	return nil
}

func (refuseID) Forget(uint32) {}

// TestFailedStartsKeepWatermark: a Start that fails after its ID was
// allocated (a refused admission, an input buildPair rejects) must still
// tombstone the ID, or the watermark would stop there and every later
// retirement would land in the overflow set.
func TestFailedStartsKeepWatermark(t *testing.T) {
	sol := mustBeta(t, 4)
	cfg, mem := memConfig(t, sol, nil)
	defer mem.Close()
	cfg.Admission = refuseID(7)
	d, err := NewDialer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	x := inputFor(t, sol, 1, 1)
	const sessions = 200
	for i := 1; i <= sessions; i++ {
		in := x
		if i == 100 {
			in = x[:len(x)-1] // not a whole block: buildPair fails
		}
		conn, err := d.Start(context.Background(), in)
		if (err != nil) != (i == 7 || i == 100) {
			t.Fatalf("Start %d: %v", i, err)
		}
		if conn != nil {
			conn.Close()
		}
	}
	d.mu.Lock()
	low, above := d.finished.low, len(d.finished.above)
	d.mu.Unlock()
	if low != sessions || above != 0 {
		t.Fatalf("after %d Starts (2 failed): watermark %d with %d above, want %d with 0", sessions, low, above, sessions)
	}
}
