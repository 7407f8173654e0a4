package obs

import "testing"

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.Record(1, 1, EvSend, 1)
	if got := tr.Events(1); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
	if tr.Enabled() {
		t.Fatalf("tracer must start disabled")
	}
}

func TestTracerRingBounds(t *testing.T) {
	tr := newTracer()
	tr.Enable(4, 2)
	for i := int64(0); i < 10; i++ {
		tr.Record(i, 1, EvSend, i)
	}
	got := tr.Events(1)
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want the capped 4", len(got))
	}
	// The most recent 4 survive, oldest first.
	for i, e := range got {
		if want := int64(6 + i); e.Arg != want {
			t.Errorf("event[%d].Arg = %d, want %d", i, e.Arg, want)
		}
	}
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Total != 10 {
		t.Errorf("snapshot total = %+v, want 10 recorded for session 1", snap)
	}
}

func TestTracerSessionCap(t *testing.T) {
	tr := newTracer()
	tr.Enable(4, 2)
	tr.Record(1, 1, EvSend, 0)
	tr.Record(1, 2, EvSend, 0)
	tr.Record(1, 3, EvSend, 0) // over the 2-session cap: dropped
	if got := tr.Dropped(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
	if got := len(tr.Snapshot()); got != 2 {
		t.Errorf("sessions tracked = %d, want 2", got)
	}
}

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{
		EvSend, EvRecv, EvWrite, EvRetransmit, EvResync, EvWedge,
		EvRefuse, EvLate,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Errorf("kind %d has no name", k)
		}
		if seen[name] {
			t.Errorf("kind name %q is duplicated", name)
		}
		seen[name] = true
	}
	if EventKind(200).String() != "unknown" {
		t.Errorf("out-of-range kind must render as unknown")
	}
}

func TestTracerEventsOrderBeforeWrap(t *testing.T) {
	tr := newTracer()
	tr.Enable(8, 0)
	tr.Record(5, 7, EvWrite, 1)
	tr.Record(6, 7, EvWrite, 2)
	got := tr.Events(7)
	if len(got) != 2 || got[0].Arg != 1 || got[1].Arg != 2 {
		t.Fatalf("events = %+v", got)
	}
	if got[0].KindName != "write" {
		t.Errorf("KindName = %q, want write", got[0].KindName)
	}
}
