package rstp

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// sink keeps an allocation-counted result live, so the compiler cannot
// drop the boxing under test.
var sink ioa.Action

// taggedPackets returns hardened data packets for sequence numbers
// [from, from+n) over symbols [0, 4) and acks for the same values, all on
// direction dir.
func taggedPackets(dir wire.Dir, from, n int64) []wire.Packet {
	var ps []wire.Packet
	for seq := from; seq < from+n; seq++ {
		for s := wire.Symbol(0); s < 4; s++ {
			ps = append(ps, hardWrap(seq, wire.DataPacket(s), dir))
		}
		ps = append(ps, hardAckPacket(seq, dir))
	}
	return ps
}

// TestTaggedActionMatchesFresh: every send the intern returns and every
// recv RecvAction serves for a tagged packet is == the freshly boxed
// wire.Send or wire.Recv, on both directions, for data and acks, for
// values in the table and for values past its cap. Once a send is
// interned, repeating it and receiving it allocate nothing.
func TestTaggedActionMatchesFresh(t *testing.T) {
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
		for _, p := range taggedPackets(dir, 0, 64) {
			send, recv := wire.Send{Dir: dir, P: p}, wire.Recv{Dir: dir, P: p}
			if got := tagged.send(dir, p); got != ioa.Action(send) {
				t.Fatalf("tagged.send(%v, %v) = %#v, want %#v", dir, p, got, send)
			}
			if got := RecvAction(dir, p, ""); got != ioa.Action(recv) {
				t.Fatalf("RecvAction(%v, %v) = %#v, want %#v", dir, p, got, recv)
			}
			if got := RecvAction(dir, p, "payload"); got != ioa.Action(wire.Recv{Dir: dir, P: p, Payload: "payload"}) {
				t.Fatalf("RecvAction(%v, %v, payload) = %#v", dir, p, got)
			}
			if n := testing.AllocsPerRun(10, func() { sink = tagged.send(dir, p) }); n != 0 {
				t.Errorf("interned send %v allocates %.1f, want 0", send, n)
			}
			if n := testing.AllocsPerRun(10, func() { sink = RecvAction(dir, p, "") }); n != 0 {
				t.Errorf("recv of interned send %v allocates %.1f, want 0", send, n)
			}
		}
	}

	// Past the cap: a private table filled to internMax boxes every
	// further send fresh, still ==, and grows no further.
	tab := new(internTable)
	for seq := int64(0); tab.n.Load() < internMax; seq++ {
		if seq > internMax {
			t.Fatalf("%d distinct sequence numbers filled %d of %d entries", seq, tab.n.Load(), internMax)
		}
		for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
			for _, p := range taggedPackets(dir, seq, 1) {
				tab.send(dir, p)
			}
		}
	}
	for _, dir := range []wire.Dir{wire.TtoR, wire.RtoT} {
		for _, p := range taggedPackets(dir, 1<<20, 8) {
			if got := tab.send(dir, p); got != ioa.Action(wire.Send{Dir: dir, P: p}) {
				t.Fatalf("past the cap: send(%v, %v) = %#v, want the fresh send", dir, p, got)
			}
			if tab.lookup(dir, p) != nil {
				t.Fatalf("past the cap: %v %v was interned", dir, p)
			}
		}
	}
	if n := tab.n.Load(); n != internMax {
		t.Fatalf("table holds %d entries past the cap, want %d", n, internMax)
	}
	for seq := int64(0); seq < 4; seq++ {
		p := hardWrap(seq, wire.DataPacket(1), wire.TtoR)
		e := tab.lookup(wire.TtoR, p)
		if e == nil || e.send != ioa.Action(wire.Send{Dir: wire.TtoR, P: p}) || e.recv != ioa.Action(wire.Recv{Dir: wire.TtoR, P: p}) {
			t.Fatalf("a full table lost or changed entry %v: %+v", p, e)
		}
	}
}

// TestWireRecvNeverGrowsIntern: a tagged recv the process never sent (a
// sequence number no session reached, a corrupted checksum, a foreign
// tag, an unknown kind) comes back as a fresh box == wire.Recv and adds
// no entry; only the matching local send interns it.
func TestWireRecvNeverGrowsIntern(t *testing.T) {
	const far = 1 << 40
	good := hardWrap(far, wire.DataPacket(2), wire.TtoR)
	corrupt := good
	corrupt.Tag ^= 1 << hardCkShift
	foreign := []struct {
		dir wire.Dir
		p   wire.Packet
	}{
		{wire.TtoR, good},
		{wire.TtoR, corrupt},
		{wire.RtoT, hardAckPacket(far, wire.RtoT)},
		{wire.TtoR, wire.Packet{Kind: wire.Data, Symbol: 1, Tag: 7}},
		{wire.RtoT, wire.Packet{Kind: wire.DecodeAck, Tag: far}},
		{wire.TtoR, wire.Packet{Kind: 99, Symbol: -5, Tag: -1}},
	}
	before := tagged.n.Load()
	for _, f := range foreign {
		for range 3 {
			if got := RecvAction(f.dir, f.p, ""); got != ioa.Action(wire.Recv{Dir: f.dir, P: f.p}) {
				t.Fatalf("RecvAction(%v, %v) = %#v, want the fresh recv", f.dir, f.p, got)
			}
		}
		if tagged.lookup(f.dir, f.p) != nil {
			t.Fatalf("recv of %v %v added an intern entry", f.dir, f.p)
		}
	}
	if after := tagged.n.Load(); after != before {
		t.Fatalf("wire recvs grew the intern from %d to %d entries", before, after)
	}
	tagged.send(wire.TtoR, good)
	if tagged.lookup(wire.TtoR, good) == nil {
		t.Fatal("the local send did not intern its packet")
	}
	if n := testing.AllocsPerRun(10, func() { sink = RecvAction(wire.TtoR, good, "") }); n != 0 {
		t.Errorf("recv after the local send allocates %.1f, want 0", n)
	}
}

// TestTaggedInternConcurrent interns from several goroutines at once,
// as the two side loops of every Server and Dialer do, while others read:
// every result is == the fresh box, each key is interned once, and a
// race to fill the table never takes it past its cap. Run it under
// -race.
func TestTaggedInternConcurrent(t *testing.T) {
	const workers = 4
	shared := taggedPackets(wire.TtoR, 0, 100)
	tab := new(internTable)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range shared {
				p := shared[(i+w*37)%len(shared)]
				if got := tab.send(wire.TtoR, p); got != ioa.Action(wire.Send{Dir: wire.TtoR, P: p}) {
					t.Errorf("send(%v) = %#v", p, got)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, p := range shared {
				if e := tab.lookup(wire.TtoR, p); e != nil && e.recv != ioa.Action(wire.Recv{Dir: wire.TtoR, P: p}) {
					t.Errorf("lookup(%v).recv = %#v", p, e.recv)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := tab.n.Load(); n != int32(len(shared)) {
		t.Fatalf("%d workers interned %d distinct packets into %d entries", workers, len(shared), n)
	}

	// Racing past the cap: together the workers send more distinct
	// packets than the table holds.
	full := new(internTable)
	per := int64(internMax/workers/5 + 50)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range taggedPackets(wire.RtoT, int64(w)*per, per) {
				if got := full.send(wire.RtoT, p); got != ioa.Action(wire.Send{Dir: wire.RtoT, P: p}) {
					t.Errorf("send(%v) = %#v", p, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := full.n.Load(); n > internMax {
		t.Fatalf("racing senders took the table to %d entries, cap %d", n, internMax)
	}
}

// TestTaggedInternMemoryBound pins the sizes behind the worst case the
// intern's doc comment states: on a 64-bit platform an entry is 64
// bytes and each of its two boxes 48, so internMax entries hold
// 1.25 MiB, and the slot array is 128 KiB.
func TestTaggedInternMemoryBound(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the stated bound is for 64-bit platforms")
	}
	entry, send, recv := unsafe.Sizeof(internEntry{}), unsafe.Sizeof(wire.Send{}), unsafe.Sizeof(wire.Recv{})
	if entry != 64 || send != 48 || recv != 48 {
		t.Fatalf("entry %d B, send box %d B, recv box %d B; the doc comment states 64, 48, 48", entry, send, recv)
	}
	if heap := internMax * (entry + send + recv); heap != 1<<20+1<<18 {
		t.Fatalf("worst-case heap %d B, the doc comment states 1.25 MiB", heap)
	}
	if slots := unsafe.Sizeof(internTable{}.slots); slots != 128<<10 {
		t.Fatalf("slot array %d B, the doc comment states 128 KiB", slots)
	}
}
