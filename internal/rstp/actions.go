package rstp

import (
	"sync"
	"sync/atomic"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// Pre-boxed local actions. The automata's payload-free actions are fixed
// values, so each is boxed into an ioa.Action once: a table calls a
// command's Act in both NextLocal and Apply, and a fresh boxing there
// would allocate twice per step. The values are the same structs as
// before, so traces, Snapshot keys and Apply's equality check are
// unchanged. The exported ones are shared with the automata built on
// this package's (rateless, the generalised β).
var (
	WaitT ioa.Action = wire.Internal{Name: "wait_t"}
	IdleR ioa.Action = wire.Internal{Name: "idle_r"}

	actIdleT ioa.Action = wire.Internal{Name: "idle_t"}
	actIdleH ioa.Action = wire.Internal{Name: "idle_h"}
	actIdleS ioa.Action = wire.Internal{Name: "idle_s"}
	actSkipW ioa.Action = wire.Internal{Name: "skip_w"}
	actAckRT ioa.Action = wire.Send{Dir: wire.RtoT, P: wire.AckPacket()}

	actWrite = [2]ioa.Action{wire.Write{M: wire.Zero}, wire.Write{M: wire.One}}
)

// IdleRCmd returns the receivers' lowest-priority command, the idle step
// idle_r, enabled in every state.
func IdleRCmd[S any]() ioa.Cmd[S] {
	return ioa.Cmd[S]{
		Name:  "idle_r",
		Class: ioa.ClassInternal,
		Pre:   func(*S) bool { return true },
		Act:   func(*S) ioa.Action { return IdleR },
		Eff:   func(*S) {},
	}
}

// WriteAction returns write(b), pre-boxed for the two messages of M.
func WriteAction(b wire.Bit) ioa.Action {
	if b.Valid() {
		return actWrite[b]
	}
	return wire.Write{M: b}
}

// dataSends memoises DataSends: k → []ioa.Action.
var (
	dataSendsMu sync.Mutex
	dataSends   = map[int][]ioa.Action{}
)

// DataSends returns the k pre-boxed actions send[TtoR](s), indexed by
// symbol s, shared by every transmitter over a k-symbol alphabet. The
// table is read-only.
func DataSends(k int) []ioa.Action {
	dataSendsMu.Lock()
	defer dataSendsMu.Unlock()
	tab := dataSends[k]
	if tab == nil {
		tab = make([]ioa.Action, k)
		for s := range tab {
			tab[s] = wire.Send{Dir: wire.TtoR, P: wire.DataPacket(wire.Symbol(s))}
		}
		dataSends[k] = tab
	}
	return tab
}

// recvBound is the data-symbol bound of RecvAction's table: it covers
// every alphabet the stacks build and the symbols a corruption fault
// shifts past k.
const recvBound = 256

// recvActs holds the pre-boxed payload-free, untagged recvs, indexed by
// direction (TtoR, RtoT) and then by symbol, with the ack at recvBound.
var recvActs = func() (tab [2][recvBound + 1]ioa.Action) {
	for d := range tab {
		dir := wire.TtoR + wire.Dir(d)
		for s := 0; s < recvBound; s++ {
			tab[d][s] = wire.Recv{Dir: dir, P: wire.DataPacket(wire.Symbol(s))}
		}
		tab[d][recvBound] = wire.Recv{Dir: dir, P: wire.AckPacket()}
	}
	return tab
}()

// RecvAction returns recv[dir](p) carrying payload, equal (==) to the
// freshly boxed wire.Recv{Dir: dir, P: p, Payload: payload}. A
// payload-free, untagged ack or data symbol below 256 comes pre-boxed
// from a table built once per process, and a payload-free tagged packet
// this process has sent comes from the tagged-action intern, so
// delivering either allocates nothing; anything else is boxed fresh.
// RecvAction only reads the intern: a frame off the wire never adds an
// entry.
func RecvAction(dir wire.Dir, p wire.Packet, payload string) ioa.Action {
	if payload == "" && (dir == wire.TtoR || dir == wire.RtoT) {
		switch {
		case p.Tag != 0:
			if e := tagged.lookup(dir, p); e != nil {
				return e.recv
			}
		case p.Kind == wire.Data && p.Symbol >= 0 && p.Symbol < recvBound:
			return recvActs[dir-wire.TtoR][p.Symbol]
		case p == wire.AckPacket():
			return recvActs[dir-wire.TtoR][recvBound]
		}
	}
	return wire.Recv{Dir: dir, P: p, Payload: payload}
}

// Tagged-action intern. The hardened layer extends the automata's
// alphabet with a sequence number and a checksum in Packet.Tag, so its
// packets are not in the fixed tables above. But a hardened packet is a
// pure function of (direction, sequence number, symbol), and every
// session numbers its packets from 0, so every session sends and
// receives the same values: one process-wide set of boxes serves them
// all.
//
// An entry holds the pair send[dir](p) and recv[dir](p), keyed by
// (dir, p); the send/recv half of the key picks the field. Only local
// sends insert (internTable.send, which also boxes the recv the peer
// will build), and RecvAction only looks up, so nothing a frame off the
// wire carries (a corrupted tag, a stabilizing-layer tag, junk) can grow
// the table. Reads take no lock: the table is a fixed open-addressed
// array of atomic pointers to immutable entries, filled by CAS and never
// emptied, and a lookup probes at most internProbe slots from the key's
// hash, stopping at the first empty one.
//
// Memory is bounded: at most internMax entries (half the slots, so
// probes stay short), each 64 bytes plus its two 48-byte boxes, which is
// internMax·160 B = 1.25 MiB of heap, on top of the slot array's static
// internSlots·8 B = 128 KiB. Past the cap, or when a key's probe window
// is full, send boxes fresh exactly as an un-interned send would.
const (
	internBits  = 14
	internSlots = 1 << internBits
	internMax   = internSlots / 2
	internProbe = 16
)

// internEntry is one interned (dir, p): its boxed send and recv.
type internEntry struct {
	dir  wire.Dir
	p    wire.Packet
	send ioa.Action
	recv ioa.Action
}

// internTable is the intern's storage; the zero value is empty.
type internTable struct {
	slots [internSlots]atomic.Pointer[internEntry]
	n     atomic.Int32 // entries inserted, never above internMax
}

// tagged is the process-wide intern every hardened endpoint shares.
var tagged internTable

// internHash places (dir, p) in the table (Fibonacci hashing).
func internHash(dir wire.Dir, p wire.Packet) uint64 {
	h := uint64(p.Tag)*0x9E3779B97F4A7C15 ^ uint64(p.Symbol)<<16 ^ uint64(p.Kind)<<8 ^ uint64(dir)
	return (h * 0x9E3779B97F4A7C15) >> (64 - internBits)
}

// lookup returns the entry for (dir, p), or nil if there is none.
func (t *internTable) lookup(dir wire.Dir, p wire.Packet) *internEntry {
	h := internHash(dir, p)
	for i := uint64(0); i < internProbe; i++ {
		e := t.slots[(h+i)&(internSlots-1)].Load()
		if e == nil {
			return nil
		}
		if e.dir == dir && e.p == p {
			return e
		}
	}
	return nil
}

// send returns send[dir](p), interning it and the matching recv if the
// table has room; either way the result is == the fresh wire.Send.
func (t *internTable) send(dir wire.Dir, p wire.Packet) ioa.Action {
	h := internHash(dir, p)
	var fresh *internEntry
	for i := uint64(0); i < internProbe; i++ {
		slot := &t.slots[(h+i)&(internSlots-1)]
		e := slot.Load()
		if e == nil {
			if fresh == nil {
				if t.n.Add(1) > internMax {
					t.n.Add(-1)
					break
				}
				fresh = &internEntry{dir: dir, p: p, send: wire.Send{Dir: dir, P: p}, recv: wire.Recv{Dir: dir, P: p}}
			}
			if slot.CompareAndSwap(nil, fresh) {
				return fresh.send
			}
			e = slot.Load() // another sender filled the slot first
		}
		if e.dir == dir && e.p == p {
			if fresh != nil {
				t.n.Add(-1)
			}
			return e.send
		}
	}
	if fresh != nil {
		t.n.Add(-1)
		return fresh.send
	}
	return wire.Send{Dir: dir, P: p}
}
