package rstp

import (
	"sync"

	"repro/internal/ioa"
	"repro/internal/wire"
)

// Pre-boxed local actions. The automata's payload-free actions are fixed
// values, so each is boxed into an ioa.Action once: Machine calls a
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
// from a table built once per process, so delivering it allocates
// nothing; anything else is boxed fresh.
func RecvAction(dir wire.Dir, p wire.Packet, payload string) ioa.Action {
	if payload == "" && p.Tag == 0 && (dir == wire.TtoR || dir == wire.RtoT) {
		switch {
		case p.Kind == wire.Data && p.Symbol >= 0 && p.Symbol < recvBound:
			return recvActs[dir-wire.TtoR][p.Symbol]
		case p == wire.AckPacket():
			return recvActs[dir-wire.TtoR][recvBound]
		}
	}
	return wire.Recv{Dir: dir, P: p, Payload: payload}
}
