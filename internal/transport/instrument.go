package transport

import "repro/internal/obs"

// Instrument registers t's metrics onto reg, unwrapping the chaos
// middleware so one call instruments the whole transport stack Open
// assembles (chaos → udp, or mem with its fault plan inside). Transports
// the walker does not recognise are skipped silently — a custom Transport
// can expose its own Instrument and call it directly.
//
// Every registration is a scrape-time CounterFunc/GaugeFunc closure over
// a counter the transport already keeps, so instrumenting adds zero cost
// to the send path. The one exception is Mem's delivery-latency
// histogram, whose Observe is a few atomic ops inside the scheduler
// goroutine, off the sender's path entirely.
func Instrument(reg *obs.Registry, t Transport) {
	for t != nil {
		switch x := t.(type) {
		case *Chaos:
			x.Instrument(reg)
			t = x.inner
		case *Mem:
			x.Instrument(reg)
			t = nil
		case *UDP:
			x.Instrument(reg)
			t = nil
		default:
			t = nil
		}
	}
}

// Instrument registers the UDP transport's loss counters.
func (u *UDP) Instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_udp_dropped_total",
		"frames discarded because a delivery buffer was full", u.Dropped)
	reg.CounterFunc("rstp_udp_malformed_total",
		"datagrams that failed frame validation", u.Malformed)
}
