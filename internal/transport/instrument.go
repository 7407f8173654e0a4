package transport

import "repro/internal/obs"

// Instrument registers t's metrics onto reg: Mem's and UDP's own
// counters, plus the injection counters of a fault plan in either one's
// delay line. Transports it does not recognise are skipped silently — a
// custom Transport can expose its own Instrument and call it directly.
//
// Every registration is a scrape-time CounterFunc/GaugeFunc closure over
// a counter the transport already keeps, so instrumenting adds zero cost
// to the send path. The one exception is Mem's delivery-latency
// histogram, whose Observe is a few atomic ops inside the scheduler
// goroutine, off the sender's path entirely.
func Instrument(reg *obs.Registry, t Transport) {
	switch x := t.(type) {
	case *Mem:
		x.Instrument(reg)
	case *UDP:
		x.Instrument(reg)
	}
}

// Instrument registers the UDP transport's loss counters and, with a
// fault plan, the plan's injection counters and the count of delayed
// frames whose write failed.
func (u *UDP) Instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_udp_dropped_total",
		"frames discarded because a delivery buffer was full", u.Dropped)
	reg.CounterFunc("rstp_udp_malformed_total",
		"datagrams that failed frame validation", u.Malformed)
	if u.line == nil {
		return
	}
	u.line.instrumentPlan(reg)
	reg.CounterFunc("rstp_chaos_send_errors_total",
		"failed writes of frames the fault plan delayed (loss past a latency spike)", u.sendErrs.Load)
}
