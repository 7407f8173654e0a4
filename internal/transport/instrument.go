package transport

import "repro/internal/obs"

// Instrument registers t's metrics onto reg, unwrapping the chaos
// middleware so one call instruments the whole transport stack the
// serving commands assemble (chaos → mem/udp). Transports
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

// Instrument registers the fault-injection middleware's stats.
func (c *Chaos) Instrument(reg *obs.Registry) {
	stat := func(pick func(a, dr, du, co, de int) int) func() int64 {
		return func() int64 {
			a, dr, du, co, de := c.Stats()
			return int64(pick(a, dr, du, co, de))
		}
	}
	reg.CounterFunc("rstp_chaos_affected_total",
		"frames touched by any fault clause", stat(func(a, _, _, _, _ int) int { return a }))
	reg.CounterFunc("rstp_chaos_dropped_total",
		"frames dropped by the fault plan", stat(func(_, dr, _, _, _ int) int { return dr }))
	reg.CounterFunc("rstp_chaos_duplicated_total",
		"frames duplicated by the fault plan", stat(func(_, _, du, _, _ int) int { return du }))
	reg.CounterFunc("rstp_chaos_corrupted_total",
		"frames corrupted by the fault plan", stat(func(_, _, _, co, _ int) int { return co }))
	reg.CounterFunc("rstp_chaos_delayed_total",
		"frames held past their natural arrival by the fault plan", stat(func(_, _, _, _, de int) int { return de }))
	reg.CounterFunc("rstp_chaos_send_errors_total",
		"inner Send failures on delayed frames (loss past a latency spike)", c.SendErrors)
}

// Instrument registers the in-memory transport's counters and wires its
// send→delivery latency histogram (in ticks, against the shared clock).
func (m *Mem) Instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_mem_sends_total",
		"frames accepted by the in-memory transport", m.sends.Load)
	reg.CounterFunc("rstp_mem_delivered_total",
		"frames delivered by the in-memory scheduler", m.delivered.Load)
	m.latency.Store(reg.Histogram("rstp_transport_delivery_ticks",
		"send-to-delivery latency in ticks", obs.TickBuckets(0)))
}

// Instrument registers the UDP transport's loss counters.
func (u *UDP) Instrument(reg *obs.Registry) {
	reg.CounterFunc("rstp_udp_dropped_total",
		"frames discarded because a delivery buffer was full", u.Dropped)
	reg.CounterFunc("rstp_udp_malformed_total",
		"datagrams that failed frame validation", u.Malformed)
}
