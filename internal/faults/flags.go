package faults

import (
	"fmt"
	"strconv"
	"strings"
)

// Clauses assembles the fault flags the chaos and serving commands share
// into plan clauses: loss, dup, corrupt and excess (extra delay) apply
// over the fwindow send-time window and are omitted when all are zero;
// a non-empty blackout adds a total-loss window of its own. Both windows
// are "from:to" tick ranges (see ParseWindow). A probability outside
// [0, 1] (NaN included) or a negative excess is rejected rather than
// silently clamped or ignored.
func Clauses(loss, dup, corrupt float64, excess int64, fwindow, blackout string) ([]Fault, error) {
	for _, p := range []struct {
		flag string
		v    float64
	}{{"-loss", loss}, {"-dup", dup}, {"-corrupt", corrupt}} {
		if !(p.v >= 0 && p.v <= 1) {
			return nil, fmt.Errorf("%s %v: a probability must lie in [0, 1]", p.flag, p.v)
		}
	}
	if excess < 0 {
		return nil, fmt.Errorf("-excess %d: extra delay must be >= 0", excess)
	}
	var clauses []Fault
	if loss > 0 || dup > 0 || corrupt > 0 || excess > 0 {
		from, to, err := ParseWindow(fwindow)
		if err != nil {
			return nil, fmt.Errorf("-fwindow: %w", err)
		}
		clauses = append(clauses, Fault{
			From: from, To: to,
			Drop: loss, Dup: dup, Corrupt: corrupt, ExtraDelay: excess,
		})
	}
	if blackout != "" {
		from, to, err := ParseWindow(blackout)
		if err != nil {
			return nil, fmt.Errorf("-blackout: %w", err)
		}
		clauses = append(clauses, Fault{From: from, To: to, Blackout: true})
	}
	return clauses, nil
}

// ParseWindow parses a "from:to" send-time window. Windows are
// half-open, so to must exceed from: an empty window would inject
// nothing and is rejected as a typo.
func ParseWindow(s string) (from, to int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("want from:to, got %q", s)
	}
	if from, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return 0, 0, err
	}
	if to, err = strconv.ParseInt(parts[1], 10, 64); err != nil {
		return 0, 0, err
	}
	if to <= from {
		return 0, 0, fmt.Errorf("empty window %q", s)
	}
	return from, to, nil
}
