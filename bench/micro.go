package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/wire"
)

// micro holds the codec and registry timings the traced pass takes after
// its stack is torn down, on inputs drawn from the pass itself.
type micro struct {
	encodeNs, parseNs, allocsPerFrame float64 // wire, on frames sampled from the run
	msEncodeNs, msDecodeNs            float64 // multiset, NewCodec(4, 6) blocks
	observeNs                         float64 // obs histogram Observe
}

// Sinks keep the compiler from discarding the timed calls.
var (
	sinkBytes []byte
	sinkFrame wire.Frame
	sinkBits  []wire.Bit
)

// runMicro times the wire codec on the sampled frames, the multiset codec
// on seeded blocks, and obs.Histogram.Observe.
func runMicro(frames []wire.Frame, seed int64) (micro, error) {
	var m micro
	if len(frames) > 0 {
		reps := max(1, 40000/len(frames))
		bufs := make([][]byte, len(frames))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for r := 0; r < reps; r++ {
			for i, f := range frames {
				b, err := wire.EncodeFrame(f)
				if err != nil {
					return m, err
				}
				bufs[i] = b
			}
		}
		mid := time.Now()
		for r := 0; r < reps; r++ {
			for _, b := range bufs {
				f, err := wire.ParseFrame(b)
				if err != nil {
					return m, err
				}
				sinkFrame = f
			}
		}
		end := time.Now()
		runtime.ReadMemStats(&after)
		ops := float64(reps * len(frames))
		sinkBytes = bufs[0]
		m.encodeNs = float64(mid.Sub(start)) / ops
		m.parseNs = float64(end.Sub(mid)) / ops
		m.allocsPerFrame = float64(after.Mallocs-before.Mallocs) / ops
	}

	codec, err := multiset.NewCodec(alphabet, params.Delta1())
	if err != nil {
		return m, err
	}
	rng := rand.New(rand.NewSource(seed))
	blocks := make([][]wire.Bit, 256)
	for i := range blocks {
		blocks[i] = wire.RandomBits(codec.BlockBits(), rng.Uint64)
	}
	sets := make([]multiset.Multiset, len(blocks))
	const msReps = 40
	start := time.Now()
	for r := 0; r < msReps; r++ {
		for i, b := range blocks {
			if sets[i], err = codec.Encode(b); err != nil {
				return m, err
			}
		}
	}
	mid := time.Now()
	for r := 0; r < msReps; r++ {
		for _, s := range sets {
			if sinkBits, err = codec.Decode(s); err != nil {
				return m, err
			}
		}
	}
	end := time.Now()
	ops := float64(msReps * len(blocks))
	m.msEncodeNs = float64(mid.Sub(start)) / ops
	m.msDecodeNs = float64(end.Sub(mid)) / ops

	h := obs.NewRegistry().Histogram("bench_observe", "", obs.TickBuckets(0))
	const obsOps = 200000
	start = time.Now()
	for i := 0; i < obsOps; i++ {
		h.Observe(int64(i & 1023))
	}
	m.observeNs = float64(time.Since(start)) / obsOps
	return m, nil
}

// runtimeStats are the Go runtime's view of the measured window.
type runtimeStats struct {
	gcRatio    float64 // GC CPU time over all CPU time
	schedP99us float64 // p99 time goroutines waited runnable before running
}

// windowRuntime reduces the runtime/metrics readings that bracket the
// window (see runtimeMetrics for their order).
func windowRuntime(before, after procSample) runtimeStats {
	gc := after.rt[0].Value.Float64() - before.rt[0].Value.Float64()
	total := after.rt[1].Value.Float64() - before.rt[1].Value.Float64()
	return runtimeStats{gcRatio: ratio(gc, total), schedP99us: histDeltaQuantile(before.rt[2].Value, after.rt[2].Value, 0.99) * 1e6}
}

// histDeltaQuantile interpolates the q-quantile of the samples a
// cumulative runtime histogram gained between two readings.
func histDeltaQuantile(before, after metrics.Value, q float64) float64 {
	b, a := before.Float64Histogram(), after.Float64Histogram()
	var total uint64
	for i := range a.Counts {
		total += a.Counts[i] - b.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var below uint64
	for i := range a.Counts {
		c := a.Counts[i] - b.Counts[i]
		if c == 0 {
			continue
		}
		if float64(below+c) >= rank {
			lo, hi := a.Buckets[i], a.Buckets[i+1]
			if math.IsInf(lo, 0) {
				return hi
			}
			if math.IsInf(hi, 0) {
				return lo
			}
			return lo + (hi-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return a.Buckets[len(a.Buckets)-1]
}
