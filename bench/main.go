// Command bench is the serving benchmark: it drives the real session,
// transport, rstp and rateless stack through their public constructors
// on four seeded workloads and prints end-to-end metrics in the paper's
// yardstick (ticks per written message) beside machine cost, and, with
// -trace 1, per-layer metrics taken by decorators around each layer.
//
// Run it from the repository root, where it finds BENCHMARK.json:
//
//	bash bench/run.sh                          # all four workloads
//	bash bench/run.sh -workload churn -seed 7  # one workload
//	bash bench/run.sh -trace 1 -spans spans.jsonl
//	bash bench/run.sh -compare A.json B.json   # result sets from -json
//
// Each workload prints one "workload metric value unit" line per metric,
// the paper's effort bounds and the sample counts, and ends with one JSON
// line holding correct, attempted, failed and metrics. The exit status is
// 1 on any prefix violation (or, with -compare, any regressed row) and 2
// on a usage or set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const warmup = 3 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: churn, stream, lossy or udp (default: all four in turn)")
		seed    = fs.Int64("seed", 1, "seed for the input pool, channel delays, fault plan and rateless code")
		seconds = fs.Int("seconds", 15, "length of the measured window in seconds, after a 3s warm-up")
		trace   = fs.Int("trace", 0, "1: also run each workload traced and report the per-layer metrics")
		spans   = fs.String("spans", "", "with -trace 1, write the kept spans to this file as JSON lines")
		jsonOut = fs.String("json", "", "append one JSON record per pass to this file (input to -compare)")
		compare = fs.Bool("compare", false, "compare two -json result sets given as arguments: -compare A.json B.json")
		spec    = fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metric bounds, for -compare")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files: -compare A.json B.json")
			return 2
		}
		regressed, err := compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S>=1] [-trace 0|1] [-spans FILE] [-json FILE]")
		return 2
	}
	todo := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (churn, stream, lossy, udp)\n", *name)
			return 2
		}
		todo = []workload{w}
	}

	var spanFile, jsonFile *os.File
	if *trace == 1 && *spans != "" {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		spanFile = f
	}
	if *jsonOut != "" {
		f, err := os.OpenFile(*jsonOut, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		jsonFile = f
	}

	cfg := runConfig{seed: *seed, warmup: warmup, window: time.Duration(*seconds) * time.Second}
	status := 0
	for _, w := range todo {
		rep, err := runWorkload(w, cfg, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		for _, m := range rep.lines {
			fmt.Fprintf(stdout, "%s %s %s %s\n", w.name, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
		}
		fmt.Fprintf(stdout, "%s input_pool_hash %016x hex\n", w.name, rep.poolHash)
		if rep.violation != "" {
			fmt.Fprintf(stderr, "bench: %s: PREFIX VIOLATION: %s\n", w.name, rep.violation)
			status = 1
		}
		if w.faultFree() && rep.failedAll > 0 {
			fmt.Fprintf(stderr, "bench: warning: %s: %d sessions failed on a fault-free channel\n", w.name, rep.failedAll)
		}
		if spanFile != nil && rep.tracer != nil {
			if err := rep.tracer.writeSpans(spanFile, w.name); err != nil {
				fmt.Fprintln(stderr, "bench: writing spans:", err)
				return 2
			}
		}
		if jsonFile != nil {
			if err := writeRecords(jsonFile, w, cfg, rep); err != nil {
				fmt.Fprintln(stderr, "bench: writing -json:", err)
				return 2
			}
		}
		line, err := json.Marshal(rep.result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	for _, f := range []*os.File{spanFile, jsonFile} {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	return status
}

// result is the JSON line that ends each workload's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toMap(ms []metric) map[string]metricValue {
	out := make(map[string]metricValue, len(ms))
	for _, m := range ms {
		out[m.name] = metricValue{Value: finite(m.value), Unit: m.unit}
	}
	return out
}

// report is everything one workload run produced.
type report struct {
	result    result
	lines     []metric // every printed line, metrics and context
	endToEnd  []metric // gated metrics of the untraced pass
	reported  []metric // ungated user-facing metrics of the untraced pass
	layers    []metric // layer metrics of the traced pass; nil when untraced
	poolHash  uint64
	violation string // the first prefix violation, "" if none
	failedAll int    // failed sessions over every pass, warm-up and drain included
	tracer    *tracer
}

// runWorkload runs the untraced pass, which alone gives the user-facing
// numbers, and with traced also a traced pass for the layer ones. The
// result line carries BENCHMARK.json's end_to_end metrics untraced and
// its per_layer metrics traced.
func runWorkload(w workload, cfg runConfig, traced bool) (*report, error) {
	p, err := runPass(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{
		poolHash:  p.poolHash,
		violation: p.firstViolation,
		failedAll: p.failedAll,
	}
	rep.endToEnd, rep.reported = p.userMetrics()
	rep.lines = append(append(append(rep.lines, rep.endToEnd...), rep.reported...), p.contextLines()...)
	rep.result = result{Correct: p.violations == 0, Attempted: p.attempted, Failed: p.failed, Metrics: toMap(rep.endToEnd)}
	if !traced {
		return rep, nil
	}

	tr := newTracer()
	tp, err := runPass(w, cfg, tr)
	if err != nil {
		return nil, err
	}
	m, err := runMicro(tr.frames, cfg.seed)
	if err != nil {
		return nil, err
	}
	overhead := ratio(tp.cpuPerMsg(), p.cpuPerMsg())
	rep.layers = tr.perLayer(tp.writes, m, windowRuntime(tp.before, tp.after), overhead)
	rep.tracer = tr
	rep.lines = append(append(rep.lines, rep.layers...), tr.traceContext()...)
	rep.failedAll += tp.failedAll
	if rep.violation == "" {
		rep.violation = tp.firstViolation
	}
	rep.result = result{
		Correct:   p.violations == 0 && tp.violations == 0,
		Attempted: tp.attempted,
		Failed:    tp.failed,
		Metrics:   toMap(append(append([]metric(nil), rep.reported...), rep.layers...)),
	}
	return rep, nil
}

// record is one line of a -json result set: one pass of one workload.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      int                    `json:"trace"`
	Go         string                 `json:"go"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func writeRecords(w io.Writer, wl workload, cfg runConfig, rep *report) error {
	base := record{
		Workload: wl.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(),
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	recs := []record{base}
	recs[0].Metrics = toMap(append(append([]metric(nil), rep.endToEnd...), rep.reported...))
	if rep.layers != nil {
		traced := base
		traced.Trace = 1
		traced.Metrics = toMap(rep.layers)
		recs = append(recs, traced)
	}
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
