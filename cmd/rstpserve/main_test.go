package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// summaryFrom extracts the trailing JSON summary from a run's output,
// skipping any "metrics listening" / "obs:" lines printed before it.
func summaryFrom(t *testing.T, out string) summary {
	t.Helper()
	i := strings.Index(out, "{")
	if i < 0 {
		t.Fatalf("no JSON summary in output:\n%s", out)
	}
	var sum summary
	if err := json.Unmarshal([]byte(strings.TrimSpace(out[i:])), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, out)
	}
	return sum
}

// scrape GETs one path off the in-process metrics endpoint.
func scrape(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(body)
}

// TestServeChaosOverUDP composes loss, duplication and symbol corruption
// in the chaos middleware over real sockets; the grid's udp rows only
// lose frames, so this is the one run where corrupted symbols cross the
// kernel path and must stay parseable.
func TestServeChaosOverUDP(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-sessions", "8", "-stack", "hardened(beta(k=4))",
		"-transport", "udp",
		"-loss", "0.15", "-dup", "0.05", "-corrupt", "0.05", "-fwindow", "0:4000",
		"-tick", "50us",
	}, &out)
	if err != nil {
		t.Fatalf("chaos-over-udp run: %v\n%s", err, out.String())
	}
	sum := summaryFrom(t, out.String())
	if sum.Completed != 8 || sum.Violations != 0 {
		t.Fatalf("expected 8 completed, 0 violations: %+v", sum)
	}
	if !strings.HasPrefix(sum.Faults, "chaos:") {
		t.Errorf("faults key should name the chaos middleware plan: %q", sum.Faults)
	}
	if sum.ChaosDropped == 0 {
		t.Errorf("chaos injected no drops at 15%% over the whole run: %+v", sum)
	}
	if sum.UDPMalformed != 0 {
		t.Errorf("symbol corruption must stay parseable, got %d malformed datagrams", sum.UDPMalformed)
	}
}

func TestServeWatchdogReportsWedged(t *testing.T) {
	// A blackout that starts after session establishment and never heals:
	// every session wedges, the watchdog retires them all, and the run
	// itself fails because the transfers really are incomplete. The
	// 64-block inputs keep all three sessions mid-transfer at tick 400,
	// and the 200 µs tick puts that tick 80 ms into the run, so a process
	// starved under a loaded -race run still sends before the blackout.
	var out strings.Builder
	err := run([]string{
		"-sessions", "3", "-n", "64", "-stack", "hardened(beta(k=4))", "-watchdog", "4",
		"-blackout", "400:999999999", "-timeout", "20s",
		"-tick", "200us",
	}, &out)
	if err == nil {
		t.Fatalf("wedged run should report incomplete sessions:\n%s", out.String())
	}
	var sum summary
	if uerr := json.Unmarshal([]byte(out.String()), &sum); uerr != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", uerr, out.String())
	}
	if sum.Wedged != 3 {
		t.Fatalf("wedged = %d, want all 3 sessions: %+v", sum.Wedged, sum)
	}
	if sum.Violations != 0 {
		t.Fatalf("force-retire must never corrupt a tape: %+v", sum)
	}
}

// TestServeMetricsEndpoint runs a transfer with the introspection
// endpoint up and scrapes it mid-flight: the Prometheus exposition, the
// JSON snapshot with its live session table, and the trace rings must all
// serve while sessions are moving.
func TestServeMetricsEndpoint(t *testing.T) {
	ready := make(chan string, 1)
	metricsReady = func(addr string) { ready <- addr }
	defer func() { metricsReady = nil }()

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-sessions", "4", "-n", "64", "-tick", "200us",
			"-metrics-addr", "127.0.0.1:0", "-trace",
			"-timeout", "60s",
		}, &out)
	}()
	addr := <-ready

	// Wait until at least one output write is on the board, then scrape.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if strings.Contains(scrape(t, addr, "/metrics"), "rstp_session_writes_total") &&
			!strings.Contains(scrape(t, addr, "/metrics"), "rstp_session_writes_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no writes observed on /metrics within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	expo := scrape(t, addr, "/metrics")
	for _, want := range []string{
		"rstp_server_sessions_active",
		"rstp_deadline_ticks 18",
		"rstp_effort_bound_ticks",
		"rstp_interwrite_ticks_bucket",
		"rstp_deadline_margin_ticks_bucket",
		"rstp_effort_gap_ticks_bucket",
		"rstp_mem_sends_total",
		"rstp_transport_delivery_ticks_bucket",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Live     map[string]any   `json:"live"`
	}
	if err := json.Unmarshal([]byte(scrape(t, addr, "/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	if snap.Counters["rstp_session_sends_total"] == 0 {
		t.Error("/metrics.json shows no sends mid-transfer")
	}
	if _, ok := snap.Live["server_sessions"]; !ok {
		t.Error("/metrics.json missing the live session table")
	}
	if body := scrape(t, addr, "/trace"); !strings.Contains(body, `"kind"`) && body != "[]\n" && body != "null\n" {
		t.Errorf("/trace returned neither events nor an empty ring:\n%.200s", body)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	sum := summaryFrom(t, out.String())
	if sum.MetricsAddr != addr {
		t.Errorf("summary metrics_addr = %q, want %q", sum.MetricsAddr, addr)
	}
	if sum.EffortLowerBound <= 0 {
		t.Errorf("summary missing the effort lower bound: %+v", sum)
	}
	if sum.EffortGapMean == 0 {
		t.Errorf("summary missing the effort-gap mean: %+v", sum)
	}
}

// TestServeSigintFlushesSummary pins the shutdown path: a SIGINT mid-run
// must cancel the transfers, still flush the JSON summary (marked
// interrupted), and exit cleanly rather than reporting failure.
func TestServeSigintFlushesSummary(t *testing.T) {
	ready := make(chan string, 1)
	metricsReady = func(addr string) { ready <- addr }
	defer func() { metricsReady = nil }()

	var out strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			// A long, slow run: 200 blocks per session at 500us/tick keeps
			// the transfers in flight for seconds — the signal lands first.
			"-sessions", "4", "-n", "200", "-tick", "500us",
			"-metrics-addr", "127.0.0.1:0",
			"-timeout", "5m",
		}, &out)
	}()
	addr := <-ready // signal handler is installed before metricsReady fires

	// Let the sessions establish and write a little before interrupting.
	deadline := time.Now().Add(20 * time.Second)
	for !strings.Contains(scrape(t, addr, "/metrics.json"), `"rstp_session_writes_total": `) ||
		strings.Contains(scrape(t, addr, "/metrics.json"), `"rstp_session_writes_total": 0`) {
		if time.Now().After(deadline) {
			t.Fatal("no writes before the interrupt within 20s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted run should flush and exit clean: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return within 30s of SIGINT")
	}
	sum := summaryFrom(t, out.String())
	if !sum.Interrupted {
		t.Errorf("summary not marked interrupted: %+v", sum)
	}
	if sum.Completed == 4 {
		t.Errorf("all sessions completed — the signal landed too late to test anything: %+v", sum)
	}
	if sum.Violations != 0 {
		t.Errorf("interrupt must never corrupt a tape: %+v", sum)
	}
	if sum.Writes == 0 {
		t.Errorf("summary should carry the partial progress: %+v", sum)
	}
}

func TestServeRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-stack", "delta(k=4)"},
		{"-stack", "beta(k=04)"}, // one spelling per stack
		{"-stack", "beta"},
		{"-transport", "carrier-pigeon"},
		{"-fwindow", "backwards", "-loss", "0.5"},
		{"-fwindow", "5:5", "-loss", "0.5"}, // empty window
		{"-loss", "1.5"},                    // probabilities outside [0, 1]
		{"-loss", "-0.2"},
		{"-loss", "NaN"},
		{"-excess", "-3"},
		{"-watchdog", "-1"}, // negative watchdog multiplier
		{"-stack", "hardened(rateless(k=4))"},
		{"-chaos"}, // removed flags
		{"-proto", "beta"},
		{"-k", "4"},
		{"-harden"},
		{"-stabilize"},
		{"-resilient"},
		{"-bench"},
		{"-benchout", "x.json"},
		{"-adaptive"},
		{"-shed", "refuse"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should have failed", args)
		}
	}
}

// TestServeStoreHelperProcess is not a test: it is the child body for
// TestServeKillRestart, re-executing the test binary as an rstpserve
// process that can be SIGKILLed for real.
func TestServeStoreHelperProcess(t *testing.T) {
	if os.Getenv("RSTPSERVE_HELPER") != "1" {
		t.Skip("helper process for TestServeKillRestart")
	}
	if err := run(strings.Fields(os.Getenv("RSTPSERVE_ARGS")), os.Stdout); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

// TestServeKillRestart is the crash-restart smoke over a real process
// boundary: a child rstpserve serving into -store-dir is SIGKILLed once
// its journal shows durable progress, then the same run is repeated
// in-process against the same directory. The restart must replay the
// journal, resume at least one session's tape, and complete every
// transfer with zero prefix violations.
func TestServeKillRestart(t *testing.T) {
	killRestart(t, "stabilized(beta(k=4))")
}

// TestServeKillRestartHardened is the same kill-and-restart smoke over
// stabilized(hardened(beta)), the stack that decodes by sequence number
// and so stays correct even when a synchronous journal save delays a
// receiver step past c2.
func TestServeKillRestartHardened(t *testing.T) {
	killRestart(t, "stabilized(hardened(beta(k=4)))")
}

func killRestart(t *testing.T, stack string) {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess kill-and-restart smoke")
	}
	dir := t.TempDir()
	args := []string{
		"-sessions", "4", "-n", "200", "-tick", "500us", "-stack", stack,
		"-store-dir", dir, "-seed", "9", "-timeout", "5m",
	}
	child := exec.Command(os.Args[0], "-test.run=^TestServeStoreHelperProcess$")
	child.Env = append(os.Environ(),
		"RSTPSERVE_HELPER=1",
		"RSTPSERVE_ARGS="+strings.Join(args, " "))
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	defer child.Process.Kill()

	// Wait for durable progress — the journal carries checkpoints and
	// tape records once sessions are established and writing.
	logPath := filepath.Join(dir, "journal.log")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(logPath); err == nil && fi.Size() > 4096 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal showed no progress within 30s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL: no flush, no handler
		t.Fatal(err)
	}
	child.Wait()

	// Same directory, same seed, faster clock: the second incarnation
	// must pick the sessions up where the journal says they were.
	restart := []string{
		"-sessions", "4", "-n", "200", "-tick", "50us", "-stack", stack,
		"-store-dir", dir, "-seed", "9", "-timeout", "2m",
	}
	var out strings.Builder
	if err := run(restart, &out); err != nil {
		t.Fatalf("restarted run: %v\n%s", err, out.String())
	}
	sum := summaryFrom(t, out.String())
	if sum.Completed != 4 || sum.Violations != 0 {
		t.Fatalf("restart must complete all sessions violation-free: %+v", sum)
	}
	if sum.JournalReplayed == 0 {
		t.Errorf("restart replayed no journal records: %+v", sum)
	}
	if sum.Resumed == 0 {
		t.Errorf("restart resumed no session tapes: %+v", sum)
	}
}

// TestServeStoreDirFreshRun pins the first-boot path: -store-dir against
// an empty directory serves normally (recover mode with nothing to
// recover) and reports the journal keys in the summary. A stack that is
// not stabilized cannot checkpoint: the run is refused, names the stack
// it needs and leaves the directory untouched.
func TestServeStoreDirFreshRun(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-store-dir", dir}, &out); err == nil || !strings.Contains(err.Error(), "stabilized(beta(k=4))") {
		t.Fatalf("-store-dir with the bare default stack: %v, want a refusal naming stabilized(beta(k=4))", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.log")); err == nil {
		t.Fatal("refused run opened a journal")
	}
	err := run([]string{"-sessions", "4", "-n", "2", "-tick", "50us", "-stack", "stabilized(beta(k=4))", "-store-dir", dir}, &out)
	if err != nil {
		t.Fatalf("fresh -store-dir run: %v\n%s", err, out.String())
	}
	sum := summaryFrom(t, out.String())
	if sum.Completed != 4 || sum.Violations != 0 {
		t.Fatalf("fresh durable run: %+v", sum)
	}
	if sum.JournalSaves == 0 || sum.JournalKeys < 12 {
		t.Errorf("journal shows no activity (want >= 3 keys per session): %+v", sum)
	}
	if sum.Resumed != 0 {
		t.Errorf("nothing to resume on a fresh directory: %+v", sum)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal.log")); err != nil {
		t.Errorf("journal file missing after durable run: %v", err)
	}
}
