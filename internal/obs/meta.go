package obs

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// Meta stamps a benchmark artifact with enough provenance to compare it
// against any other run: which commit produced it, on what Go toolchain,
// at what parallelism, and when. It is shared by every BENCH_*.json
// emitter in the repo (the obs/journal/control bench guards) and by
// rstpserve's JSON summary, so all committed snapshots are attributable
// to a commit.
type Meta struct {
	// Schema tags the artifact's layout; each emitter sets its own
	// (e.g. "rstp-bench-serve/v1").
	Schema string `json:"schema"`
	// Commit is the git commit hash the artifact was produced from,
	// "unknown" when no VCS information is reachable.
	Commit string `json:"commit"`
	// GoVersion is runtime.Version() of the producing toolchain.
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the parallelism the run executed at.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Wall is the caller-supplied wall-clock stamp (RFC3339 by
	// convention), passed in rather than read here so tests can pin it
	// when diffing artifacts byte for byte.
	Wall string `json:"wall,omitempty"`
}

// NewMeta builds a Meta for the current process: schema and wall come
// from the caller, commit from DetectCommit, the rest from the runtime.
func NewMeta(schema, wall string) Meta {
	return Meta{
		Schema:     schema,
		Commit:     DetectCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Wall:       wall,
	}
}

// DetectCommit resolves the producing commit hash, most authoritative
// source first: the RSTP_COMMIT / GITHUB_SHA environment overrides (CI
// knows exactly what it checked out), the binary's embedded VCS stamp
// (go build in a git work tree), then a best-effort `git rev-parse
// HEAD`. "unknown" when all three come up empty — never an error, since
// provenance must not fail a benchmark run.
func DetectCommit() string {
	for _, env := range []string{"RSTP_COMMIT", "GITHUB_SHA"} {
		if v := strings.TrimSpace(os.Getenv(env)); v != "" {
			return v
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if v := strings.TrimSpace(string(out)); v != "" {
			return v
		}
	}
	return "unknown"
}
