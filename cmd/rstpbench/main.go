// Command rstpbench regenerates the paper's results tables (experiments
// E1..E16 of DESIGN.md). The served-stack benchmark grid is a test of
// the serving command instead: go test -run TestServeMatrix ./cmd/rstpserve/.
//
// Usage:
//
//	rstpbench                   # all experiments, full workloads
//	rstpbench -e e4,e5          # selected experiments
//	rstpbench -quick -seed 7    # smaller workloads, chosen seed
//	rstpbench -parallel         # run all experiments concurrently
//	rstpbench -format csv       # machine-readable output
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rstpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rstpbench", flag.ContinueOnError)
	var (
		list     = fs.String("e", "all", "comma-separated experiment ids (e1..e16) or \"all\"")
		seed     = fs.Int64("seed", 1, "random seed for workloads")
		quick    = fs.Bool("quick", false, "smaller workloads (faster, looser asymptotics)")
		format   = fs.String("format", "table", "output format: table or csv")
		parallel = fs.Bool("parallel", false, "run all experiments concurrently (with -e all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q", *format)
	}
	cfg := experiments.Config{Seed: *seed, Quick: *quick}

	if *list == "all" && *parallel {
		tables, err := experiments.AllParallel(cfg, 0)
		if err != nil {
			return err
		}
		for _, table := range tables {
			if err := render(out, table, *format); err != nil {
				return err
			}
		}
		return nil
	}

	ids := experiments.IDs()
	if *list != "all" {
		ids = nil
		for _, id := range strings.Split(*list, ",") {
			ids = append(ids, strings.ToLower(strings.TrimSpace(id)))
		}
	}
	reg := experiments.Registry()
	for _, id := range ids {
		gen, ok := reg[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (known: %s)", id, strings.Join(experiments.IDs(), ", "))
		}
		table, err := gen(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if err := render(out, table, *format); err != nil {
			return err
		}
	}
	return nil
}

func render(out io.Writer, table experiments.Table, format string) error {
	if format == "csv" {
		if _, err := fmt.Fprintf(out, "# %s — %s\n", table.ID, table.Title); err != nil {
			return err
		}
		if err := table.RenderCSV(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}
	return table.Render(out)
}
