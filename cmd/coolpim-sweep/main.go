// Command coolpim-sweep runs a (workload × policy) campaign matrix on
// the fault-tolerant runner: a bounded worker pool with per-run
// deadlines, deterministic retry, panic isolation and a JSONL run
// ledger that makes interrupted campaigns resumable.
//
// Usage:
//
//	coolpim-sweep [-profile paper|full|quick|test]
//	              [-workloads dc,pagerank] [-policies baseline,naive]
//	              [-parallel N] [-timeout 10m] [-retries 2] [-backoff 1s]
//	              [-fail-fast] [-ledger runs.jsonl] [-resume]
//	              [-out report.txt] [-metrics-out metrics.prom] [-v]
//	              [-diag-addr 127.0.0.1:8787] [-flight-dir dumps/]
//
// -metrics-out is flushed atomically (write-to-temp + rename) after
// every completed run, so a killed campaign still leaves a consistent
// metrics file behind. -diag-addr serves the campaign's live state over
// HTTP: /metrics, /healthz, /runs (per-cell status) and /debug/pprof.
// -flight-dir makes panicking or deadline-blown cells dump their flight
// recorder rings there for post-mortem.
//
// Exit codes: 0 success, 1 campaign failure, 2 usage error,
// 3 interrupted (test hook).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"coolpim/internal/atomicfile"
	"coolpim/internal/core"
	"coolpim/internal/experiments"
	runnerpkg "coolpim/internal/runner"
	"coolpim/internal/specflag"
	"coolpim/internal/telemetry"
	"coolpim/internal/telemetry/diagserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	// The campaign description — profile, matrix selection, thermal and
	// network knobs, execution limits — comes from the shared spec flag
	// groups, so this CLI and the coolpim-serve JSON API accept and
	// reject exactly the same campaigns.
	binder := specflag.New()
	binder.Profile(flag.CommandLine)
	binder.Matrix(flag.CommandLine)
	binder.Runner(flag.CommandLine)
	binder.Network(flag.CommandLine)
	ledgerPath := flag.String("ledger", "", "JSONL run ledger path (enables checkpointing)")
	resume := flag.Bool("resume", false, "reuse completed runs from the ledger (requires -ledger)")
	outPath := flag.String("out", "", "write the report here instead of stdout")
	metricsOut := flag.String("metrics-out", "", "write campaign metrics (Prometheus text format) here")
	verbose := flag.Bool("v", false, "print per-run progress to stderr")
	diagAddr := flag.String("diag-addr", "", "serve live campaign diagnostics over HTTP on this address")
	flightDir := flag.String("flight-dir", "", "dump the flight ring of panicking/deadline-blown runs into this directory")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		return 2
	}
	if *resume && *ledgerPath == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -ledger")
		return 2
	}

	spec, err := binder.Spec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// The coupling knobs are part of the profile hash, so a ledger
	// recorded under one tier is never silently reused by the other; the
	// network config is part of the profile name and hash, so a
	// single-cube ledger is never resumed into a multi-cube campaign.
	prof, err := spec.BuildProfile()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	var ledger *runnerpkg.Ledger
	if *ledgerPath != "" {
		var err error
		ledger, err = runnerpkg.OpenLedger(*ledgerPath, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ledger:", err)
			return 1
		}
		defer ledger.Close()
		if *resume && *verbose {
			fmt.Fprintf(os.Stderr, "ledger %s: %d completed runs loaded\n", *ledgerPath, ledger.Resumable())
		}
	}

	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "flight-dir:", err)
			return 1
		}
	}

	tel := telemetry.New()
	tel.Spans.SetWallClock(func() int64 { return time.Now().UnixNano() })
	opts, err := spec.BuildMatrixOpts()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts.Ledger = ledger
	opts.Telemetry = tel
	opts.FlightDir = *flightDir
	if *verbose {
		opts.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	var diag *diagserver.Server
	var runStarts sync.Map // key -> time.Time, written from worker goroutines
	if *diagAddr != "" {
		var err error
		diag, err = diagserver.New(*diagAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diag:", err)
			return 1
		}
		defer diag.Close()
		tel.Sink = diag
		tel.RunID = "sweep/" + prof.Name
		fmt.Fprintf(os.Stderr, "diag: serving on http://%s (endpoints: /metrics /healthz /runs /spans /debug/pprof)\n", diag.Addr())
		opts.OnRunStart = func(key string, attempt int) {
			runStarts.Store(key, time.Now())
			diag.Runs().Started(key, attempt)
		}
	}

	mf := &metricsFlusher{path: *metricsOut}
	var executed, fromLedger, failed int
	opts.OnRunDone = func(key string, err error, ledgered bool) {
		if diag != nil {
			var wall time.Duration
			if t0, ok := runStarts.Load(key); ok {
				wall = time.Since(t0.(time.Time))
			}
			diag.Runs().Finished(key, err, ledgered, wall)
			tel.Publish(0)
		}
		// Flush metrics after every completion so a killed campaign
		// still leaves a consistent (atomically renamed) metrics file.
		mf.flush(tel)
		switch {
		case ledgered:
			fromLedger++
		case err != nil:
			failed++
		default:
			executed++
			if spec.InterruptAfter > 0 && executed >= spec.InterruptAfter {
				// The run's ledger entry is durable (appended and fsynced
				// before this callback), and the metrics flush above has
				// landed; exiting here simulates a kill arriving
				// mid-campaign.
				if line := mf.report(); line != "" {
					fmt.Fprintln(os.Stderr, line)
				}
				fmt.Fprintf(os.Stderr, "interrupt-after: stopping after %d executed runs\n", executed)
				os.Exit(3)
			}
		}
	}

	rows, err := experiments.RunMatrixOpts(context.Background(), prof, opts)
	mf.flush(tel)
	if err != nil {
		if line := mf.report(); line != "" {
			fmt.Fprintln(os.Stderr, line)
		}
		fmt.Fprintln(os.Stderr, "campaign failed:")
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			return 1
		}
		defer f.Close()
		out = f
	}
	report(out, prof, rows)
	if line := mf.report(); line != "" {
		fmt.Fprintln(out, line)
		fmt.Fprintln(out)
	}
	fmt.Printf("campaign: %d cells, executed %d, from ledger %d, failed %d\n",
		executed+fromLedger+failed, executed, fromLedger, failed)
	return 0
}

// metricsFlusher dumps the campaign registry atomically (temp+rename
// with guaranteed temp cleanup, see internal/atomicfile) after every
// completed run. Flush failures are remembered — first error plus a
// count — and surfaced exactly once in the campaign report instead of
// spamming one line per completed run.
type metricsFlusher struct {
	path     string
	firstErr error
	failures int
}

func (m *metricsFlusher) flush(tel *telemetry.Telemetry) {
	if m.path == "" {
		return
	}
	err := atomicfile.Write(m.path, tel.Registry.WritePrometheus)
	if err == nil {
		return
	}
	m.failures++
	if m.firstErr == nil {
		m.firstErr = err
	}
}

// report prints the one-line summary of any flush failures ("" when
// every flush landed).
func (m *metricsFlusher) report() string {
	if m.firstErr == nil {
		return ""
	}
	return fmt.Sprintf("metrics: %d flush(es) to %s failed; first error: %v",
		m.failures, m.path, m.firstErr)
}

// report prints the campaign results as one table per metric family,
// mirroring the Fig. 10-13 layout but restricted to the selected cells.
func report(w io.Writer, prof experiments.Profile, rows []experiments.Row) {
	fmt.Fprintf(w, "## sweep report — profile %s, %d workloads\n\n", prof.Name, len(rows))
	if len(rows) == 0 {
		return
	}
	pols := experiments.SortedPolicies(rows[0])
	haveBase := false
	for _, p := range pols {
		if p == core.NonOffloading {
			haveBase = true
		}
	}

	fmt.Fprintf(w, "%-10s %-18s %-12s %-12s %-10s", "workload", "policy", "runtime", "pim(op/ns)", "peak(°C)")
	if haveBase {
		fmt.Fprintf(w, " %-8s", "speedup")
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		for _, p := range pols {
			res := r.Results[p]
			if res == nil {
				continue
			}
			fmt.Fprintf(w, "%-10s %-18v %-12v %-12.2f %-10.1f",
				r.Workload, p, res.Runtime, float64(res.AvgPIMRate), float64(res.PeakDRAM))
			if haveBase {
				fmt.Fprintf(w, " %-8.3f", r.Speedup(p))
			}
			fmt.Fprintln(w)
		}
	}
	if haveBase {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-18s %s\n", "policy", "gmean speedup")
		for _, p := range pols {
			p := p
			g := experiments.GeoMean(rows, func(r experiments.Row) float64 { return r.Speedup(p) })
			if math.IsNaN(g) {
				continue
			}
			fmt.Fprintf(w, "%-18v %.3f\n", p, g)
		}
	}
	fmt.Fprintln(w)
}
