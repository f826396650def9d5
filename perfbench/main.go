// Command perfbench is the rbq benchmark. It generates its inputs from a
// seed, hands them to the system through its public surface (rbq.DB,
// rbq.ReachOracle, and the rbqd HTTP handler on a loopback listener),
// measures one workload for a fixed window, checks every answer, and
// prints one JSON object as the last line of its output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 they are the per-layer ones, from a run that records
// spans around each call into a layer and reads the phase trees the
// program returns. README.md lists the workloads, the metrics and which
// layer metric should move which end-to-end metric.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"rbq"
)

// scale fixes the sizes of a workload's inputs.
type scale struct {
	nodes     int // YoutubeLike graph size
	templates int // distinct paper-cold templates (4× the plan cache)
	hot       int // hot templates of serve-hot
	setups    int // set-ups per run; setup_s is their median

	reachSources, reachTargets int           // reachability pairs
	reachProbe                 time.Duration // timed span of serve-hot's reach probe

	unanchoredProbe time.Duration // timed span of serve-hot's Unanchored probe
	writeProbe      int           // batches in a write probe
	writeWarmup     int           // untimed batches before them
	accuracyProbe   int           // templates in serve-hot's accuracy probe

	clients          int // serve-hot closed-loop clients
	batchOps         int // ops per batch
	compactThreshold int // the deployment's -compact-threshold
}

// fullScale is the benchmark's setting.
func fullScale() scale {
	return scale{
		nodes:            200_000,
		templates:        4 * rbq.DefaultPlanCacheCapacity,
		hot:              16,
		setups:           5,
		reachSources:     256,
		reachTargets:     32,
		reachProbe:       2 * time.Second,
		unanchoredProbe:  5 * time.Second,
		writeProbe:       2048,
		writeWarmup:      64,
		accuracyProbe:    256,
		clients:          runtime.NumCPU(),
		batchOps:         16,
		compactThreshold: 512,
	}
}

type config struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sc       scale
	// dir is scratch space inside the checkout: the durable DB and the
	// written-out spans.
	dir string
	// corrupt makes the run falsify one answer before its check, so
	// tests can show that the checks are not vacuous.
	corrupt bool
	// progress receives one line per finished phase.
	progress io.Writer
	began    time.Time
}

// logf reports a finished phase with the time since the run began.
func (c config) logf(format string, args ...any) {
	if c.progress != nil {
		fmt.Fprintf(c.progress, "perfbench: %6.2fs %s\n", time.Since(c.began).Seconds(), fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, config) (*report, error){
	"paper-cold": runPaperCold,
	"serve-hot":  runServeHot,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "paper-cold or serve-hot")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	dir := fs.String("dir", ".bench_build/perfbench", "scratch directory for the durable DB and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (paper-cold|serve-hot), -seconds ≥ 1 and -trace 0|1\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		sc:       fullScale(),
		dir:      *dir,
		progress: stderr,
		began:    time.Now(),
	}
	res, err := execute(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, v := range res.violations {
		fmt.Fprintf(stderr, "VIOLATION: %s\n", v)
	}
	return 0
}

// result is the last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// execute runs one workload and prints the report and the result line.
func execute(ctx context.Context, cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	rep, err := workloads[cfg.workload](ctx, cfg)
	if err != nil {
		return nil, err
	}
	res := result{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		res.Metrics = rep.layer
	}
	printReport(out, cfg, rep, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	fmt.Fprintf(out, "%s\n", line)
	return rep, nil
}

// printReport writes the host fingerprint, the workload's inputs and
// every metric with its unit, ahead of the result line.
func printReport(w io.Writer, cfg config, rep *report, m metrics) {
	fmt.Fprintf(w, "host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s goarch=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH)
	fmt.Fprintf(w, "run: workload=%s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.trace)
	var ps []string
	for _, p := range rep.params {
		ps = append(ps, fmt.Sprintf("%s=%v", p.name, p.value))
	}
	fmt.Fprintf(w, "inputs: %s\n", strings.Join(ps, " "))
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(w, "ops: attempted=%d failed=%d violations=%d\n", rep.attempted, rep.failed, len(rep.violations))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// dumpSpans writes the traced run's spans, held in memory until now, as
// one JSON object per line.
func dumpSpans(cfg config, spans []spanRecord) error {
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
