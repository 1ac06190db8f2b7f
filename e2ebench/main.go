// Command e2ebench is the repository's end-to-end benchmark. It generates
// one workload's inputs from a seed, drives them through the public API
// (race.Engine, race/server sessions, the wire client), checks every report
// against a reference computed in set-up, and prints its metrics:
//
//	e2ebench --workload offline-ccs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a traced run
// (spans recorded around each layer call, plus a layer-by-layer sweep over
// the same inputs). Lines before it are human-readable context. A failed
// correctness check makes the command exit 1 after printing its result.
//
// Run it through run.sh, which builds it from the surrounding checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir holds everything a run writes: session journals and span dumps.
	dir string
	// tiny shrinks every input for the benchmark's own tests.
	tiny bool
	// corrupt flips a byte of one reference after set-up, so a run can
	// prove its correctness gate fails instead of passing.
	corrupt bool
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run performs its set-up; setup_s is the
// median, so one slow generation or server start does not decide it.
const setupRuns = 5

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for journals and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if cfg.seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	res, err := run(&cfg, os.Stdout)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(2)
}

// run performs one benchmark run, printing context lines to out, and
// returns the result line. An error means the run could not be carried
// out at all (bad flags, set-up failure); failed checks are in the result.
func run(cfg *config, out io.Writer) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir = dir

	fmt.Fprintf(out, "# workload %s seed %d seconds %g trace %t\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "# why %s\n", w.why)
	fmt.Fprintf(out, "# nproc %d GOMAXPROCS %d go %s data-dir-fs %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(dir))

	// Set up several times and keep the last; each earlier instance is
	// torn down before the next starts so they never share the machine.
	var setups []float64
	var inst instance
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		inst, err = w.setup(cfg, i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	if cfg.corrupt {
		inst.corruptReference()
	}

	res := &result{Metrics: map[string]metric{}}
	var lines []string
	if !cfg.trace {
		rss := startPeakSampler()
		loop := inst.loop(cfg.window(), false)
		peak := rss.finish()
		res.Attempted, res.Failed = loop.attempted, loop.failed
		res.Metrics["events_per_s"] = metric{loop.eventsPerSecond(), "events/s"}
		res.Metrics["close_to_report_p50_ms"] = metric{ms(loop.closeToReportP50()), "ms"}
		res.Metrics["peak_rss_mb"] = metric{peak, "MB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		lines = append(lines, loop.notes...)
	} else {
		loop := inst.loop(cfg.window(), true)
		res.Attempted, res.Failed = loop.attempted, loop.failed
		on, off := loop.modeRates()
		res.Metrics["tracing.events_per_s_on"] = metric{on, "events/s"}
		res.Metrics["tracing.events_per_s_off"] = metric{off, "events/s"}
		res.Metrics["tracing.overhead_ratio"] = metric{1 - on/off, "ratio"}
		sw := sweep(cfg, inst)
		res.Attempted += sw.attempted
		res.Failed += sw.failed
		for k, v := range sw.metrics {
			res.Metrics[k] = v
		}
		lines = append(lines, loop.notes...)
		lines = append(lines, sw.notes...)
		if err := writeSpans(cfg, w.name, append(loop.spans, sw.spans...)); err != nil {
			lines = append(lines, "spans not written: "+err.Error())
		}
	}
	res.Correct = res.Failed == 0
	for k, m := range res.Metrics {
		// A ratio over nothing (every job of a stage failed) is reported
		// as 0; the failures themselves are in the result.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
		}
	}
	lines = append(lines, fmt.Sprintf("failed_ratio %g ratio (%d of %d)", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted))
	for _, l := range lines {
		fmt.Fprintf(out, "# %s\n", l)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(out, "# metric %s %g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no job completed within %gs", cfg.seconds)
	}
	return res, nil
}

// writeSpans dumps a traced run's spans as JSON lines next to the binary
// (.bench_build/spans-<workload>-<seed>.jsonl), for self-time analysis.
func writeSpans(cfg *config, name string, spans []span) error {
	path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-%d.jsonl", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
