package bench

// Machine-readable benchmark output: `racebench -json` serializes the full
// table measurements plus the engine fan-out throughput comparison into one
// JSON document, so the repository's performance trajectory is diffable
// across PRs (the checked-in BENCH_*.json files).
//
// Schema ("racebench/v1"):
//
//	{
//	  "schema":   "racebench/v1",
//	  "goos":     "linux", "goarch": "amd64",
//	  "cpus":      <GOMAXPROCS>, "num_cpu": <machine cores>, "go": "go1.24",
//	  "scale":     <event-count divisor>, "trials": <n>, "seed": <s>,
//	  "programs": [             // one entry per DaCapo-calibrated workload
//	    {"name": "avrora", "events": N, "baseline_ns": B,
//	     "cells": {             // one entry per measured analysis
//	       "ST-WDC": {"slowdown_mean": .., "slowdown_ci": ..,
//	                  "memory_mean": .., "memory_ci": ..,
//	                  "static": .., "dynamic": .., "ns_per_event": ..}}}],
//	  "single_analysis": [      // per-cell single-analysis cost (avrora)
//	    {"name": "ST-WDC", "events": N, "ns_per_event": ..,
//	     "allocs_per_op": .., "bytes_per_op": ..}],
//	  "fanout": {               // all-cells engine throughput
//	    "analyses": [..], "events": N, "parallelism": P,
//	    "batch": K,             // race.BatchSize, the fixed pipeline batch
//	    "sequential_ns": .., "parallel_ns": ..,
//	    "sequential_events_per_sec": .., "parallel_events_per_sec": ..,
//	    "speedup": ..}
//	}
//
// Slowdown/memory factors have the same meaning as the rendered tables
// (run time over uninstrumented replay; data+metadata over data).
// "speedup" is sequential_ns / parallel_ns for the same all-cells fan-out
// on the same trace — the number the PR acceptance criteria track (≥2×
// with parallelism = GOMAXPROCS on ≥4 cores; on fewer cores the pipeline
// only hides coordination, and the JSON records whatever was measured).

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/race"
)

// JSONReport is the root document of the racebench -json output.
type JSONReport struct {
	Schema string `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUs is the effective parallelism budget (GOMAXPROCS); NumCPU is the
	// machine's core count. They differ when GOMAXPROCS is pinned below the
	// hardware, which is exactly the case multi-core trend lines must see
	// to interpret the fan-out speedup.
	CPUs   int    `json:"cpus"`
	NumCPU int    `json:"num_cpu,omitempty"`
	Go     string `json:"go"`
	Scale  int    `json:"scale"`
	Trials int    `json:"trials"`
	Seed   int64  `json:"seed"`
	Unix   int64  `json:"unix,omitempty"`

	Programs       []JSONProgram      `json:"programs"`
	SingleAnalysis []JSONAnalysisCost `json:"single_analysis"`
	Fanout         *JSONFanout        `json:"fanout,omitempty"`
}

// JSONProgram carries one workload's measured cells.
type JSONProgram struct {
	Name       string              `json:"name"`
	Events     int                 `json:"events"`
	BaselineNs float64             `json:"baseline_ns"`
	Cells      map[string]JSONCell `json:"cells"`
}

// JSONCell is one analysis × program measurement.
type JSONCell struct {
	SlowdownMean float64 `json:"slowdown_mean"`
	SlowdownCI   float64 `json:"slowdown_ci,omitempty"`
	MemoryMean   float64 `json:"memory_mean"`
	MemoryCI     float64 `json:"memory_ci,omitempty"`
	Static       float64 `json:"static"`
	Dynamic      float64 `json:"dynamic"`
	NsPerEvent   float64 `json:"ns_per_event"`
}

// JSONAnalysisCost is the single-analysis hot-path cost of one Table 1
// cell: one full walk of the reference trace with allocation accounting.
type JSONAnalysisCost struct {
	Name        string  `json:"name"`
	Events      int     `json:"events"`
	NsPerEvent  float64 `json:"ns_per_event"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// JSONFanout is the multi-analysis engine throughput comparison.
type JSONFanout struct {
	Analyses      []string `json:"analyses"`
	Events        int      `json:"events"`
	Parallelism   int      `json:"parallelism"`
	Batch         int      `json:"batch"`
	SequentialNs  int64    `json:"sequential_ns"`
	ParallelNs    int64    `json:"parallel_ns"`
	SequentialEPS float64  `json:"sequential_events_per_sec"`
	ParallelEPS   float64  `json:"parallel_events_per_sec"`
	Speedup       float64  `json:"speedup"`
}

// MeasureEngine times one full pass of tr through an engine running the
// named analyses at the given parallelism (1 = sequential), returning the
// wall-clock duration of Feed-to-Close.
func MeasureEngine(tr *trace.Trace, names []string, parallelism int) (time.Duration, error) {
	eng, err := race.NewEngine(
		race.WithAnalysisNames(names...),
		race.WithCapacityHints(race.HintsOf(tr)),
		race.WithParallelism(parallelism),
		race.WithUncheckedInput(),
	)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := eng.FeedTrace(tr); err != nil {
		return 0, err
	}
	if _, err := eng.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// MeasureFanout compares sequential vs parallel all-cells engine
// throughput over tr. parallelism ≤ 0 selects GOMAXPROCS.
func MeasureFanout(tr *trace.Trace, names []string, parallelism int) (*JSONFanout, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	// Record the effective configuration, not the requested one, so
	// trajectory points stay comparable across PRs even if defaults move.
	parallelism = min(parallelism, len(names))
	// One warm-up pass primes id interning and page tables out of the
	// measured runs' first-touch costs.
	if _, err := MeasureEngine(tr, names, 1); err != nil {
		return nil, err
	}
	best := func(par int) (time.Duration, error) {
		bestD := time.Duration(0)
		for i := 0; i < 3; i++ {
			d, err := MeasureEngine(tr, names, par)
			if err != nil {
				return 0, err
			}
			if bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return bestD, nil
	}
	seq, err := best(1)
	if err != nil {
		return nil, err
	}
	par, err := best(parallelism)
	if err != nil {
		return nil, err
	}
	eps := func(d time.Duration) float64 {
		if d <= 0 {
			return 0
		}
		return float64(tr.Len()) / d.Seconds()
	}
	f := &JSONFanout{
		Analyses:      names,
		Events:        tr.Len(),
		Parallelism:   parallelism,
		Batch:         race.BatchSize,
		SequentialNs:  seq.Nanoseconds(),
		ParallelNs:    par.Nanoseconds(),
		SequentialEPS: eps(seq),
		ParallelEPS:   eps(par),
	}
	if par > 0 {
		f.Speedup = float64(seq) / float64(par)
	}
	return f, nil
}

// MeasureSingleAnalysisCosts walks tr once per registered analysis,
// recording per-event time and heap allocation counts (runtime.MemStats
// deltas around the walk, GC quiesced first).
func MeasureSingleAnalysisCosts(tr *trace.Trace) []JSONAnalysisCost {
	var out []JSONAnalysisCost
	spec := analysis.SpecOf(tr)
	for _, entry := range analysis.All() {
		a := entry.New(spec)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for _, e := range tr.Events {
			a.Handle(e)
		}
		dur := time.Since(start)
		runtime.ReadMemStats(&after)
		out = append(out, JSONAnalysisCost{
			Name:        entry.Name,
			Events:      tr.Len(),
			NsPerEvent:  float64(dur.Nanoseconds()) / float64(max(tr.Len(), 1)),
			AllocsPerOp: float64(after.Mallocs - before.Mallocs),
			BytesPerOp:  float64(after.TotalAlloc - before.TotalAlloc),
		})
	}
	return out
}

// BuildJSON runs the full measurement suite for -json: every grid and
// baseline analysis over the configured workloads, single-analysis costs,
// and the fan-out throughput comparison (over the avrora-calibrated
// workload at referenceTrace's fixed 1/8000 scale so the number is
// comparable across machines and PRs at different table scales).
func BuildJSON(cfg Config, parallelism int) (*JSONReport, error) {
	cfg = cfg.withDefaults()
	names := append(append([]string(nil), GridNames...), "FT2", "Unopt-DC w/G", "Unopt-WCP w/G", "Unopt-WDC w/G")
	rep := &JSONReport{
		Schema: "racebench/v1",
		GOOS:   runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		Scale: cfg.ScaleDiv, Trials: cfg.Trials, Seed: cfg.Seed,
		Unix: time.Now().Unix(),
	}
	for _, pr := range Run(cfg, names) {
		jp := JSONProgram{
			Name:       pr.Program.Name,
			Events:     pr.Events,
			BaselineNs: float64(pr.Baseline.Nanoseconds()),
			Cells:      make(map[string]JSONCell, len(pr.Cells)),
		}
		for name, c := range pr.Cells {
			jp.Cells[name] = JSONCell{
				SlowdownMean: c.Slowdown.Mean, SlowdownCI: c.Slowdown.CI,
				MemoryMean: c.Memory.Mean, MemoryCI: c.Memory.CI,
				Static: c.Static.Mean, Dynamic: c.Dynamic.Mean,
				NsPerEvent: c.Slowdown.Mean * jp.BaselineNs / float64(max(pr.Events, 1)),
			}
		}
		rep.Programs = append(rep.Programs, jp)
	}
	ref := referenceTrace()
	rep.SingleAnalysis = MeasureSingleAnalysisCosts(ref)
	all := make([]string, 0, len(analysis.All()))
	for _, e := range analysis.All() {
		all = append(all, e.Name)
	}
	fanout, err := MeasureFanout(ref, all, parallelism)
	if err != nil {
		return nil, err
	}
	rep.Fanout = fanout
	return rep, nil
}

// referenceTrace is the fixed-scale avrora workload used for the
// single-analysis and fan-out measurements: 1/8000 of the paper's event
// count (~175k events) is big enough for stable wall-clock numbers and
// small enough to regenerate per run.
func referenceTrace() *trace.Trace {
	p, _ := workload.ProgramByName("avrora")
	return p.Generate(8000, 1)
}

// WriteJSON serializes rep with stable indentation.
func WriteJSON(w io.Writer, rep *JSONReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
