// Command raceload is the generator half of the capacity harness: an
// open-loop load generator that drives the real wire client against a
// live raced or racefleet target, measures client-side SLOs (session-open
// latency, flush-ack RTT, close-to-report latency), scrapes the servers'
// /metrics inline, and writes one raceload/v1 LOAD_*.json correlating
// both views — including the backpressure onset: the first ramp step
// where client flush-ack p99 crosses the SLO or typed rejections appear.
//
//	raced -tcp :7116 -http :7117 &
//	raceload -addr localhost:7116 -target localhost:7117 \
//	    -start-rps 2 -step-rps 2 -target-rps 12 -step-every 10s \
//	    -verify-sample 5 -o LOAD_run.json
//	racemon -check LOAD_run.json
//
// -search replaces the ramp with a saturation search: probe flat arrival
// rates (doubling climb, then bisection) until the maximum rate that
// holds the SLO is bracketed.
//
// -faults disk|net|flap is the fault-injection acceptance run: instead of
// dialing -addr it boots an in-process two-backend fleet (real TCP, real
// journals) with that seeded fault schedule armed, and streams every
// Table 1 cell (unless -analysis narrows it) through the chaos. The same
// seed replays the same schedule and the same session placement.
//
//	raceload -faults disk -seed 1 -mix dacapo:avrora,dacapo:xalan,dacapo:h2 \
//	    -target-rps 6 -duration 1s -session-events 40000 -flush-every 1024 \
//	    -verify-sample 6 -min-faults 1
//
// Exit status is the harness contract: 1 if any error was unclassified (a
// typed-error violation) or any -verify-sample session's report differed
// from a batch re-analysis of the same trace; otherwise 2 if a -faults
// run injected fewer than -min-faults faults (the run proved nothing);
// otherwise 0. Typed rejections and SLO breaches are *data*, not
// failures — a load test that finds the server's limit has succeeded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/race/loadgen"
)

type listFlag []string

func (t *listFlag) String() string { return strings.Join(*t, ",") }
func (t *listFlag) Set(v string) error {
	*t = append(*t, v)
	return nil
}

func main() {
	var targets, analyses listFlag
	var (
		addr           = flag.String("addr", "localhost:7116", "wire (TCP) address of raced or racefleet")
		scrapeInterval = flag.Duration("scrape-interval", time.Second, "embedded collector polling interval")
		startRPS       = flag.Float64("start-rps", 0, "ramp starting session-arrival rate (0 = flat at -target-rps)")
		stepRPS        = flag.Float64("step-rps", 0, "ramp increment per step")
		targetRPS      = flag.Float64("target-rps", 10, "final (held) session-arrival rate")
		stepEvery      = flag.Duration("step-every", 5*time.Second, "duration of each ramp step")
		duration       = flag.Duration("duration", 30*time.Second, "total run length including the ramp")
		sessionEvents  = flag.Int("session-events", 20000, "events per session trace")
		eventRate      = flag.Float64("event-rate", 0, "per-session event pacing in events/second (0 = unpaced)")
		flushEvery     = flag.Int("flush-every", 4096, "events between flush barriers")
		batch          = flag.Int("batch", 0, "wire client batch size (0 = client default)")
		retry          = flag.Bool("retry", false, "enable reconnect backoff on the wire client")
		maxInFlight    = flag.Int("max-inflight", 512, "max concurrent sessions; excess arrivals are dropped and counted")
		mixSpec        = flag.String("mix", "", "workload mix, e.g. dacapo:avrora=2,channels=1,random=1 (empty = default mix)")
		seed           = flag.Int64("seed", 1, "seed for trace generation and mix draws")
		sloFlushP99    = flag.Duration("slo-flush-p99", 250*time.Millisecond, "client flush-ack p99 SLO for onset detection and -search")
		verifySample   = flag.Int("verify-sample", 0, "re-run N sampled sessions through batch analysis and byte-compare reports")
		search         = flag.Bool("search", false, "saturation search: probe flat rates until the max sustainable RPS is bracketed")
		searchWindow   = flag.Duration("search-window", 10*time.Second, "flat-rate hold per search probe")
		searchMax      = flag.Float64("search-max", 4096, "search rate ceiling (safety rail)")
		faults         = flag.String("faults", "", "fault schedule (disk, net, or flap): run against an in-process faulty fleet instead of -addr")
		minFaults      = flag.Int64("min-faults", 1, "with -faults: fewest injected faults for a non-vacuous run (exit 2 below it)")
		out            = flag.String("o", "LOAD_raceload.json", "report output path")
		logLevel       = flag.String("log-level", "info", "log threshold: debug, info, warn, or error")
	)
	flag.Var(&targets, "target", "metrics endpoint as host:port or URL (repeatable)")
	flag.Var(&analyses, "analysis", "analysis name each session runs (repeatable; empty = server default)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	logger := obs.NewLogger(os.Stderr, level).With("component", "raceload")

	var mix []loadgen.MixEntry
	if *mixSpec != "" {
		mix, err = loadgen.ParseMix(*mixSpec)
		if err != nil {
			fatalf("%v", err)
		}
	}
	cfg := loadgen.Config{
		Addr:           *addr,
		Targets:        targets,
		ScrapeInterval: *scrapeInterval,
		StartRPS:       *startRPS,
		StepRPS:        *stepRPS,
		TargetRPS:      *targetRPS,
		StepEvery:      *stepEvery,
		Duration:       *duration,
		SessionEvents:  *sessionEvents,
		EventRate:      *eventRate,
		FlushEvery:     *flushEvery,
		BatchSize:      *batch,
		Retry:          *retry,
		MaxInFlight:    *maxInFlight,
		Mix:            mix,
		Analyses:       analyses,
		Seed:           *seed,
		SLOFlushP99:    *sloFlushP99,
		VerifySample:   *verifySample,
		Faults:         *faults,
		Logger:         logger,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var rep *loadgen.Report
	if *search {
		var res *loadgen.SearchResult
		rep, res, err = loadgen.Search(ctx, cfg, loadgen.SearchConfig{
			Window: *searchWindow,
			MaxRPS: *searchMax,
		})
		if err == nil {
			logger.Info("search done", "max_sustainable_rps", res.MaxSustainableRPS,
				"probes", len(res.Probes))
		}
	} else {
		rep, err = loadgen.Run(ctx, cfg)
	}
	if err != nil {
		fatalf("%v", err)
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o666); err != nil {
		fatalf("%v", err)
	}

	g := rep.Generator
	logger.Info("report written", "path", *out,
		"launched", g.SessionsLaunched, "completed", g.SessionsCompleted,
		"failed", g.SessionsFailed, "skipped", g.SessionsSkipped,
		"events_sent", g.EventsSent,
		"flush_p50_ms", g.FlushAckP50*1e3, "flush_p99_ms", g.FlushAckP99*1e3,
		"sustained_eps", rep.Summary.SustainedEventsPerSecond,
		"peak_eps", rep.Summary.PeakEventsPerSecond)
	if on := g.BackpressureOnset; on != nil {
		logger.Info("backpressure onset", "step", on.StepIndex, "rps", on.TargetRPS,
			"reason", on.Reason, "flush_p99_ms", on.FlushAckP99*1e3, "rejections", on.Rejections)
	}

	// The harness contract: untyped errors and report mismatches are
	// failures of the system (or the harness), never acceptable load results.
	exit := 0
	if g.Unclassified > 0 {
		logger.Error("unclassified errors (typed-error contract violation)",
			"count", g.Unclassified, "samples", strings.Join(g.UnclassifiedSamples, "; "))
		exit = 1
	}
	if v := g.Verify; v != nil && v.Matched != v.Sampled {
		logger.Error("sampled report verification failed",
			"sampled", v.Sampled, "matched", v.Matched, "mismatched", strings.Join(v.Mismatched, "; "))
		exit = 1
	}
	if f := g.Faults; f != nil {
		logger.Info("fault schedule", "schedule", f.Schedule, "seed", g.Seed, "injected", f.Injected)
		if f.Injected < *minFaults && exit == 0 {
			logger.Error("fault schedule injected too few faults; the run proved nothing",
				"injected", f.Injected, "min_faults", *minFaults)
			exit = 2
		}
	}
	os.Exit(exit)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "raceload: "+format+"\n", args...)
	os.Exit(1)
}
