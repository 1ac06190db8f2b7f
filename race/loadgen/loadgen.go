// Package loadgen is the generator half of the capacity harness (ROADMAP
// item 1): an open-loop load generator that drives the real wire client
// (server.OpenReliable) against a live raced or racefleet target, measures
// the SLOs only a client can see — session-open latency, flush-ack RTT,
// close-to-report latency — and correlates them with server-side queue
// depth and admission rejections by running the internal/obs/collect
// scraper inline. One run emits one raceload/v1 LOAD_*.json document.
//
// Open-loop means arrivals follow the configured schedule regardless of
// how the server is coping (the vhive/ReqBench discipline): a saturated
// backend shows up as rising client p99 and typed rejections, not as the
// generator politely slowing down. The only concession is MaxInFlight,
// which drops (and counts) arrivals rather than queueing them, so the
// generator machine itself cannot silently become the bottleneck.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/collect"
	"repro/internal/trace"
	"repro/race"
	"repro/race/server"
)

// Config parameterizes one load run. Zero values take the documented
// defaults.
type Config struct {
	// Addr is the wire (TCP) address sessions stream to — a raced backend
	// or a racefleet router. Required.
	Addr string
	// Targets are /metrics endpoints (host:port or URL) the embedded
	// collector scrapes for the server-side half of the report. Optional;
	// without targets the report carries only the client view.
	Targets []string
	// ScrapeInterval is the embedded collector's polling period (default 1s).
	ScrapeInterval time.Duration

	// The session-arrival ramp: StartRPS stepping by StepRPS every
	// StepEvery until TargetRPS, then holding TargetRPS until Duration has
	// elapsed (a Duration shorter than the ramp just runs the ramp).
	// StartRPS/StepRPS of 0 run a flat TargetRPS for Duration.
	StartRPS  float64
	StepRPS   float64
	TargetRPS float64
	StepEvery time.Duration
	Duration  time.Duration

	// SessionEvents sizes each session's trace (default 20000 events).
	SessionEvents int
	// EventRate paces each session's stream in events/second (0 = unpaced:
	// each session feeds as fast as the connection accepts).
	EventRate float64
	// FlushEvery is the events between flush barriers (default 4096) —
	// also the replay-buffer high-water mark.
	FlushEvery int
	// BatchSize tunes the wire client's frame batching (default
	// server.DefaultClientBatch).
	BatchSize int
	// Retry enables reconnect backoff (server.DefaultRetryPolicy) instead
	// of the single immediate reconnect.
	Retry bool
	// MaxInFlight bounds concurrently running sessions; arrivals beyond it
	// are dropped and counted, never queued (default 512).
	MaxInFlight int

	// Mix weights the workload classes (default DefaultMix).
	Mix []MixEntry
	// Analyses are the Table 1 analyses each session runs (empty = the
	// server default, SmartTrack-WDC).
	Analyses []string
	// Seed makes trace generation and mix draws repeatable (default 1).
	Seed int64

	// SLOFlushP99 is the client-side flush-ack p99 threshold for
	// backpressure-onset detection and -search (default 250ms).
	SLOFlushP99 time.Duration
	// VerifySample re-runs up to N completed sessions' traces through
	// batch Analyze and byte-compares reports (0 disables).
	VerifySample int

	// Faults, when one of FaultSchedules, runs the load against an
	// in-process two-backend fleet with that seeded fault schedule armed
	// (see faults.go) instead of Addr. Sessions then reconnect with
	// backoff, are named from Seed (so fleet placement is a function of
	// the seed), and run every Table 1 cell unless Analyses says
	// otherwise; the report counts the injected faults.
	Faults string

	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = time.Second
	}
	if c.SessionEvents <= 0 {
		c.SessionEvents = 20000
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = 4096
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 512
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SLOFlushP99 <= 0 {
		c.SLOFlushP99 = 250 * time.Millisecond
	}
	if c.StepEvery <= 0 {
		c.StepEvery = 5 * time.Second
	}
	if c.TargetRPS <= 0 {
		c.TargetRPS = 10
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(io.Discard, slog.LevelInfo)
	}
	return c
}

// stepPlan is one arrival-rate plateau of the ramp.
type stepPlan struct {
	rps float64
	dur time.Duration
}

// rampSteps expands the config into the step schedule: start → +step →
// target, each plateau lasting StepEvery, then a hold at target for
// whatever of Duration remains.
func rampSteps(cfg Config) []stepPlan {
	var steps []stepPlan
	var rampTime time.Duration
	if cfg.StartRPS > 0 && cfg.StepRPS > 0 && cfg.StartRPS < cfg.TargetRPS {
		for rps := cfg.StartRPS; rps < cfg.TargetRPS; rps += cfg.StepRPS {
			steps = append(steps, stepPlan{rps: rps, dur: cfg.StepEvery})
			rampTime += cfg.StepEvery
		}
	}
	hold := cfg.StepEvery
	if cfg.Duration > rampTime {
		hold = cfg.Duration - rampTime
	}
	steps = append(steps, stepPlan{rps: cfg.TargetRPS, dur: hold})
	return steps
}

// sessionSample is one completed session retained for -verify-sample.
type sessionSample struct {
	id     string
	mixKey string
	tr     *trace.Trace
	report []byte // server's canonical report bytes (CloseJSON)
}

// runner is one load run's mutable state.
type runner struct {
	cfg  Config
	pool *tracePool

	openH  *obs.Histogram // raceload_session_open_seconds
	flushH *obs.Histogram // raceload_flush_ack_seconds
	closeH *obs.Histogram // raceload_close_report_seconds

	launched   atomic.Uint64
	completed  atomic.Uint64
	failed     atomic.Uint64
	skipped    atomic.Uint64
	eventsSent atomic.Uint64

	mu           sync.Mutex
	errors       map[string]uint64
	unclassified uint64
	unclassSamp  []string

	sem     chan struct{}
	wg      sync.WaitGroup
	samples chan sessionSample
}

func newRunner(cfg Config, pool *tracePool) *runner {
	reg := obs.NewRegistry()
	r := &runner{
		cfg:  cfg,
		pool: pool,
		openH: reg.Histogram("raceload_session_open_seconds",
			"Client-observed OpenReliable latency (dial + handshake).", obs.LatencyBuckets()),
		flushH: reg.Histogram("raceload_flush_ack_seconds",
			"Client-observed flush-barrier round trip.", obs.LatencyBuckets()),
		closeH: reg.Histogram("raceload_close_report_seconds",
			"Client-observed close-to-report latency (drain + analyze tail + report marshal).", obs.LatencyBuckets()),
		errors:  make(map[string]uint64),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		samples: make(chan sessionSample, cfg.VerifySample),
	}
	return r
}

// maxUnclassifiedSamples bounds the retained messages: enough to diagnose
// a contract violation, not enough to bloat the report.
const maxUnclassifiedSamples = 8

func (r *runner) countError(op string, err error) {
	class := server.Classify(err)
	r.cfg.Logger.Debug("session op failed", "op", op, "class", class, "err", err)
	r.mu.Lock()
	defer r.mu.Unlock()
	if class == "" {
		r.unclassified++
		if len(r.unclassSamp) < maxUnclassifiedSamples {
			r.unclassSamp = append(r.unclassSamp, fmt.Sprintf("%s: %v", op, err))
		}
		return
	}
	r.errors[class]++
}

// errorsSnapshot copies the per-class counts (for step deltas).
func (r *runner) errorsSnapshot() (map[string]uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.errors))
	for k, v := range r.errors {
		out[k] = v
	}
	return out, r.unclassified
}

// runSession drives one session end to end: open, paced feed with flush
// barriers, close-with-report. Failures classify into exactly one error
// class and fail the session; there are no silent drops.
func (r *runner) runSession(ctx context.Context, id string, tr *trace.Trace, mixKey string, sampled bool) {
	defer r.wg.Done()
	defer func() { <-r.sem }()

	var opts []server.ReliableOption
	if r.cfg.Retry {
		opts = append(opts, server.WithRetry(server.RetryPolicy{}))
	}
	if r.cfg.BatchSize > 0 {
		opts = append(opts, server.WithReliableBatchSize(r.cfg.BatchSize))
	}
	if id != "" {
		opts = append(opts, server.WithSessionID(id))
	}
	scfg := server.SessionConfig{Analyses: r.cfg.Analyses, Hints: race.HintsOf(tr)}

	t0 := time.Now()
	rs, err := server.OpenReliable(ctx, r.cfg.Addr, scfg, opts...)
	if err != nil {
		r.countError("open", err)
		r.failed.Add(1)
		return
	}
	r.openH.ObserveDuration(time.Since(t0))

	// Pace in flush-sized chunks: the per-chunk budget realizes EventRate
	// without a timer per event.
	var chunkBudget time.Duration
	if r.cfg.EventRate > 0 {
		chunkBudget = time.Duration(float64(r.cfg.FlushEvery) / r.cfg.EventRate * float64(time.Second))
	}
	for lo := 0; lo < len(tr.Events); lo += r.cfg.FlushEvery {
		hi := lo + r.cfg.FlushEvery
		if hi > len(tr.Events) {
			hi = len(tr.Events)
		}
		chunkStart := time.Now()
		if err := rs.FeedBatch(tr.Events[lo:hi]); err != nil {
			r.countError("feed", err)
			r.failed.Add(1)
			rs.Release()
			return
		}
		fStart := time.Now()
		if err := rs.Flush(); err != nil {
			r.countError("flush", err)
			r.failed.Add(1)
			rs.Release()
			return
		}
		r.flushH.ObserveDuration(time.Since(fStart))
		r.eventsSent.Add(uint64(hi - lo))
		if chunkBudget > 0 {
			if sleep := chunkBudget - time.Since(chunkStart); sleep > 0 {
				select {
				case <-time.After(sleep):
				case <-ctx.Done():
					rs.Release()
					r.countError("pace", ctx.Err())
					r.failed.Add(1)
					return
				}
			}
		}
	}

	cStart := time.Now()
	doc, err := rs.CloseJSON()
	if err != nil {
		r.countError("close", err)
		r.failed.Add(1)
		return
	}
	r.closeH.ObserveDuration(time.Since(cStart))
	r.completed.Add(1)
	if sampled {
		select {
		case r.samples <- sessionSample{id: rs.ID(), mixKey: mixKey, tr: tr, report: doc}:
		default: // sample buffer full — the quota was already met
		}
	}
}

// Run executes the configured ramp and returns the raceload/v1 report.
// The returned error covers harness-level failures (bad config); load
// failures are data, reported in the document.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	var faults *faultFleet
	if cfg.Faults != "" {
		var err error
		if faults, err = startFaultFleet(cfg.Faults, uint64(cfg.Seed), cfg.Logger); err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		defer faults.close()
		cfg.Addr = faults.addr
		cfg.Retry = true
		if len(cfg.Analyses) == 0 {
			cfg.Analyses = race.Detectors()
		}
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("loadgen: no wire address")
	}
	pool, err := buildPool(cfg.Mix, cfg.SessionEvents, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	r := newRunner(cfg, pool)
	steps := rampSteps(cfg)

	// Embedded collector: the server-side half of the report.
	urls := make([]string, len(cfg.Targets))
	for i, t := range cfg.Targets {
		urls[i] = collect.NormalizeTarget(t)
	}
	rep := &Report{Report: collect.Report{
		Schema:          collect.LoadSchemaVersion,
		IntervalSeconds: cfg.ScrapeInterval.Seconds(),
		Targets:         urls,
	}}
	col := collect.New(&rep.Report)
	colDone := make(chan struct{})
	colStop := make(chan struct{})
	if len(urls) > 0 {
		client := &http.Client{Timeout: cfg.ScrapeInterval}
		go func() {
			defer close(colDone)
			tick := time.NewTicker(cfg.ScrapeInterval)
			defer tick.Stop()
			for {
				samples := make(map[string]collect.TargetSample, len(urls))
				for _, u := range urls {
					s, err := collect.Scrape(client, u)
					if err != nil {
						cfg.Logger.Warn("scrape failed", "target", u, "err", err)
						rep.Summary.ScrapeErrors++
						samples[u] = collect.TargetSample{Up: false}
						continue
					}
					samples[u] = s
				}
				col.Record(time.Now(), samples)
				select {
				case <-tick.C:
				case <-colStop:
					return
				}
			}
		}()
	} else {
		close(colDone)
	}

	// Sample roughly evenly across the whole run: expected arrivals over
	// the schedule divided by the quota gives the sampling period.
	var expected float64
	for _, st := range steps {
		expected += st.rps * st.dur.Seconds()
	}
	samplePeriod := uint64(1)
	if cfg.VerifySample > 0 && expected > float64(cfg.VerifySample) {
		samplePeriod = uint64(expected) / uint64(cfg.VerifySample)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	cfg.Logger.Info("load starting", "addr", cfg.Addr, "steps", len(steps),
		"target_rps", cfg.TargetRPS, "session_events", cfg.SessionEvents, "mix", describeMix(cfg.Mix))

	// The arrival loop. Open-loop: each step's arrival times are fixed by
	// its rate; a slow server never slows the schedule down.
	stepStats := make([]StepStats, 0, len(steps))
	for i, st := range steps {
		stepStart := time.Now()
		stepEnd := stepStart.Add(st.dur)
		interval := time.Duration(float64(time.Second) / st.rps)

		preOpen, preFlush := r.openH.Value(), r.flushH.Value()
		preErrs, _ := r.errorsSnapshot()
		preLaunched, preCompleted := r.launched.Load(), r.completed.Load()
		preFailed, preSkipped := r.failed.Load(), r.skipped.Load()
		preEvents := r.eventsSent.Load()

		next := stepStart
		for time.Now().Before(stepEnd) && ctx.Err() == nil {
			if wait := time.Until(next); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil || !time.Now().Before(stepEnd) {
				break
			}
			next = next.Add(interval)

			mix, tr := pool.pick(rng)
			idx := r.launched.Add(1)
			sampled := cfg.VerifySample > 0 && (idx-1)%samplePeriod == 0
			var id string
			if faults != nil {
				id = fmt.Sprintf("load-%d-%d", cfg.Seed, idx)
			}
			select {
			case r.sem <- struct{}{}:
				r.wg.Add(1)
				go r.runSession(ctx, id, tr, mix.Key(), sampled)
			default:
				r.skipped.Add(1)
			}
		}

		// Step boundary: interval statistics are snapshot deltas.
		postOpen, postFlush := r.openH.Value(), r.flushH.Value()
		postErrs, _ := r.errorsSnapshot()
		dFlush := postFlush.Sub(preFlush)
		dErrs := make(map[string]uint64)
		for k, v := range postErrs {
			if d := v - preErrs[k]; d > 0 {
				dErrs[k] = d
			}
		}
		ss := StepStats{
			Index:       i,
			TargetRPS:   st.rps,
			StartUnix:   float64(stepStart.UnixNano()) / 1e9,
			EndUnix:     float64(time.Now().UnixNano()) / 1e9,
			Launched:    r.launched.Load() - preLaunched,
			Completed:   r.completed.Load() - preCompleted,
			Failed:      r.failed.Load() - preFailed,
			Skipped:     r.skipped.Load() - preSkipped,
			EventsSent:  r.eventsSent.Load() - preEvents,
			FlushCount:  dFlush.Count,
			FlushAckP50: dFlush.Quantile(0.50),
			FlushAckP99: dFlush.Quantile(0.99),
			OpenP99:     postOpen.Sub(preOpen).Quantile(0.99),
			Rejections:  dErrs["full"] + dErrs["draining"],
			Errors:      dErrs,
		}
		stepStats = append(stepStats, ss)
		cfg.Logger.Info("step done", "step", i, "rps", st.rps,
			"launched", ss.Launched, "failed", ss.Failed,
			"flush_p99_ms", ss.FlushAckP99*1e3, "rejections", ss.Rejections)
		if ctx.Err() != nil {
			break
		}
	}

	// Drain: every launched session runs to completion (or typed failure)
	// so the error accounting and verification see the whole run.
	r.wg.Wait()
	close(colStop)
	<-colDone
	col.Finish()

	openV, flushV, closeV := r.openH.Value(), r.flushH.Value(), r.closeH.Value()
	errsFinal, unclass := r.errorsSnapshot()
	r.mu.Lock()
	unclassSamp := append([]string(nil), r.unclassSamp...)
	r.mu.Unlock()

	var rampTime time.Duration
	for _, st := range steps {
		rampTime += st.dur
	}
	rep.Generator = Generator{
		Addr:            cfg.Addr,
		Mix:             describeMix(cfg.Mix),
		RampStartRPS:    cfg.StartRPS,
		RampStepRPS:     cfg.StepRPS,
		RampTargetRPS:   cfg.TargetRPS,
		StepSeconds:     cfg.StepEvery.Seconds(),
		DurationSeconds: rampTime.Seconds(),
		SessionEvents:   cfg.SessionEvents,
		EventRate:       cfg.EventRate,
		Seed:            cfg.Seed,

		SessionsLaunched:  r.launched.Load(),
		SessionsCompleted: r.completed.Load(),
		SessionsFailed:    r.failed.Load(),
		SessionsSkipped:   r.skipped.Load(),
		EventsSent:        r.eventsSent.Load(),

		OpenP50:        openV.Quantile(0.50),
		OpenP99:        openV.Quantile(0.99),
		FlushAckP50:    flushV.Quantile(0.50),
		FlushAckP99:    flushV.Quantile(0.99),
		CloseReportP50: closeV.Quantile(0.50),
		CloseReportP99: closeV.Quantile(0.99),

		Errors:              errsFinal,
		Unclassified:        unclass,
		UnclassifiedSamples: unclassSamp,

		Steps:             stepStats,
		BackpressureOnset: detectOnset(stepStats, cfg.SLOFlushP99),
	}

	if cfg.VerifySample > 0 {
		close(r.samples)
		var samples []sessionSample
		for s := range r.samples {
			samples = append(samples, s)
		}
		rep.Generator.Verify = verifySamples(samples, cfg.Analyses, cfg.Logger)
	}
	if faults != nil {
		rep.Generator.Faults = &FaultStats{Schedule: cfg.Faults, Injected: faults.injected()}
	}
	return rep, nil
}

// verifySamples re-runs each sampled session's trace through in-process
// batch analysis and byte-compares the canonical report JSON against what
// the server returned at close — the load harness's answer to "fast but
// wrong": a green load run with mismatched reports fails.
func verifySamples(samples []sessionSample, analyses []string, logger *slog.Logger) *VerifyResult {
	res := &VerifyResult{Sampled: len(samples)}
	for _, s := range samples {
		want, err := race.AnalyzeJSON(s.tr, race.WithAnalysisNames(analyses...))
		if err != nil {
			res.Mismatched = append(res.Mismatched, s.id+": batch analysis: "+err.Error())
			continue
		}
		if !bytes.Equal(s.report, want) {
			logger.Warn("report mismatch", "session", s.id, "workload", s.mixKey)
			res.Mismatched = append(res.Mismatched, s.id)
			continue
		}
		res.Matched++
	}
	return res
}
