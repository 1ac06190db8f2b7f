package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/race"
)

// workload is one named input set and the path it drives.
type benchWorkload struct {
	name string
	why  string
	// setup generates the inputs and references from the seed, starts
	// whatever serves them and warms up; k numbers the repetitions within
	// one run, so repeated set-ups never share a data directory.
	setup func(cfg *config, k int) (instance, error)
}

var workloads = []benchWorkload{
	{
		name: "offline-ccs",
		why: "xalan-shaped trace (38% non-same-epoch accesses, nearly all under two locks) decoded from bytes " +
			"through a GOMAXPROCS-parallel FTO-HB,ST-WCP,ST-DC,ST-WDC engine: decode, CCS analyses and fan-out " +
			"do the work; journal, wire and vindication do none",
		setup: setupOffline,
	},
	{
		name: "stream-wire",
		why: "nproc closed-loop clients stream avrora-shaped sessions over loopback TCP to an in-memory server " +
			"(ST-WDC, sequential engine, flush every 4096 events): cheap analysis, so wire and session queue " +
			"dominate; the journal is bypassed",
		setup: setupStream,
	},
	{
		name: "vindicate-wdc",
		why: "smaller xalan-shaped traces through an in-process ST-WDC engine with vindication: Close is almost " +
			"all graph replay and witness search, with both verified and unverified outcomes",
		setup: setupVindicate,
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// instance is one set-up workload, ready to run.
type instance interface {
	// loop drives the workload's main path for about d and checks every
	// report. With traced set, every other job records spans, so the run
	// can price its own tracing.
	loop(d time.Duration, traced bool) loopResult
	// layers names the inputs and engine configuration the traced sweep
	// prices layer by layer.
	layers() layerInputs
	// corruptReference damages one reference (the gate's self-test).
	corruptReference()
	close()
}

// layerInputs is what the traced sweep needs from a workload.
type layerInputs struct {
	traces []*race.Trace
	// engineOpts configures the workload's own engine for a trace.
	engineOpts func(tr *race.Trace) []race.Option
	// vindicate is how many of traces the vindication layer is priced on.
	vindicate int
}

// chunk is the number of events per feed call and between flush barriers
// (raceload's default flush cadence).
const chunk = 4096

// loopResult is what a main-path loop measured.
type loopResult struct {
	attempted, failed int
	// clients is the number of jobs that ran at once.
	clients int
	// perInput holds, by input, the jobs whose reports passed their check.
	perInput map[int]*inputJobs
	// busy and evs split per-job time and events by whether the job was
	// traced (index 1) or not (index 0).
	busy  [2]time.Duration
	evs   [2]int
	notes []string
	spans []span
}

// inputJobs is one input's passing jobs: its size, and each job's busy
// and close-to-report time.
type inputJobs struct {
	events      int
	busy, close []time.Duration
}

// eventsPerSecond is the loop's throughput: every input's events over its
// median job time, summed as if each input ran once, times the number of
// jobs running at once. Clients run jobs back to back, so this is events
// per wall second. Inputs differ in cost, so weighing each once (rather
// than by how often the window happened to repeat it) keeps the figure a
// property of the seed's input set, and the per-input median keeps a job
// slowed by a neighbour's burst from deciding the run.
func (l *loopResult) eventsPerSecond() float64 {
	events, secs := 0, 0.0
	for _, in := range l.perInput {
		events += in.events
		secs += percentile(in.busy, 50).Seconds()
	}
	return float64(l.clients) * float64(events) / secs
}

// closeToReportP50 is the median over inputs of each input's median time
// from the Close call to report bytes in hand.
func (l *loopResult) closeToReportP50() time.Duration {
	var per []float64
	for _, in := range l.perInput {
		per = append(per, float64(percentile(in.close, 50)))
	}
	return time.Duration(median(per))
}

// modeRates returns the events/s of traced and untraced jobs.
func (l *loopResult) modeRates() (on, off float64) {
	rate := func(i int) float64 {
		if l.busy[i] <= 0 {
			return 0
		}
		return float64(l.clients) * float64(l.evs[i]) / l.busy[i].Seconds()
	}
	return rate(1), rate(0)
}

// add records one finished job on the given input.
func (l *loopResult) add(input, events int, busy, closeDur time.Duration, traced bool, err error) {
	l.attempted++
	mode := 0
	if traced {
		mode = 1
	}
	l.busy[mode] += busy
	if err != nil {
		l.failed++
		if l.failed <= 3 {
			l.notes = append(l.notes, "FAILED: "+err.Error())
		}
		return
	}
	l.evs[mode] += events
	if l.perInput == nil {
		l.perInput = map[int]*inputJobs{}
	}
	in := l.perInput[input]
	if in == nil {
		in = &inputJobs{events: events}
		l.perInput[input] = in
	}
	in.busy = append(in.busy, busy)
	in.close = append(in.close, closeDur)
}

// jobOutput is what one sequential job hands back: its size, its
// close-to-report time, and its check, run after the job's clock stops.
type jobOutput struct {
	events   int
	closeDur time.Duration
	check    func() error
}

// pick chooses the input and tracing mode of a client's k-th job. Jobs
// cycle over the n inputs, clients interleaved; in a traced run each input
// runs twice in a row, untraced then traced, so both modes see the same
// inputs and the difference between them is the tracing alone.
func pick(k, client, clients, n int, traced bool) (input int, on bool) {
	if !traced {
		return (k*clients + client) % n, false
	}
	return ((k/2)*clients + client) % n, k%2 == 1
}

// seqLoop runs jobs back to back on one goroutine, cycling over n inputs,
// until d has passed and at least n jobs have run.
func seqLoop(d time.Duration, traced bool, n int, job func(i, id int, rec *recorder) (jobOutput, error)) loopResult {
	res := loopResult{clients: 1}
	origin := time.Now()
	rec := newRecorder(origin)
	deadline := origin.Add(d)
	for id := 0; id < n || time.Now().Before(deadline); id++ {
		i, on := pick(id, 0, 1, n, traced)
		var r *recorder
		if on {
			r = rec
		}
		// Collect the previous job's garbage outside the clock, so no job
		// pays for its predecessor's heap.
		runtime.GC()
		t0 := time.Now()
		out, err := job(i, id, r)
		busy := time.Since(t0)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			err = fmt.Errorf("job %d (input %d): %w", id, i, err)
		}
		res.add(i, out.events, busy, out.closeDur, on, err)
	}
	res.spans = rec.spans
	return res
}

// subSeed derives the seed of a workload's i-th input.
func subSeed(seed int64, i int) int64 { return seed*1009 + int64(i) }

// feedChunks feeds tr to eng in chunk-sized batches, one span per call.
func feedChunks(eng *race.Engine, tr *race.Trace, rec *recorder, id, parent int) error {
	for off := 0; off < len(tr.Events); off += chunk {
		batch := tr.Events[off:min(off+chunk, len(tr.Events))]
		h := rec.begin("engine.feed", id, parent)
		err := eng.FeedBatch(batch)
		rec.end(h, len(batch))
		if err != nil {
			return err
		}
	}
	return nil
}

// closeReport closes eng and serializes its report, returning the time
// from the Close call to report bytes in hand.
func closeReport(eng *race.Engine, rec *recorder, id, parent int) ([]byte, *race.Report, time.Duration, error) {
	t0 := time.Now()
	h := rec.begin("engine.close", id, parent)
	rep, err := eng.Close()
	rec.end(h, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	h = rec.begin("report.marshal", id, parent)
	doc, err := rep.MarshalJSON()
	rec.end(h, len(doc))
	return doc, rep, time.Since(t0), err
}
