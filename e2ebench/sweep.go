package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/race"
)

// sweepResult is the traced run's layer-by-layer pricing.
type sweepResult struct {
	metrics           map[string]metric
	attempted, failed int
	notes             []string
	spans             []span
}

// sweeper prices each layer on one workload's inputs, calling into one
// layer (or one more rung of layers) at a time.
type sweeper struct {
	cfg   *config
	in    layerInputs
	rec   *recorder
	stage time.Duration // minimum measured time per stage
	res   sweepResult
}

// sweep runs every stage. Each stage cycles over the inputs until it has
// measured for about a second.
func sweep(cfg *config, inst instance) sweepResult {
	s := &sweeper{
		cfg:   cfg,
		in:    inst.layers(),
		rec:   newRecorder(time.Now()),
		stage: time.Second,
		res:   sweepResult{metrics: map[string]metric{}},
	}
	if cfg.tiny {
		s.stage = 20 * time.Millisecond
	}
	s.decode()
	s.engine()
	s.fanOut()
	s.analyses()
	s.vindicate()
	s.ladder()
	s.res.spans = s.rec.spans
	return s.res
}

func (s *sweeper) set(name string, v float64, unit string) { s.res.metrics[name] = metric{v, unit} }

// check counts one checked output.
func (s *sweeper) check(what string, err error) {
	s.res.attempted++
	if err != nil {
		s.res.failed++
		s.res.notes = append(s.res.notes, fmt.Sprintf("FAILED: %s: %v", what, err))
	}
}

// each runs job on the inputs in turn, cycling, until budget has passed
// (at least one job).
func (s *sweeper) each(budget time.Duration, job func(k int, tr *race.Trace)) {
	t0 := time.Now()
	for k := 0; k == 0 || time.Since(t0) < budget; k++ {
		job(k, s.in.traces[k%len(s.in.traces)])
	}
}

// decode prices the trace codec: Decoder.Next over each input's binary
// encoding, one span per chunk-sized batch.
func (s *sweeper) decode() {
	var bins [][]byte
	for _, tr := range s.in.traces {
		var buf bytes.Buffer
		if err := race.WriteTrace(&buf, tr); err != nil {
			s.check("encoding an input", err)
			return
		}
		bins = append(bins, buf.Bytes())
	}
	batch := make([]race.Event, 0, chunk)
	s.each(s.stage, func(k int, tr *race.Trace) {
		dec := race.NewTraceDecoder(bytes.NewReader(bins[k%len(bins)]))
		n := 0
		for eof := false; !eof; {
			h := s.rec.begin("trace.decode", k, -1)
			batch = batch[:0]
			for len(batch) < chunk {
				ev, err := dec.Next()
				if errors.Is(err, io.EOF) {
					eof = true
					break
				}
				if err != nil {
					s.check("decoding an input", err)
					return
				}
				batch = append(batch, ev)
			}
			s.rec.end(h, len(batch))
			n += len(batch)
		}
		if k < len(bins) {
			s.check("decoding an input", countErr(n, tr.Len()))
		}
	})
	d, n, _ := total(s.rec.spans, "trace.decode")
	s.set("trace.decode_ns_per_event", float64(d)/float64(n), "ns")
}

func countErr(got, want int) error {
	if got != want {
		return fmt.Errorf("decoded %d events, want %d", got, want)
	}
	return nil
}

// engine prices the workload's own engine configuration in process:
// feed, Close, allocation during feed, and report serialization.
func (s *sweeper) engine() {
	var alloc uint64
	events := 0
	s.each(s.stage, func(k int, tr *race.Trace) {
		eng, err := race.NewEngine(s.in.engineOpts(tr)...)
		if err != nil {
			s.check("building the engine", err)
			return
		}
		before := totalAlloc()
		err = feedChunks(eng, tr, s.rec, k, -1)
		alloc += totalAlloc() - before
		if err != nil {
			eng.Abort()
			s.check("feeding the engine", err)
			return
		}
		_, _, _, err = closeReport(eng, s.rec, k, -1)
		s.check("closing the engine", err)
		events += tr.Len()
	})
	s.set("engine.feed_s", percentile(perJob(s.rec.spans, "engine.feed"), 50).Seconds(), "s")
	s.set("engine.close_s", percentile(durations(s.rec.spans, "engine.close"), 50).Seconds(), "s")
	s.set("engine.alloc_bytes_per_event", float64(alloc)/float64(events), "B")
	s.set("report.marshal_s", percentile(durations(s.rec.spans, "report.marshal"), 50).Seconds(), "s")
	_, size, count := total(s.rec.spans, "report.marshal")
	s.set("report.bytes", float64(size)/float64(count), "B")
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fanOut prices the parallel fan-out: the four-analysis engine run
// sequentially and at GOMAXPROCS on the same inputs, alternating.
func (s *sweeper) fanOut() {
	run := func(tr *race.Trace, par int) time.Duration {
		opts := []race.Option{race.WithAnalysisNames(fanOut...), race.WithCapacityHints(race.HintsOf(tr))}
		if par > 1 {
			opts = append(opts, race.WithParallelism(par))
		}
		t0 := time.Now()
		eng, err := race.NewEngine(opts...)
		if err == nil {
			err = feedChunks(eng, tr, nil, 0, -1)
			if err == nil {
				_, err = eng.Close()
			} else {
				eng.Abort()
			}
		}
		if err != nil {
			s.check("fan-out engine", err)
		}
		return time.Since(t0)
	}
	var seq, par time.Duration
	jobs := 0
	s.each(2*s.stage, func(_ int, tr *race.Trace) {
		seq += run(tr, 1)
		par += run(tr, runtime.GOMAXPROCS(0))
		jobs++
	})
	s.set("engine.seq_s", seq.Seconds()/float64(jobs), "s")
	s.set("engine.par_s", par.Seconds()/float64(jobs), "s")
	s.set("engine.parallel_speedup", float64(seq)/float64(par), "x")
}

// analyses prices each detector of the fan-out alone, driven through
// race.New and Handle, with its retained metadata at the end.
func (s *sweeper) analyses() {
	cells := map[string]race.DetectorInfo{}
	for _, d := range race.DetectorTable() {
		cells[d.Name] = d
	}
	for _, name := range fanOut {
		cell := cells[name]
		var busy time.Duration
		events, words, runs := 0, 0, 0
		s.each(s.stage/time.Duration(len(fanOut)), func(_ int, tr *race.Trace) {
			det, err := race.New(tr, cell.Relation, cell.Level)
			if err != nil {
				s.check("building "+name, err)
				return
			}
			h := s.rec.begin("analysis."+name, 0, -1)
			t0 := time.Now()
			for _, ev := range tr.Events {
				det.Handle(ev)
			}
			busy += time.Since(t0)
			s.rec.end(h, tr.Len())
			events += tr.Len()
			words += det.MetadataWeight()
			runs++
		})
		s.set("analysis."+name+".ns_per_event", float64(busy)/float64(events), "ns")
		s.set("analysis."+name+".metadata_words", float64(words)/float64(runs), "words")
	}
}

// vindicate prices vindication on the first in.vindicate inputs: the
// graph-building detector alone, then a vindicating engine's Close, whose
// remainder is the witness search. Every verified witness is checked.
func (s *sweeper) vindicate() {
	var graph, closeDur time.Duration
	var alloc uint64
	var sum vindication
	for _, tr := range s.in.traces[:s.in.vindicate] {
		// Unopt-WDC w/G: the graph-building detector vindication replays.
		det, err := race.New(tr, race.WDC, race.UnoptG)
		if err != nil {
			s.check("building the graph-building detector", err)
			return
		}
		h := s.rec.begin("vindicate.graph_build", 0, -1)
		t0 := time.Now()
		for _, ev := range tr.Events {
			det.Handle(ev)
		}
		graph += time.Since(t0)
		s.rec.end(h, tr.Len())

		ref, err := race.Analyze(tr, race.WDC, race.SmartTrack)
		if err != nil {
			s.check("reference analysis", err)
			return
		}
		eng, err := race.NewEngine(vindicateOpts(tr)...)
		if err != nil {
			s.check("building the vindicating engine", err)
			return
		}
		if err := feedChunks(eng, tr, nil, 0, -1); err != nil {
			eng.Abort()
			s.check("feeding the vindicating engine", err)
			return
		}
		before := totalAlloc()
		h = s.rec.begin("vindicate.close", 0, -1)
		t0 = time.Now()
		rep, err := eng.Close()
		closeDur += time.Since(t0)
		s.rec.end(h, 0)
		alloc += totalAlloc() - before
		if err != nil {
			s.check("vindicating", err)
			return
		}
		out, err := checkVindication(tr, rep, ref.Races())
		s.check("vindication", err)
		sum.attempts += out.attempts
		sum.verified += out.verified
	}
	s.set("vindicate.graph_build_s", graph.Seconds(), "s")
	s.set("vindicate.search_s", (closeDur - graph).Seconds(), "s")
	s.set("vindicate.attempts", float64(sum.attempts), "count")
	s.set("vindicate.verified", float64(sum.verified), "count")
	s.set("vindicate.verified_ratio", float64(sum.verified)/float64(max(sum.attempts, 1)), "ratio")
	s.set("vindicate.alloc_bytes_per_attempt", float64(alloc)/float64(max(sum.attempts, 1)), "B")
}

// ladder pushes the inputs, as ST-WDC sessions with a flush every chunk,
// through rungs that each add one layer to the one below — engine,
// in-process session, then either a journal (session plus DataDir) or the
// wire (session plus loopback TCP, stream-wire's path) — each with nproc
// closed-loop clients. The difference between a rung and the session rung
// prices its layer.
func (s *sweeper) ladder() {
	refs := make([][]byte, len(s.in.traces))
	for i, tr := range s.in.traces {
		ref, err := batchWDC(tr)
		if err != nil {
			s.check("reference analysis", err)
			return
		}
		refs[i] = ref
	}
	rung := func(name string, budget time.Duration, session func(tr *race.Trace, id int, rec *recorder) (sessionOutput, error)) clientResult {
		r := clientLoop(budget, false, s.in.traces, refs, session)
		s.res.attempted += r.attempted
		s.res.failed += r.failed
		for _, n := range r.notes {
			s.res.notes = append(s.res.notes, "ladder."+name+": "+n)
		}
		s.set("ladder."+name, r.eventsPerSecond(), "events/s")
		return r
	}

	rung("engine", s.stage, func(tr *race.Trace, id int, rec *recorder) (sessionOutput, error) {
		eng, err := race.NewEngine()
		if err != nil {
			return sessionOutput{}, err
		}
		out, err := streamChunks(tr, id, rec, eng.FeedBatch, eng.Sync, func() ([]byte, error) {
			rep, err := eng.Close()
			if err != nil {
				return nil, err
			}
			return rep.MarshalJSON()
		})
		if err != nil {
			eng.Abort()
		}
		return out, err
	})

	mem, err := startServer("", false)
	if err != nil {
		s.check("starting a server", err)
		return
	}
	r := rung("session", s.stage, mem.localSession)
	mem.close()
	s.set("server.feed_wait_s", percentile(r.feed, 50).Seconds(), "s")
	s.set("server.flush_p50_ms", ms(percentile(r.flushAcks, 50)), "ms")

	durable, err := startServer(filepath.Join(s.cfg.dir, "ladder-journal"), false)
	if err != nil {
		s.check("starting a durable server", err)
		return
	}
	r = rung("journal", s.stage, durable.localSession)
	journal := dirBytes(durable.dataDir)
	durable.close()
	s.set("journal.flush_p50_ms", ms(percentile(r.flushAcks, 50)), "ms")
	s.set("journal.bytes_per_event", float64(journal)/float64(max(r.evs[0], 1)), "B")

	wired, err := startServer("", true)
	if err != nil {
		s.check("starting a wire server", err)
		return
	}
	var wire atomic.Int64
	// Twice the time, so flush p99 has well over ten samples above it.
	r = rung("wire", 2*s.stage, func(tr *race.Trace, id int, rec *recorder) (sessionOutput, error) {
		return wired.wireSession(tr, id, rec, &wire)
	})
	wired.close()
	s.set("wire.bytes_per_event", float64(wire.Load())/float64(max(r.evs[0], 1)), "B")
	s.set("wire.ship_s", percentile(r.feed, 50).Seconds(), "s")
	s.set("wire.flush_ack_p50_ms", ms(percentile(r.flushAcks, 50)), "ms")
	s.set("wire.flush_ack_p99_ms", ms(percentile(r.flushAcks, 99)), "ms")
	s.set("wire.flush_acks", float64(len(r.flushAcks)), "count")
	s.res.notes = append(s.res.notes, fmt.Sprintf("ladder events/s: engine %.0f session %.0f journal %.0f wire %.0f",
		s.res.metrics["ladder.engine"].Value, s.res.metrics["ladder.session"].Value,
		s.res.metrics["ladder.journal"].Value, s.res.metrics["ladder.wire"].Value))
}
