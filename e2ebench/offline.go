package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/workload"
	"repro/race"
)

// fanOut is the offline engine's analyses: the HB baseline plus the three
// SmartTrack predictive analyses whose CCS optimizations the paper claims.
var fanOut = []string{"FTO-HB", "ST-WCP", "ST-DC", "ST-WDC"}

// offline is the offline-ccs workload: batch jobs that decode a binary
// xalan-shaped trace held in memory and analyze it with the parallel
// fan-out, then close and serialize the report.
type offline struct {
	traces []*race.Trace
	bins   [][]byte
	refs   [][]byte
}

func setupOffline(cfg *config, _ int) (instance, error) {
	div, n := 4000, 4
	if cfg.tiny {
		div, n = 80000, 2
	}
	prog, _ := workload.ProgramByName("xalan")
	o := &offline{}
	for i := 0; i < n; i++ {
		tr := prog.Generate(div, subSeed(cfg.seed, i))
		var buf bytes.Buffer
		if err := race.WriteTrace(&buf, tr); err != nil {
			return nil, err
		}
		// The reference is the sequential engine's report over the same
		// events: the parallel fan-out must reproduce it byte for byte.
		ref, err := reportJSON(tr, race.WithAnalysisNames(fanOut...), race.WithCapacityHints(race.HintsOf(tr)))
		if err != nil {
			return nil, err
		}
		o.traces = append(o.traces, tr)
		o.bins = append(o.bins, buf.Bytes())
		o.refs = append(o.refs, ref)
	}
	out, err := o.job(0, 0, nil)
	if err == nil {
		err = out.check()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return o, nil
}

// reportJSON analyzes tr on a fresh engine and returns the report JSON.
func reportJSON(tr *race.Trace, opts ...race.Option) ([]byte, error) {
	eng, err := race.NewEngine(opts...)
	if err != nil {
		return nil, err
	}
	if err := eng.FeedTrace(tr); err != nil {
		eng.Abort()
		return nil, err
	}
	rep, err := eng.Close()
	if err != nil {
		return nil, err
	}
	return rep.MarshalJSON()
}

func offlineOpts(hints race.CapacityHints) []race.Option {
	return []race.Option{
		race.WithAnalysisNames(fanOut...),
		race.WithParallelism(runtime.GOMAXPROCS(0)),
		race.WithCapacityHints(hints),
	}
}

// job decodes input i and analyzes it: one span per decoded batch, per
// feed call, and for Close and report serialization.
func (o *offline) job(i, id int, rec *recorder) (jobOutput, error) {
	root := rec.begin("job", id, -1)
	dec := race.NewTraceDecoder(bytes.NewReader(o.bins[i]))
	hdr, err := dec.Header()
	if err != nil {
		return jobOutput{}, err
	}
	eng, err := race.NewEngine(offlineOpts(race.CapacityHints{
		Threads: hdr.Threads, Vars: hdr.Vars, Locks: hdr.Locks,
		Volatiles: hdr.Volatiles, Classes: hdr.Classes, Events: int(hdr.Events),
	})...)
	if err != nil {
		return jobOutput{}, err
	}
	batch := make([]race.Event, 0, chunk)
	events := 0
	for eof := false; !eof; {
		h := rec.begin("trace.decode", id, root)
		batch = batch[:0]
		for len(batch) < chunk {
			ev, err := dec.Next()
			if errors.Is(err, io.EOF) {
				eof = true
				break
			}
			if err != nil {
				eng.Abort()
				return jobOutput{}, err
			}
			batch = append(batch, ev)
		}
		rec.end(h, len(batch))
		if len(batch) == 0 {
			continue
		}
		h = rec.begin("engine.feed", id, root)
		err := eng.FeedBatch(batch)
		rec.end(h, len(batch))
		if err != nil {
			eng.Abort()
			return jobOutput{}, err
		}
		events += len(batch)
	}
	doc, _, closeDur, err := closeReport(eng, rec, id, root)
	rec.end(root, events)
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{events: events, closeDur: closeDur, check: func() error {
		if !bytes.Equal(doc, o.refs[i]) {
			return fmt.Errorf("report (%d bytes) differs from the sequential reference (%d bytes)", len(doc), len(o.refs[i]))
		}
		return nil
	}}, nil
}

func (o *offline) loop(d time.Duration, traced bool) loopResult {
	return seqLoop(d, traced, len(o.traces), o.job)
}

func (o *offline) layers() layerInputs {
	return layerInputs{
		traces:     o.traces,
		engineOpts: func(tr *race.Trace) []race.Option { return offlineOpts(race.HintsOf(tr)) },
		vindicate:  1,
	}
}

func (o *offline) corruptReference() { o.refs[0][len(o.refs[0])/2] ^= 1 }

func (o *offline) close() {}
