package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/workload"
	"repro/race"
)

// vindicateWDC is the vindicate-wdc workload: smaller xalan-shaped traces
// through an in-process ST-WDC engine that vindicates its races at Close.
type vindicateWDC struct {
	traces []*race.Trace
	// refs are the race lists of the non-vindicating ST-WDC reference.
	refs [][]race.RaceInfo
	// last is each input's most recent checked outcome.
	last []vindication
}

func setupVindicate(cfg *config, _ int) (instance, error) {
	// Vindication cost varies about twofold between traces of one shape,
	// so a run cycles over many small traces rather than a few large ones.
	div, n := 16000, 48
	if cfg.tiny {
		div, n = 80000, 1
	}
	prog, _ := workload.ProgramByName("xalan")
	v := &vindicateWDC{}
	for i := 0; i < n; i++ {
		tr := prog.Generate(div, subSeed(cfg.seed, i))
		rep, err := race.Analyze(tr, race.WDC, race.SmartTrack)
		if err != nil {
			return nil, err
		}
		v.traces = append(v.traces, tr)
		v.refs = append(v.refs, rep.Races())
	}
	v.last = make([]vindication, n)
	out, err := v.job(0, 0, nil)
	if err == nil {
		err = out.check()
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return v, nil
}

func vindicateOpts(tr *race.Trace) []race.Option {
	return []race.Option{race.WithVindication(), race.WithCapacityHints(race.HintsOf(tr))}
}

func (v *vindicateWDC) job(i, id int, rec *recorder) (jobOutput, error) {
	tr := v.traces[i]
	root := rec.begin("job", id, -1)
	eng, err := race.NewEngine(vindicateOpts(tr)...)
	if err != nil {
		return jobOutput{}, err
	}
	if err := feedChunks(eng, tr, rec, id, root); err != nil {
		eng.Abort()
		return jobOutput{}, err
	}
	_, rep, closeDur, err := closeReport(eng, rec, id, root)
	rec.end(root, tr.Len())
	if err != nil {
		return jobOutput{}, err
	}
	return jobOutput{events: tr.Len(), closeDur: closeDur, check: func() error {
		out, err := checkVindication(tr, rep, v.refs[i])
		v.last[i] = out
		return err
	}}, nil
}

// vindication is the outcome of one vindicating Close.
type vindication struct{ attempts, verified int }

// checkVindication checks a vindicating report: its races equal the
// non-vindicating reference's, and every verified witness passes
// race.VerifyWitness against the trace.
func checkVindication(tr *race.Trace, rep *race.Report, ref []race.RaceInfo) (vindication, error) {
	var out vindication
	if got := rep.Races(); !slices.Equal(got, ref) {
		return out, fmt.Errorf("race set (%d races) differs from the non-vindicating reference (%d races)", len(got), len(ref))
	}
	seen := map[int]bool{}
	for _, r := range rep.Races() {
		res, ok := rep.Vindication(r.Index)
		if !ok || seen[r.Index] {
			continue
		}
		seen[r.Index] = true
		out.attempts++
		if !res.Vindicated {
			continue
		}
		if !witnessVerifies(tr, res.Witness, r.Index) {
			return out, fmt.Errorf("witness for the race at event %d does not verify", r.Index)
		}
		out.verified++
	}
	return out, nil
}

// witnessVerifies reports whether w verifies as a witness of the race
// detected at e2 against some earlier conflicting access: the witness
// names the pair by value (its last two events), so every earlier event
// equal to one of them is a candidate for e1.
func witnessVerifies(tr *race.Trace, w []race.Event, e2 int) bool {
	if len(w) < 2 {
		return false
	}
	for e1 := e2 - 1; e1 >= 0; e1-- {
		ev := tr.Events[e1]
		if ev != w[len(w)-2] && ev != w[len(w)-1] {
			continue
		}
		if race.VerifyWitness(tr, w, e1, e2) == nil {
			return true
		}
	}
	return false
}

func (v *vindicateWDC) loop(d time.Duration, traced bool) loopResult {
	res := seqLoop(d, traced, len(v.traces), v.job)
	var sum vindication
	ran := 0
	for _, o := range v.last {
		sum.attempts += o.attempts
		sum.verified += o.verified
		if o.attempts > 0 {
			ran++
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("vindicated_races %d count (distinct races with a verified witness, of %d attempted, over %d of %d traces)",
		sum.verified, sum.attempts, ran, len(v.traces)))
	return res
}

func (v *vindicateWDC) layers() layerInputs {
	return layerInputs{traces: v.traces, engineOpts: vindicateOpts, vindicate: min(8, len(v.traces))}
}

func (v *vindicateWDC) corruptReference() {
	v.refs[0] = slices.Clone(v.refs[0])
	v.refs[0][0].Loc ^= 1
}

func (v *vindicateWDC) close() {}
