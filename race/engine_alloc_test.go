//go:build !race

// The race detector makes sync.Pool drop recycled items at random, so the
// pipeline's batch recycling only shows as zero allocations without it.

package race_test

import (
	"testing"

	"repro/race"
)

// steadyRun is one BatchSize-event run of a single thread's reads and
// writes: after a warm-up, no analysis, checker or id-space table grows on
// it, and on a parallel engine it fills exactly one pipeline batch. (Lock
// events stay out: SmartTrack allocates critical-section metadata per
// acquire, which is analysis state, not engine overhead.)
func steadyRun() []race.Event {
	evs := make([]race.Event, race.BatchSize)
	for i := range evs {
		evs[i] = race.Event{T: 0, Op: race.OpWrite, Targ: 0}
		if i%2 == 1 {
			evs[i] = race.Event{T: 0, Op: race.OpRead, Targ: 1}
		}
	}
	return evs
}

// TestEngineSteadyStateZeroAlloc guards the engine hot path: once warm,
// Feed and FeedBatch allocate nothing per run, on the sequential engine
// and on the parallel pipeline (whose batches must come back through the
// pool rather than be reallocated per flush).
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	run := steadyRun()
	for _, par := range []int{1, 2} {
		eng, err := race.NewEngine(race.WithAnalysisNames("ST-WDC", "FTO-HB"), race.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		// Warm up past the pipeline's in-flight depth so the pool holds
		// every batch the steady state needs, then drain the workers.
		for i := 0; i < 200; i++ {
			if err := eng.FeedBatch(run); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		feed := func() {
			for _, ev := range run {
				if err := eng.Feed(ev); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := testing.AllocsPerRun(1000, feed); n != 0 {
			t.Errorf("parallelism %d: %v allocs per %d-event Feed run, want 0", par, n, len(run))
		}
		feedBatch := func() {
			if err := eng.FeedBatch(run); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(1000, feedBatch); n != 0 {
			t.Errorf("parallelism %d: %v allocs per FeedBatch run, want 0", par, n)
		}
		if _, err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
