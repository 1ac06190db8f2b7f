package race

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/report"
	"repro/internal/trace"
)

// stallThenPanic is an analysis that, on its after-th event, blocks until
// release closes and then panics — long enough for the producer to fill
// the worker's queue and block on it.
type stallThenPanic struct {
	after   int
	seen    int
	release chan struct{}
	col     *report.Collector
}

func (a *stallThenPanic) Name() string             { return "stall-then-panic" }
func (a *stallThenPanic) Races() *report.Collector { return a.col }
func (a *stallThenPanic) MetadataWeight() int      { return 0 }
func (a *stallThenPanic) Handle(trace.Event) {
	if a.seen++; a.seen == a.after {
		<-a.release
		panic("injected analysis fault")
	}
}

// newDyingEngine builds a two-worker pipeline whose second worker runs a
// stallThenPanic analysis that stalls on its 10th event.
func newDyingEngine(t *testing.T) (*Engine, chan struct{}) {
	t.Helper()
	entry, ok := analysis.ByName("FTO-HB")
	if !ok {
		t.Fatal("FTO-HB not registered")
	}
	release := make(chan struct{})
	e := &Engine{dets: []engineDet{
		{entry: entry, a: entry.New(analysis.Spec{})},
		{entry: analysis.Entry{Name: "dying"}, a: &stallThenPanic{after: 10, release: release, col: report.NewCollector()}},
	}}
	e.startPipeline(2)
	return e, release
}

// fillRun is the number of events that fill the dying worker's queue
// exactly: one batch in its stalled hands plus ringCapacity queued.
const fillRun = (ringCapacity + 1) * BatchSize

func sameThreadWrites(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{T: 0, Op: trace.OpWrite, Targ: 0}
	}
	return evs
}

// waitFull polls until the dying worker's queue is full.
func waitFull(t *testing.T, e *Engine) {
	t.Helper()
	w := e.pipe.workers[1]
	deadline := time.Now().Add(10 * time.Second)
	for len(w.ring) < cap(w.ring) {
		if time.Now().After(deadline) {
			t.Fatalf("dying worker's queue never filled (%d/%d)", len(w.ring), cap(w.ring))
		}
		time.Sleep(time.Millisecond)
	}
}

func wantWorkerPanic(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "analysis panicked in pipeline worker") {
		t.Errorf("%s error = %v, want the worker panic", what, err)
	}
}

// TestPipelineWorkerDeathUnblocksProducer: a worker that panics while the
// producer is blocked on its full queue must unblock that producer —
// whichever of Feed, FeedBatch, Sync or Close is blocked — with the
// worker's error, and Close must then join every pipeline goroutine.
func TestPipelineWorkerDeathUnblocksProducer(t *testing.T) {
	evs := sameThreadWrites(fillRun + 3*BatchSize)
	feedRuns := func(e *Engine, evs []Event) error {
		for off := 0; off < len(evs); off += BatchSize {
			if err := e.FeedBatch(evs[off : off+BatchSize]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		// fill brings the dying worker's queue to full before block runs;
		// otherwise block fills the queue itself.
		fill  bool
		block func(e *Engine) error
	}{
		{"Feed", false, func(e *Engine) error {
			for _, ev := range evs {
				if err := e.Feed(ev); err != nil {
					return err
				}
			}
			return nil
		}},
		{"FeedBatch", false, func(e *Engine) error { return feedRuns(e, evs) }},
		{"Sync", true, func(e *Engine) error { return e.Sync() }},
		{"Close", true, func(e *Engine) error {
			if err := e.Feed(evs[0]); err != nil {
				return err
			}
			_, err := e.Close()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, release := newDyingEngine(t)
			if tc.fill {
				if err := feedRuns(e, evs[:fillRun]); err != nil {
					t.Fatalf("filling the queue: %v", err)
				}
				waitFull(t, e)
			}
			blocked := make(chan error, 1)
			go func() { blocked <- tc.block(e) }()
			waitFull(t, e)
			// Give the producer time to reach the blocking send.
			time.Sleep(20 * time.Millisecond)
			select {
			case err := <-blocked:
				t.Fatalf("%s returned %v before the worker died", tc.name, err)
			default:
			}
			close(release)
			var err error
			select {
			case err = <-blocked:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s still blocked 10s after its worker died", tc.name)
			}
			wantWorkerPanic(t, tc.name, err)
			if tc.name != "Close" {
				_, err = e.Close()
				wantWorkerPanic(t, "Close after "+tc.name, err)
			}
			for i, w := range e.pipe.workers {
				select {
				case <-w.done:
				default:
					t.Errorf("pipeline worker %d outlived Close", i)
				}
			}
		})
	}
}
