package race

// This file implements the engine's parallel fan-out pipeline: with
// WithParallelism(n), each shard of the configured analyses runs on a
// dedicated worker goroutine fed by a buffered channel of event batches,
// so independent Table 1 cells analyze the same event stream concurrently
// instead of serially. Feed stays a cheap enqueue — the well-formedness
// checker and id-space observation run on the feeding goroutine (so errors
// still surface synchronously), and the event lands in the current batch,
// which flushes when full, at synchronization events (when an OnRace
// callback wants timely delivery), and at Close.
//
// Determinism: every analysis still consumes the complete stream in feed
// order, so the Close report is identical to the sequential engine's, and
// races delivered to OnRace carry per-analysis sequence numbers
// (RaceInfo.Seq) that match detection order exactly. Each worker delivers
// its own shard's races; a mutex keeps callbacks from ever running
// concurrently.
//
// Failure: a panicking analysis or OnRace callback poisons the engine. A
// dead worker's done channel unblocks a producer waiting on its full
// queue, and the panic surfaces as an error from the next Feed, Sync or
// Close.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// BatchSize is the number of events the pipeline groups per flush: large
// enough that per-batch coordination (one channel send per worker)
// vanishes per event.
const BatchSize = 1024

// ringCapacity is the number of in-flight batches each worker may lag
// behind the producer before Feed backpressures.
const ringCapacity = 64

// eventBatch is one batch of events shared by every worker; refs counts
// the workers still due to process it, and the last one recycles it. ack,
// when non-nil, is closed by the consuming worker once the batch has been
// fully processed and its races delivered — the barrier primitive
// Engine.Sync rides on.
type eventBatch struct {
	evs  []Event
	refs atomic.Int32
	ack  chan struct{}
}

// batchPool recycles event batches between the producer and the last
// worker to finish each batch.
var batchPool = sync.Pool{New: func() any { return new(eventBatch) }}

// pworker is one pipeline worker: a shard of the fan-out's analyses and
// the queue feeding them.
type pworker struct {
	ring chan *eventBatch
	idx  int   // worker/shard index, stable for metrics labelling
	dets []int // indices into Engine.dets, in fan-out order
	done chan struct{}
}

// pipeline is the engine's parallel runtime state.
type pipeline struct {
	workers []*pworker
	cur     *eventBatch

	mu   sync.Mutex
	errs []error
	dead atomic.Bool // fast-path flag: some worker or callback has failed
}

// startPipeline shards the engine's analyses over n workers and starts
// them. An installed OnRace callback is wrapped once so workers can call
// it directly: invocations are serialized, and a panic poisons the engine
// — on a worker there is no caller to unwind to — and mutes further
// deliveries.
func (e *Engine) startPipeline(n int) {
	p := &pipeline{cur: newBatch()}
	if fn := e.onRace; fn != nil {
		var mu sync.Mutex
		muted := false
		e.onRace = func(ri RaceInfo) {
			mu.Lock()
			defer mu.Unlock()
			if muted {
				return
			}
			defer func() {
				if r := recover(); r != nil {
					muted = true
					p.fail(fmt.Errorf("race: OnRace callback panicked: %v", r))
				}
			}()
			fn(ri)
		}
	}
	for w := 0; w < n; w++ {
		pw := &pworker{ring: make(chan *eventBatch, ringCapacity), idx: w, done: make(chan struct{})}
		for di := w; di < len(e.dets); di += n {
			pw.dets = append(pw.dets, di)
		}
		p.workers = append(p.workers, pw)
		go e.runWorker(p, pw)
	}
	e.pipe = p
}

func newBatch() *eventBatch {
	b := batchPool.Get().(*eventBatch)
	b.evs = b.evs[:0]
	b.ack = nil
	return b
}

// runWorker drains the worker's queue, feeding every event of every batch
// to each analysis of the shard in order, then delivering any new races.
func (e *Engine) runWorker(p *pipeline, w *pworker) {
	defer close(w.done)
	defer func() {
		if r := recover(); r != nil {
			p.fail(fmt.Errorf("race: analysis panicked in pipeline worker: %v", r))
		}
	}()
	var shardEvents *obs.Counter
	if e.met != nil {
		shardEvents = e.met.shardCounter(w.idx)
	}
	for b := range w.ring {
		for _, di := range w.dets {
			d := &e.dets[di]
			for _, ev := range b.evs {
				d.a.Handle(ev)
			}
			if e.onRace != nil || e.met != nil {
				e.deliverNew(d)
			}
		}
		if shardEvents != nil {
			shardEvents.Add(uint64(len(b.evs)))
		}
		if b.ack != nil {
			close(b.ack)
		}
		if b.refs.Add(-1) == 0 {
			batchPool.Put(b)
		}
	}
}

// fail records a worker error and flips the poison flag.
func (p *pipeline) fail(err error) {
	p.mu.Lock()
	p.errs = append(p.errs, err)
	p.mu.Unlock()
	p.dead.Store(true)
}

// firstErr returns the first recorded worker error, if any.
func (p *pipeline) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

// poison makes the pipeline's first error the engine's sticky error.
func (e *Engine) poison() error {
	if e.err = e.pipe.firstErr(); e.err == nil {
		e.err = errors.New("race: pipeline worker exited early")
	}
	return e.err
}

// enqueueBatch appends a run of events to the current batch in one append.
// Flush triggers: batch size, and (when an OnRace callback wants timely
// delivery) the presence of any synchronization event in the run —
// run-granular for FeedBatch, so commit-per-run batching is kept even on
// engines with callbacks installed (every raced session has one), and
// event-granular for Feed, which enqueues one-event runs.
func (e *Engine) enqueueBatch(evs []Event) error {
	p := e.pipe
	if p.dead.Load() {
		return e.poison()
	}
	p.cur.evs = append(p.cur.evs, evs...)
	if len(p.cur.evs) >= BatchSize {
		return e.flushBatch()
	}
	if e.onRace != nil {
		for _, ev := range evs {
			if ev.Op.IsSync() {
				return e.flushBatch()
			}
		}
	}
	return nil
}

// flushBatch publishes the current batch to every worker queue.
func (e *Engine) flushBatch() error {
	p := e.pipe
	if len(p.cur.evs) == 0 {
		return nil
	}
	b := p.cur
	// A failed send (dead worker) abandons the batch: it was already
	// delivered to earlier queues, so retrying would make surviving
	// workers process the same events twice. The engine is poisoned either
	// way.
	p.cur = newBatch()
	b.refs.Store(int32(len(p.workers)))
	if e.met != nil {
		occ := 0
		for _, w := range p.workers {
			occ = max(occ, len(w.ring))
		}
		e.met.ringOcc.Observe(float64(occ))
	}
	for _, w := range p.workers {
		if !w.send(b) {
			return e.poison()
		}
	}
	return nil
}

// send enqueues b, blocking while the queue is full. It returns false if
// the worker has died, so the producer surfaces the worker's error
// instead of blocking forever.
func (w *pworker) send(b *eventBatch) bool {
	select {
	case w.ring <- b:
		return true
	case <-w.done:
		return false
	}
}

// Sync is a mid-stream barrier: it returns once every event fed so far
// has been applied by every analysis, and every race detected so far has
// been delivered to the OnRace callback, surfacing any pipeline error that
// occurred on the way. On a sequential engine (or before any events) it
// is a no-op — analyses there run synchronously in Feed/FeedBatch. The
// raced server uses it to give the wire protocol's flush frame real
// applied-up-to-here semantics on parallel sessions. Like Feed, Sync must
// not race with other engine calls.
func (e *Engine) Sync() error {
	if e.closed {
		return errors.New("race: Sync on closed engine")
	}
	if e.err != nil || e.pipe == nil {
		return e.err
	}
	if err := e.flushBatch(); err != nil {
		return err
	}
	p := e.pipe
	// One empty acked batch per worker queue: its ack closing means that
	// worker applied everything enqueued before it and delivered the
	// resulting races. The select against the worker's done channel keeps
	// a dying worker from holding the barrier open forever.
	for _, w := range p.workers {
		ack := make(chan struct{})
		b := newBatch()
		b.ack = ack
		b.refs.Store(1)
		if !w.send(b) {
			return e.poison()
		}
		select {
		case <-ack:
		case <-w.done:
			return e.poison()
		}
	}
	if p.dead.Load() {
		return e.poison()
	}
	return nil
}

// drainPipeline flushes the trailing partial batch, closes the worker
// queues and joins the workers; it returns the first worker error, if any.
func (e *Engine) drainPipeline() error {
	p := e.pipe
	ferr := e.flushBatch()
	for _, w := range p.workers {
		close(w.ring)
	}
	for _, w := range p.workers {
		<-w.done
	}
	if err := p.firstErr(); err != nil {
		return err
	}
	return ferr
}
