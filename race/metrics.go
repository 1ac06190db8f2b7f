package race

import (
	"strconv"
	"sync"

	"repro/internal/obs"
)

// EngineMetrics instruments an Engine (or several — a raced server
// shares one across every session's engine) through an obs.Registry.
// Construct with NewEngineMetrics and install with WithMetrics.
//
// The hot-path cost is one atomic add per event counter and one
// timestamp pair per FeedBatch call; a nil *EngineMetrics disables
// everything, and conformance tests pin that enabling it does not
// change any report byte.
type EngineMetrics struct {
	reg    *obs.Registry
	prefix string

	feedBatch *obs.Histogram // <prefix>_feed_batch_seconds
	ringOcc   *obs.Histogram // <prefix>_ring_occupancy
	races     *obs.Counter   // <prefix>_races_total
	eventsFed *obs.Counter   // <prefix>_events_fed_total

	mu     sync.Mutex
	shards []*obs.Counter // <prefix>_shard_events_total{shard=...}, lazy
}

// NewEngineMetrics registers the engine metric family under the given
// name prefix (e.g. "raced_engine") and returns the handle to install
// with WithMetrics. Returns nil for a nil registry, which WithMetrics
// treats as "no instrumentation".
func NewEngineMetrics(reg *obs.Registry, prefix string) *EngineMetrics {
	if reg == nil {
		return nil
	}
	m := &EngineMetrics{reg: reg, prefix: prefix}
	// races is incremented downstream of eventsFed (detection follows
	// feeding); registering it first keeps snapshots pipeline-consistent
	// (see the obs package comment).
	m.races = reg.Counter(prefix+"_races_total",
		"Dynamic races detected online, across all analyses.")
	m.eventsFed = reg.Counter(prefix+"_events_fed_total",
		"Events fed into the analysis engine.")
	m.feedBatch = reg.Histogram(prefix+"_feed_batch_seconds",
		"Wall time of one FeedBatch call (checker + retain + enqueue or analyze).",
		obs.LatencyBuckets())
	m.ringOcc = reg.Histogram(prefix+"_ring_occupancy",
		"Pipeline worker queue occupancy (in-flight batches, max across workers) sampled at each flush.",
		obs.DepthBuckets())
	return m
}

// shardCounter returns the per-shard event counter for pipeline worker
// i, registering it on first use. Workers resolve the pointer once at
// startup, so the lock is off the hot path.
func (m *EngineMetrics) shardCounter(i int) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.shards) <= i {
		c := m.reg.Counter(m.prefix+"_shard_events_total",
			"Events processed per pipeline worker shard.",
			obs.L("shard", strconv.Itoa(len(m.shards))))
		m.shards = append(m.shards, c)
	}
	return m.shards[i]
}

// WithMetrics installs engine instrumentation (see NewEngineMetrics).
// A nil handle is valid and means no instrumentation. Several engines
// may share one handle: counters then aggregate across them, which is
// exactly what a multi-session server wants (per-session series would
// make scrape cardinality grow with traffic).
func WithMetrics(m *EngineMetrics) Option {
	return func(c *engineConfig) { c.met = m }
}
