package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/race"
)

// scrapePipeline extracts the ingest-pipeline counters from one registry
// snapshot, in snapshot (= registration) order.
func scrapePipeline(t *testing.T, reg *obs.Registry) (enqueued, journaled, engineFed, analyzed float64) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "raced_events_enqueued_total":
			enqueued = s.Value
		case "raced_events_journaled_total":
			journaled = s.Value
		case "raced_engine_events_fed_total":
			engineFed = s.Value
		case "raced_events_analyzed_total":
			analyzed = s.Value
		}
	}
	return
}

// TestMetricsScrapeConsistency is the /metrics race-window fix's test:
// scraping the registry mid-ingest must always observe
// enqueued ≥ journaled ≥ engine-fed ≥ analyzed, because a snapshot reads
// the counters in registration (downstream-first) order. Before the
// registry, the JSON snapshot read several atomics non-atomically and
// could claim more analyzed events than accepted ones.
func TestMetricsScrapeConsistency(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg, DataDir: t.TempDir(), QueueDepth: 4})
	defer srv.Close()

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 1)

	const feeders = 3
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		sess, err := srv.OpenSession(SessionConfig{Analyses: []string{"ST-WDC"}})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			const run = 64
			for lo := 0; lo < len(tr.Events); lo += run {
				hi := min(lo+run, len(tr.Events))
				batch := append([]race.Event(nil), tr.Events[lo:hi]...)
				if err := sess.Feed(batch); err != nil {
					t.Errorf("feed: %v", err)
					return
				}
			}
			if err := sess.Flush(); err != nil {
				t.Errorf("flush: %v", err)
			}
			if _, err := sess.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(sess)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				t.Fatal("no scrapes ran")
			}
			enq, jnl, eng, ana := scrapePipeline(t, reg)
			want := float64(feeders * len(tr.Events))
			if enq != want || jnl != want || eng < want || ana != want {
				t.Fatalf("final counters enq=%v jnl=%v eng=%v ana=%v, want all ≥ %v", enq, jnl, eng, ana, want)
			}
			return
		default:
			enq, jnl, eng, ana := scrapePipeline(t, reg)
			if !(enq >= jnl && jnl >= eng && eng >= ana) {
				t.Fatalf("scrape %d inconsistent: enqueued=%v journaled=%v engine=%v analyzed=%v",
					scrapes, enq, jnl, eng, ana)
			}
			scrapes++
		}
	}
}

// metricValue reads one series (keyed as the JSON /metrics body keys it)
// from the server's registry; 0 when absent.
func metricValue(s *Server, key string) float64 {
	v, _ := obs.JSONMap(s.Registry().Snapshot())[key].(float64)
	return v
}

// TestMetricsJSONIsRegistryMap: the JSON /metrics body is exactly the
// registry's canonical-name map — the same keys as obs.JSONMap, no
// aliases — and its counters agree with the Prometheus exposition.
func TestMetricsJSONIsRegistryMap(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	sess, err := srv.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("pmd")
	tr := p.Generate(400000, 2)
	if err := sess.Feed(append([]race.Event(nil), tr.Events...)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	err = json.NewDecoder(res.Body).Decode(&body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := obs.JSONMap(srv.Registry().Snapshot())
	if len(body) != len(want) {
		t.Errorf("JSON body has %d keys, registry map %d", len(body), len(want))
	}
	for k := range body {
		if _, ok := want[k]; !ok {
			t.Errorf("JSON body key %q is not a registry series", k)
		}
	}
	if got := body["raced_events_analyzed_total"]; got != float64(len(tr.Events)) {
		t.Errorf("raced_events_analyzed_total = %v, want %d", got, len(tr.Events))
	}
	if body["raced_sessions_opened_total"] != float64(1) || body["raced_sessions_active"] != float64(1) {
		t.Errorf("sessions: opened %v, active %v", body["raced_sessions_opened_total"], body["raced_sessions_active"])
	}

	var b strings.Builder
	if err := obs.WriteText(&b, srv.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"raced_events_analyzed_total", "raced_events_enqueued_total",
		"raced_sessions_active", "raced_ingest_queue_depth_bucket",
		"raced_flush_ack_seconds_count", "raced_engine_events_fed_total",
		"raced_ingest_queue_wait_seconds_bucket",
		`raced_sessions_rejected_total{reason="full"}`,
		`raced_sessions_rejected_total{reason="draining"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if _, err := obs.ParseText(strings.NewReader(out)); err != nil {
		t.Errorf("server exposition does not parse: %v", err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsContentNegotiation: /metrics serves the Prometheus text
// exposition both under ?format=prometheus (the original selector) and for
// an Accept header asking for text/plain (how Prometheus itself scrapes);
// everything else keeps the JSON default.
func TestMetricsContentNegotiation(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), string(body)
	}

	ct, body := get("/metrics?format=prometheus", "")
	if ct != obs.TextContentType {
		t.Errorf("?format=prometheus Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	if !strings.Contains(body, "raced_sessions_active") {
		t.Error("?format=prometheus body missing raced_sessions_active")
	}

	ct, body = get("/metrics", "text/plain; version=0.0.4")
	if ct != obs.TextContentType {
		t.Errorf("Accept text/plain Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	if _, err := obs.ParseText(strings.NewReader(body)); err != nil {
		t.Errorf("Accept-negotiated exposition does not parse: %v", err)
	}

	// JSON default is unaffected — including for a browser's */*.
	for _, accept := range []string{"", "*/*", "application/json"} {
		ct, body = get("/metrics", accept)
		if !strings.HasPrefix(ct, "application/json") {
			t.Errorf("Accept %q Content-Type = %q, want application/json", accept, ct)
		}
		if !strings.HasPrefix(strings.TrimSpace(body), "{") {
			t.Errorf("Accept %q body is not a JSON object", accept)
		}
	}
}

// TestRejectedReasonSplit: admission rejections are counted under their
// reason label, and the JSON snapshot's sessions_rejected stays the sum —
// the raceload harness keys its backpressure-onset detection on the
// reason="full" / reason="draining" series specifically.
func TestRejectedReasonSplit(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg, MaxSessions: 1})
	defer srv.Close()

	// Bad config first — once the pool is full, the admission precheck
	// fires before sink construction and everything counts as "full".
	if _, err := srv.OpenSession(SessionConfig{Analyses: []string{"no-such-analysis"}}); err == nil {
		t.Fatal("open with unknown analysis succeeded")
	}
	if _, err := srv.OpenSession(SessionConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.OpenSession(SessionConfig{}); err != ErrServerFull {
		t.Fatalf("second open = %v, want ErrServerFull", err)
	}

	var b strings.Builder
	if err := obs.WriteText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`raced_sessions_rejected_total{reason="full"} 1`,
		`raced_sessions_rejected_total{reason="config"} 1`,
		`raced_sessions_rejected_total{reason="draining"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestQueueWaitHistogram: every accepted batch lands one observation in
// raced_ingest_queue_wait_seconds (zero when a slot was free), so the
// blocked fraction is count-above-zero over count.
func TestQueueWaitHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	srv := New(Config{Registry: reg, QueueDepth: 2})
	defer srv.Close()
	sess, err := srv.OpenSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(400000, 3)
	const batches = 8
	per := len(tr.Events) / batches
	for i := 0; i < batches; i++ {
		batch := append([]race.Event(nil), tr.Events[i*per:(i+1)*per]...)
		if err := sess.Feed(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	var count uint64
	for _, s := range reg.Snapshot() {
		if s.Name == "raced_ingest_queue_wait_seconds" && s.Hist != nil {
			count = s.Hist.Count
		}
	}
	if count != batches {
		t.Errorf("queue-wait observations = %d, want %d (one per accepted batch)", count, batches)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}
