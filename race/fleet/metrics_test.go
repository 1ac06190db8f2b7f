package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// TestFleetMetricsExposition drives a two-backend fleet through an open,
// a migration, and a resume, then checks that the canonical fleet_*
// series, the Prometheus exposition, and the JSON map all agree.
func TestFleetMetricsExposition(t *testing.T) {
	rt, locals, _ := startFleet(t, 2)
	ctx := context.Background()

	p, _ := workload.ProgramByName("avrora")
	tr := p.Generate(200000, 1)

	id := NewSessionID()
	sess, _, err := rt.routeOpen(ctx, id, server.SessionConfig{Analyses: []string{"ST-WDC"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(append([]race.Event(nil), tr.Events[:512]...)); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Flush(); err != nil {
		t.Fatal(err)
	}
	sess.Release()

	holder, other := holderOf(t, locals, id)
	_ = holder
	if err := rt.MigrateSession(ctx, id, other.Name()); err != nil {
		t.Fatal(err)
	}
	sess2, _, _, err := rt.routeResume(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess2.Close(); err != nil {
		t.Fatal(err)
	}

	// Let at least one probe round complete so RTT has samples.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if snapHistCount(rt.reg, "fleet_probe_rtt_seconds") > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if started, done, failed := fleetMetric(rt, "fleet_migrations_started_total"),
		fleetMetric(rt, "fleet_migrations_completed_total"), fleetMetric(rt, "fleet_migrations_failed_total"); started != 1 || done != 1 || failed != 0 {
		t.Fatalf("migrations: started %v, completed %v, failed %v", started, done, failed)
	}
	var routed, resumed float64
	for _, b := range locals {
		routed += fleetMetric(rt, `fleet_sessions_routed_total{backend="`+b.Name()+`"}`)
		resumed += fleetMetric(rt, `fleet_resumes_routed_total{backend="`+b.Name()+`"}`)
	}
	if routed != 1 || resumed != 1 {
		t.Fatalf("routed=%v resumed=%v, want 1 and 1", routed, resumed)
	}

	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Prometheus view.
	res, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type = %q", ct)
	}
	fams, err := obs.ParseText(res.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := make(map[string]obs.Family, len(fams))
	for _, f := range fams {
		byName[f.Name] = f
	}
	for name, want := range map[string]float64{
		"fleet_migrations_started_total":   1,
		"fleet_migrations_completed_total": 1,
		"fleet_migrations_failed_total":    0,
	} {
		f, ok := byName[name]
		if !ok || len(f.Samples) != 1 || f.Samples[0].Value != want {
			t.Errorf("%s: got %+v, want single sample %v", name, f.Samples, want)
		}
	}
	routedFam, ok := byName["fleet_sessions_routed_total"]
	if !ok || len(routedFam.Samples) != 2 {
		t.Fatalf("fleet_sessions_routed_total: %+v", routedFam)
	}
	var promRouted float64
	for _, s := range routedFam.Samples {
		if s.Label("backend") == "" {
			t.Errorf("series missing backend label: %+v", s)
		}
		promRouted += s.Value
	}
	if promRouted != routed {
		t.Errorf("prometheus routed sum %v != JSON %v", promRouted, routed)
	}
	upFam, ok := byName["fleet_backend_up"]
	if !ok || len(upFam.Samples) != 2 {
		t.Fatalf("fleet_backend_up: %+v", upFam)
	}
	for _, s := range upFam.Samples {
		if s.Value != 1 {
			t.Errorf("backend %s up = %v, want 1", s.Label("backend"), s.Value)
		}
	}
	for _, name := range []string{
		"fleet_migration_copy_seconds", "fleet_migration_recover_seconds",
		"fleet_migration_suspend_seconds", "fleet_probe_rtt_seconds",
	} {
		f, ok := byName[name]
		if !ok || f.Type != "histogram" {
			t.Errorf("%s: missing or not a histogram (%+v)", name, f.Type)
			continue
		}
		h := f.Histogram()
		if h == nil {
			t.Errorf("%s: no histogram samples", name)
			continue
		}
		if name != "fleet_probe_rtt_seconds" && h.Count != 1 {
			t.Errorf("%s count = %d, want 1", name, h.Count)
		}
	}

	// JSON view: exactly the registry's canonical-name map, no aliases.
	res2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res2.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(res2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := obs.JSONMap(rt.reg.Snapshot())
	if len(body) != len(want) {
		t.Errorf("JSON body has %d keys, registry map %d", len(body), len(want))
	}
	for k := range body {
		if _, ok := want[k]; !ok {
			t.Errorf("JSON body key %q is not a registry series", k)
		}
	}
	if body["fleet_migrations_completed_total"] != float64(1) {
		t.Errorf("fleet_migrations_completed_total = %v", body["fleet_migrations_completed_total"])
	}
}

// TestFleetMetricsAcceptHeader: the router's /metrics honors an Accept
// header asking for text/plain as the content-negotiation alternative to
// ?format=prometheus.
func TestFleetMetricsAcceptHeader(t *testing.T) {
	rt, _, _ := startFleet(t, 1)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type = %q, want %q", ct, obs.TextContentType)
	}
	if _, err := obs.ParseText(res.Body); err != nil {
		t.Errorf("negotiated exposition does not parse: %v", err)
	}
}

// fleetMetric reads one series (keyed as the JSON /metrics body keys it)
// from the router's registry; 0 when absent.
func fleetMetric(rt *Router, key string) float64 {
	v, _ := obs.JSONMap(rt.reg.Snapshot())[key].(float64)
	return v
}

// snapHistCount reads one histogram's count out of a registry snapshot.
func snapHistCount(reg *obs.Registry, name string) uint64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name && s.Hist != nil {
			return s.Hist.Count
		}
	}
	return 0
}
