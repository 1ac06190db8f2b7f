package loadgen

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs/collect"
	"repro/race/server"
)

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("dacapo:avrora=2,channels=1,random")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(mix))
	}
	if mix[0].Kind != "dacapo" || mix[0].Name != "avrora" || mix[0].Weight != 2 {
		t.Errorf("entry 0 = %+v", mix[0])
	}
	if mix[2].Kind != "random" || mix[2].Weight != 1 {
		t.Errorf("entry 2 = %+v (weight defaults to 1)", mix[2])
	}
	for _, bad := range []string{"", "dacapo:nosuch", "exotic", "channels=-1", "dacapo:avrora=x"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted, want error", bad)
		}
	}
}

func TestRampSteps(t *testing.T) {
	steps := rampSteps(Config{
		StartRPS: 2, StepRPS: 2, TargetRPS: 8,
		StepEvery: time.Second, Duration: 5 * time.Second,
	}.withDefaults())
	// 2, 4, 6 for 1s each, then 8 held for the remaining 2s.
	wantRPS := []float64{2, 4, 6, 8}
	if len(steps) != len(wantRPS) {
		t.Fatalf("got %d steps, want %d: %+v", len(steps), len(wantRPS), steps)
	}
	for i, w := range wantRPS {
		if steps[i].rps != w {
			t.Errorf("step %d rps = %v, want %v", i, steps[i].rps, w)
		}
	}
	if steps[3].dur != 2*time.Second {
		t.Errorf("hold duration = %v, want 2s", steps[3].dur)
	}

	flat := rampSteps(Config{TargetRPS: 5, Duration: 3 * time.Second}.withDefaults())
	if len(flat) != 1 || flat[0].rps != 5 || flat[0].dur != 3*time.Second {
		t.Errorf("flat schedule = %+v, want one 5rps/3s step", flat)
	}
}

func TestDetectOnset(t *testing.T) {
	steps := []StepStats{
		{Index: 0, TargetRPS: 2, FlushCount: 10, FlushAckP99: 0.010},
		{Index: 1, TargetRPS: 4, FlushCount: 10, FlushAckP99: 0.020},
		{Index: 2, TargetRPS: 8, FlushCount: 10, FlushAckP99: 0.900},
		{Index: 3, TargetRPS: 16, FlushCount: 10, FlushAckP99: 1.500, Rejections: 4},
	}
	onset := detectOnset(steps, 250*time.Millisecond)
	if onset == nil || onset.StepIndex != 2 || onset.Reason != "flush_ack_p99" {
		t.Fatalf("onset = %+v, want latency breach at step 2", onset)
	}
	// Rejections alone trigger onset even with no flush observations.
	rej := []StepStats{
		{Index: 0, TargetRPS: 2},
		{Index: 1, TargetRPS: 4, Rejections: 3},
	}
	onset = detectOnset(rej, 250*time.Millisecond)
	if onset == nil || onset.StepIndex != 1 || onset.Reason != "rejections" {
		t.Fatalf("onset = %+v, want rejection breach at step 1", onset)
	}
	if detectOnset(steps[:2], 250*time.Millisecond) != nil {
		t.Error("healthy steps reported an onset")
	}
}

// startBackend boots an in-process raced with both wire and metrics
// endpoints, returning the TCP addr and the metrics URL.
func startBackend(t *testing.T, cfg server.Config) (string, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(cfg)
	go s.ServeTCP(lis)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		lis.Close()
		s.Close()
	})
	return lis.Addr().String(), hs.URL
}

// TestRunEndToEnd drives a short real load against an in-process raced:
// sessions complete, every error is classified, sampled reports verify
// byte-identical, and the emitted document passes the racemon/raceload
// schema check.
func TestRunEndToEnd(t *testing.T) {
	addr, metricsURL := startBackend(t, server.Config{})
	rep, err := Run(context.Background(), Config{
		Addr:           addr,
		Targets:        []string{metricsURL},
		ScrapeInterval: 150 * time.Millisecond,
		TargetRPS:      40,
		Duration:       900 * time.Millisecond,
		StepEvery:      900 * time.Millisecond,
		SessionEvents:  400,
		FlushEvery:     128,
		Mix:            []MixEntry{{Kind: "random", Weight: 1}},
		VerifySample:   3,
		Seed:           11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Generator
	if g.SessionsLaunched == 0 || g.SessionsCompleted == 0 {
		t.Fatalf("no load ran: %+v", g)
	}
	if g.Unclassified != 0 {
		t.Fatalf("unclassified errors: %d (%v)", g.Unclassified, g.UnclassifiedSamples)
	}
	if g.SessionsCompleted+g.SessionsFailed+g.SessionsSkipped != g.SessionsLaunched {
		t.Errorf("session accounting: launched %d != completed %d + failed %d + skipped %d",
			g.SessionsLaunched, g.SessionsCompleted, g.SessionsFailed, g.SessionsSkipped)
	}
	if g.FlushAckP50 <= 0 || g.EventsSent == 0 {
		t.Errorf("client SLOs empty: flush p50 %v, events %d", g.FlushAckP50, g.EventsSent)
	}
	if g.Verify == nil || g.Verify.Sampled == 0 {
		t.Fatal("verification did not sample any session")
	}
	if g.Verify.Matched != g.Verify.Sampled {
		t.Fatalf("report mismatches: %+v", g.Verify)
	}
	if len(rep.Cycles) == 0 {
		t.Error("embedded collector recorded no cycles")
	}

	// The emitted document must pass the same validation racemon -check runs.
	doc, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var checkRep collect.Report
	if err := json.Unmarshal(doc, &checkRep); err != nil {
		t.Fatal(err)
	}
	if err := collect.Check(&checkRep); err != nil {
		t.Fatalf("emitted report fails collect.Check: %v", err)
	}
}

// TestRunDetectsAdmissionBackpressure: against a one-session server, a
// multi-session ramp must classify rejections as full and flag a
// backpressure onset — never an unclassified error.
func TestRunDetectsAdmissionBackpressure(t *testing.T) {
	addr, _ := startBackend(t, server.Config{MaxSessions: 1})
	rep, err := Run(context.Background(), Config{
		Addr:          addr,
		TargetRPS:     40,
		Duration:      700 * time.Millisecond,
		StepEvery:     700 * time.Millisecond,
		SessionEvents: 4000,
		FlushEvery:    256,
		EventRate:     2000, // slow sessions down so arrivals overlap
		Mix:           []MixEntry{{Kind: "random", Weight: 1}},
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rep.Generator
	if g.Unclassified != 0 {
		t.Fatalf("unclassified errors: %d (%v)", g.Unclassified, g.UnclassifiedSamples)
	}
	if g.Errors["full"] == 0 {
		t.Fatalf("expected full rejections, got errors %v", g.Errors)
	}
	if g.BackpressureOnset == nil {
		t.Fatal("no backpressure onset detected despite rejections")
	}
	if g.BackpressureOnset.Reason != "rejections" && g.BackpressureOnset.Reason != "flush_ack_p99" {
		t.Errorf("onset reason = %q", g.BackpressureOnset.Reason)
	}
}

// TestSearchFindsCeiling: with admission capped at one session, the
// doubling climb must fail fast and report a bounded sustainable rate.
func TestSearchFindsCeiling(t *testing.T) {
	addr, _ := startBackend(t, server.Config{MaxSessions: 2})
	_, res, err := Search(context.Background(),
		Config{
			Addr:          addr,
			SessionEvents: 3000,
			FlushEvery:    256,
			EventRate:     1500,
			Mix:           []MixEntry{{Kind: "random", Weight: 1}},
			Seed:          5,
		},
		SearchConfig{StartRPS: 2, MaxRPS: 256, Window: 500 * time.Millisecond, ResolutionFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) < 2 {
		t.Fatalf("search ran %d probes, want a climb: %+v", len(res.Probes), res)
	}
	var sawFail bool
	for _, p := range res.Probes {
		if !p.Pass {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatalf("no probe failed against a 2-session server: %+v", res.Probes)
	}
	if res.MaxSustainableRPS >= 256 {
		t.Errorf("max sustainable = %v, want below the rail", res.MaxSustainableRPS)
	}
}

// TestFaultRunsMeetContract is the fault harness's own test: a short
// seeded run per schedule against the in-process faulty fleet. Every
// session must end byte-identical to batch analysis or fail with a typed
// error, every completed session is verified, and the schedule must
// actually fire — a run that injects nothing proves nothing.
func TestFaultRunsMeetContract(t *testing.T) {
	var mix []MixEntry
	for _, name := range []string{"avrora", "xalan", "h2", "tomcat", "jython", "lusearch"} {
		mix = append(mix, MixEntry{Kind: "dacapo", Name: name, Weight: 1})
	}
	for _, schedule := range FaultSchedules {
		t.Run(schedule, func(t *testing.T) {
			rep, err := Run(context.Background(), Config{
				Faults:        schedule,
				Seed:          1,
				TargetRPS:     12,
				Duration:      500 * time.Millisecond,
				StepEvery:     500 * time.Millisecond,
				SessionEvents: 12000,
				FlushEvery:    256,
				BatchSize:     256,
				Mix:           mix,
				Analyses:      []string{"FTO-HB", "ST-WDC"},
				VerifySample:  16, // more than launch: verify every completed session
			})
			if err != nil {
				t.Fatal(err)
			}
			g := rep.Generator
			if g.Unclassified != 0 {
				t.Fatalf("unclassified errors: %d (%v)", g.Unclassified, g.UnclassifiedSamples)
			}
			if g.SessionsLaunched == 0 || g.SessionsCompleted+g.SessionsFailed != g.SessionsLaunched {
				t.Fatalf("session accounting: %+v", g)
			}
			if g.Verify == nil || g.Verify.Sampled != int(g.SessionsCompleted) || g.Verify.Matched != g.Verify.Sampled {
				t.Fatalf("verify %+v over %d completed sessions", g.Verify, g.SessionsCompleted)
			}
			if g.Faults == nil || g.Faults.Schedule != schedule || g.Faults.Injected < 1 {
				t.Fatalf("faults = %+v, want the %s schedule to fire", g.Faults, schedule)
			}
			t.Logf("%s: %d/%d sessions completed, errors %v, %d faults injected",
				schedule, g.SessionsCompleted, g.SessionsLaunched, g.Errors, g.Faults.Injected)
		})
	}
	if _, err := Run(context.Background(), Config{Faults: "meteor"}); err == nil {
		t.Error("unknown fault schedule accepted")
	}
}
