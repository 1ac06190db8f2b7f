package loadgen

import (
	"time"

	"repro/internal/obs/collect"
)

// Report is the raceload/v1 LOAD_*.json document: the collector report
// (so `racemon -check` validates it and downstream tooling reads the
// server-side cycles unchanged) plus the generator's client-side view.
type Report struct {
	collect.Report
	Generator Generator `json:"generator"`
}

// Generator is the client half of the load report — everything measured
// at the wire client that server-side metrics cannot see.
type Generator struct {
	Addr            string  `json:"addr"`
	Mix             string  `json:"mix"`
	RampStartRPS    float64 `json:"ramp_start_rps"`
	RampStepRPS     float64 `json:"ramp_step_rps"`
	RampTargetRPS   float64 `json:"ramp_target_rps"`
	StepSeconds     float64 `json:"step_seconds"`
	DurationSeconds float64 `json:"duration_seconds"`
	SessionEvents   int     `json:"session_events"`
	EventRate       float64 `json:"event_rate"`
	Seed            int64   `json:"seed"`

	SessionsLaunched  uint64 `json:"sessions_launched"`
	SessionsCompleted uint64 `json:"sessions_completed"`
	SessionsFailed    uint64 `json:"sessions_failed"`
	// SessionsSkipped counts arrivals dropped because MaxInFlight sessions
	// were already running — the open-loop generator refusing to close its
	// loop. A skipped arrival is client-side saturation, not a server error.
	SessionsSkipped uint64 `json:"sessions_skipped"`
	EventsSent      uint64 `json:"events_sent"`

	// Client-side SLO quantiles over the whole run (seconds).
	OpenP50        float64 `json:"session_open_p50_seconds"`
	OpenP99        float64 `json:"session_open_p99_seconds"`
	FlushAckP50    float64 `json:"flush_ack_p50_seconds"`
	FlushAckP99    float64 `json:"flush_ack_p99_seconds"`
	CloseReportP50 float64 `json:"close_report_p50_seconds"`
	CloseReportP99 float64 `json:"close_report_p99_seconds"`

	// Errors counts every failed session op by server.Classify class. Every
	// value here is a *typed* failure (a wire error code, a handoff, a
	// context outcome, or a connection-level error); anything the
	// classifier cannot name lands in Unclassified and is a harness
	// violation per the typed-error contract.
	Errors              map[string]uint64 `json:"errors,omitempty"`
	Unclassified        uint64            `json:"unclassified_errors"`
	UnclassifiedSamples []string          `json:"unclassified_samples,omitempty"`

	Steps             []StepStats   `json:"steps"`
	BackpressureOnset *Onset        `json:"backpressure_onset,omitempty"`
	Verify            *VerifyResult `json:"verify,omitempty"`
	Search            *SearchResult `json:"search,omitempty"`
	Faults            *FaultStats   `json:"faults,omitempty"`
}

// StepStats is one ramp step's client-side interval statistics (histogram
// and counter deltas between the step's boundaries).
type StepStats struct {
	Index     int     `json:"index"`
	TargetRPS float64 `json:"target_rps"`
	StartUnix float64 `json:"start_unix"`
	EndUnix   float64 `json:"end_unix"`

	Launched   uint64 `json:"launched"`
	Completed  uint64 `json:"completed"`
	Failed     uint64 `json:"failed"`
	Skipped    uint64 `json:"skipped"`
	EventsSent uint64 `json:"events_sent"`

	FlushCount  uint64  `json:"flush_count"`
	FlushAckP50 float64 `json:"flush_ack_p50_seconds"`
	FlushAckP99 float64 `json:"flush_ack_p99_seconds"`
	OpenP99     float64 `json:"session_open_p99_seconds"`

	// Rejections sums the admission-control error classes ("full" and
	// "draining", as server.Classify names them) observed during the step —
	// the typed-rejection half of the backpressure-onset test.
	Rejections uint64            `json:"rejections"`
	Errors     map[string]uint64 `json:"errors,omitempty"`
}

// Onset marks the first ramp step where the run crossed from healthy into
// backpressure: client flush-ack p99 over the SLO, or any typed
// admission rejection.
type Onset struct {
	StepIndex   int     `json:"step_index"`
	TargetRPS   float64 `json:"target_rps"`
	Reason      string  `json:"reason"` // "flush_ack_p99" or "rejections"
	FlushAckP99 float64 `json:"flush_ack_p99_seconds"`
	Rejections  uint64  `json:"rejections"`
	SLOSeconds  float64 `json:"slo_seconds"`
}

// VerifyResult summarizes the -verify-sample conformance pass: sampled
// sessions' server reports byte-compared against a batch Analyze of the
// same trace.
type VerifyResult struct {
	Sampled    int      `json:"sampled"`
	Matched    int      `json:"matched"`
	Mismatched []string `json:"mismatched,omitempty"` // session ids
}

// FaultStats records a fault run (Config.Faults): the armed schedule and
// how many faults it fired. A run that fired none proved nothing.
type FaultStats struct {
	Schedule string `json:"schedule"`
	Injected int64  `json:"injected"`
}

// SearchResult is the -search saturation probe's outcome.
type SearchResult struct {
	MaxSustainableRPS float64       `json:"max_sustainable_rps"`
	Probes            []SearchProbe `json:"probes"`
}

// SearchProbe records one flat-rate measurement during the search.
type SearchProbe struct {
	RPS         float64 `json:"rps"`
	Pass        bool    `json:"pass"`
	FlushAckP99 float64 `json:"flush_ack_p99_seconds"`
	Rejections  uint64  `json:"rejections"`
	Reason      string  `json:"reason,omitempty"` // why it failed, when it failed
}

// detectOnset scans steps in ramp order for the first SLO breach. Steps
// with no flush observations can still breach on rejections (a fully
// saturated server may admit nothing at all).
func detectOnset(steps []StepStats, slo time.Duration) *Onset {
	for _, st := range steps {
		breachedLatency := slo > 0 && st.FlushCount > 0 && st.FlushAckP99 > slo.Seconds()
		breachedAdmission := st.Rejections > 0
		if !breachedLatency && !breachedAdmission {
			continue
		}
		reason := "rejections"
		if breachedLatency {
			reason = "flush_ack_p99"
		}
		return &Onset{
			StepIndex:   st.Index,
			TargetRPS:   st.TargetRPS,
			Reason:      reason,
			FlushAckP99: st.FlushAckP99,
			Rejections:  st.Rejections,
			SLOSeconds:  slo.Seconds(),
		}
	}
	return nil
}
