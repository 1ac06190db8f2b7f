package main

import "time"

// span is one timed call into a layer, recorded by the benchmark around
// the public call (nothing inside the program is instrumented). Spans of
// one job or session share Job; Parent indexes the causing span in the
// same recorder (-1 for a job's root).
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the call covered: events, or bytes for a report.
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps one goroutine's spans in memory. A nil recorder records
// nothing, which is how untraced jobs run.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// begin opens a span and returns its handle (-1 on a nil recorder).
func (r *recorder) begin(name string, job, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: int64(time.Since(r.origin))})
	return len(r.spans) - 1
}

// end closes span h, recording the work n it covered.
func (r *recorder) end(h, n int) {
	if r == nil || h < 0 {
		return
	}
	r.spans[h].End = int64(time.Since(r.origin))
	r.spans[h].N = n
}

// mergeSpans concatenates recorders' spans, rebasing parent handles.
func mergeSpans(rs ...*recorder) []span {
	var out []span
	for _, r := range rs {
		if r == nil {
			continue
		}
		base := len(out)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// total sums the duration and work of every span called name.
func total(spans []span, name string) (d time.Duration, n, count int) {
	for _, s := range spans {
		if s.Name == name {
			d += s.dur()
			n += s.N
			count++
		}
	}
	return d, n, count
}

// durations lists the durations of every span called name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// perJob sums the durations of the spans called name within each job
// and returns one total per job that has any.
func perJob(spans []span, name string) []time.Duration {
	sums := map[int]time.Duration{}
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, ok := sums[s.Job]; !ok {
			order = append(order, s.Job)
		}
		sums[s.Job] += s.dur()
	}
	out := make([]time.Duration, len(order))
	for i, j := range order {
		out[i] = sums[j]
	}
	return out
}
