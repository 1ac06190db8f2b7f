package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/race"
)

// Handler returns the server's HTTP API:
//
//	POST   /sessions                 open a session (body: SessionConfig JSON)
//	GET    /sessions                 list live session ids
//	POST   /sessions/{id}/events     ingest raw 12-byte event records (body)
//	POST   /sessions/{id}/flush      sync barrier; reports ingestion errors
//	POST   /sessions/{id}/close      end the stream; returns the report JSON
//	GET    /sessions/{id}/races      report JSON (live snapshot while open)
//	DELETE /sessions/{id}            abort the session, discarding the report
//	POST   /ingest                   one-shot: body is a binary trace file;
//	                                 runs a session end to end, returns the
//	                                 report (query: analysis=A,B&vindicate=1)
//	GET    /healthz                  readiness: 503 while draining or with an
//	                                 unwritable data dir; reports occupancy
//	GET    /metrics                  canonical metrics (JSON or Prometheus text)
//
// Fleet administration (the router's control surface):
//
//	POST   /admin/drain                    stop admitting new sessions (healthz
//	                                       goes 503; live sessions unaffected)
//	POST   /admin/sessions/{id}/suspend    seal a live durable session's journal
//	                                       and free its slot (migration source)
//	POST   /admin/sessions/{id}/recover    load a session directory that appeared
//	                                       in the data dir (migration target)
//
// Event bodies reuse the trace codec's record encoding, so POST
// /sessions/{id}/events accepts exactly the bytes an Events wire frame
// carries, and POST /ingest accepts an unmodified tracegen output file.
// POST /sessions?id=X opens the session under the caller-chosen id X (the
// router's consistent-hash placement key) instead of a server-assigned one.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleOpen)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("POST /sessions/{id}/events", s.withExclusiveSession(s.handleEvents))
	mux.HandleFunc("POST /sessions/{id}/flush", s.withExclusiveSession(s.handleFlush))
	mux.HandleFunc("POST /sessions/{id}/close", s.withExclusiveSession(s.handleClose))
	mux.HandleFunc("GET /sessions/{id}/races", s.handleRaces)
	mux.HandleFunc("DELETE /sessions/{id}", s.withSession(s.handleAbort))
	mux.HandleFunc("POST /ingest", s.handleIngest)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /admin/drain", s.handleDrain)
	mux.HandleFunc("POST /admin/sessions/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /admin/sessions/{id}/recover", s.handleRecover)
	mux.Handle("GET /debug/traces", tracing.Handler(s.cfg.Tracer))
	return s.traceHTTP(mux)
}

// traceHTTP wraps the API mux: each request gets a server-side root span
// that adopts an incoming traceparent header, the response echoes the
// span's own context in the same header, and handlers find the context in
// the request for their ingest spans. With tracing off the mux is
// returned untouched, so the HTTP path stays exactly as before. Probe and
// introspection endpoints are exempt — a scrape every few seconds would
// drown real request trees in the span ring.
func (s *Server) traceHTTP(next http.Handler) http.Handler {
	tr := s.cfg.Tracer
	if tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics", "/debug/traces":
			next.ServeHTTP(w, r)
			return
		}
		remote, _ := tracing.ParseTraceparent(r.Header.Get(tracing.Header))
		sp := tr.Root("raced.http "+r.Method+" "+r.URL.Path, remote)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		w.Header().Set(tracing.Header, sp.Context().Traceparent())
		next.ServeHTTP(w, r.WithContext(tracing.ContextWith(r.Context(), sp.Context())))
		sp.End()
	})
}

// httpError maps session-manager errors to status codes. Every response
// also carries the wire error code in ErrorCodeHeader — the HTTP analogue
// of a typed TError frame, so the fleet router classifies admin-API
// failures the same way wire clients classify frames.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrServerFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrEvicted), errors.Is(err, ErrIDTaken):
		code = http.StatusConflict
	case errors.Is(err, ErrUnknown):
		code = http.StatusNotFound
	}
	w.Header().Set(wire.ErrorCodeHeader, string(ErrorCode(err)))
	http.Error(w, err.Error(), code)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.Session(r.PathValue("id"))
		if !ok {
			httpError(w, fmt.Errorf("%w: %s", ErrUnknown, r.PathValue("id")))
			return
		}
		h(w, r, sess)
	}
}

// withExclusiveSession claims the session for the duration of a mutating
// request: one session has exactly one feeder at a time, whichever front
// end it came in through. A wire connection mid-session (or a concurrent
// HTTP upload) answers 409 — a check-then-act test would leave the whole
// remainder of an in-flight upload free to interleave with a wire resume
// (DELETE stays exempt: operators may abort anything).
func (s *Server) withExclusiveSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return s.withSession(func(w http.ResponseWriter, r *http.Request, sess *Session) {
		if err := sess.attach(); err != nil {
			w.Header().Set(wire.ErrorCodeHeader, string(ErrorCode(err)))
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		defer sess.detach()
		h(w, r, sess)
	})
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
			http.Error(w, fmt.Sprintf("bad session config: %v", err), http.StatusBadRequest)
			return
		}
	}
	var sess *Session
	var err error
	if id := r.URL.Query().Get("id"); id != "" {
		sess, err = s.OpenSessionWithID(id, cfg)
	} else {
		sess, err = s.OpenSession(cfg)
	}
	if err != nil {
		openError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]string{"session": sess.ID})
}

// openError maps OpenSession failures: server-side conditions keep their
// operational codes, anything else (unknown analysis name, N/A Table 1
// cell) is the caller's configuration — a 400, not a server fault.
func openError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrServerFull) || errors.Is(err, ErrServerClosed) ||
		errors.Is(err, ErrDraining) || errors.Is(err, ErrIDTaken) {
		httpError(w, err)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// handleList serves the session inventory: every live session and every
// retained finished one, with state, event count, and races so far.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"sessions": s.Sessions()})
}

// handleEvents streams raw event records from the request body into the
// session, batching every ingestBatch events. The body length need not be
// known: chunked uploads work, so a live client can keep one request open.
const ingestBatch = 4096

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, sess *Session) {
	br := bufio.NewReaderSize(r.Body, 1<<16)
	var (
		sc    = tracing.FromContext(r.Context())
		rec   [trace.RecordSize]byte
		batch = make([]race.Event, 0, ingestBatch)
		fed   uint64
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		run := batch
		batch = make([]race.Event, 0, ingestBatch)
		fed += uint64(len(run))
		return sess.FeedCtx(sc, run)
	}
	for {
		_, err := io.ReadFull(br, rec[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("truncated event record: %v", err), http.StatusBadRequest)
			return
		}
		ev, err := trace.GetRecord(rec[:])
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		batch = append(batch, ev) // race.Event is an alias of trace.Event
		if len(batch) >= ingestBatch {
			if err := flush(); err != nil {
				httpError(w, err)
				return
			}
		}
	}
	if err := flush(); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"fed": fed})
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request, sess *Session) {
	if err := sess.FlushCtx(tracing.FromContext(r.Context())); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"fed": sess.Fed()})
}

func (s *Server) handleClose(w http.ResponseWriter, _ *http.Request, sess *Session) {
	rep, err := sess.Close()
	if err != nil {
		httpError(w, err)
		return
	}
	writeReport(w, rep)
}

// handleRaces serves races for both live and finished sessions: while a
// session is streaming it returns a snapshot of the races delivered so
// far; once the session has closed it returns the canonical report JSON
// (retained for the last maxFinished terminated sessions). A session that
// ended without a report (aborted, evicted, poisoned) reports its
// terminal error instead.
func (s *Server) handleRaces(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if sess, ok := s.Session(id); ok {
		writeJSON(w, map[string]any{
			"session": sess.ID,
			"fed":     sess.Fed(),
			"races":   sess.Races(),
		})
		return
	}
	sess, ok := s.Finished(id)
	if !ok {
		httpError(w, fmt.Errorf("%w: %s", ErrUnknown, id))
		return
	}
	rep, err := sess.Close() // idempotent: returns the recorded outcome
	if err != nil {
		httpError(w, err)
		return
	}
	writeReport(w, rep)
}

func (s *Server) handleAbort(w http.ResponseWriter, _ *http.Request, sess *Session) {
	sess.abort(fmt.Errorf("server: session aborted by client"))
	w.WriteHeader(http.StatusNoContent)
}

// handleIngest is the one-shot batch path: the body is a complete binary
// trace file (tracegen output), analyzed in a throwaway session whose
// report is the response.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if v := r.URL.Query().Get("vindicate"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad vindicate value %q: %v", v, err), http.StatusBadRequest)
			return
		}
		cfg.Vindicate = on
	}
	if names := r.URL.Query().Get("analysis"); names != "" {
		cfg.Analyses = strings.Split(names, ",")
	}
	// The ingest session is a throwaway — the report is returned in this
	// very response — so skip durability: journaling (and retaining) a
	// session that can never be resumed would only double the I/O and
	// grow the data dir without bound.
	sess, err := s.openSession("", cfg, false)
	if err != nil {
		openError(w, err)
		return
	}
	// The whole one-shot run parents under this request's span.
	sess.SetTraceContext(tracing.FromContext(r.Context()))
	dec := trace.NewDecoder(r.Body)
	batch := make([]race.Event, 0, ingestBatch)
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sess.abort(err)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		batch = append(batch, ev)
		if len(batch) >= ingestBatch {
			if err := sess.Feed(batch); err != nil {
				sess.Close()
				httpError(w, err)
				return
			}
			batch = make([]race.Event, 0, ingestBatch)
		}
	}
	if err := sess.Feed(batch); err != nil {
		sess.Close()
		httpError(w, err)
		return
	}
	rep, err := sess.Close()
	if err != nil {
		httpError(w, err)
		return
	}
	writeReport(w, rep)
}

// writeReport serves a report's canonical JSON form — raced's half of the
// byte-identical remote == in-process conformance contract.
func writeReport(w http.ResponseWriter, rep *race.Report) {
	doc, err := json.Marshal(rep)
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// healthzStatus is the GET /healthz document — readiness, not just
// liveness: a router must stop routing new sessions to a backend that is
// draining, full, or unable to persist journals, and the 503/200 split is
// what its probe keys on.
type healthzStatus struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining,omitempty"`
	// ActiveSessions / MaxSessions is the pool occupancy a router can use
	// for load-aware decisions; Full means new opens would be rejected.
	ActiveSessions int  `json:"active_sessions"`
	MaxSessions    int  `json:"max_sessions"`
	Full           bool `json:"full,omitempty"`
	// DataDirWritable is present only on durable servers: a backend whose
	// disk stopped accepting writes cannot honor flush-ack durability and
	// must leave the routable set even though the process is alive.
	DataDirWritable *bool `json:"data_dir_writable,omitempty"`
	// Degraded means at least one session has failed on a disk fault since
	// start (its journal quarantined, its error sticky). Degraded alone
	// does NOT fail the probe: the fault policy isolates the damage and the
	// server keeps serving other tenants — a router should keep it routable
	// unless the data dir itself stopped accepting writes.
	Degraded            bool   `json:"degraded,omitempty"`
	QuarantinedSessions uint64 `json:"quarantined_sessions,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := healthzStatus{
		OK:                  true,
		Draining:            s.Draining(),
		ActiveSessions:      s.ActiveSessions(),
		MaxSessions:         s.cfg.MaxSessions,
		Degraded:            s.Degraded(),
		QuarantinedSessions: s.QuarantinedSessions(),
	}
	st.Full = st.ActiveSessions >= st.MaxSessions
	if s.cfg.DataDir != "" {
		writable := dataDirWritable(s.fsys(), s.cfg.DataDir)
		st.DataDirWritable = &writable
		if !writable {
			st.OK = false
		}
	}
	if st.Draining {
		st.OK = false
	}
	if !st.OK {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, st)
}

// dataDirWritable probes the data dir with a create+remove round trip on
// the server's filesystem — under fault injection the probe sees the same
// failing disk the journals do.
func dataDirWritable(fsys fault.FS, dir string) bool {
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return false
	}
	probe := filepath.Join(dir, ".healthz-probe")
	f, err := fsys.OpenFile(probe, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return false
	}
	f.Close()
	return fsys.Remove(probe) == nil
}

// handleDrain takes the server out of the admission pool: new sessions are
// refused (ErrDraining / healthz 503) while live sessions keep streaming.
func (s *Server) handleDrain(w http.ResponseWriter, _ *http.Request) {
	s.Drain()
	writeJSON(w, map[string]any{"draining": true, "active_sessions": s.ActiveSessions()})
}

// handleSuspend seals one live durable session for migration and returns
// its journaled offset.
func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	fed, err := s.SuspendSession(r.PathValue("id"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, map[string]uint64{"fed": fed})
}

// handleRecover loads a session directory that appeared under the data dir
// (a migration's copied journal) into this server.
func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.recoverSessionCtx(tracing.FromContext(r.Context()), id); err != nil {
		httpError(w, err)
		return
	}
	offset := uint64(0)
	if sess, ok := s.Session(id); ok {
		offset = sess.Enqueued()
	}
	writeJSON(w, map[string]uint64{"fed": offset})
}

// handleMetrics serves the registry two ways: ?format=prometheus — or a
// Prometheus-style Accept: text/plain; version=0.0.4 header — emits the
// text exposition (v0.0.4); the default JSON body is the same series as a
// flat canonical-name map (obs.JSONMap; see the README catalog).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" || obs.AcceptsText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.TextContentType)
		obs.WriteText(w, s.Registry().Snapshot())
		return
	}
	writeJSON(w, obs.JSONMap(s.Registry().Snapshot()))
}
