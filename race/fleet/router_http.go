package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"sort"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race/server"
)

// Handler returns the router's HTTP API — the raced API plus fleet admin:
//
//	POST /sessions                      open (router assigns the id, routes
//	                                    by hash, proxies to the backend)
//	GET  /sessions                      union of every backend's sessions
//	*    /sessions/{id}...              proxied to the session's backend
//	POST /ingest                        one-shot ingest on any routable backend
//	GET  /healthz                       router readiness (≥1 routable backend)
//	GET  /metrics                       fleet metrics (JSON or Prometheus text)
//	POST /admin/backends/{name}/drain   drain a backend fleet-wide
//	POST /admin/sessions/{id}/migrate   ?to=backend — migrate a session
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", rt.handleOpen)
	mux.HandleFunc("GET /sessions", rt.handleList)
	mux.HandleFunc("/sessions/{id}", rt.handleSession)
	mux.HandleFunc("/sessions/{id}/{rest...}", rt.handleSession)
	mux.HandleFunc("POST /ingest", rt.handleIngest)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("POST /admin/backends/{name}/drain", rt.handleDrainBackend)
	mux.HandleFunc("POST /admin/sessions/{id}/migrate", rt.handleMigrate)
	mux.Handle("GET /debug/traces", tracing.Handler(rt.tracer))
	return rt.traceHTTP(mux)
}

// traceHTTP roots a span per API request (adopting an incoming traceparent)
// and rewrites the header on the outgoing request, so proxied calls carry
// the router span to the backend. Probe and introspection endpoints are
// exempt — a scraper polling /metrics would drown the ring. No-op without
// a tracer.
func (rt *Router) traceHTTP(next http.Handler) http.Handler {
	if rt.tracer == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz", "/metrics", "/debug/traces":
			next.ServeHTTP(w, r)
			return
		}
		remote, _ := tracing.ParseTraceparent(r.Header.Get(tracing.Header))
		sp := rt.tracer.Root("fleet.http "+r.Method+" "+r.URL.Path, remote)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		tp := sp.Context().Traceparent()
		w.Header().Set(tracing.Header, tp)
		r.Header.Set(tracing.Header, tp)
		next.ServeHTTP(w, r.WithContext(tracing.ContextWith(r.Context(), sp.Context())))
		sp.End()
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// noBackends answers 503 for a request no backend can take, typed in the
// error-code header the way the wire path types the same error ("full").
func noBackends(w http.ResponseWriter) {
	w.Header().Set(wire.ErrorCodeHeader, string(server.ErrorCode(ErrNoBackends)))
	http.Error(w, ErrNoBackends.Error(), http.StatusServiceUnavailable)
}

// pickRoutable returns the first routable backend in id's ring sequence.
func (rt *Router) pickRoutable(id string) (Backend, bool) {
	for _, name := range rt.ring.sequence(id) {
		if rt.health.routable(name) {
			return rt.backends[name], true
		}
	}
	return nil, false
}

// handleOpen assigns a fleet session id (unless the caller chose one) and
// proxies the open to the id's backend, which honors the id via ?id=.
func (rt *Router) handleOpen(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	if id == "" {
		id = NewSessionID()
		q.Set("id", id)
		r.URL.RawQuery = q.Encode()
	}
	b, ok := rt.pickRoutable(id)
	if !ok {
		noBackends(w)
		return
	}
	rt.metrics.sessionsRouted[b.Name()].Inc()
	b.Proxy(w, r)
}

// locate finds the backend currently holding id (live or finished),
// preferring ring order; the ring owner is the fallback so a miss still
// produces the canonical 404.
func (rt *Router) locate(ctx context.Context, id string) (Backend, bool) {
	var fallback Backend
	for _, name := range rt.ring.sequence(id) {
		if !rt.health.reachable(name) {
			continue
		}
		b := rt.backends[name]
		if fallback == nil {
			fallback = b
		}
		sessions, err := b.Sessions(ctx)
		if err != nil {
			if isUnreachable(err) {
				rt.health.markDown(name)
			}
			continue
		}
		for _, st := range sessions {
			if st.ID == id {
				return b, true
			}
		}
	}
	return fallback, fallback != nil
}

// handleSession proxies any per-session route to the backend holding the
// session — which, after a migration, need not be the hash owner.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	b, ok := rt.locate(r.Context(), r.PathValue("id"))
	if !ok {
		noBackends(w)
		return
	}
	b.Proxy(w, r)
}

// handleList merges every reachable backend's session listing.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	byBackend := make(map[string][]server.SessionStatus, len(rt.names))
	var all []server.SessionStatus
	for _, name := range rt.names {
		if !rt.health.reachable(name) {
			continue
		}
		sessions, err := rt.backends[name].Sessions(r.Context())
		if err != nil {
			if isUnreachable(err) {
				rt.health.markDown(name)
			}
			continue
		}
		byBackend[name] = sessions
		all = append(all, sessions...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, map[string]any{"sessions": all, "backends": byBackend})
}

// handleIngest routes a one-shot ingest to any routable backend (hashed on
// a throwaway id so load still spreads).
func (rt *Router) handleIngest(w http.ResponseWriter, r *http.Request) {
	b, ok := rt.pickRoutable(NewSessionID())
	if !ok {
		noBackends(w)
		return
	}
	b.Proxy(w, r)
}

// handleHealthz reports router readiness: OK while at least one backend is
// routable.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := make(map[string]string, len(rt.names))
	routable := 0
	for _, name := range rt.names {
		st := rt.health.status(name)
		status[name] = st
		if st == "up" {
			routable++
		}
	}
	ok := routable > 0
	if !ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, map[string]any{"ok": ok, "routable_backends": routable, "backends": status})
}

// handleMetrics serves the registry two ways: Prometheus text exposition
// under ?format=prometheus or an Accept header asking for text/plain (how
// Prometheus itself scrapes), otherwise the same series as a flat
// canonical-name JSON map (obs.JSONMap).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" || obs.AcceptsText(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.TextContentType)
		obs.WriteText(w, rt.reg.Snapshot())
		return
	}
	writeJSON(w, obs.JSONMap(rt.reg.Snapshot()))
}

// handleDrainBackend drains one backend and marks it unroutable
// immediately (the next probe would anyway, this just removes the window).
func (rt *Router) handleDrainBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	b, ok := rt.backends[name]
	if !ok {
		http.Error(w, "fleet: unknown backend "+name, http.StatusNotFound)
		return
	}
	if err := b.Drain(r.Context()); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	rt.health.observe(name, ErrBackendDraining)
	writeJSON(w, map[string]any{"backend": name, "draining": true})
}

// handleMigrate moves a session to the backend named by ?to=.
func (rt *Router) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	to := r.URL.Query().Get("to")
	if to == "" {
		http.Error(w, "fleet: migrate needs ?to=<backend>", http.StatusBadRequest)
		return
	}
	if err := rt.MigrateSession(r.Context(), id, to); err != nil {
		status := http.StatusBadGateway
		if isUnknownSession(err) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, map[string]string{"session": id, "backend": to})
}
