package fleet

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race/server"
)

// Router is the stateless ingress in front of a raced fleet. It speaks the
// same wire protocol and HTTP API as a single raced, so clients point at
// the router instead of a backend and nothing else changes; the router
// assigns each session an id, hashes it onto a backend, and keeps the
// stream flowing across backend drains, crashes, and migrations.
//
// "Stateless" is literal: the only routing inputs are the configured
// backend list (the consistent-hash ring is a pure function of it) and
// live health state, both reconstructible at any moment. Sessions
// themselves live in backend journals — a router restart loses nothing.
type Router struct {
	backends map[string]Backend
	names    []string // sorted, fixed at construction
	ring     *ring
	health   *healthMonitor
	breakers map[string]*breaker
	reg      *obs.Registry
	metrics  *fleetMetrics
	logger   *slog.Logger
	tracer   *tracing.Tracer

	ioTimeout time.Duration
	wrapConn  func(net.Conn) net.Conn

	lockMu    sync.Mutex
	sessLocks map[string]*sync.Mutex
}

// Options configures a Router.
type Options struct {
	// VNodes is the virtual-node count per backend on the hash ring
	// (DefaultVNodes when zero).
	VNodes int
	// ProbeInterval and ProbeThreshold govern health checking
	// (DefaultProbeInterval / DefaultProbeThreshold when zero).
	ProbeInterval  time.Duration
	ProbeThreshold int

	// BreakerThreshold and BreakerCooldown govern the per-backend circuit
	// breakers (DefaultBreakerThreshold / DefaultBreakerCooldown when
	// zero): after BreakerThreshold consecutive unreachable-class RPC
	// failures, calls to the backend fail fast with ErrCircuitOpen until a
	// half-open trial succeeds.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// IOTimeout, when positive, cuts client connections that make no read
	// or write progress for the duration (the same stall guard raced's
	// Config.IOTimeout applies on backends).
	IOTimeout time.Duration

	// WrapConn, when set, wraps every accepted client connection — the
	// router-side network fault-injection seam (fault.WrapConn). Applied
	// under the IOTimeout layer, so injected stalls hit the same deadline
	// an organic stall would.
	WrapConn func(net.Conn) net.Conn

	// Registry receives the router's fleet_* metrics. Nil creates a
	// private registry, reachable via Router.Registry. A registry must
	// not be shared between Routers (series would collide).
	Registry *obs.Registry

	// Logger receives the router's structured logs. Nil uses
	// slog.Default().
	Logger *slog.Logger

	// Tracer, when set, records router-side spans (session, placement,
	// flush, migration) and propagates trace context to backends — a
	// client-initiated trace ID follows the stream through the router onto
	// its backend. Nil disables router spans; a client's trace context is
	// still forwarded to backends untouched.
	Tracer *tracing.Tracer
}

// New builds a router over backends and starts health probing. Close stops
// the probers.
func New(backends []Backend, opts Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("fleet: router needs at least one backend")
	}
	rt := &Router{
		backends:  make(map[string]Backend, len(backends)),
		breakers:  make(map[string]*breaker, len(backends)),
		sessLocks: make(map[string]*sync.Mutex),
		reg:       opts.Registry,
		logger:    opts.Logger,
		tracer:    opts.Tracer,
		ioTimeout: opts.IOTimeout,
		wrapConn:  opts.WrapConn,
	}
	if rt.reg == nil {
		rt.reg = obs.NewRegistry()
	}
	if rt.logger == nil {
		rt.logger = slog.Default()
	}
	for _, b := range backends {
		name := b.Name()
		if name == "" {
			return nil, errors.New("fleet: backend with empty name")
		}
		if _, dup := rt.backends[name]; dup {
			return nil, fmt.Errorf("fleet: duplicate backend name %q", name)
		}
		rt.backends[name] = b
		rt.names = append(rt.names, name)
		rt.breakers[name] = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	rt.metrics = newFleetMetrics(rt.reg, rt.names)
	rt.ring = newRing(rt.names, opts.VNodes)
	rt.health = newHealthMonitor(rt.names, opts.ProbeInterval, opts.ProbeThreshold)
	rt.metrics.registerBackendUp(rt.reg, rt.names, rt.health)
	rt.health.onProbe = rt.metrics.probeHook
	rt.health.onRecover = func(name string) {
		if c, ok := rt.metrics.recoveries[name]; ok {
			c.Inc()
		}
	}
	rt.health.start(func(ctx context.Context, name string) error {
		return rt.backends[name].Healthz(ctx)
	})
	return rt, nil
}

// Registry exposes the router's metrics registry (the one from
// Options.Registry, or the private default).
func (rt *Router) Registry() *obs.Registry { return rt.reg }

// Tracer exposes the router's tracer (Options.Tracer; nil when tracing is
// off).
func (rt *Router) Tracer() *tracing.Tracer { return rt.tracer }

// Close stops health probing. Sessions keep living on their backends.
func (rt *Router) Close() { rt.health.close() }

// Backends returns the backend names on the ring (sorted order of
// construction).
func (rt *Router) Backends() []string { return append([]string(nil), rt.names...) }

// span starts a router-side child span under whatever trace context ctx
// carries (nil, costing nothing, when tracing is off).
func (rt *Router) span(ctx context.Context, name string) *tracing.Span {
	if rt.tracer == nil {
		return nil
	}
	return rt.tracer.Child(name, tracing.FromContext(ctx))
}

// lockSession serializes routing decisions and migrations per session id.
func (rt *Router) lockSession(id string) func() {
	rt.lockMu.Lock()
	m, ok := rt.sessLocks[id]
	if !ok {
		m = new(sync.Mutex)
		rt.sessLocks[id] = m
	}
	rt.lockMu.Unlock()
	m.Lock()
	return m.Unlock
}

// NewSessionID mints a router-assigned session id: "f" + 12 hex chars.
// The prefix-plus-randomness form cannot collide with a backend's own
// auto-assigned ids (which session-id validation reserves).
func NewSessionID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("fleet: reading random session id: " + err.Error())
	}
	return "f" + hex.EncodeToString(b[:])
}

// isUnknownSession reports whether err says the backend has never heard of
// the session. Remote backends carry the sentinel through typed TError
// frames and the error-code header, so errors.Is reaches across the wire;
// RemoteErrorCode covers peers whose error chain kept only the code.
func isUnknownSession(err error) bool {
	return err != nil &&
		(errors.Is(err, server.ErrUnknown) || server.RemoteErrorCode(err) == wire.CodeUnknownSession)
}

// routeOpen places a fresh session: the id's ring sequence is tried in
// order, skipping unroutable backends and failing over past full, draining,
// or unreachable ones.
func (rt *Router) routeOpen(ctx context.Context, id string, cfg server.SessionConfig) (Session, Backend, error) {
	rsp := rt.span(ctx, "fleet.route_open")
	rsp.SetAttr("session", id)
	defer rsp.End()
	var lastErr error
	for _, name := range rt.ring.sequence(id) {
		if !rt.health.routable(name) || !rt.breakerAllow(name) {
			continue
		}
		b := rt.backends[name]
		sess, err := b.Open(ctx, id, cfg)
		rt.breakerRecord(name, err)
		if err == nil {
			rt.metrics.sessionsRouted[name].Inc()
			rsp.SetAttr("backend", name)
			return sess, b, nil
		}
		lastErr = err
		if isUnreachable(err) {
			rt.health.markDown(name)
			continue
		}
		if errors.Is(err, server.ErrServerFull) || errors.Is(err, server.ErrDraining) ||
			errors.Is(err, server.ErrServerClosed) {
			continue // capacity failover: next arc on the ring
		}
		return nil, nil, err
	}
	if lastErr == nil {
		lastErr = ErrNoBackends
	}
	return nil, nil, lastErr
}

// resumeOn resumes id on one backend, counting it and feeding the
// backend's circuit breaker.
func (rt *Router) resumeOn(ctx context.Context, b Backend, id string) (Session, uint64, error) {
	if !rt.breakerAllow(b.Name()) {
		return nil, 0, fmt.Errorf("%w: %s", ErrCircuitOpen, b.Name())
	}
	sess, fed, err := b.Resume(ctx, id)
	rt.breakerRecord(b.Name(), err)
	if err != nil {
		return nil, 0, err
	}
	rt.metrics.resumesRouted[b.Name()].Inc()
	return sess, fed, nil
}

// routeResume re-attaches a client to its session wherever it now lives,
// migrating it home if need be:
//
//  1. Try the id's routable ring sequence directly — the common case (the
//     session is live on its owner, or was already migrated to the next
//     arc after a crash).
//  2. Unknown there: scatter across the other reachable backends — the
//     session may be live on a draining backend (serve it in place; drain
//     means "no NEW sessions") or on one the ring no longer prefers.
//  3. Still unknown: look for the session's directory on disk — its
//     backend crashed or suspended it. If the dir is already under the
//     target, recover in place; otherwise copy + recover (migration), then
//     resume on the target.
//
// Steps 2–3 run under the session's router lock so concurrent resumes and
// admin migrations cannot race the directory move.
func (rt *Router) routeResume(ctx context.Context, id string) (Session, uint64, Backend, error) {
	rsp := rt.span(ctx, "fleet.route_resume")
	rsp.SetAttr("session", id)
	defer rsp.End()
	var target Backend
	var lastErr error
	for _, name := range rt.ring.sequence(id) {
		if !rt.health.routable(name) {
			continue
		}
		b := rt.backends[name]
		sess, fed, err := rt.resumeOn(ctx, b, id)
		if err == nil {
			return sess, fed, b, nil
		}
		lastErr = err
		if isUnreachable(err) {
			rt.health.markDown(name)
			continue
		}
		if isUnknownSession(err) {
			target = b
			break
		}
		return nil, 0, nil, err // busy, poisoned, …: not routing's problem
	}
	if target == nil {
		if lastErr == nil {
			lastErr = ErrNoBackends
		}
		return nil, 0, nil, lastErr
	}

	unlock := rt.lockSession(id)
	defer unlock()

	// Scatter: live somewhere the ring didn't send us?
	for _, name := range rt.ring.sequence(id) {
		b := rt.backends[name]
		if b == target || !rt.health.reachable(name) {
			continue
		}
		sess, fed, err := rt.resumeOn(ctx, b, id)
		if err == nil {
			if rt.health.routable(name) {
				return sess, fed, b, nil // serve in place
			}
			// Draining backend: move the session to the target now.
			sess.Release()
			if _, err := rt.suspendTimed(ctx, b, id); err != nil {
				return nil, 0, nil, fmt.Errorf("fleet: suspending %s on draining %s: %w", id, name, err)
			}
			if err := rt.migrate(ctx, id, b.DataDir(), target); err != nil {
				return nil, 0, nil, err
			}
			sess2, fed2, err2 := rt.resumeOn(ctx, target, id)
			return sess2, fed2, target, err2
		}
		if isUnreachable(err) {
			rt.health.markDown(name)
		}
	}

	// Disk: the session's home backend is gone (or sealed it); find the
	// directory and bring it to the target.
	if hasSessionDir(target.DataDir(), id) {
		if err := target.RecoverSession(ctx, id); err != nil {
			return nil, 0, nil, err
		}
		rt.metrics.migStarted.Inc() // in-place recovery counts as a (trivial) migration
		rt.metrics.migCompleted.Inc()
		sess, fed, err := rt.resumeOn(ctx, target, id)
		return sess, fed, target, err
	}
	for _, name := range rt.ring.sequence(id) {
		b := rt.backends[name]
		if b == target || !hasSessionDir(b.DataDir(), id) {
			continue
		}
		if rt.health.reachable(name) {
			// Best effort: if it is somehow still live there, seal it
			// before copying. "Unknown session" just means it already is.
			rt.suspendTimed(ctx, b, id)
		}
		if err := rt.migrate(ctx, id, b.DataDir(), target); err != nil {
			return nil, 0, nil, err
		}
		sess, fed, err := rt.resumeOn(ctx, target, id)
		return sess, fed, target, err
	}
	return nil, 0, nil, fmt.Errorf("%w: %s", server.ErrUnknown, id)
}

// ---- wire-protocol front end ----

// helloPayload/ackPayload/flushAckPayload mirror the raced wire payloads
// (they are defined by the protocol, not exported Go API).
type helloPayload struct {
	Proto     int                  `json:"proto"`
	Session   server.SessionConfig `json:"session"`
	SessionID string               `json:"session_id,omitempty"`
	Resume    string               `json:"resume,omitempty"`
	// Trace is an optional W3C traceparent from the client (ignored by
	// peers that predate tracing).
	Trace string `json:"trace,omitempty"`
}

// flushPayload is the optional TFlush payload carrying the client's
// per-flush trace context (old clients send no payload).
type flushPayload struct {
	Trace string `json:"trace,omitempty"`
}

type ackPayload struct {
	Session string `json:"session"`
	Fed     uint64 `json:"fed"`
}

type flushAckPayload struct {
	Fed uint64 `json:"fed"`
}

// ServeTCP accepts wire-protocol connections until the listener closes,
// one proxied session per connection.
func (rt *Router) ServeTCP(lis net.Listener) error {
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		go rt.serveConn(conn)
	}
}

// serveConn proxies one client session onto its backend. Frame in, session
// op out: Events feed, Flush barriers (acked with the backend's durable
// offset), EOF closes and relays the backend's report bytes verbatim. When
// the backend fails mid-stream in a way that re-resuming can heal — drain,
// migration, crash — the client gets a Redirect frame instead of an Error
// and reconnects through the router, which lands it on the session's new
// home.
func (rt *Router) serveConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			rt.logger.Error("connection handler panic", "remote", conn.RemoteAddr(), "panic", r)
		}
	}()
	ctx := context.Background()
	// Seam order matches raced: the fault injector (if any) wraps the raw
	// socket, the deadline layer sits on top.
	wrapped := conn
	if rt.wrapConn != nil {
		wrapped = rt.wrapConn(wrapped)
	}
	if rt.ioTimeout > 0 {
		wrapped = server.WithIOTimeout(wrapped, rt.ioTimeout)
	}
	br := bufio.NewReaderSize(wrapped, 1<<16)
	bw := bufio.NewWriterSize(wrapped, 1<<16)

	sendErr := func(err error) {
		if werr := wire.WriteFrame(bw, wire.TError, wire.EncodeError(server.ErrorCode(err), err.Error())); werr == nil {
			bw.Flush()
		}
	}
	sendRedirect := func() {
		rt.metrics.redirects.Inc()
		if werr := wire.WriteFrame(bw, wire.TRedirect, nil); werr == nil {
			bw.Flush()
		}
	}

	t, payload, err := wire.ReadFrame(br)
	if err != nil {
		return
	}
	if t != wire.THello {
		sendErr(fmt.Errorf("fleet: expected hello frame, got %v", t))
		return
	}
	var hello helloPayload
	if err := json.Unmarshal(payload, &hello); err != nil {
		sendErr(fmt.Errorf("fleet: bad hello payload: %w", err))
		return
	}
	if hello.Proto != wire.Proto {
		sendErr(fmt.Errorf("fleet: unsupported protocol version %d (want %d)", hello.Proto, wire.Proto))
		return
	}

	// Trace context: the router roots a fleet.session span, adopting the
	// client's trace when the hello carries one; backends see the router
	// span as their parent (or, with router tracing off, the client's
	// context untouched).
	remoteSC, _ := tracing.ParseTraceparent(hello.Trace)
	connSpan := rt.tracer.Root("fleet.session", remoteSC)
	connSpan.SetAttr("remote", conn.RemoteAddr().String())
	defer connSpan.End()
	if connSpan != nil {
		ctx = tracing.ContextWith(ctx, connSpan.Context())
	} else if remoteSC.Valid() {
		ctx = tracing.ContextWith(ctx, remoteSC)
	}

	var (
		sess Session
		id   string
		fed  uint64
	)
	if hello.Resume != "" {
		id = hello.Resume
		connSpan.SetAttr("resume", id)
		sess, fed, _, err = rt.routeResume(ctx, id)
	} else {
		id = hello.SessionID
		if id == "" {
			id = NewSessionID()
		}
		sess, _, err = rt.routeOpen(ctx, id, hello.Session)
	}
	if err != nil {
		connSpan.SetError(err)
		sendErr(err)
		return
	}
	connSpan.SetAttr("session", id)

	ack, _ := json.Marshal(ackPayload{Session: id, Fed: fed})
	if err := wire.WriteFrame(bw, wire.TAck, ack); err != nil {
		sess.Release()
		return
	}
	if err := bw.Flush(); err != nil {
		sess.Release()
		return
	}

	for {
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			sess.Release() // client vanished; durable sessions stay resumable
			return
		}
		switch t {
		case wire.TEvents:
			evs, err := wire.DecodeEvents(payload)
			if err != nil {
				sess.Release()
				sendErr(err)
				return
			}
			if err := sess.Feed(evs); err != nil {
				if isHandoffError(err) {
					sess.Release()
					sendRedirect()
					return
				}
				sess.Release()
				sendErr(err)
				return
			}
		case wire.TFlush:
			// Per-flush trace: parent under the client's flush span when the
			// frame carries one, else the session context; the backend sees
			// the router's fleet.flush span (or, with router tracing off,
			// the client's context passed through).
			parent := tracing.FromContext(ctx)
			if len(payload) > 0 {
				var fp flushPayload
				if json.Unmarshal(payload, &fp) == nil {
					if fsc, ok := tracing.ParseTraceparent(fp.Trace); ok {
						parent = fsc
					}
				}
			}
			var fsp *tracing.Span
			downstream := parent
			if rt.tracer != nil {
				fsp = rt.tracer.Child("fleet.flush", parent)
				fsp.SetAttr("session", id)
				downstream = fsp.Context()
			}
			if ft, ok := sess.(flushTraced); ok && downstream.Valid() {
				ft.SetFlushContext(downstream)
			}
			n, err := sess.Flush()
			fsp.SetError(err)
			fsp.End()
			if err != nil {
				if isHandoffError(err) {
					sess.Release()
					sendRedirect()
					return
				}
				sess.Release()
				sendErr(err)
				return
			}
			fa, _ := json.Marshal(flushAckPayload{Fed: n})
			if err := wire.WriteFrame(bw, wire.TFlushAck, fa); err != nil {
				sess.Release()
				return
			}
			if err := bw.Flush(); err != nil {
				sess.Release()
				return
			}
		case wire.TEOF:
			doc, err := sess.Close()
			if err != nil {
				if isHandoffError(err) {
					sendRedirect()
					return
				}
				sendErr(err)
				return
			}
			if err := wire.WriteFrame(bw, wire.TReport, doc); err != nil {
				sendErr(fmt.Errorf("fleet: sending report for %s: %w", id, err))
				return
			}
			bw.Flush()
			return
		default:
			sess.Release()
			sendErr(fmt.Errorf("fleet: unexpected %v frame mid-session", t))
			return
		}
	}
}
