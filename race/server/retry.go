package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"syscall"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race"
)

// ReliableSession wraps a RemoteSession with automatic reconnect-and-resume:
// when the connection to the backend dies mid-stream — or a fleet router
// answers with a Redirect because the session is migrating — the client
// re-dials the same address, Resumes the same session id, and replays the
// events the server had not yet acknowledged. Callers see one uninterrupted
// race.EventSink.
//
// The replay buffer is the client's half of the durability contract: every
// event since the last acknowledged Flush is retained in memory until the
// next Flush acknowledges it (a flush ack from a durable server means
// "journaled and synced"). Long streams should therefore Flush periodically
// — the buffer's high-water mark is the flush interval.
//
// By default a failure triggers exactly one immediate reconnect attempt
// (enough to ride out a router-side migration, where the target is already
// live). WithRetry enables bounded exponential backoff with jitter for the
// harder case of a backend that needs time to restart and recover journals.
type ReliableSession struct {
	ctx       context.Context
	addr      string
	policy    RetryPolicy
	batchSize int

	c    *Client
	sess *RemoteSession
	id   string

	tracer  *tracing.Tracer     // client-side span recording (WithTracer)
	traceSC tracing.SpanContext // first connection's session span: the stream's trace identity

	acked   uint64       // events the server has acknowledged (flush ack / resume ack)
	pending []race.Event // events fed after acked — the replay buffer
	closed  bool
	err     error

	// Timing seams, overridden only by tests: the backoff schedule is a
	// correctness property (bounded growth, jitter spread) that must be
	// assertable without real sleeps or a real entropy source.
	rand63 func(n int64) int64                    // jitter source (rand.Int63n)
	sleep  func(d time.Duration) <-chan time.Time // backoff wait (time.After)
}

var _ race.EventSink = (*ReliableSession)(nil)

// RetryPolicy bounds reconnection attempts after a connection failure or
// session handoff.
type RetryPolicy struct {
	// MaxAttempts is the total number of reconnect attempts per failure.
	// The first attempt is immediate; each subsequent attempt waits
	// BaseDelay doubled per attempt (capped at MaxDelay), with uniform
	// jitter in [0.5, 1.5) of the delay to keep a fleet of resuming
	// clients from synchronizing.
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
}

// DefaultRetryPolicy is what WithRetry applies when given a zero policy:
// 5 attempts starting at 100ms, capped at 2s.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}

// ReliableOption configures OpenReliable.
type ReliableOption func(*ReliableSession)

// WithRetry enables backoff retry on reconnection. A zero policy selects
// DefaultRetryPolicy; zero fields of a partial policy are filled from it.
func WithRetry(p RetryPolicy) ReliableOption {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return func(s *ReliableSession) { s.policy = p }
}

// WithTracer makes every underlying connection record client-side spans
// and propagate trace context, preserved across reconnects: resumed
// connections' session spans parent under the first connection's, so one
// trace ID follows the stream through redirects and migrations.
func WithTracer(t *tracing.Tracer) ReliableOption {
	return func(s *ReliableSession) { s.tracer = t }
}

// WithReliableBatchSize tunes the wrapped session's client-side batch size
// (DefaultClientBatch otherwise), preserved across reconnects.
func WithReliableBatchSize(n int) ReliableOption {
	return func(s *ReliableSession) {
		if n > 0 {
			s.batchSize = n
		}
	}
}

// WithSessionID opens the session under a caller-chosen id (as
// Client.OpenID) instead of a server-assigned one. A fleet router places
// a session by hashing its id, so a deterministic id is a deterministic
// placement.
func WithSessionID(id string) ReliableOption {
	return func(s *ReliableSession) { s.id = id }
}

// OpenReliable dials addr, opens a session, and returns a sink that
// survives connection loss and fleet-side session migration. ctx bounds the
// initial dial+handshake; its deadline (if any) does NOT apply to later
// reconnects — those are bounded by the retry policy — but its
// cancellation values are dropped too (a short connect timeout must not
// poison a long stream).
func OpenReliable(ctx context.Context, addr string, cfg SessionConfig, opts ...ReliableOption) (*ReliableSession, error) {
	rs := newReliable(ctx, addr, opts)
	c, err := DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	c.SetTracer(rs.tracer)
	var sess *RemoteSession
	if rs.id != "" {
		sess, err = c.OpenID(ctx, rs.id, cfg)
	} else {
		sess, err = c.OpenContext(ctx, cfg)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	sess.SetBatchSize(rs.batchSize)
	rs.c, rs.sess, rs.id = c, sess, sess.ID()
	rs.traceSC = sess.TraceContext()
	return rs, nil
}

// ResumeReliable re-attaches to an existing durable session as a
// ReliableSession, returning it plus the server's accepted offset — the
// caller feeds from there. Like OpenReliable, ctx bounds only the initial
// handshake.
func ResumeReliable(ctx context.Context, addr, id string, opts ...ReliableOption) (*ReliableSession, uint64, error) {
	rs := newReliable(ctx, addr, opts)
	c, err := DialContext(ctx, addr)
	if err != nil {
		return nil, 0, err
	}
	c.SetTracer(rs.tracer)
	sess, fed, err := c.Resume(ctx, id)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	sess.SetBatchSize(rs.batchSize)
	rs.c, rs.sess, rs.id = c, sess, id
	rs.acked = fed
	rs.traceSC = sess.TraceContext()
	return rs, fed, nil
}

func newReliable(ctx context.Context, addr string, opts []ReliableOption) *ReliableSession {
	rs := &ReliableSession{
		ctx:       context.WithoutCancel(ctx),
		addr:      addr,
		policy:    RetryPolicy{MaxAttempts: 1}, // single immediate reconnect; WithRetry adds backoff
		batchSize: DefaultClientBatch,
		rand63:    rand.Int63n,
		sleep:     time.After,
	}
	for _, opt := range opts {
		opt(rs)
	}
	return rs
}

// ID returns the session id (stable across reconnects and migrations).
func (s *ReliableSession) ID() string { return s.id }

// Acked returns the server-acknowledged event offset: everything before it
// has been analyzed (and journaled, on a durable backend) and is no longer
// buffered client-side.
func (s *ReliableSession) Acked() uint64 { return s.acked }

// TraceContext returns the stream's trace identity — the first connection's
// session span — or a zero SpanContext when tracing is off. Reconnected
// sessions parent under it, so the whole stream shares one trace ID.
func (s *ReliableSession) TraceContext() tracing.SpanContext { return s.traceSC }

// isTransient reports whether err is worth a reconnect: an explicit handoff
// redirect, connection-level failure (including a frame that failed its
// checksum — the connection is dead but the session resumes), or a server
// telling us the session was suspended or evicted out from under the
// connection (graceful shutdown, a fleet migration) — the journal survives
// those, and resume is the recovery. Other server-side session errors (bad
// stream, rejected config, a disk-faulted session) are permanent.
// Server-side conditions arrive as typed TError codes and classify with
// errors.Is on the wrapped sentinels — no message matching.
func isTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrHandoff) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, wire.ErrCorruptFrame) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) ||
		errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	if errors.Is(err, ErrSuspended) || errors.Is(err, ErrEvicted) {
		return true
	}
	switch RemoteErrorCode(err) {
	case wire.CodeTimeout, wire.CodeCorrupt:
		// The server cut (or distrusted) the old connection; the session
		// itself is intact and resumable.
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// reconnect re-dials, resumes the session, and replays the unacknowledged
// suffix of the stream. The resume ack's offset must land inside
// [acked, acked+len(pending)]: below means the server lost acknowledged
// (i.e. journal-synced) events, beyond means it acked events never sent —
// both are corruption, not something to paper over.
func (s *ReliableSession) reconnect() error {
	if s.c != nil {
		s.c.Close()
		s.c, s.sess = nil, nil
	}
	var lastErr error
	for attempt := 0; attempt < s.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-s.sleep(s.backoffDelay(attempt)):
			case <-s.ctx.Done():
				return s.fail(context.Cause(s.ctx))
			}
		}
		c, err := DialContext(s.ctx, s.addr)
		if err != nil {
			if s.ctx.Err() != nil {
				return s.fail(context.Cause(s.ctx))
			}
			lastErr = err
			continue
		}
		c.SetTracer(s.tracer)
		sess, fed, err := c.Resume(tracing.ContextWith(s.ctx, s.traceSC), s.id)
		if err != nil {
			c.Close()
			if s.ctx.Err() != nil {
				return s.fail(context.Cause(s.ctx))
			}
			lastErr = err
			if !isTransient(err) && !isResumeRacing(err) {
				break
			}
			continue
		}
		if fed < s.acked || fed > s.acked+uint64(len(s.pending)) {
			c.Close()
			return s.fail(fmt.Errorf("server: resume of %s acked offset %d outside sent window [%d, %d]",
				s.id, fed, s.acked, s.acked+uint64(len(s.pending))))
		}
		sess.SetBatchSize(s.batchSize)
		// Drop the prefix the server already has; replay the rest.
		s.pending = s.pending[fed-s.acked:]
		s.acked = fed
		if err := sess.FeedBatch(s.pending); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		s.c, s.sess = c, sess
		return nil
	}
	return s.fail(fmt.Errorf("server: reconnecting session %s: %w", s.id, lastErr))
}

// backoffDelay computes the wait before reconnect attempt n (1-based; the
// zeroth attempt is immediate): BaseDelay doubled per attempt, capped at
// MaxDelay — the shift overflowing to non-positive also caps — with
// uniform jitter in [0.5, 1.5) of the nominal delay so a fleet of clients
// resuming after one backend restart does not reconnect in lockstep.
func (s *ReliableSession) backoffDelay(attempt int) time.Duration {
	delay := s.policy.BaseDelay << (attempt - 1)
	if delay <= 0 || delay > s.policy.MaxDelay {
		delay = s.policy.MaxDelay
	}
	return delay/2 + time.Duration(s.rand63(int64(delay)))
}

// isResumeRacing recognizes resume rejections that clear on their own:
// during a migration the source has suspended the session but the target
// has not recovered it yet, and after a network drop the server may not
// have reaped the dead connection when the client is already back — the
// session still reads as attached (busy) until the reaper runs.
func isResumeRacing(err error) bool {
	return errors.Is(err, ErrSuspended) || errors.Is(err, ErrUnknown) || errors.Is(err, ErrBusy)
}

func (s *ReliableSession) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// Feed buffers and forwards one event. A transient send failure triggers
// reconnect; the replay there already re-ships the event, so the op is not
// repeated.
func (s *ReliableSession) Feed(ev race.Event) error {
	return s.FeedBatch([]race.Event{ev})
}

// FeedBatch buffers and forwards a run of events.
func (s *ReliableSession) FeedBatch(evs []race.Event) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: FeedBatch on closed reliable session")
	}
	s.pending = append(s.pending, evs...)
	if err := s.sess.FeedBatch(evs); err != nil {
		if !isTransient(err) {
			return s.fail(err)
		}
		return s.reconnect() // replay subsumes this batch
	}
	return nil
}

// Flush forces the stream to the server and blocks for acknowledgment;
// acknowledged events leave the replay buffer. On a transient failure the
// session reconnects (replaying the buffer) and flushes again.
func (s *ReliableSession) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: Flush on closed reliable session")
	}
	for {
		err := s.sess.Flush()
		if err == nil {
			if fed := s.sess.Flushed(); fed >= s.acked && fed <= s.acked+uint64(len(s.pending)) {
				s.pending = s.pending[fed-s.acked:]
				s.acked = fed
			}
			return nil
		}
		if !isTransient(err) {
			return s.fail(err)
		}
		if rerr := s.reconnect(); rerr != nil {
			return rerr
		}
	}
}

// Close ends the stream and returns the final report, riding out handoffs
// mid-close: a redirected EOF reconnects, replays the unacknowledged
// suffix, and closes again on the new backend.
func (s *ReliableSession) Close() (*race.Report, error) {
	doc, err := s.CloseJSON()
	if err != nil {
		return nil, err
	}
	return race.ReportFromJSON(doc)
}

// CloseJSON is Close returning the server's canonical report bytes.
func (s *ReliableSession) CloseJSON() ([]byte, error) {
	if s.closed {
		return nil, errors.New("server: reliable session already closed")
	}
	if s.err != nil {
		return nil, s.err
	}
	for {
		doc, err := s.sess.CloseJSON()
		if err == nil {
			s.closed = true
			s.c.Close()
			return doc, nil
		}
		if !isTransient(err) {
			s.closed = true
			return nil, s.fail(err)
		}
		if rerr := s.reconnect(); rerr != nil {
			s.closed = true
			return nil, rerr
		}
	}
}

// Release closes the connection without ending the session server-side
// (a durable session stays resumable; a memory-only one is aborted by the
// server's connection-loss handling).
func (s *ReliableSession) Release() {
	if s.c != nil {
		s.c.Close()
		s.c, s.sess = nil, nil
	}
	s.closed = true
	s.fail(errors.New("server: reliable session released"))
}
