package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/wire"
	"repro/race"
)

// Client is the wire-protocol client side: it turns a TCP connection to a
// raced instance into a race.EventSink, so an instrumented program's
// Runtime can stream its trace to a remote detector instead of analyzing
// in-process (race.WithSink).
type Client struct {
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	tracer *tracing.Tracer
}

// SetTracer makes the client record its own spans (session, per-flush,
// per-shipped-batch) and send their context in hello and flush frames so
// server-side spans join the same trace. Call before Open/Resume. Without
// a tracer the client still *propagates* a span context found on the
// dial/handshake context (the fleet router's hop-through path), it just
// records no spans of its own.
func (c *Client) SetTracer(t *tracing.Tracer) { c.tracer = t }

// Dial connects to a raced TCP endpoint. It is DialContext with the
// background context (no timeout).
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext connects to a raced TCP endpoint under ctx: a deadline or
// cancellation bounds the connection attempt instead of blocking
// indefinitely on an unresponsive network.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: dialing raced: %w", err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful for in-process
// listeners in tests).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
	}
}

// Close closes the underlying connection. A RemoteSession's Close already
// ends the connection's session; Client.Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// DefaultClientBatch is the event count at which a RemoteSession ships its
// pending batch as an Events frame.
const DefaultClientBatch = 2048

// ErrHandoff is the sticky session error after a Redirect frame: a fleet
// router is moving the session to another backend. The session id remains
// valid — reconnect (through the router) and Resume it; the new ack's
// offset says where to pick up. ReliableSession does this automatically.
var ErrHandoff = errors.New("server: session handed off; reconnect and resume to continue")

// Open performs the session handshake and returns the connection's session.
// A connection carries exactly one session. It is OpenContext with the
// background context (no timeout).
func (c *Client) Open(cfg SessionConfig) (*RemoteSession, error) {
	return c.OpenContext(context.Background(), cfg)
}

// OpenContext performs the session handshake under ctx: cancellation or a
// deadline aborts a handshake stuck on an unresponsive server (the
// connection is poisoned by the interrupt and should be closed).
func (c *Client) OpenContext(ctx context.Context, cfg SessionConfig) (*RemoteSession, error) {
	sess, _, err := c.handshake(ctx, helloPayload{Proto: wire.Proto, Session: cfg})
	return sess, err
}

// OpenID performs the session handshake requesting a caller-chosen session
// id (the fleet router names sessions so their identity survives backend
// migration). The server rejects ids already in use (ErrIDTaken) and ids
// matching its own auto-assigned form.
func (c *Client) OpenID(ctx context.Context, id string, cfg SessionConfig) (*RemoteSession, error) {
	sess, _, err := c.handshake(ctx, helloPayload{Proto: wire.Proto, Session: cfg, SessionID: id})
	if err != nil {
		return nil, err
	}
	// An old server ignores the unknown SessionID field and acks an
	// auto-assigned id; routing state would then point at a session the
	// backend doesn't know by that name. Make version skew loud.
	if sess.id != id {
		return nil, fmt.Errorf("server: asked to open %s but server opened %s (raced too old for caller-chosen ids?)", id, sess.id)
	}
	return sess, nil
}

// Resume re-attaches to an existing session — one recovered from its
// journal by a restarted raced, or orphaned by a dropped connection. It
// returns the session plus the event offset the server has already
// accepted: the caller must continue feeding from that offset (events
// before it are already journaled and analyzed, or queued to be).
func (c *Client) Resume(ctx context.Context, id string) (*RemoteSession, uint64, error) {
	sess, fed, err := c.handshake(ctx, helloPayload{Proto: wire.Proto, Resume: id})
	if err != nil {
		return nil, 0, err
	}
	// A server that predates resumption ignores the unknown Resume field
	// and happily acks a fresh default-config session; feeding that would
	// silently analyze the wrong stream. Make version skew loud.
	if sess.id != id {
		return nil, 0, fmt.Errorf("server: asked to resume %s but server opened %s (raced too old for resumption?)", id, sess.id)
	}
	return sess, fed, nil
}

// handshake sends a Hello and reads the Ack, bounded by ctx.
func (c *Client) handshake(ctx context.Context, hello helloPayload) (*RemoteSession, uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	// Trace context: with a tracer, this connection's spans start here and
	// the hello carries the session span's context (joining any trace
	// already on ctx). Without one, a context on ctx is forwarded as-is —
	// the router's propagate-only path.
	parent := tracing.FromContext(ctx)
	span := c.tracer.Root("client.session", parent)
	if span != nil {
		hello.Trace = span.Context().Traceparent()
		defer func() {
			// A failed handshake ends the span here; a successful one hands
			// it to the RemoteSession, which ends it at CloseJSON.
			if span != nil {
				span.End()
			}
		}()
	} else if parent.Valid() {
		hello.Trace = parent.Traceparent()
	}
	// A cancellation mid-handshake forces the blocked read to fail by
	// moving the deadline into the past; the deadline is cleared again on
	// the way out so the streaming phase is unaffected. The ctx deadline
	// is set BEFORE arming the cancellation hook so the hook's poison
	// write always lands last; and if stop reports the hook already
	// started, we wait for it to finish before clearing — otherwise a
	// cancellation racing a successful handshake could re-poison the
	// connection after we reset it.
	if deadline, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(deadline)
	}
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		c.conn.SetDeadline(time.Unix(1, 0))
		close(fired)
	})
	defer func() {
		if !stop() {
			<-fired
		}
		c.conn.SetDeadline(time.Time{})
	}()
	payload, err := json.Marshal(hello)
	if err != nil {
		return nil, 0, err
	}
	if err := wire.WriteFrame(c.bw, wire.THello, payload); err != nil {
		return nil, 0, ctxError(ctx, err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, 0, ctxError(ctx, err)
	}
	t, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		return nil, 0, ctxError(ctx, fmt.Errorf("server: reading handshake response: %w", err))
	}
	if t == wire.TError {
		return nil, 0, fmt.Errorf("server: session rejected: %w", decodeRemoteError(resp))
	}
	if t != wire.TAck {
		return nil, 0, fmt.Errorf("server: expected ack frame, got %v", t)
	}
	var ack ackPayload
	if err := json.Unmarshal(resp, &ack); err != nil {
		return nil, 0, fmt.Errorf("server: bad ack payload: %w", err)
	}
	sess := &RemoteSession{c: c, id: ack.Session, batchSize: DefaultClientBatch, span: span}
	span.SetAttr("session", ack.Session)
	span = nil // ownership moved to the session; see the deferred End
	return sess, ack.Fed, nil
}

// ctxError prefers the context's cancellation cause over the I/O error it
// provoked (a deadline moved into the past reads as a timeout otherwise).
func ctxError(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// RemoteSession is one open session on a raced server. It implements
// race.EventSink: Feed buffers events client-side and ships them in framed
// batches, Flush is the wire sync barrier, and Close ends the stream and
// returns the server-computed report. Like an Engine, a RemoteSession is
// driven from one goroutine at a time and errors are sticky.
type RemoteSession struct {
	c         *Client
	id        string
	batchSize int
	buf       []race.Event
	scratch   []byte // reused frame-payload encoding buffer
	flushed   uint64 // server-acknowledged offset from the last Flush
	closed    bool
	err       error
	span      *tracing.Span       // session span when the client has a tracer
	flushSC   tracing.SpanContext // propagate-only context for Flush frames (SetFlushContext)
}

// TraceContext returns the session span's context — the trace ID whose
// tree /debug/traces on the server (and any router in between) retains.
// Zero when the client has no tracer.
func (s *RemoteSession) TraceContext() tracing.SpanContext { return s.span.Context() }

// SetFlushContext sets a propagate-only span context carried by the next
// Flush frames. The fleet router uses it to hand each proxied flush's
// router-side span to the backend; clients with their own tracer do not
// need it (Flush starts a real span instead).
func (s *RemoteSession) SetFlushContext(sc tracing.SpanContext) { s.flushSC = sc }

var _ race.EventSink = (*RemoteSession)(nil)

// ID returns the server-assigned session id (for the report API:
// GET /sessions/{id}/races).
func (s *RemoteSession) ID() string { return s.id }

// Flushed returns the event offset the server acknowledged at the last
// successful Flush: everything before it is analyzed (and, on a durable
// server, journaled and synced). A retrying client resumes from here.
func (s *RemoteSession) Flushed() uint64 { return s.flushed }

// SetBatchSize tunes how many events accumulate before a frame ships.
func (s *RemoteSession) SetBatchSize(n int) {
	if n > 0 {
		s.batchSize = n
	}
}

func (s *RemoteSession) fail(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// serverError converts an Error frame read mid-protocol into the session's
// sticky error, preserving the typed classification.
func (s *RemoteSession) serverError(payload []byte) error {
	return s.fail(fmt.Errorf("server: %w", decodeRemoteError(payload)))
}

// Feed buffers one event, shipping the pending batch when full.
func (s *RemoteSession) Feed(ev race.Event) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: Feed on closed remote session")
	}
	s.buf = append(s.buf, ev)
	if len(s.buf) >= s.batchSize {
		return s.ship()
	}
	return nil
}

// FeedBatch buffers a run of events, shipping when the pending batch fills.
func (s *RemoteSession) FeedBatch(evs []race.Event) error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: FeedBatch on closed remote session")
	}
	s.buf = append(s.buf, evs...)
	if len(s.buf) >= s.batchSize {
		return s.ship()
	}
	return nil
}

// ship sends the pending batch as Events frames, chunking runs larger
// than a frame's payload limit across several frames.
func (s *RemoteSession) ship() error {
	var ssp *tracing.Span
	if s.c.tracer != nil && len(s.buf) > 0 {
		ssp = s.c.tracer.Child("client.ship", s.span.Context())
		ssp.SetInt("events", int64(len(s.buf)))
	}
	for off := 0; off < len(s.buf); off += wire.MaxFrameEvents {
		end := min(off+wire.MaxFrameEvents, len(s.buf))
		s.scratch = wire.AppendEvents(s.scratch[:0], s.buf[off:end])
		if err := wire.WriteFrame(s.c.bw, wire.TEvents, s.scratch); err != nil {
			s.buf = s.buf[:0]
			ssp.SetError(err)
			ssp.End()
			return s.fail(err)
		}
	}
	s.buf = s.buf[:0]
	ssp.End()
	return nil
}

// Flush ships pending events and blocks until the server acknowledges that
// every event sent so far has been applied — surfacing any server-side
// ingestion error (ill-formed stream, poisoned analysis) synchronously.
func (s *RemoteSession) Flush() error {
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return errors.New("server: Flush on closed remote session")
	}
	// The flush frame carries a span context when one exists: this
	// client's own flush span, or a propagate-only context a router set.
	var fsp *tracing.Span
	var tp string
	if s.c.tracer != nil {
		fsp = s.c.tracer.Child("client.flush", s.span.Context())
		fsp.SetAttr("session", s.id)
		tp = fsp.Context().Traceparent()
	} else if s.flushSC.Valid() {
		tp = s.flushSC.Traceparent()
	}
	err := s.flushWire(tp)
	fsp.SetError(err)
	fsp.End()
	return err
}

// flushWire runs the wire flush barrier, attaching traceparent tp (when
// non-empty) as the Flush frame's payload.
func (s *RemoteSession) flushWire(tp string) error {
	if err := s.ship(); err != nil {
		return err
	}
	var payload []byte
	if tp != "" {
		payload, _ = json.Marshal(flushPayload{Trace: tp})
	}
	if err := wire.WriteFrame(s.c.bw, wire.TFlush, payload); err != nil {
		return s.fail(err)
	}
	if err := s.c.bw.Flush(); err != nil {
		return s.fail(err)
	}
	t, payload, err := wire.ReadFrame(s.c.br)
	if err != nil {
		return s.fail(err)
	}
	switch t {
	case wire.TFlushAck:
		var fa flushAckPayload
		if err := json.Unmarshal(payload, &fa); err != nil {
			return s.fail(fmt.Errorf("server: bad flush-ack payload: %w", err))
		}
		s.flushed = fa.Fed
		return nil
	case wire.TRedirect:
		return s.fail(ErrHandoff)
	case wire.TError:
		return s.serverError(payload)
	default:
		return s.fail(fmt.Errorf("server: expected flush-ack, got %v", t))
	}
}

// Close ends the stream (EOF frame) and returns the report the server
// computed for the session, reconstructed from its canonical JSON form.
func (s *RemoteSession) Close() (*race.Report, error) {
	doc, err := s.CloseJSON()
	if err != nil {
		return nil, err
	}
	rep, err := race.ReportFromJSON(doc)
	if err != nil {
		return nil, s.fail(err)
	}
	return rep, nil
}

// CloseJSON ends the stream (EOF frame) and returns the report exactly as
// the server serialized it. The fleet router forwards these bytes verbatim,
// so a report is byte-identical whether a session was served by one backend
// or migrated between several.
func (s *RemoteSession) CloseJSON() ([]byte, error) {
	if s.closed {
		return nil, errors.New("server: remote session already closed")
	}
	s.closed = true
	if s.err != nil {
		return nil, s.err
	}
	if err := s.ship(); err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(s.c.bw, wire.TEOF, nil); err != nil {
		return nil, s.fail(err)
	}
	if err := s.c.bw.Flush(); err != nil {
		return nil, s.fail(err)
	}
	t, payload, err := wire.ReadFrame(s.c.br)
	if err != nil {
		return nil, s.fail(fmt.Errorf("server: reading report: %w", err))
	}
	switch t {
	case wire.TReport:
		s.endSpan(nil)
		return payload, nil
	case wire.TRedirect:
		// The backend is gone mid-close; the stream (including any events
		// shipped above) must be replayed from the acked offset elsewhere.
		// The session span stays open — the trace continues after resume.
		s.closed = false // the session lives on after resumption
		return nil, s.fail(ErrHandoff)
	case wire.TError:
		err := s.serverError(payload)
		s.endSpan(err)
		return nil, err
	default:
		err := s.fail(fmt.Errorf("server: expected report frame, got %v", t))
		s.endSpan(err)
		return nil, err
	}
}

// endSpan finishes the session span once (no-op without a tracer).
func (s *RemoteSession) endSpan(err error) {
	if s.span == nil {
		return
	}
	s.span.SetError(err)
	s.span.End()
	s.span = nil
}
