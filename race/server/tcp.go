package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/obs/tracing"
	"repro/internal/wire"
)

// errProto marks server-detected protocol violations (bad frame sequence,
// undecodable payload, version mismatch) so sendErr classifies them as
// CodeProto rather than CodeInternal.
var errProto = errors.New("server: protocol violation")

// deadlineConn enforces Config.IOTimeout: every Read and Write refreshes
// the matching deadline, so steady progress — however slow — never trips
// it, while a connection that stalls completely for the timeout is cut
// with os.ErrDeadlineExceeded.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	c.Conn.SetReadDeadline(time.Now().Add(c.timeout))
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	c.Conn.SetWriteDeadline(time.Now().Add(c.timeout))
	return c.Conn.Write(p)
}

// WithIOTimeout wraps conn so every Read and Write refreshes a deadline of
// d — the same stall-cutting layer ServeTCP applies under Config.IOTimeout,
// exported for front ends (the fleet router) that own their own listeners.
func WithIOTimeout(conn net.Conn, d time.Duration) net.Conn {
	return &deadlineConn{Conn: conn, timeout: d}
}

// helloPayload is the JSON body of the wire protocol's Hello frame.
// Resume names an existing (typically journal-recovered) session to
// re-attach to instead of opening a new one; Session is ignored then.
// SessionID, when set on a fresh open, requests a caller-chosen id (the
// fleet router assigns ids so a session keeps its identity across backend
// migrations); clients verify the Ack echoes it, so an old server that
// ignores the field is detected rather than silently mis-assigning.
type helloPayload struct {
	Proto     int           `json:"proto"`
	Session   SessionConfig `json:"session"`
	SessionID string        `json:"session_id,omitempty"`
	Resume    string        `json:"resume,omitempty"`
	// Trace optionally carries the client's W3C traceparent so the
	// server's spans for this connection join the client's trace. Old
	// peers ignore the unknown JSON field, so the protocol version is
	// unchanged (see wire.Proto).
	Trace string `json:"trace,omitempty"`
}

// ackPayload is the JSON body of the Ack frame. Fed is the event offset
// the session has already accepted — a resuming client continues sending
// from there (0 for a fresh session).
type ackPayload struct {
	Session string `json:"session"`
	Fed     uint64 `json:"fed"`
}

// flushPayload is the optional JSON body of a Flush frame: a traceparent
// tying the server-side barrier spans (journal fsync, engine sync) to the
// client's flush span. Historically the Flush frame had an empty payload
// and servers never inspected it, so both directions stay compatible with
// old peers: an old server ignores the payload, a new server treats an
// empty one as "no trace context".
type flushPayload struct {
	Trace string `json:"trace,omitempty"`
}

// flushAckPayload is the JSON body of the FlushAck frame.
type flushAckPayload struct {
	Fed uint64 `json:"fed"`
}

// ServeTCP accepts raw-TCP wire-protocol connections until the listener
// closes. Each connection carries one session; connection handling is
// panic-isolated, so a protocol bug on one connection cannot take the
// acceptor down. Transient accept failures (fd exhaustion under load)
// are retried with backoff instead of killing the multi-tenant server.
func (s *Server) ServeTCP(lis net.Listener) error {
	delay := 5 * time.Millisecond
	for {
		conn, err := lis.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() || isTemporaryAcceptError(err) {
				s.cfg.Logger.Warn("accept failed, retrying",
					"err", err, "delay", delay)
				time.Sleep(delay)
				if delay *= 2; delay > time.Second {
					delay = time.Second
				}
				continue
			}
			return err
		}
		delay = 5 * time.Millisecond
		go s.serveConn(conn)
	}
}

// isTemporaryAcceptError recognizes accept failures worth riding out: the
// per-connection resource exhaustion errnos that clear once load drops.
func isTemporaryAcceptError(err error) bool {
	return errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.ENOBUFS)
}

// serveConn runs one wire-protocol session over conn.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			// Connection handling must never crash the server — but a
			// panic here is a server-side protocol bug, so leave a trace.
			s.cfg.Logger.Error("connection handler panic",
				"remote", conn.RemoteAddr(), "panic", r)
		}
	}()
	// Seam order matters: the fault injector (if any) wraps the raw socket,
	// and the deadline layer sits on top, so injected stalls hit the same
	// timeout an organic stall would.
	wrapped := conn
	if s.cfg.WrapConn != nil {
		wrapped = s.cfg.WrapConn(wrapped)
	}
	if s.cfg.IOTimeout > 0 {
		wrapped = &deadlineConn{Conn: wrapped, timeout: s.cfg.IOTimeout}
	}
	br := bufio.NewReaderSize(wrapped, 1<<16)
	bw := bufio.NewWriterSize(wrapped, 1<<16)

	sendErr := func(err error) {
		if werr := wire.WriteFrame(bw, wire.TError, wire.EncodeError(ErrorCode(err), err.Error())); werr == nil {
			bw.Flush()
		}
	}
	// noteReadErr attributes a dead read to the fault counters and, for a
	// deadline cut, tells the client why (the write side often still works
	// when only the read stalled).
	noteReadErr := func(err error) {
		switch {
		case errors.Is(err, wire.ErrCorruptFrame):
			s.metrics.corruptFrames.Add(1)
		case errors.Is(err, os.ErrDeadlineExceeded):
			s.metrics.connTimeouts.Add(1)
			sendErr(err)
		}
	}

	t, payload, err := wire.ReadFrame(br)
	if err != nil {
		noteReadErr(err)
		return
	}
	if t != wire.THello {
		sendErr(fmt.Errorf("%w: expected hello frame, got %v", errProto, t))
		return
	}
	var hello helloPayload
	if err := json.Unmarshal(payload, &hello); err != nil {
		sendErr(fmt.Errorf("%w: bad hello payload: %v", errProto, err))
		return
	}
	if hello.Proto != wire.Proto {
		sendErr(fmt.Errorf("%w: unsupported protocol version %d (want %d)", errProto, hello.Proto, wire.Proto))
		return
	}
	var sess *Session
	if hello.Resume != "" {
		// Resumption: re-attach to a live session (journal-recovered after
		// a restart, or orphaned by a dropped connection) at its accepted
		// offset.
		var ok bool
		if sess, ok = s.Session(hello.Resume); !ok {
			sendErr(fmt.Errorf("%w: %s", ErrUnknown, hello.Resume))
			return
		}
		if err := sess.attach(); err != nil {
			sendErr(err)
			return
		}
		defer sess.detach()
		if err := sess.Err(); err != nil {
			sendErr(err)
			return
		}
	} else {
		var err error
		if hello.SessionID != "" {
			sess, err = s.OpenSessionWithID(hello.SessionID, hello.Session)
		} else {
			sess, err = s.OpenSession(hello.Session)
		}
		if err != nil {
			sendErr(err)
			return
		}
		if err := sess.attach(); err != nil { // unreachable for a fresh id, but keep the invariant
			sess.abort(err)
			sendErr(err)
			return
		}
		defer sess.detach()
	}
	// The connection span is the server-side root: it adopts the client's
	// trace when the hello carried one (invalid/absent parses to a zero
	// context and starts a fresh trace), and every ingest span on this
	// session parents under it unless a frame brings its own context.
	remoteSC, _ := tracing.ParseTraceparent(hello.Trace)
	connSpan := s.cfg.Tracer.Root("raced.conn", remoteSC)
	connSpan.SetAttr("session", sess.ID)
	connSpan.SetAttr("remote", conn.RemoteAddr().String())
	if hello.Resume != "" {
		connSpan.SetAttr("resume", hello.Resume)
	}
	defer connSpan.End()
	if connSpan != nil {
		sess.SetTraceContext(connSpan.Context())
	}
	// lost tears the connection's session down: a durable session is left
	// live (and resumable — its journal is the source of truth), while a
	// memory-only session frees its slot immediately.
	lost := func(err error) {
		if sess.jlog == nil {
			sess.abort(err)
		}
	}
	ack, _ := json.Marshal(ackPayload{Session: sess.ID, Fed: sess.Enqueued()})
	if err := wire.WriteFrame(bw, wire.TAck, ack); err != nil {
		lost(err)
		return
	}
	if err := bw.Flush(); err != nil {
		lost(err)
		return
	}

	for {
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			// Client vanished mid-session (including clean EOF without the
			// EOF frame): free the slot (or, for a durable session, leave
			// it resumable) rather than waiting for idle eviction.
			noteReadErr(err)
			lost(fmt.Errorf("server: connection lost: %w", err))
			return
		}
		switch t {
		case wire.TEvents:
			evs, err := wire.DecodeEvents(payload)
			if err != nil {
				err = fmt.Errorf("%w: %v", errProto, err)
				sess.abort(err)
				sendErr(err)
				return
			}
			if err := sess.Feed(evs); err != nil {
				// Sticky ingestion error: report it and end the session.
				sess.Close()
				sendErr(err)
				return
			}
		case wire.TFlush:
			// Best-effort: an empty or undecodable payload (old client)
			// just means the barrier spans parent under the connection.
			var fp flushPayload
			if len(payload) > 0 {
				json.Unmarshal(payload, &fp)
			}
			fsc, _ := tracing.ParseTraceparent(fp.Trace)
			if err := sess.FlushCtx(fsc); err != nil {
				sess.Close()
				sendErr(err)
				return
			}
			fa, _ := json.Marshal(flushAckPayload{Fed: sess.Fed()})
			if err := wire.WriteFrame(bw, wire.TFlushAck, fa); err != nil {
				lost(err)
				return
			}
			if err := bw.Flush(); err != nil {
				lost(err)
				return
			}
		case wire.TEOF:
			rep, err := sess.Close()
			if err != nil {
				sendErr(err)
				return
			}
			doc, err := json.Marshal(rep)
			if err != nil {
				sendErr(err)
				return
			}
			if err := wire.WriteFrame(bw, wire.TReport, doc); err != nil {
				// A report too large for one frame (or a dying connection)
				// must not be dropped silently: tell the client why. The
				// session's report remains fetchable over HTTP.
				sendErr(fmt.Errorf("server: sending report for %s: %w", sess.ID, err))
				return
			}
			bw.Flush()
			return
		default:
			err := fmt.Errorf("%w: unexpected %v frame mid-session", errProto, t)
			sess.abort(err)
			sendErr(err)
			return
		}
	}
}
