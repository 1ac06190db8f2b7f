package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/workload"
	"repro/race"
	"repro/race/server"
)

// stream is the stream-wire workload: nproc closed-loop clients, each
// streaming one session at a time over loopback TCP to an in-process
// server. The server keeps sessions in memory: on a shared virtual disk
// a journal fsync per flush barrier swings throughput by a factor of two
// within minutes, so the journal is priced by the traced run's ladder
// instead of deciding this workload's end-to-end figures.
type stream struct {
	traces []*race.Trace
	// refs are the batch ST-WDC reports of traces: every session's report
	// must equal its trace's byte for byte.
	refs [][]byte
	srv  *liveServer
}

func setupStream(cfg *config, _ int) (instance, error) {
	// Long sessions (about 280k events, 68 flush barriers each) keep the
	// per-session connection set-up and close a small share of the stream.
	div, n := 5000, 8
	if cfg.tiny {
		div, n = 200000, 2
	}
	prog, _ := workload.ProgramByName("avrora")
	s := &stream{}
	for i := 0; i < n; i++ {
		tr := prog.Generate(div, subSeed(cfg.seed, i))
		ref, err := batchWDC(tr)
		if err != nil {
			return nil, err
		}
		s.traces = append(s.traces, tr)
		s.refs = append(s.refs, ref)
	}
	srv, err := startServer("", true)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	// Warm up: one session per client, all at once.
	warm := s.loop(0, false)
	if warm.failed > 0 || warm.attempted == 0 {
		srv.close()
		return nil, fmt.Errorf("warm-up sessions failed: %v", warm.notes)
	}
	return s, nil
}

// batchWDC is the in-process batch analysis every streamed session is
// checked against: the server's default analysis, ST-WDC.
func batchWDC(tr *race.Trace) ([]byte, error) {
	rep, err := race.Analyze(tr, race.WDC, race.SmartTrack)
	if err != nil {
		return nil, err
	}
	return rep.MarshalJSON()
}

func (s *stream) loop(d time.Duration, traced bool) loopResult {
	res := clientLoop(d, traced, s.traces, s.refs, func(tr *race.Trace, id int, rec *recorder) (sessionOutput, error) {
		return s.srv.wireSession(tr, id, rec, nil)
	})
	acks := res.flushAcks
	res.notes = append(res.notes,
		fmt.Sprintf("flush_ack_p50_ms %g ms", ms(percentile(acks, 50))),
		fmt.Sprintf("flush_ack_p99_ms %g ms (%d samples, %d above p99)", ms(percentile(acks, 99)), len(acks), above(acks, percentile(acks, 99))))
	return res.loopResult
}

func (s *stream) layers() layerInputs {
	return layerInputs{
		traces:     s.traces,
		engineOpts: func(tr *race.Trace) []race.Option { return nil },
		vindicate:  1,
	}
}

func (s *stream) corruptReference() { s.refs[0][len(s.refs[0])/2] ^= 1 }

func (s *stream) close() { s.srv.close() }

// above counts the samples strictly greater than v.
func above(ds []time.Duration, v time.Duration) int {
	n := 0
	for _, d := range ds {
		if d > v {
			n++
		}
	}
	return n
}

// liveServer is an in-process session server, optionally durable and
// optionally serving the wire protocol on a loopback port.
type liveServer struct {
	srv     *server.Server
	dataDir string
	lis     net.Listener
	served  chan error
}

func startServer(dataDir string, tcp bool) (*liveServer, error) {
	cfg := server.Config{
		DataDir: dataDir,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	ls := &liveServer{srv: server.New(cfg), dataDir: dataDir}
	if !tcp {
		return ls, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ls.srv.Close()
		return nil, err
	}
	ls.lis = lis
	ls.served = make(chan error, 1)
	go func() { ls.served <- ls.srv.ServeTCP(lis) }()
	return ls, nil
}

// close stops accepting, waits for the accept loop, shuts the server
// down and removes its data directory. Journals of closed sessions stay on
// disk until then, so that no unlinking competes with a measured window.
func (ls *liveServer) close() {
	if ls.lis != nil {
		ls.lis.Close()
		<-ls.served
	}
	ls.srv.Close()
	if ls.dataDir != "" {
		os.RemoveAll(ls.dataDir)
		// On a filesystem mounted with online discard, freeing the journals
		// issues discards at the next journal commit; syncing here keeps
		// that work out of whatever is measured next.
		syscall.Sync()
	}
}

// sessionOutput is one finished session, ready to be checked.
type sessionOutput struct {
	events   int
	closeDur time.Duration
	doc      []byte
	// flushes are the session's flush round trips; feed is its total time
	// in feed calls (client ship time on the wire, queue time in process).
	flushes []time.Duration
	feed    time.Duration
}

// streamChunks feeds tr in chunk-sized batches with a flush barrier after
// each, timing both, then closes through closeFn.
func streamChunks(tr *race.Trace, id int, rec *recorder, feed func([]race.Event) error, flush func() error,
	closeFn func() ([]byte, error)) (sessionOutput, error) {
	out := sessionOutput{events: tr.Len()}
	root := rec.begin("session", id, -1)
	for off := 0; off < len(tr.Events); off += chunk {
		batch := tr.Events[off:min(off+chunk, len(tr.Events))]
		t0 := time.Now()
		h := rec.begin("session.feed", id, root)
		err := feed(batch)
		rec.end(h, len(batch))
		t1 := time.Now()
		out.feed += t1.Sub(t0)
		if err != nil {
			return out, err
		}
		h = rec.begin("session.flush", id, root)
		err = flush()
		rec.end(h, 0)
		out.flushes = append(out.flushes, time.Since(t1))
		if err != nil {
			return out, err
		}
	}
	t0 := time.Now()
	h := rec.begin("session.close", id, root)
	doc, err := closeFn()
	rec.end(h, len(doc))
	out.closeDur = time.Since(t0)
	out.doc = doc
	rec.end(root, tr.Len())
	return out, err
}

// wireSession streams tr as one session over a fresh loopback connection,
// counting the connection's bytes into wire when it is non-nil.
func (ls *liveServer) wireSession(tr *race.Trace, id int, rec *recorder, wire *atomic.Int64) (sessionOutput, error) {
	conn, err := net.Dial("tcp", ls.lis.Addr().String())
	if err != nil {
		return sessionOutput{}, err
	}
	if wire != nil {
		conn = &countingConn{Conn: conn, n: wire}
	}
	c := server.NewClient(conn)
	defer c.Close()
	rs, err := c.Open(server.SessionConfig{})
	if err != nil {
		return sessionOutput{}, err
	}
	return streamChunks(tr, id, rec, rs.FeedBatch, rs.Flush, rs.CloseJSON)
}

// localSession runs tr as one in-process session (no wire).
func (ls *liveServer) localSession(tr *race.Trace, id int, rec *recorder) (sessionOutput, error) {
	sess, err := ls.srv.OpenSession(server.SessionConfig{})
	if err != nil {
		return sessionOutput{}, err
	}
	out, err := streamChunks(tr, id, rec, sess.Feed, sess.Flush, func() ([]byte, error) {
		rep, err := sess.Close()
		if err != nil {
			return nil, err
		}
		return rep.MarshalJSON()
	})
	if err != nil {
		sess.Close()
	}
	return out, err
}

// countingConn counts the bytes a connection moves in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// clientResult is a client loop's measurements.
type clientResult struct {
	loopResult
	flushAcks []time.Duration
	feed      []time.Duration // per session
}

// clientLoop runs runtime.NumCPU() closed-loop clients, each running one
// session after another over traces, until d has passed (d = 0 runs one
// session per client). Reports are checked against refs after the window.
func clientLoop(d time.Duration, traced bool, traces []*race.Trace, refs [][]byte,
	session func(tr *race.Trace, id int, rec *recorder) (sessionOutput, error)) clientResult {
	clients := runtime.NumCPU()
	type done struct {
		input  int
		traced bool
		busy   time.Duration
		out    sessionOutput
		err    error
	}
	origin := time.Now()
	deadline := origin.Add(d)
	recs := make([]*recorder, clients)
	results := make([][]done, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		recs[c] = newRecorder(origin)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				id := k*clients + c
				i, on := pick(k, c, clients, len(traces), traced)
				var rec *recorder
				if on {
					rec = recs[c]
				}
				t0 := time.Now()
				out, err := session(traces[i], id, rec)
				results[c] = append(results[c], done{input: i, traced: on, busy: time.Since(t0), out: out, err: err})
			}
		}(c)
	}
	wg.Wait()
	res := clientResult{loopResult: loopResult{clients: clients}}
	for _, rs := range results {
		for _, r := range rs {
			err := r.err
			if err == nil && !bytes.Equal(r.out.doc, refs[r.input]) {
				err = errors.New("session report differs from batch analysis of its trace")
			}
			if err != nil {
				err = fmt.Errorf("session on input %d: %w", r.input, err)
			} else if !r.traced {
				res.flushAcks = append(res.flushAcks, r.out.flushes...)
			}
			res.add(r.input, r.out.events, r.busy, r.out.closeDur, r.traced, err)
			res.feed = append(res.feed, r.out.feed)
		}
	}
	res.spans = mergeSpans(recs...)
	return res
}
