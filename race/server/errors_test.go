package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"syscall"
	"testing"

	"repro/internal/wire"
)

// TestClassify: every row of the code↔sentinel table classifies the same
// on every hop — the in-process sentinel (wrapped, as call sites wrap it),
// the TError frame a server encodes from it and a client decodes, and the
// RemoteFault a router rebuilds from an error-code header — and the class
// is the wire code itself. Errors that carry no code get the few extra
// classes; anything else is unclassified.
func TestClassify(t *testing.T) {
	for _, row := range errorCodes {
		local := fmt.Errorf("op on s1: %w", row.sentinel)
		if got := ErrorCode(local); got != row.code {
			t.Errorf("ErrorCode(%v) = %q, want %q", row.sentinel, got, row.code)
		}
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, wire.TError, wire.EncodeError(ErrorCode(local), local.Error())); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := wire.ReadFrame(&buf)
		if err != nil || typ != wire.TError {
			t.Fatalf("reading back TError frame: %v, %v", typ, err)
		}
		decoded := decodeRemoteError(payload)
		fault := RemoteFault(row.code, local.Error())

		want := string(row.code)
		for hop, err := range map[string]error{"sentinel": local, "frame": decoded, "header": fault} {
			if got := Classify(err); got != want {
				t.Errorf("%s: Classify(%s) = %q, want %q", row.code, hop, got, want)
			}
			if got := ErrorCode(err); got != row.code {
				t.Errorf("%s: ErrorCode(%s) = %q, re-encoding must keep the code", row.code, hop, got)
			}
		}
		// Shared conditions unwrap to their sentinel across the wire;
		// local ones (about the encoding hop's own connection) do not.
		sentinel := SentinelForCode(row.code)
		if row.local {
			if sentinel != nil || errors.Is(decoded, row.sentinel) {
				t.Errorf("%s: local condition restored as a sentinel on decode", row.code)
			}
		} else if sentinel != row.sentinel || !errors.Is(decoded, row.sentinel) || !errors.Is(fault, row.sentinel) {
			t.Errorf("%s: decoded error does not unwrap to %v", row.code, row.sentinel)
		}
	}
	// The session conditions clients and routers act on must cross the
	// wire as their sentinels.
	for _, sentinel := range []error{ErrUnknown, ErrBusy, ErrSuspended, ErrEvicted, ErrDraining,
		ErrServerFull, ErrServerClosed, ErrSessionClosed, ErrIDTaken, ErrDiskFault} {
		if !errors.Is(decodeRemoteError(wire.EncodeError(ErrorCode(sentinel), "x")), sentinel) {
			t.Errorf("%v does not survive a TError round trip", sentinel)
		}
	}
	if got := ErrorCode(errors.New("analysis blew up")); got != wire.CodeInternal {
		t.Errorf("untyped server error encodes as %q, want internal", got)
	}

	for want, err := range map[string]error{
		"handoff":  fmt.Errorf("session s1: %w", ErrHandoff),
		"timeout":  context.DeadlineExceeded,
		"canceled": context.Canceled,
		"conn":     syscall.ECONNREFUSED,
		"internal": RemoteFault(wire.CodeInternal, "panic in analysis"),
	} {
		if got := Classify(err); got != want {
			t.Errorf("Classify(%v) = %q, want %q", err, got, want)
		}
	}
	if got := Classify(net.ErrClosed); got != "conn" {
		t.Errorf("Classify(net.ErrClosed) = %q, want conn", got)
	}
	// An error with no type at all is the harness violation case.
	for _, err := range []error{nil, errors.New("shrug"), decodeRemoteError([]byte("legacy plain text"))} {
		if got := Classify(err); got != "" {
			t.Errorf("Classify(%v) = %q, want unclassified", err, got)
		}
	}
}
