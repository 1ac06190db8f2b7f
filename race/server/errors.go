package server

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"syscall"

	"repro/internal/wire"
)

// errorCodes is the one table between local sentinels and the wire's error
// codes. ErrorCode reads it sentinel → code when a server or router encodes
// a failure, SentinelForCode reads it code → sentinel when a client decodes
// one, and Classify names errors by it — so a condition cannot be typed on
// one hop and untyped on the next. Order matters only for an error wrapping
// several sentinels: the first row that matches wins.
//
// Rows marked local are conditions the encoding hop detects about its own
// connection (a corrupt frame, an I/O deadline, a protocol violation). Their
// code travels, but the decoding side does not restore the sentinel: its
// own connection is fine, and the error classifies through the code alone.
var errorCodes = []struct {
	code     wire.ErrCode
	sentinel error
	local    bool
}{
	{wire.CodeUnknownSession, ErrUnknown, false},
	{wire.CodeBusy, ErrBusy, false},
	{wire.CodeSuspended, ErrSuspended, false},
	{wire.CodeEvicted, ErrEvicted, false},
	{wire.CodeDraining, ErrDraining, false},
	{wire.CodeFull, ErrServerFull, false},
	{wire.CodeShutdown, ErrServerClosed, false},
	{wire.CodeClosed, ErrSessionClosed, false},
	{wire.CodeIDTaken, ErrIDTaken, false},
	{wire.CodeIO, ErrDiskFault, false},
	{wire.CodeCorrupt, wire.ErrCorruptFrame, true},
	{wire.CodeTimeout, os.ErrDeadlineExceeded, true},
	{wire.CodeProto, errProto, true},
}

// codeOf returns the wire code err carries: the code of a typed remote
// failure in its chain (a peer's classification is kept, never redone),
// else the code of the first table sentinel it wraps.
func codeOf(err error) (wire.ErrCode, bool) {
	if code := RemoteErrorCode(err); code != "" {
		return code, true
	}
	for _, row := range errorCodes {
		if errors.Is(err, row.sentinel) {
			return row.code, true
		}
	}
	return "", false
}

// ErrorCode classifies an error into the wire vocabulary — the typed half
// of every TError frame and X-Raced-Error-Code header. The server and the
// fleet router both use it, so an error classifies identically no matter
// which hop encodes it. Errors outside the table are CodeInternal.
func ErrorCode(err error) wire.ErrCode {
	if code, ok := codeOf(err); ok {
		return code
	}
	return wire.CodeInternal
}

// SentinelForCode maps a wire error code to the local sentinel it encodes,
// so a server-reported condition classifies identically on both sides of
// the connection. Local-only and unknown codes (corrupt, proto, timeout,
// internal) return nil and classify through the RemoteError itself.
func SentinelForCode(code wire.ErrCode) error {
	for _, row := range errorCodes {
		if row.code == code && !row.local {
			return row.sentinel
		}
	}
	return nil
}

// Classify names a session failure by its typed class, the vocabulary the
// load and fault harnesses count by: the wire code for anything the error
// table or a peer typed ("full", "draining", "io", "suspended", …),
// "handoff" for a session a router is moving, "timeout" or "canceled" for
// a context outcome, and "conn" for a connection-level failure. The empty
// string means unclassified — a violation of the typed-error contract.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	if code, ok := codeOf(err); ok {
		return string(code)
	}
	switch {
	case errors.Is(err, ErrHandoff):
		return "handoff"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed), errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE), errors.Is(err, syscall.ECONNREFUSED):
		return "conn"
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return "conn"
	}
	return ""
}

// remoteError is a decoded TError frame as the client surfaces it: it
// unwraps to both the typed *wire.RemoteError (errors.As for the code) and
// the matching local sentinel (errors.Is across the wire).
type remoteError struct {
	re       *wire.RemoteError
	sentinel error
}

func (e *remoteError) Error() string { return e.re.Error() }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{e.re}
	}
	return []error{e.re, e.sentinel}
}

// decodeRemoteError turns a TError payload into the error wire clients
// propagate. Legacy plain-text payloads (an old server) decode with an
// empty code and no sentinel — callers that still need to classify those
// fall back to the message, but a v2 peer always sends a code.
func decodeRemoteError(payload []byte) error {
	re := wire.DecodeError(payload)
	return &remoteError{re: re, sentinel: SentinelForCode(re.Code)}
}

// RemoteFault builds the error a typed remote failure surfaces as: it
// unwraps to both the *wire.RemoteError carrying code and the matching
// local sentinel. Callers that learn a failure's code out of band — the
// fleet router reading the X-Raced-Error-Code header off an HTTP reply —
// use it to restore errors.Is classification that plain body text loses.
func RemoteFault(code wire.ErrCode, msg string) error {
	return &remoteError{re: &wire.RemoteError{Code: code, Msg: msg}, sentinel: SentinelForCode(code)}
}

// RemoteErrorCode extracts the wire error code from an error chain (""
// when the error did not come from a typed TError frame or header).
func RemoteErrorCode(err error) wire.ErrCode {
	var re *wire.RemoteError
	if errors.As(err, &re) {
		return re.Code
	}
	return ""
}
