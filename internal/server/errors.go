package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Error is the serving layer's structured error taxonomy: every failure a
// handler or the robustness envelope can produce maps to exactly one Code and
// HTTP status, and is written to the client as a JSON body
// {"error": code, "detail": ...} (plus a Retry-After header when the failure
// is load-induced and retrying elsewhere/later makes sense). Handlers return
// errors; only WriteError talks to the ResponseWriter, so the wire format is
// uniform.
type Error struct {
	// Status is the HTTP status code the error maps to.
	Status int
	// Code is the stable machine-readable identifier ("overloaded", …).
	Code string
	// Detail is the optional human-readable elaboration.
	Detail string
	// RetryAfter, when positive, is surfaced as a Retry-After header —
	// set on load-shedding errors.
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("server: %s", e.Code)
	}
	return fmt.Sprintf("server: %s: %s", e.Code, e.Detail)
}

// Is makes errors.Is(err, ErrOverloaded) work for detailed copies: two
// *Errors match when their Codes match.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Code == e.Code
}

// WithDetail returns a copy of e carrying a formatted detail string; the
// sentinel itself is never mutated.
func (e *Error) WithDetail(format string, args ...any) *Error {
	cp := *e
	cp.Detail = fmt.Sprintf(format, args...)
	return &cp
}

// withRetryAfter returns a copy of e carrying a Retry-After hint.
func (e *Error) withRetryAfter(d time.Duration) *Error {
	cp := *e
	cp.RetryAfter = d
	return &cp
}

// The taxonomy. Each sentinel is the canonical instance of its Code; use
// WithDetail for per-request elaboration and errors.Is to classify.
var (
	// ErrBadRequest: the request is syntactically or semantically invalid
	// (unparsable query parameter, negative coordinate, …).
	ErrBadRequest = &Error{Status: http.StatusBadRequest, Code: "bad_request"}
	// ErrNotFound: the addressed resource (cell-group id, route) does not
	// exist in the served view.
	ErrNotFound = &Error{Status: http.StatusNotFound, Code: "not_found"}
	// ErrMethodNotAllowed: the endpoint exists but not for this verb.
	ErrMethodNotAllowed = &Error{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed"}
	// ErrBodyTooLarge: the request body exceeded the envelope's 1 MiB cap.
	ErrBodyTooLarge = &Error{Status: http.StatusRequestEntityTooLarge, Code: "body_too_large"}
	// ErrInternal: a handler failed or panicked; the panic is recovered and
	// isolated to the one request.
	ErrInternal = &Error{Status: http.StatusInternalServerError, Code: "internal"}
	// ErrOverloaded: admission control shed the request — the in-flight
	// limit is reached and the wait queue is full or the queue wait expired.
	ErrOverloaded = &Error{Status: http.StatusServiceUnavailable, Code: "overloaded"}
	// ErrDraining: the server is shutting down gracefully and admits
	// nothing new.
	ErrDraining = &Error{Status: http.StatusServiceUnavailable, Code: "draining"}
	// ErrNotReady: the stream has never produced a view, so there is
	// nothing to serve yet.
	ErrNotReady = &Error{Status: http.StatusServiceUnavailable, Code: "not_ready"}
	// ErrTimeout: the per-request deadline expired inside the handler.
	ErrTimeout = &Error{Status: http.StatusGatewayTimeout, Code: "timeout"}
)

// errorBody is the JSON wire form of an Error.
type errorBody struct {
	Code   string `json:"error"`
	Detail string `json:"detail,omitempty"`
}

// asError coerces any error into the taxonomy: *Errors pass through,
// MaxBytesErrors map to ErrBodyTooLarge, everything else becomes ErrInternal
// with the original message as detail.
func asError(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return ErrBodyTooLarge.WithDetail("request body exceeds %d bytes", mbe.Limit)
	}
	return ErrInternal.WithDetail("%v", err)
}

// WriteError writes err's taxonomy mapping to w as a JSON error body. If the
// handler already started the response the status cannot be changed, so
// nothing further is written (the truncated response is the client's signal).
func WriteError(w http.ResponseWriter, err error) {
	sw, ok := w.(*statusWriter)
	if ok && sw.wrote {
		return
	}
	se := asError(err)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if se.RetryAfter > 0 {
		h.Set("Retry-After", retryAfterSeconds(se.RetryAfter))
	}
	w.WriteHeader(se.Status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(errorBody{Code: se.Code, Detail: se.Detail}) //spatialvet:ignore errdrop best-effort HTTP error body; a disconnected client is unactionable here
}

// retryAfterSeconds renders a duration as the integral seconds form of the
// Retry-After header, rounding up so "retry after 300ms" never becomes "0".
func retryAfterSeconds(d time.Duration) string {
	s := (d + time.Second - 1) / time.Second
	if s < 1 {
		s = 1
	}
	return fmt.Sprintf("%d", int64(s))
}

// statusWriter tracks whether a handler has started the response (so the
// envelope knows when an error can still be mapped to a status) and what
// status it sent (for metrics).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(status int) {
	if !w.wrote {
		w.status = status
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.status = http.StatusOK
		w.wrote = true
	}
	return w.ResponseWriter.Write(b)
}
