package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Machine-readable error codes carried by the JSON error envelope. Every
// non-2xx response of the API (except /readyz, whose body is a status
// report, not an error) uses one of these, so clients branch on code
// instead of parsing prose.
const (
	errMethodNotAllowed = "method_not_allowed"
	errNotReady         = "not_ready"
	errOverloaded       = "overloaded"
	errBodyTooLarge     = "body_too_large"
	errBadRequest       = "bad_request"
	errConflict         = "conflict"
	errBadSnapshot      = "bad_snapshot"
	errInternal         = "internal"
	errTimeout          = "timeout"
	errNotFound         = "not_found"
	// errDegraded: the durability layer is down and Options.OnPersistError
	// is "refuse", so writes are refused until the log recovers.
	errDegraded = "degraded"
	// errQuarantined: a panic occurred while the state lock was held; the
	// in-memory state is suspect and mutating requests are refused until
	// the server restores from disk or is restarted.
	errQuarantined = "quarantined"
	// errUnknownStream: the request named a stream key that does not exist
	// (or is syntactically invalid).
	errUnknownStream = "unknown_stream"
	// errQuotaExceeded: creating one more stream would exceed
	// Options.MaxKeys.
	errQuotaExceeded = "quota_exceeded"
	// errAuditDisabled: the request asked for accuracy-SLO state but the
	// server runs without shadow auditing (Options.AuditInterval is 0).
	errAuditDisabled = "audit_disabled"
)

// timeoutBody is the envelope http.TimeoutHandler writes when a request
// exceeds Options.RequestTimeout, kept in the same shape as writeError's
// output so every error response parses identically.
const timeoutBody = `{"error":{"code":"` + errTimeout + `","message":"request timed out"}}` + "\n"

// writeError emits the API's single error envelope:
//
//	{"error":{"code":"<machine code>","message":"<human text>"}}
//
// All handlers answer errors through this helper (or timeoutBody) so
// /ingest 413s, /restore failures and overload 429s all parse the same
// way.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{
			"code":    code,
			"message": fmt.Sprintf(format, args...),
		},
	})
}

// writeStreamError is writeError plus a "stream" field inside the
// envelope naming the per-stream route's key, so multi-tenant clients
// attribute errors without parsing the message.
func writeStreamError(w http.ResponseWriter, status int, code, stream, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error": map[string]string{
			"code":    code,
			"message": fmt.Sprintf(format, args...),
			"stream":  stream,
		},
	})
}
