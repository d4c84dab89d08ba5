package server

import (
	"net/http"
	"testing"

	"streamhist/internal/faults"
	"streamhist/internal/leakcheck"
)

// TestCloseStopsAllGoroutines opens a durable daemon — supervisor,
// checkpoint loop and WAL all running — serves traffic, and asserts
// Close tears every background goroutine down, using the same
// snapshot-and-diff helper as the chaos soak so a leak is reported with
// the stack that is still running.
func TestCloseStopsAllGoroutines(t *testing.T) {
	before := leakcheck.Take()
	s, err := Open(crashOptions(t.TempDir(), faults.OS{}))
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, http.MethodPost, "/v1/streams/default/ingest", "1\n2\n3\n"); rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	leakcheck.Check(t, before)
}
