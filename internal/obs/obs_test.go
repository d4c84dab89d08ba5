package obs_test

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"streamhist/internal/obs"
)

// TestWriteTextGolden pins the exposition format end to end: HELP/TYPE
// headers once per family, families sorted by name, label fragments
// preserved, summaries rendered as quantile series plus _sum/_count.
func TestWriteTextGolden(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("app_events_total", "Events seen.").Add(3)
	reg.LabeledCounter("app_requests_total", `path="/x",code="2xx"`, "Requests.").Inc()
	reg.LabeledCounter("app_requests_total", `path="/x",code="5xx"`, "Requests.").Add(2)
	reg.Gauge("app_depth", "Queue depth.").Set(1.5)
	reg.GaugeFunc("app_clock", "Fixed reading.", func() float64 { return 7 })
	tr := reg.Track("app_latency_seconds", "Latency.")
	for i := 1; i <= 100; i++ {
		tr.Observe(float64(i) / 100)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP app_clock Fixed reading.
# TYPE app_clock gauge
app_clock 7
# HELP app_depth Queue depth.
# TYPE app_depth gauge
app_depth 1.5
# HELP app_events_total Events seen.
# TYPE app_events_total counter
app_events_total 3
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds summary
app_latency_seconds{quantile="0.5"} 0.5
app_latency_seconds{quantile="0.9"} 0.9
app_latency_seconds{quantile="0.99"} 0.99
app_latency_seconds_sum 50.5
app_latency_seconds_count 100
# HELP app_requests_total Requests.
# TYPE app_requests_total counter
app_requests_total{path="/x",code="2xx"} 1
app_requests_total{path="/x",code="5xx"} 2
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestTrackQuantilesGKBacked checks the exported quantiles come from the
// GK summary with its rank guarantee: over 1..1000 the p50/p90/p99
// estimates must sit within eps*n ranks of the exact order statistics.
func TestTrackQuantilesGKBacked(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Track("t_seconds", "x")
	const n = 1000
	for i := 1; i <= n; i++ {
		tr.Observe(float64(i))
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q    string
		want float64
	}{{"0.5", 500}, {"0.9", 900}, {"0.99", 990}} {
		line := findLine(t, sb.String(), `t_seconds{quantile="`+tc.q+`"}`)
		v := sampleValue(t, line)
		// 0.5% rank error over 1000 uniform ranks = ±5 values, doubled for
		// slack.
		if math.Abs(v-tc.want) > 10 {
			t.Errorf("q%s = %v, want within 10 of %v", tc.q, v, tc.want)
		}
	}
}

// TestEmptyTrackRendersNaN checks an observation-free summary exposes NaN
// quantiles (the Prometheus convention) rather than zeros.
func TestEmptyTrackRendersNaN(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Track("idle_seconds", "x")
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `idle_seconds{quantile="0.5"} NaN`) {
		t.Errorf("missing NaN quantile:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "idle_seconds_count 0") {
		t.Errorf("missing zero count:\n%s", sb.String())
	}
}

// TestRegistryDedup checks registering the same series twice returns the
// same handle, and a type conflict panics.
func TestRegistryDedup(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("c_total", "x")
	b := reg.Counter("c_total", "x")
	if a != b {
		t.Error("same series produced distinct handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("handles do not share state")
	}
	defer func() {
		if recover() == nil {
			t.Error("type conflict did not panic")
		}
	}()
	reg.Gauge("c_total", "x")
}

// TestNilRegistryIsNoOp checks the disabled path end to end: nil registry,
// nil handles, zero Start time, empty exposition, 404 handler.
func TestNilRegistryIsNoOp(t *testing.T) {
	var reg *obs.Registry
	c := reg.Counter("x_total", "x")
	g := reg.Gauge("x", "x")
	tr := reg.Track("x_seconds", "x")
	reg.GaugeFunc("y", "y", func() float64 { panic("must not be called") })
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	tr.Observe(1)
	start := tr.Start()
	if !start.IsZero() {
		t.Error("nil track Start read the clock")
	}
	tr.ObserveSince(start)
	if c.Value() != 0 || g.Value() != 0 || tr.Count() != 0 {
		t.Error("nil handles accumulated state")
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry wrote %q, err %v", sb.String(), err)
	}
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Errorf("nil registry handler answered %d, want 404", rec.Code)
	}
}

// TestHandler checks a live registry scrape: content type and body.
func TestHandler(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("h_total", "x").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != obs.ContentType {
		t.Errorf("content type %q", got)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}

// TestRegistryRace hammers one registry from many goroutines — mixed
// registration (hitting the dedup path), updates of every metric kind and
// concurrent scrapes. Run with -race.
func TestRegistryRace(t *testing.T) {
	reg := obs.NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Counter("race_total", "x").Inc()
				reg.LabeledCounter("race_labeled_total", `w="a"`, "x").Add(2)
				reg.Gauge("race_gauge", "x").Add(1)
				tr := reg.Track("race_seconds", "x")
				tr.Observe(float64(i))
				tr.ObserveSince(tr.Start())
				if i%50 == 0 {
					var sb strings.Builder
					if err := reg.WriteText(&sb); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("race_total", "x").Value(); got != 8*200 {
		t.Errorf("race_total = %d, want %d", got, 8*200)
	}
	if got := reg.Track("race_seconds", "x").Count(); got != 2*8*200 {
		t.Errorf("race_seconds count = %d, want %d", got, 2*8*200)
	}
}

// TestScrapeVsRegisterRace drives continuous WriteText scrapes against
// goroutines that keep installing brand-new series (the write-lock path)
// and re-resolving existing ones (the read-lock fast path). Under -race
// this pins the RWMutex split: scrapes and lookups may interleave freely
// while installs stay exclusive, and a scrape never observes a torn
// registry.
func TestScrapeVsRegisterRace(t *testing.T) {
	reg := obs.NewRegistry()
	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	for g := 0; g < 4; g++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var regs sync.WaitGroup
	for g := 0; g < 4; g++ {
		regs.Add(1)
		go func(g int) {
			defer regs.Done()
			for i := 0; i < 300; i++ {
				// New series per iteration: exercises the install path.
				reg.LabeledCounter("scrapereg_total", `g="`+strconv.Itoa(g)+`",i="`+strconv.Itoa(i)+`"`, "x").Inc()
				// Same series from every goroutine: exercises the
				// read-lock fast path and the lost-install re-check.
				reg.Counter("scrapereg_shared_total", "x").Inc()
			}
		}(g)
	}
	regs.Wait()
	close(stop)
	scrapes.Wait()
	if got := reg.Counter("scrapereg_shared_total", "x").Value(); got != 4*300 {
		t.Errorf("shared counter = %d, want %d", got, 4*300)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "scrapereg_total{"); n != 4*300 {
		t.Errorf("rendered %d scrapereg_total series, want %d", n, 4*300)
	}
}

// TestDisabledHandlesAllocateNothing asserts the nil fast path performs
// zero allocations — the property that lets hot paths carry unconditional
// instrumentation calls.
func TestDisabledHandlesAllocateNothing(t *testing.T) {
	var reg *obs.Registry
	c := reg.Counter("x_total", "x")
	tr := reg.Track("x_seconds", "x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		tr.ObserveSince(tr.Start())
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocates %v per op", allocs)
	}
}

// TestEnabledCounterAllocatesNothing asserts steady-state updates on live
// handles are allocation-free too (registration may allocate; updates may
// not): counters, gauges and the latency tracks every request observes.
func TestEnabledCounterAllocatesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("x_total", "x")
	g := reg.Gauge("x", "x")
	tr := reg.Track("x_seconds", "x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		g.Set(2)
		tr.Observe(0.001)
	})
	if allocs != 0 {
		t.Errorf("enabled counter/gauge/track updates allocate %v per op", allocs)
	}
}

// findLine returns the line of s starting with prefix.
func findLine(t *testing.T, s, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, s)
	return ""
}

// sampleValue parses the trailing float of a `name{labels} value` line.
func sampleValue(t *testing.T, line string) float64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return v
}
