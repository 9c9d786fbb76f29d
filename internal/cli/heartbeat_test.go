package cli

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// fakeClock is an injectable clock for throttle tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestHeartbeat(w io.Writer) (*Heartbeat, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	h := NewHeartbeat(w, "test", "items")
	h.now = clk.now
	return h, clk
}

// TestHeartbeatThrottle: intermediate observations inside the Every window
// are suppressed; the final observation always prints.
func TestHeartbeatThrottle(t *testing.T) {
	var b strings.Builder
	h, clk := newTestHeartbeat(&b)

	h.Observe(1, 100) // first observation prints
	for i := 2; i <= 50; i++ {
		clk.advance(time.Millisecond) // far below Every
		h.Observe(i, 100)
	}
	clk.advance(time.Second) // past Every: next observation prints
	h.Observe(51, 100)
	clk.advance(time.Millisecond)
	h.Observe(100, 100) // final: prints despite throttle window

	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3 (first, post-interval, final):\n%s", len(lines), b.String())
	}
	if !strings.HasPrefix(lines[0], "test: 1/100 items (1%)") {
		t.Errorf("first line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "51/100") || !strings.Contains(lines[1], "eta ") {
		t.Errorf("second line = %q (want 51/100 with eta)", lines[1])
	}
	if !strings.Contains(lines[2], "100/100 items (100%)") {
		t.Errorf("final line = %q", lines[2])
	}
	if strings.Contains(lines[2], "eta ") {
		t.Errorf("final line must not carry an eta: %q", lines[2])
	}
}

// TestHeartbeatRate: the printed rate reflects completions since the batch
// started, not a stale average across batches.
func TestHeartbeatRate(t *testing.T) {
	var b strings.Builder
	h, clk := newTestHeartbeat(&b)

	h.Observe(2, 8)
	clk.advance(3 * time.Second)
	h.Observe(8, 8) // base is done-1=1 at first obs: 7 items in 3s
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, " 2.33/s") {
		t.Errorf("final line = %q, want rate 2.33/s (7 items / 3s)", last)
	}
}

// TestHeartbeatBatchReset: a new batch name (or a completion count moving
// backwards) restarts the rate base, matching sweep's per-round batches.
func TestHeartbeatBatchReset(t *testing.T) {
	var b strings.Builder
	h, clk := newTestHeartbeat(&b)

	h.Step("base", 8, 8) // batch 1 completes
	clk.advance(10 * time.Second)
	h.Step("round 1", 1, 6) // new name → new batch, prints immediately
	clk.advance(time.Second)
	h.Step("round 1", 6, 6)

	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "test base: 8/8") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "test round 1: 1/6") {
		t.Errorf("line 1 = %q", lines[1])
	}
	// Rate for round 1 must be computed from the round's own start (base
	// done-1=0): 6 items in 1s = 6/s, not polluted by the 10s gap before
	// the round.
	if !strings.Contains(lines[2], " 6/s") {
		t.Errorf("line 2 = %q, want 6/s from the fresh batch base", lines[2])
	}
}

// TestHeartbeatGaugeMirror: observations land in the progress gauges of the
// installed default registry.
func TestHeartbeatGaugeMirror(t *testing.T) {
	reg := telemetry.New()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)

	h, _ := newTestHeartbeat(io.Discard)
	h.Observe(3, 9)
	if got := reg.Gauge(telemetry.ProgressDone).Value(); got != 3 {
		t.Errorf("progress_done = %d, want 3", got)
	}
	if got := reg.Gauge(telemetry.ProgressTotal).Value(); got != 9 {
		t.Errorf("progress_total = %d, want 9", got)
	}
}

// TestEtaString pins the compact ETA rendering at its unit boundaries.
func TestEtaString(t *testing.T) {
	cases := []struct {
		s    float64
		want string
	}{
		{0.2, "<1s"}, {5, "5s"}, {59.4, "59s"}, {90, "1m30s"}, {4000, "1h7m0s"},
	}
	for _, c := range cases {
		if got := etaString(c.s); got != c.want {
			t.Errorf("etaString(%v) = %q, want %q", c.s, got, c.want)
		}
	}
}

// TestTelemetryLifecycle drives the flag bundle end to end: flags register,
// Start installs a default registry and serves /metrics, Finish writes the
// report and uninstalls.
func TestTelemetryLifecycle(t *testing.T) {
	var tel Telemetry
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	tel.RegisterFlags(fs)
	report := filepath.Join(t.TempDir(), "report.json")
	if err := fs.Parse([]string{"-metrics-addr", "127.0.0.1:0", "-report", report}); err != nil {
		t.Fatal(err)
	}

	var announce strings.Builder
	if err := tel.Start("unit", &announce); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() == nil {
		t.Fatal("Start must install the default registry")
	}
	if !strings.Contains(announce.String(), "/metrics") {
		t.Errorf("no listen announcement: %q", announce.String())
	}
	// Core series are pre-registered so early scrapes see them at zero.
	snap := telemetry.Default().Snapshot()
	for _, name := range []string{telemetry.KernelEvents, telemetry.EngineReplicasStarted} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("core series %s not pre-registered", name)
		}
	}
	telemetry.Inc(telemetry.KernelHalts)

	if err := tel.Finish(); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() != nil {
		t.Error("Finish must uninstall the default registry")
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Label != "unit" || rep.Metrics.Counters[telemetry.KernelHalts] != 1 {
		t.Errorf("report contents wrong: %+v", rep)
	}
	if err := tel.Close(); err != nil { // idempotent after Finish
		t.Errorf("second Close: %v", err)
	}

	// Disabled mode: both flags empty → Start/Finish are no-ops.
	var off Telemetry
	if err := off.Start("off", io.Discard); err != nil {
		t.Fatal(err)
	}
	if telemetry.Default() != nil {
		t.Error("disabled Start must not install a registry")
	}
	if err := off.Finish(); err != nil {
		t.Fatal(err)
	}
}
