package main

// Observability smoke test (`make obs-smoke`): boot the RSU with a
// debug listener, scrape /metrics and /traces while the feeds run,
// and assert the key series and a full per-request trace are there.
// Scraping happens mid-flight — exactly how an operator would use the
// endpoints — because run() tears the listener down when it returns.

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"safecross/internal/telemetry"
)

var debugBannerRE = regexp.MustCompile(`debug endpoints on (http://[^/\s]+)/metrics`)

// bannerWriter lets the test read run()'s output while run() is still
// writing it.
type bannerWriter struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (w *bannerWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *bannerWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// wantSeries are the acceptance series: queue-wait, batch-size, and
// switch-cost from the serving plane, broadcast latency from the RSU,
// frame-stage timings from the frameworks, and the labelled PipeSwitch
// load histogram.
var wantSeries = []string{
	"serve_queue_wait_seconds_count",
	"serve_batch_size_count",
	"serve_switch_cost_seconds_count",
	"serve_submitted_total",
	"serve_completed_total",
	"rsu_broadcast_seconds_count",
	"safecross_frames_total",
	"safecross_frame_verdict_seconds_count",
	"safecross_vp_seconds_count",
	`pipeswitch_load_seconds_count{method="pipeswitch"}`,
	`slo_burn_rate{slo="serve-queue-wait"`,
	`slo_burn_rate{slo="frame-verdict"`,
	`slo_alert_active{slo="serve-queue-wait"}`,
}

// frameTraceStages is the span tiling a completed sampled frame must
// show: the five serving-plane stages, then the RSU broadcast.
var frameTraceStages = []string{"queue", "batch-wait", "switch", "compute", "deliver", "broadcast"}

func scrape(base, path string) (string, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// fullFrameTrace returns a completed trace with the expected stage
// tiling, or nil.
func fullFrameTrace(traces []telemetry.TraceSnapshot) *telemetry.TraceSnapshot {
	for i, tr := range traces {
		if tr.Terminal != "completed" || len(tr.Spans) != len(frameTraceStages) {
			continue
		}
		ok := true
		for j, sp := range tr.Spans {
			if sp.Name != frameTraceStages[j] {
				ok = false
				break
			}
			// The five serving spans tile exactly on shared instants;
			// broadcast starts after deliver (the submitter regains
			// control in between).
			if j > 0 && j < 5 && !sp.Start.Equal(tr.Spans[j-1].End) {
				ok = false
				break
			}
		}
		if ok {
			return &traces[i]
		}
	}
	return nil
}

func TestObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end RSU run skipped in -short mode")
	}
	out := &bannerWriter{}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0",
			"-frames", "200",
			"-scene-frames", "50",
			"-intersections", "2",
			// The demo vehicle shares the process tracer, so sampled
			// frames produce both a serve-side trace and the vehicle's
			// receive segment under the same trace id.
			"-demo",
		}, out)
	}()

	// The debug listener comes up before training starts; find its
	// address from the banner.
	var base string
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if m := debugBannerRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("no debug banner in output:\n%s", out.String())
	}

	// Scrape until every series has appeared, a sampled frame has
	// retired a fully tiled trace, and that trace's id also shows on a
	// vehicle receive segment — the distributed-trace contract in one
	// process: the node's frame trace and the demo vehicle's segment
	// share one trace id. run() ending first means the endpoints never
	// showed the data — that is a failure.
	var lastMetrics string
	var missing []string
	var traceOK, stitchOK bool
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			t.Fatalf("run() finished (err=%v) before the debug endpoints showed all series; missing %v traceOK=%v stitchOK=%v\nlast scrape:\n%s",
				err, missing, traceOK, stitchOK, lastMetrics)
		case <-tick.C:
		}
		metrics, err := scrape(base, "/metrics")
		if err != nil {
			continue
		}
		lastMetrics = metrics
		missing = missing[:0]
		for _, s := range wantSeries {
			if !strings.Contains(metrics, s) {
				missing = append(missing, s)
			}
		}
		if !traceOK || !stitchOK {
			body, err := scrape(base, "/traces")
			if err != nil {
				continue
			}
			var traces []telemetry.TraceSnapshot
			if json.Unmarshal([]byte(body), &traces) == nil {
				if fullFrameTrace(traces) != nil {
					traceOK = true
				}
				frameIDs := make(map[string]bool)
				for _, tr := range traces {
					if strings.HasPrefix(tr.Name, "frame/") && tr.TraceID != "" {
						frameIDs[tr.TraceID] = true
					}
				}
				for _, tr := range traces {
					if tr.Name == "vehicle/recv/advisory" && tr.Parent == "broadcast" && frameIDs[tr.TraceID] {
						stitchOK = true
						break
					}
				}
			}
		}
		if len(missing) == 0 && traceOK && stitchOK {
			break
		}
	}

	// /traces honors bounded, validated query parameters: n caps the
	// dump, terminal filters it, and garbage is a 400 — not a panic,
	// not an unbounded dump.
	body, err := scrape(base, "/traces?n=3&terminal=completed")
	if err != nil {
		t.Fatalf("filtered /traces: %v", err)
	}
	var filtered []telemetry.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &filtered); err != nil {
		t.Fatalf("filtered /traces not JSON: %v\n%s", err, body)
	}
	if len(filtered) > 3 {
		t.Fatalf("/traces?n=3 returned %d traces", len(filtered))
	}
	for _, tr := range filtered {
		if tr.Terminal != "completed" {
			t.Fatalf("/traces?terminal=completed returned terminal %q", tr.Terminal)
		}
	}
	for _, bad := range []string{"/traces?n=0", "/traces?n=zap", "/traces?n=999999999", "/traces?terminal=sp%20ace"} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatalf("GET %s: %v", bad, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: want 400, got %d", bad, resp.StatusCode)
		}
	}

	// The JSON snapshot must agree that work completed.
	body, err = scrape(base, "/metrics.fed")
	if err == nil {
		var snap telemetry.FedSnapshot
		if jerr := json.Unmarshal([]byte(body), &snap); jerr != nil {
			t.Fatalf("/metrics.fed not JSON: %v", jerr)
		}
		if v := snap.Values["serve_completed_total"]; v <= 0 {
			t.Fatalf("snapshot shows no completed requests: %v", v)
		}
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "served 400 frames") {
		t.Fatalf("missing completion summary:\n%s", out.String())
	}
}
