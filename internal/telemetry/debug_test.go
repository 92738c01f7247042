package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func debugGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("debug_requests_total", "requests").Add(3)
	reg.Histogram("debug_latency_seconds", "latency", UnitSeconds).ObserveDuration(4 * time.Millisecond)
	tc := NewTracer(8)
	tr := tc.Start("req")
	tr.Span("queue", tr.Start(), tr.Start().Add(time.Millisecond))
	tr.Terminal("completed", tr.Start().Add(2*time.Millisecond))
	tr.Finish()

	d, err := ListenDebug("127.0.0.1:0", reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()

	code, body := debugGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{"debug_requests_total 3", "debug_latency_seconds_count 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = debugGet(t, base+"/metrics.fed")
	if code != http.StatusOK {
		t.Fatalf("/metrics.fed status %d", code)
	}
	var snap FedSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.fed not JSON: %v\n%s", err, body)
	}
	if snap.Values["debug_requests_total"] != 3 {
		t.Fatalf("snapshot counter = %v", snap.Values["debug_requests_total"])
	}

	code, body = debugGet(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces status %d", code)
	}
	var traces []TraceSnapshot
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].Terminal != "completed" {
		t.Fatalf("traces = %+v", traces)
	}

	code, body = debugGet(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars status %d, body %.80s", code, body)
	}

	code, body = debugGet(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ status %d, body %.80s", code, body)
	}
}

func TestDebugServerNilSources(t *testing.T) {
	d, err := ListenDebug("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr()
	if code, _ := debugGet(t, base+"/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics status %d with nil registry", code)
	}
	code, body := debugGet(t, base+"/traces")
	if code != http.StatusOK || strings.TrimSpace(body) != "null" {
		t.Fatalf("/traces with nil tracer: status %d body %q", code, body)
	}
}
