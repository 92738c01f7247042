package fleet

import (
	"reflect"
	"testing"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// TestCoordinatorOptionsLandInConfig checks that each coordinator
// option reaches the normalised configuration and that a primary is
// born as RolePrimary at term 1 with its own address heading the seed
// list.
func TestCoordinatorOptionsLandInConfig(t *testing.T) {
	keys := []int{1, 2, 3}
	tt := testTimings()
	reg := telemetry.NewRegistry()
	log := telemetry.NewLogger(nil, telemetry.LevelWarn)

	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithMetrics(reg),
		WithLogger(log))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	want := Config{Intersections: keys, Timings: tt, Metrics: reg, Logger: log}
	if !reflect.DeepEqual(coord.cfg, want) {
		t.Fatalf("normalised config:\n got  %+v\n want %+v", coord.cfg, want)
	}
	if coord.Role() != RolePrimary || coord.Term() != 1 {
		t.Fatalf("birth primary at role %v term %d; want primary term 1", coord.Role(), coord.Term())
	}
	coord.mu.Lock()
	seeds := append([]string(nil), coord.seeds...)
	coord.mu.Unlock()
	if len(seeds) != 1 || seeds[0] != coord.Addr() {
		t.Fatalf("seed list = %v; want [%s]", seeds, coord.Addr())
	}
}

// TestAgentOptionsLandInConfig does the same for agents: the seed
// list, advertised address, timings and metrics registry.
func TestAgentOptionsLandInConfig(t *testing.T) {
	tt := testTimings()
	reg := telemetry.NewRegistry()
	srv, err := rsu.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	agent, err := NewAgent("n1", srv,
		WithCoordinators("127.0.0.1:9"),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithAdvertise("adv:1"),
		WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewAgent: %v", err)
	}
	defer agent.Close()

	want := AgentConfig{
		ID:           "n1",
		Coordinators: []string{"127.0.0.1:9"},
		Advertise:    "adv:1",
		Timings:      tt,
		Metrics:      reg,
	}
	if !reflect.DeepEqual(agent.cfg, want) {
		t.Fatalf("normalised config:\n got  %+v\n want %+v", agent.cfg, want)
	}
}
