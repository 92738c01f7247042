package fleet

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// testTimings is a fast failure-detection clock for tests: suspect at
// 40ms of silence, dead at 90ms.
func testTimings() Timings {
	return Timings{
		HeartbeatEvery: 10 * time.Millisecond,
		SuspectAfter:   40 * time.Millisecond,
		DeadAfter:      90 * time.Millisecond,
	}
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	waitForExplained(t, what, pred, nil)
}

// waitForExplained is waitFor that, on timeout, adds detail() — the
// state that explains the wait — to the failure.
func waitForExplained(t *testing.T, what string, pred func() bool, detail func() string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	if detail != nil {
		t.Fatalf("timed out waiting for %s: %s", what, detail())
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fakeNode is a hand-rolled control-plane peer: it speaks raw
// heartbeats over TCP so tests control exactly when a node goes
// silent while keeping its connection alive (a partition, not a
// crash).
type fakeNode struct {
	t    *testing.T
	id   string
	conn net.Conn
	enc  *json.Encoder
	msgs chan rsu.Message
	stop chan struct{}
}

func dialFake(t *testing.T, coordAddr, id string) *fakeNode {
	t.Helper()
	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		t.Fatalf("dial coordinator: %v", err)
	}
	f := &fakeNode{
		t:    t,
		id:   id,
		conn: conn,
		enc:  json.NewEncoder(conn),
		msgs: make(chan rsu.Message, 256),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(f.msgs)
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var msg rsu.Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			select {
			case f.msgs <- msg:
			default:
			}
		}
	}()
	return f
}

// heartbeat sends one heartbeat; errors are returned, not fatal,
// because late heartbeats may legitimately hit a closing connection.
func (f *fakeNode) heartbeat() error {
	return f.enc.Encode(rsu.HeartbeatMessage(f.id, "rsu-"+f.id+":1", 0))
}

// pump heartbeats on the test clock until stopPump is called.
func (f *fakeNode) pump(every time.Duration) {
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-tick.C:
				if f.heartbeat() != nil {
					return
				}
			}
		}
	}()
}

func (f *fakeNode) stopPump() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
}

// TestCoordinatorPartition walks the full failure-detection timeline
// for a node that goes silent but stays alive: live → suspect (shards
// kept) → dead (shards reassigned, failover counted) → late heartbeat
// rejected with a redirect and the stale connection dropped.
func TestCoordinatorPartition(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6, 7, 8}
	tt := testTimings()
	reg := telemetry.NewRegistry()
	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()
	failovers := reg.Counter("fleet_failovers_total", "")
	late := reg.Counter("fleet_late_heartbeats_total", "")

	n1 := dialFake(t, coord.Addr(), "n1")
	n2 := dialFake(t, coord.Addr(), "n2")
	if err := n1.heartbeat(); err != nil {
		t.Fatalf("n1 register: %v", err)
	}
	if err := n2.heartbeat(); err != nil {
		t.Fatalf("n2 register: %v", err)
	}
	n1.pump(testTimings().HeartbeatEvery)
	defer n1.stopPump()

	waitFor(t, "both nodes live and all intersections assigned", func() bool {
		if !stateIs(coord, "n1", Live) || !stateIs(coord, "n2", Live) {
			return false
		}
		owners := coord.Assignments()
		for _, k := range keys {
			if owners[k] != "n1" && owners[k] != "n2" {
				return false
			}
		}
		return true
	})
	// With FNV-1a rendezvous over {n1,n2}×{1..8} the split is
	// deterministic; both sides own shards, so the reassignment below
	// is observable. Guard the assumption rather than silently passing.
	if n2Owned := countOwned(coord.Assignments(), "n2"); n2Owned == 0 {
		t.Fatalf("test assumption broken: n2 owns nothing before the partition")
	}
	epochBefore := coord.Epoch()

	// Partition: n2 stops heartbeating but its connection stays open.
	// First it is suspected — and keeps its shards, because suspicion
	// is not death.
	waitFor(t, "n2 suspect", func() bool { return stateIs(coord, "n2", Suspect) })
	if got := countOwned(coord.Assignments(), "n2"); got == 0 {
		t.Fatalf("suspect node lost its shards before being declared dead")
	}
	if failovers.Value() != 0 {
		t.Fatalf("failover counted for a merely-suspect node")
	}

	// Silence past DeadAfter: declared dead, shards move to n1.
	waitFor(t, "n2 dead", func() bool { return stateIs(coord, "n2", Dead) })
	waitFor(t, "all intersections on n1", func() bool {
		return countOwned(coord.Assignments(), "n1") == len(keys)
	})
	if got := failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d; want 1", got)
	}
	if coord.Epoch() <= epochBefore {
		t.Fatalf("epoch did not advance on failover: %d → %d", epochBefore, coord.Epoch())
	}

	// The partition heals and n2's heartbeat arrives late: the
	// coordinator must reject it with a redirect (its shards belong to
	// n1 now) and drop the stale connection.
	if err := n2.heartbeat(); err != nil {
		t.Fatalf("late heartbeat write: %v", err)
	}
	var redirect *rsu.Message
	deadline := time.After(5 * time.Second)
	for redirect == nil {
		select {
		case msg, ok := <-n2.msgs:
			if !ok {
				t.Fatalf("connection closed before a redirect arrived")
			}
			if msg.Type == rsu.TypeRedirect {
				redirect = &msg
			}
		case <-deadline:
			t.Fatalf("no redirect reply to the late heartbeat")
		}
	}
	if redirect.Addr != coord.Addr() {
		t.Fatalf("redirect points at %q; want coordinator %q", redirect.Addr, coord.Addr())
	}
	if late.Value() < 1 {
		t.Fatalf("late heartbeat not counted")
	}
	waitFor(t, "stale connection dropped", func() bool {
		select {
		case _, ok := <-n2.msgs:
			return !ok
		default:
			return false
		}
	})
}

// TestCoordinatorSuspectRecovery: a slow node that resumes
// heartbeating before DeadAfter returns to live with no failover and
// no shard movement.
func TestCoordinatorSuspectRecovery(t *testing.T) {
	keys := []int{1, 2, 3, 4}
	reg := telemetry.NewRegistry()
	tt := testTimings()
	coord, err := NewCoordinator("127.0.0.1:0",
		WithIntersections(keys...),
		WithHeartbeat(tt.HeartbeatEvery, tt.SuspectAfter, tt.DeadAfter),
		WithMetrics(reg))
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	n1 := dialFake(t, coord.Addr(), "n1")
	if err := n1.heartbeat(); err != nil {
		t.Fatalf("register: %v", err)
	}
	waitFor(t, "n1 live", func() bool { return stateIs(coord, "n1", Live) })
	epochBefore := coord.Epoch()

	waitFor(t, "n1 suspect", func() bool { return stateIs(coord, "n1", Suspect) })
	if err := n1.heartbeat(); err != nil {
		t.Fatalf("recovery heartbeat: %v", err)
	}
	waitFor(t, "n1 recovered", func() bool { return stateIs(coord, "n1", Live) })
	if got := reg.Counter("fleet_failovers_total", "").Value(); got != 0 {
		t.Fatalf("failovers = %d after mere suspicion; want 0", got)
	}
	if coord.Epoch() != epochBefore {
		t.Fatalf("epoch moved (%d → %d) without a membership change", epochBefore, coord.Epoch())
	}
	n1.stopPump()
}

// stateIs checks a node's state with an explicit presence test —
// NodeState's zero value is Live, so a bare map read would report an
// unregistered node as alive.
func stateIs(coord *Coordinator, id string, want NodeState) bool {
	got, ok := coord.States()[id]
	return ok && got == want
}

func countOwned(owners map[int]string, id string) int {
	n := 0
	for _, owner := range owners {
		if owner == id {
			n++
		}
	}
	return n
}
