package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// Config sizes a Coordinator. NewCoordinator fills it from its
// options.
type Config struct {
	// Intersections are the shard keys the fleet must keep served.
	// Required for a primary; a standby learns the key set from the
	// replication stream.
	Intersections []int
	// Timings is the failure-detection clock.
	Timings Timings
	// Standbys are the standby coordinator addresses a primary
	// replicates its state to.
	Standbys []string
	// Standby starts the coordinator as a passive replica that waits
	// for the primary's replication stream.
	Standby bool
	// DataDir, when set, makes the coordinator durable: every committed
	// state change is appended to a write-ahead log under this
	// directory (one file per control address) and replayed on start,
	// so a full control-plane restart resumes with the last committed
	// (term, epoch) instead of epoch 0.
	DataDir string
	// WALSyncEvery overrides the write-ahead log's fsync batching
	// interval (default 5ms).
	WALSyncEvery time.Duration
	// Metrics receives the fleet series (nil keeps a private
	// registry).
	Metrics *telemetry.Registry
	// Logger records membership events (nil discards).
	Logger *telemetry.Logger
}

// member is one node the coordinator has seen. Dead members are kept
// as tombstones while their connection lives, so a late heartbeat
// from a partitioned-but-alive node can be rejected with a redirect
// instead of silently re-admitting a node whose shards moved.
type member struct {
	id        string
	addr      string
	debugAddr string // node's telemetry debug listener (federation scrape target)
	state     NodeState
	last      time.Time

	// conn/enc are written under Coordinator.mu; sendMu serialises
	// actual writes (heartbeat acks from the connection handler race
	// assignment pushes from the monitor).
	conn   net.Conn
	enc    *json.Encoder
	sendMu sync.Mutex

	live *telemetry.Gauge
}

// push is one outbound control message, built under the lock and sent
// outside it.
type push struct {
	m   *member
	msg rsu.Message
}

type coordMetrics struct {
	heartbeats       *telemetry.Counter
	lateHeartbeats   *telemetry.Counter
	failovers        *telemetry.Counter
	reassignments    *telemetry.Counter
	joins            *telemetry.Counter
	drains           *telemetry.Counter
	promotions       *telemetry.Counter
	quorumVotes      *telemetry.Counter
	quorumElections  *telemetry.Counter
	quorumPromotions *telemetry.Counter
	reassignLat      *telemetry.Histogram
}

// Coordinator owns the intersection→node assignment for one fleet —
// or stands by to: a replica constructed with AsStandby applies the
// primary's replication stream and promotes itself when the primary
// goes silent (see replica.go).
type Coordinator struct {
	cfg     Config
	ln      net.Listener
	log     *telemetry.Logger
	reg     *telemetry.Registry
	metrics coordMetrics

	stop chan struct{}
	wg   sync.WaitGroup

	wal *wal // durable state log; nil without DataDir

	mu          sync.Mutex
	closed      bool
	role        Role
	term        int64
	epoch       int64
	seeds       []string  // coordinator seed list, primary first at birth
	primaryAddr string    // current primary ("" until a standby hears one)
	lastRepl    time.Time // last replicate applied (standby clock)
	replStop    chan struct{}
	members     map[string]*member
	owners      map[int]string // intersection → owning node id

	// Quorum election state (standby side, see quorum.go).
	electing      bool      // an election goroutine is in flight
	votedTerm     int64     // highest term this coordinator pledged a vote in
	votedFor      string    // candidate pledged in votedTerm
	lastGrant     time.Time // last vote granted — defers own candidacy
	campaignAfter time.Time // randomized backoff after a lost election
}

// NewCoordinator starts a coordinator listening for node agents (and
// standby replicas) on addr (e.g. "127.0.0.1:0").
func NewCoordinator(addr string, opts ...CoordinatorOption) (*Coordinator, error) {
	var cfg Config
	for _, o := range opts {
		o.applyCoordinator(&cfg)
	}
	return newCoordinator(addr, cfg)
}

func newCoordinator(addr string, cfg Config) (*Coordinator, error) {
	if cfg.Standby && len(cfg.Standbys) > 0 {
		return nil, fmt.Errorf("fleet: a standby coordinator cannot own standbys")
	}
	if !cfg.Standby && len(cfg.Intersections) == 0 {
		return nil, fmt.Errorf("fleet: coordinator needs at least one intersection")
	}
	seen := make(map[int]bool, len(cfg.Intersections))
	for _, i := range cfg.Intersections {
		if i <= 0 {
			return nil, fmt.Errorf("fleet: intersection ids must be positive, got %d", i)
		}
		if seen[i] {
			return nil, fmt.Errorf("fleet: duplicate intersection id %d", i)
		}
		seen[i] = true
	}
	cfg.Timings = cfg.Timings.withDefaults()
	if err := cfg.Timings.validate(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	reg := nopIfNil(cfg.Metrics)
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		log:     cfg.Logger,
		reg:     reg,
		stop:    make(chan struct{}),
		members: make(map[string]*member),
		owners:  make(map[int]string),
		metrics: coordMetrics{
			heartbeats:       reg.Counter("fleet_heartbeats_total", "heartbeats received from node agents"),
			lateHeartbeats:   reg.Counter("fleet_late_heartbeats_total", "heartbeats rejected because the node was already declared dead"),
			failovers:        reg.Counter("fleet_failovers_total", "nodes declared dead by heartbeat timeout"),
			reassignments:    reg.Counter("fleet_reassignments_total", "assignment epochs pushed (joins, drains, failovers)"),
			joins:            reg.Counter("fleet_joins_total", "nodes that registered with the coordinator"),
			drains:           reg.Counter("fleet_drains_total", "nodes that left gracefully via drain"),
			promotions:       reg.Counter("fleet_promotions_total", "standby coordinators promoted to primary"),
			quorumVotes:      reg.Counter("fleet_quorum_votes_total", "promotion votes granted to candidate standbys"),
			quorumElections:  reg.Counter("fleet_quorum_elections_total", "quorum elections started by candidate standbys"),
			quorumPromotions: reg.Counter("fleet_quorum_promotions_total", "standby promotions won by quorum acknowledgment"),
			reassignLat:      reg.Histogram("fleet_reassign_seconds", "death detection to all assignments pushed", telemetry.UnitSeconds),
		},
	}
	rec, err := c.openDataDir()
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	if cfg.Standby {
		c.role = RoleStandby
		if rec != nil {
			// Adopt the durable state verbatim and wait: if the whole
			// control plane restarted, the restarted primary's stream (or
			// a quorum election) takes it from here.
			c.adoptWALLocked(rec, rec.Term)
		}
	} else {
		// A birth primary opens term 1; every promotion opens a later
		// term, so (term, epoch) orders coordinators across failovers.
		c.role = RolePrimary
		c.term = 1
		c.primaryAddr = c.Addr()
		c.seeds = append([]string{c.Addr()}, cfg.Standbys...)
		if rec != nil {
			// Restart incarnation: resume the durable epoch under a
			// strictly larger term — promotion-like, so this instance's
			// pushes outrank anything agents saw before the crash even if
			// the very last epoch missed its fsync window.
			c.adoptWALLocked(rec, rec.Term+1)
			c.primaryAddr = c.Addr()
		}
		c.registerMembershipGauges()
		if c.wal != nil {
			// The (possibly bumped) birth stamp must be durable before
			// anything replicates under it.
			c.persistLocked()
			c.wal.Sync()
		}
	}
	reg.GaugeFunc(fmt.Sprintf("fleet_coordinator_role{coordinator=%q}", c.Addr()),
		"1 while this coordinator is the primary", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.role == RolePrimary {
				return 1
			}
			return 0
		})
	if c.role == RolePrimary {
		c.mu.Lock()
		c.startReplicatorsLocked()
		c.mu.Unlock()
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// openDataDir opens and replays this coordinator's write-ahead log
// when DataDir is configured, returning the last committed state (nil
// for a fresh log or no data dir). Runs before the coordinator's
// loops start.
func (c *Coordinator) openDataDir() (*walRecord, error) {
	if c.cfg.DataDir == "" {
		return nil, nil
	}
	if err := os.MkdirAll(c.cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: data dir: %w", err)
	}
	name := "coord-" + strings.NewReplacer(":", "_", "/", "_").Replace(c.Addr()) + ".wal"
	w, rec, err := openWAL(filepath.Join(c.cfg.DataDir, name), walOptions{
		SyncEvery: c.cfg.WALSyncEvery,
		Metrics:   c.cfg.Metrics,
		Logger:    c.cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	c.wal = w
	return rec, nil
}

// adoptWALLocked resumes the durable state under the given term:
// epoch, seeds, key set, assignment, and membership all come back, and
// members re-enter with a fresh liveness stamp (conn == nil) so
// redialing agents get a full DeadAfter grace to re-bind — the re-bind
// path resends the identical owned set under the new term, which the
// agent applies without starting or stopping a single runner. Runs
// during construction, before any loop can race it.
func (c *Coordinator) adoptWALLocked(rec *walRecord, term int64) {
	c.term = term
	c.epoch = rec.Epoch
	c.primaryAddr = rec.Primary
	if c.cfg.Standby && rec.Primary == c.Addr() {
		// This instance crashed as the primary but is reborn a standby:
		// redirecting agents to "the primary" would point them straight
		// back here in a loop. Claim ignorance until the real reborn
		// primary's replication stream names itself.
		c.primaryAddr = ""
	}
	if len(rec.Seeds) > 0 {
		c.seeds = append([]string(nil), rec.Seeds...)
	}
	if len(rec.Keys) > 0 {
		c.cfg.Intersections = append([]int(nil), rec.Keys...)
	}
	c.owners = make(map[int]string, len(rec.Owners))
	for k, v := range rec.Owners {
		c.owners[k] = v
	}
	now := time.Now()
	// Restart grace: a re-binding agent first has to notice its control
	// connection died, then sweep the seed list with capped backoff
	// until it finds the reborn primary — easily a couple of backoff
	// rounds on a loaded host. Restarted members get two extra
	// DeadAfters before the failure detector may rule on them; a
	// genuinely dead node just takes one restart-length beat longer to
	// be caught, which a control plane that itself just died can afford.
	grace := now.Add(2 * c.cfg.Timings.DeadAfter)
	for _, fm := range rec.Members {
		m := &member{
			id:        fm.Node,
			addr:      fm.Addr,
			debugAddr: fm.DebugAddr,
			state:     stateFromString(fm.State),
			last:      grace,
			live:      c.reg.Gauge(fmt.Sprintf("fleet_node_live{node=%q}", fm.Node), "1 while the node is not declared dead"),
		}
		if m.state == Dead {
			m.live.Set(0)
		} else {
			m.live.Set(1)
		}
		c.members[fm.Node] = m
	}
	c.lastRepl = now
	c.log.Infof("fleet: coordinator %s resumed from wal (term %d, epoch %d, %d members, %d keys)",
		c.Addr(), c.term, c.epoch, len(c.members), len(c.cfg.Intersections))
}

// walRecordLocked snapshots the committed state for the log — the
// same fleet view a replicate frame carries. Callers hold c.mu.
func (c *Coordinator) walRecordLocked() walRecord {
	members := make([]rsu.FleetMember, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, rsu.FleetMember{Node: m.id, Addr: m.addr, DebugAddr: m.debugAddr, State: m.state.String()})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Node < members[j].Node })
	owners := make(map[int]string, len(c.owners))
	for k, v := range c.owners {
		owners[k] = v
	}
	return walRecord{
		Term:    c.term,
		Epoch:   c.epoch,
		Primary: c.primaryAddr,
		Seeds:   append([]string(nil), c.seeds...),
		Keys:    append([]int(nil), c.cfg.Intersections...),
		Owners:  owners,
		Members: members,
	}
}

// persistLocked appends the current committed state to the write-ahead
// log (no-op without one). Durability is batched — the background
// flusher advances the commit watermark; transitions that cannot wait
// call wal.Sync explicitly. Callers hold c.mu.
func (c *Coordinator) persistLocked() {
	if c.wal == nil {
		return
	}
	c.wal.Append(c.walRecordLocked())
}

// registerMembershipGauges (re-)binds the fleet-wide membership
// gauges to this coordinator. GaugeFunc re-registration replaces the
// closure, so a promoting standby takes the series over from the dead
// primary on a shared registry.
func (c *Coordinator) registerMembershipGauges() {
	c.reg.GaugeFunc("fleet_nodes_live", "fleet nodes not declared dead", func() int64 {
		return c.countState(func(s NodeState) bool { return s != Dead })
	})
	c.reg.GaugeFunc("fleet_nodes_suspect", "fleet nodes suspected (silent past suspect-after)", func() int64 {
		return c.countState(func(s NodeState) bool { return s == Suspect })
	})
}

// Addr returns the coordinator's control-plane address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Epoch returns the current assignment epoch.
func (c *Coordinator) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Term returns the coordinator generation this instance believes in —
// bumped by every promotion, never reused.
func (c *Coordinator) Term() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.term
}

// Role returns whether this coordinator currently leads the fleet.
func (c *Coordinator) Role() Role {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.role
}

// Primary returns the control-plane address of the primary this
// coordinator believes in ("" while a standby has heard nothing).
func (c *Coordinator) Primary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primaryAddr
}

// Assignments returns a copy of the current intersection→node-id map.
func (c *Coordinator) Assignments() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.owners))
	for k, v := range c.owners {
		out[k] = v
	}
	return out
}

// DebugTargets returns the federation scrape set: every non-dead
// node that advertised a debug listener, as node-id → base URL. This
// is what a coordinator-side telemetry.Federator's Targets func reads
// — killing a node drops it from the scrape set at the same instant
// the failure detector rules on it.
func (c *Coordinator) DebugTargets() map[string]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]string, len(c.members))
	for id, m := range c.members {
		if m.state != Dead && m.debugAddr != "" {
			out[id] = "http://" + m.debugAddr
		}
	}
	return out
}

// States returns every known node's liveness state (including dead
// tombstones).
func (c *Coordinator) States() map[string]NodeState {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]NodeState, len(c.members))
	for id, m := range c.members {
		out[id] = m.state
	}
	return out
}

func (c *Coordinator) countState(pred func(NodeState) bool) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, m := range c.members {
		if pred(m.state) {
			n++
		}
	}
	return n
}

// acceptLoop accepts node-agent connections until the listener
// closes.
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.handleNode(conn)
	}
}

// handleNode speaks the control plane with one inbound connection.
// The first message decides who is talking: a heartbeat opens an
// agent session (register/re-bind, acks, assigns, redirects out), a
// replicate opens a replication session from a primary (replica.go).
// A standby answers agent heartbeats with a promote pointing at the
// primary it believes in, so agents sweeping the seed list converge.
func (c *Coordinator) handleNode(conn net.Conn) {
	defer c.wg.Done()
	defer func() { _ = conn.Close() }()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	var m *member
	defer func() {
		if m != nil {
			c.unbind(m, conn)
		}
	}()
	first := true
	for {
		var msg rsu.Message
		if err := dec.Decode(&msg); err != nil {
			return
		}
		if msg.Validate() != nil {
			c.log.Warnf("fleet: dropping control connection after invalid %q message", msg.Type)
			return
		}
		if first && msg.Type == rsu.TypeReplicate {
			c.replicaSession(conn, dec, enc, msg)
			return
		}
		if first && msg.Type == rsu.TypeVote {
			// A candidate standby asking whether we also find the
			// primary silent: one ballot, one reply, done.
			_ = conn.SetWriteDeadline(time.Now().Add(pushTimeout))
			_ = enc.Encode(c.onVoteRequest(msg))
			return
		}
		first = false
		if msg.Type != rsu.TypeHeartbeat {
			c.log.Warnf("fleet: dropping control connection after bad message %q", msg.Type)
			return
		}
		if redirect, standby := c.standbyRedirect(); standby {
			if redirect.Type != "" {
				_ = conn.SetWriteDeadline(time.Now().Add(pushTimeout))
				_ = enc.Encode(redirect)
			}
			return
		}
		pushes, last := c.onHeartbeat(&m, conn, enc, msg)
		for _, p := range pushes {
			c.send(p.m, p.msg)
		}
		if last {
			return
		}
	}
}

// standbyRedirect returns the promote message a standby answers agent
// heartbeats with (zero message when it has not heard a primary yet —
// the agent just moves to the next seed).
func (c *Coordinator) standbyRedirect() (rsu.Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.role == RolePrimary {
		return rsu.Message{}, false
	}
	if c.primaryAddr == "" || c.term < 1 {
		return rsu.Message{}, true
	}
	return rsu.PromoteMessage(c.primaryAddr, c.term, c.epoch), true
}

// onHeartbeat applies one heartbeat to the membership state and
// returns the messages to send; last demands the connection be
// dropped afterwards (a rejected dead node).
func (c *Coordinator) onHeartbeat(pm **member, conn net.Conn, enc *json.Encoder, msg rsu.Message) (pushes []push, last bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.heartbeats.Inc()
	if c.closed {
		return nil, true
	}
	ack := func(m *member) push {
		return push{m: m, msg: rsu.HeartbeatMessage(m.id, "", c.epoch)}
	}
	m := *pm
	if m == nil {
		// First heartbeat on this connection: rebind, rejoin, or join.
		if existing := c.members[msg.Node]; existing != nil && existing.state != Dead {
			// The node redialed (network blip, restart, or a coordinator
			// failover) — adopt the new connection and resend the current
			// assignment.
			if existing.conn != nil && existing.conn != conn {
				_ = existing.conn.Close()
			}
			existing.conn, existing.enc = conn, enc
			if msg.Addr != "" {
				existing.addr = msg.Addr
			}
			if msg.DebugAddr != "" {
				existing.debugAddr = msg.DebugAddr
			}
			existing.last = now
			if existing.state == Suspect {
				existing.state = Live
			}
			*pm = existing
			c.log.Infof("fleet: node %q re-bound its control connection", existing.id)
			return []push{ack(existing), {m: existing, msg: c.assignMsgLocked(existing.id)}}, false
		}
		// A brand-new node, or a dead tombstone rejoining under its old
		// id: either way it enters as a newcomer and the ring rebalances.
		m = &member{
			id:        msg.Node,
			addr:      msg.Addr,
			debugAddr: msg.DebugAddr,
			state:     Live,
			last:      now,
			conn:      conn,
			enc:       enc,
			live:      c.reg.Gauge(fmt.Sprintf("fleet_node_live{node=%q}", msg.Node), "1 while the node is not declared dead"),
		}
		c.members[msg.Node] = m
		m.live.Set(1)
		*pm = m
		c.metrics.joins.Inc()
		c.log.Infof("fleet: node %q joined from %s (rsu at %s)", m.id, conn.RemoteAddr(), m.addr)
		if msg.Draining {
			// Joining already-draining makes no sense; treat as a
			// plain join and let the next draining heartbeat leave.
			return append(c.reassignLocked("join"), ack(m)), false
		}
		return append(c.reassignLocked("join"), ack(m)), false
	}
	if c.members[m.id] != m || (m.state == Dead && !msg.Draining) {
		// This connection's node was declared dead (partition) or
		// superseded by a newer connection. Reject: its shards belong
		// to someone else now. The redirect points home so the agent
		// rejoins as a newcomer.
		c.metrics.lateHeartbeats.Inc()
		c.log.Warnf("fleet: rejecting late heartbeat from %q (declared %v)", m.id, m.state)
		return []push{{m: m, msg: rsu.RedirectMessage(0, c.Addr(), c.epoch)}}, true
	}
	if msg.Draining {
		if m.state != Dead {
			// Graceful leave: move the shards now, then hand the
			// drainer a final empty assignment so it can redirect its
			// subscribers and finish.
			m.state = Dead
			m.live.Set(0)
			c.metrics.drains.Inc()
			c.log.Infof("fleet: node %q draining; moving its shards", m.id)
			pushes = c.reassignLocked("drain")
			pushes = append(pushes, push{m: m, msg: c.assignMsgLocked(m.id)})
			return append(pushes, ack(m)), false
		}
		return []push{ack(m)}, false
	}
	m.last = now
	if m.state == Suspect {
		c.log.Infof("fleet: node %q recovered from suspicion", m.id)
		m.state = Live
	}
	return []push{ack(m)}, false
}

// assignMsgLocked builds the assignment push for one node from the
// current owners map, stamped with the coordinator term so agents can
// fence stale primaries. Callers hold c.mu.
func (c *Coordinator) assignMsgLocked(id string) rsu.Message {
	var owned []int
	table := make(map[int]string, len(c.owners))
	for k, owner := range c.owners {
		if owner == id {
			owned = append(owned, k)
		}
		if mm := c.members[owner]; mm != nil {
			table[k] = mm.addr
		}
	}
	sort.Ints(owned)
	msg := rsu.AssignMessage(c.epoch, owned, table)
	msg.Term = c.term
	return msg
}

// reassignLocked recomputes the rendezvous assignment over the
// non-dead nodes, bumps the epoch, and returns the pushes for every
// reachable node. Callers hold c.mu.
func (c *Coordinator) reassignLocked(reason string) []push {
	c.epoch++
	var live []string
	for id, m := range c.members {
		if m.state != Dead {
			live = append(live, id)
		}
	}
	sort.Strings(live)
	c.owners = Assignments(live, c.cfg.Intersections)
	c.persistLocked()
	c.metrics.reassignments.Inc()
	c.log.Infof("fleet: term %d epoch %d (%s): %d intersections over %d nodes", c.term, c.epoch, reason, len(c.cfg.Intersections), len(live))
	var pushes []push
	for _, id := range live {
		m := c.members[id]
		if m.conn == nil {
			continue // unreachable; it will get the state on re-bind
		}
		pushes = append(pushes, push{m: m, msg: c.assignMsgLocked(id)})
	}
	return pushes
}

// send writes one control message to a member with the push deadline.
// Failures are counted per peer and otherwise left to the heartbeat
// detector — a node that cannot be written to will stop acking soon
// enough.
func (c *Coordinator) send(m *member, msg rsu.Message) {
	c.mu.Lock()
	conn, enc := m.conn, m.enc
	c.mu.Unlock()
	if conn == nil {
		return
	}
	m.sendMu.Lock()
	defer m.sendMu.Unlock()
	_ = conn.SetWriteDeadline(time.Now().Add(pushTimeout))
	if err := enc.Encode(msg); err != nil {
		c.reg.Counter(fmt.Sprintf("fleet_push_errors_total{peer=%q}", m.id),
			"control-plane pushes that failed to write").Inc()
		c.log.Warnf("fleet: push %s to node %q failed: %v", msg.Type, m.id, err)
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
}

// monitor runs the failure detector. As primary it escalates silent
// nodes: suspect past SuspectAfter, dead past DeadAfter — death moves
// shards immediately and counts a failover. As standby it watches the
// primary's replication stream and promotes itself when the primary
// has been silent past its rank-staggered deadline (replica.go).
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	interval := c.cfg.Timings.HeartbeatEvery / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		start := time.Now()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		if c.role == RoleStandby {
			c.standbyTickLocked(start)
			c.mu.Unlock()
			continue
		}
		var newlyDead int
		for _, m := range c.members {
			if m.state == Dead {
				continue
			}
			age := start.Sub(m.last)
			switch {
			case age >= c.cfg.Timings.DeadAfter:
				m.state = Dead
				m.live.Set(0)
				newlyDead++
				c.log.Warnf("fleet: node %q declared dead after %v of silence", m.id, age)
			case age >= c.cfg.Timings.SuspectAfter && m.state == Live:
				m.state = Suspect
				c.log.Warnf("fleet: node %q suspect after %v of silence", m.id, age)
			}
		}
		var pushes []push
		if newlyDead > 0 {
			c.metrics.failovers.Add(int64(newlyDead))
			pushes = c.reassignLocked("failover")
		}
		c.mu.Unlock()
		for _, p := range pushes {
			c.send(p.m, p.msg)
		}
		if newlyDead > 0 {
			c.metrics.reassignLat.ObserveDuration(time.Since(start))
		}
	}
}

// unbind clears a member's connection when its handler exits; the
// node keeps its shards until the heartbeat detector rules on it.
func (c *Coordinator) unbind(m *member, conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m.conn == conn {
		m.conn, m.enc = nil, nil
	}
}

// Close stops the control plane: no more accepts, every node
// connection is dropped, replication stops, and the background
// goroutines exit. Agents keep serving their last assignment (the
// data plane outlives its coordinator).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	// A closed coordinator is nobody's primary: drop the role so the
	// fleet_coordinator_role gauge on a shared registry cannot show two
	// leaders after a standby takes over.
	c.role = RoleStandby
	if c.replStop != nil {
		close(c.replStop)
		c.replStop = nil
	}
	conns := make([]net.Conn, 0, len(c.members))
	for _, m := range c.members {
		if m.conn != nil {
			conns = append(conns, m.conn)
		}
	}
	c.mu.Unlock()
	close(c.stop)
	err := c.ln.Close()
	for _, conn := range conns {
		_ = conn.Close()
	}
	c.wg.Wait()
	if c.wal != nil {
		if werr := c.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}
