// Coordinator replication: the primary streams epoch-versioned
// membership and assignment state to its standby replicas, and the
// lowest-ranked live standby promotes itself when the primary goes
// silent — resuming the epoch sequence monotonically under a fresh,
// strictly larger term.
//
// The fencing invariant: every piece of coordinator state is stamped
// with a (term, epoch) pair ordered lexicographically. A birth
// primary opens term 1; every promotion opens a strictly larger term
// while KEEPING the replicated epoch, so epochs never regress across
// failovers. Receivers — standbys applying replicate streams, agents
// applying assigns — accept only strictly advancing (term, epoch)
// stamps, so a partitioned stale primary can bump its own epochs
// forever and still fence off the moment a promoted standby exists:
// no split-brain, no shard served under two masters.
package fleet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/telemetry"
)

// Role is a coordinator's current station in the replica set.
type Role int

const (
	// RoleStandby replicas apply the primary's stream and wait.
	RoleStandby Role = iota
	// RolePrimary owns the assignment and replicates it outward.
	RolePrimary
)

// String names the role.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "standby"
}

// stateFromString parses a replicated NodeState name (the inverse of
// NodeState.String).
func stateFromString(s string) NodeState {
	switch s {
	case "live":
		return Live
	case "suspect":
		return Suspect
	default:
		return Dead
	}
}

// rankLocked returns addr's position in the seed list (len(seeds) for
// strangers, so an unknown claimant loses every tie-break). Callers
// hold c.mu.
func (c *Coordinator) rankLocked(addr string) int {
	for i, s := range c.seeds {
		if s == addr {
			return i
		}
	}
	return len(c.seeds)
}

// standbyRankLocked returns this standby's position among the seeds
// that are not the current primary — the stagger index for promotion
// (-1 while this coordinator is not in the seed list). Callers hold
// c.mu.
func (c *Coordinator) standbyRankLocked() int {
	self := c.Addr()
	p := 0
	for _, s := range c.seeds {
		if s == c.primaryAddr {
			continue
		}
		if s == self {
			return p
		}
		p++
	}
	return -1
}

// startReplicatorsLocked launches one replication goroutine per peer
// in the seed list. Callers hold c.mu and have already set the role
// to primary; the stop channel fences this term's replicators so a
// step-down cannot leak a stale stream.
func (c *Coordinator) startReplicatorsLocked() {
	stop := make(chan struct{})
	c.replStop = stop
	self := c.Addr()
	for _, peer := range c.seeds {
		if peer == self {
			continue
		}
		c.wg.Add(1)
		go c.replicator(peer, stop)
	}
}

// replicator keeps one standby fed: dial, stream replicate messages
// every heartbeat interval, observe ack lag, redial on loss. It exits
// when this term ends (stop) or the coordinator closes.
func (c *Coordinator) replicator(peer string, stop chan struct{}) {
	defer c.wg.Done()
	lag := c.reg.Histogram(fmt.Sprintf("fleet_replication_lag_seconds{peer=%q}", peer),
		"replicate send to standby ack", telemetry.UnitSeconds)
	pushErr := c.reg.Counter(fmt.Sprintf("fleet_push_errors_total{peer=%q}", peer),
		"control-plane pushes that failed to write")
	backoff := c.cfg.Timings.HeartbeatEvery
	maxBackoff := c.cfg.Timings.SuspectAfter
	for {
		select {
		case <-stop:
			return
		case <-c.stop:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", peer, pushTimeout)
		if err != nil {
			c.log.Debugf("fleet: cannot reach standby %s: %v", peer, err)
			select {
			case <-stop:
				return
			case <-c.stop:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = c.cfg.Timings.HeartbeatEvery
		c.replicateStream(peer, conn, stop, lag, pushErr)
		_ = conn.Close()
	}
}

// replicateStream runs one replication connection to a standby:
// snapshot-and-send on every heartbeat tick, acks folded into the lag
// histogram. A promote coming back means a higher term exists — the
// reader steps this primary down and the stream dies with its term.
func (c *Coordinator) replicateStream(peer string, conn net.Conn, stop chan struct{}, lag *telemetry.Histogram, pushErr *telemetry.Counter) {
	enc := json.NewEncoder(conn)
	var mu sync.Mutex
	var pending time.Time
	done := make(chan struct{})
	go func() {
		defer close(done)
		dec := json.NewDecoder(bufio.NewReader(conn))
		for {
			var msg rsu.Message
			if err := dec.Decode(&msg); err != nil {
				return
			}
			switch msg.Type {
			case rsu.TypeHeartbeat:
				mu.Lock()
				if !pending.IsZero() {
					lag.ObserveDuration(time.Since(pending))
					pending = time.Time{}
				}
				mu.Unlock()
			case rsu.TypePromote:
				c.maybeStepDown(msg.Term, msg.Epoch, msg.Addr)
				return
			}
		}
	}()
	tick := time.NewTicker(c.cfg.Timings.HeartbeatEvery)
	defer tick.Stop()
	for {
		msg, ok := c.replicateMsg()
		if !ok {
			return // stepped down or closed; this term's stream is over
		}
		mu.Lock()
		if pending.IsZero() {
			pending = time.Now()
		}
		mu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(pushTimeout))
		if err := enc.Encode(msg); err != nil {
			pushErr.Inc()
			c.log.Debugf("fleet: replicate to %s failed: %v", peer, err)
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
		select {
		case <-stop:
			return
		case <-c.stop:
			return
		case <-done:
			return
		case <-tick.C:
		}
	}
}

// replicateMsg snapshots the primary's replicated state into one wire
// message; ok is false once this coordinator no longer leads.
func (c *Coordinator) replicateMsg() (rsu.Message, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.role != RolePrimary || c.closed {
		return rsu.Message{}, false
	}
	members := make([]rsu.FleetMember, 0, len(c.members))
	for _, m := range c.members {
		members = append(members, rsu.FleetMember{Node: m.id, Addr: m.addr, DebugAddr: m.debugAddr, State: m.state.String()})
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Node < members[j].Node })
	owners := make(map[int]string, len(c.owners))
	for k, v := range c.owners {
		owners[k] = v
	}
	keys := append([]int(nil), c.cfg.Intersections...)
	seeds := append([]string(nil), c.seeds...)
	msg := rsu.ReplicateMessage(c.term, c.epoch, c.Addr(), seeds, keys, owners, members)
	// The commit watermark: how far durability has caught up with this
	// term. Standbys persist a replicated state only once the primary
	// has it on disk, so the fleet's logs never run ahead of the
	// primary's. A memory-only primary commits instantly.
	if c.wal != nil {
		if dt, de := c.wal.Durable(); dt == c.term {
			msg.Commit = de
		}
	} else {
		msg.Commit = c.epoch
	}
	return msg, true
}

// replicaSession handles an inbound replication stream (the receiving
// side): apply each replicate that advances (term, epoch), ack it
// with a heartbeat echo, and fence anything stale with a promote
// naming the primary we believe in.
func (c *Coordinator) replicaSession(conn net.Conn, dec *json.Decoder, enc *json.Encoder, first rsu.Message) {
	msg := first
	for {
		reply, drop := c.onReplicate(msg)
		if reply.Type != "" {
			_ = conn.SetWriteDeadline(time.Now().Add(pushTimeout))
			if err := enc.Encode(reply); err != nil {
				return
			}
			_ = conn.SetWriteDeadline(time.Time{})
		}
		if drop {
			return
		}
		if err := dec.Decode(&msg); err != nil {
			return
		}
		if msg.Type != rsu.TypeReplicate || msg.Validate() != nil {
			return
		}
	}
}

// onReplicate applies one replicate message. Stale stamps are fenced:
// the reply is a promote naming the leader we believe in, and drop
// kills the connection so the stale primary redials only after
// stepping down.
func (c *Coordinator) onReplicate(msg rsu.Message) (reply rsu.Message, drop bool) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return rsu.Message{}, true
	}
	if !c.acceptsReplLocked(msg.Term, msg.Epoch, msg.Primary) {
		c.log.Warnf("fleet: fencing stale replication from %q (term %d epoch %d; ours %d/%d)",
			msg.Primary, msg.Term, msg.Epoch, c.term, c.epoch)
		leader := c.primaryAddr
		if c.role == RolePrimary {
			leader = c.Addr()
		}
		if leader == "" {
			return rsu.Message{}, true
		}
		return rsu.PromoteMessage(leader, c.term, c.epoch), true
	}
	if c.role == RolePrimary {
		// A strictly newer primary exists; this one submits.
		c.stepDownLocked(msg.Primary)
	}
	c.term, c.epoch = msg.Term, msg.Epoch
	c.primaryAddr = msg.Primary
	c.seeds = append([]string(nil), msg.Seeds...)
	c.cfg.Intersections = append([]int(nil), msg.Owned...)
	c.lastRepl = now
	c.owners = make(map[int]string, len(msg.Owners))
	for k, v := range msg.Owners {
		c.owners[k] = v
	}
	seen := make(map[string]bool, len(msg.Members))
	for _, fm := range msg.Members {
		seen[fm.Node] = true
		m := c.members[fm.Node]
		if m == nil {
			m = &member{
				id:   fm.Node,
				live: c.reg.Gauge(fmt.Sprintf("fleet_node_live{node=%q}", fm.Node), "1 while the node is not declared dead"),
			}
			c.members[fm.Node] = m
		}
		m.addr = fm.Addr
		m.debugAddr = fm.DebugAddr
		m.state = stateFromString(fm.State)
		m.last = now
		if m.state == Dead {
			m.live.Set(0)
		} else {
			m.live.Set(1)
		}
	}
	for id := range c.members {
		if !seen[id] {
			delete(c.members, id)
		}
	}
	if msg.Commit >= msg.Epoch {
		// The primary has this state on disk — mirror it into our own
		// log so a full control-plane restart can resume from any
		// surviving coordinator's directory.
		c.persistLocked()
	}
	return rsu.HeartbeatMessage(c.Addr(), "", c.epoch), false
}

// acceptsReplLocked is the fencing predicate: a replicate is applied
// only if its (term, epoch) stamp has not fallen behind ours, and a
// same-term claim against a sitting primary is settled by seed-list
// rank (lower wins). Callers hold c.mu.
func (c *Coordinator) acceptsReplLocked(term, epoch int64, primary string) bool {
	if term < c.term || (term == c.term && epoch < c.epoch) {
		return false
	}
	if c.role == RolePrimary && term == c.term {
		return c.rankLocked(primary) < c.rankLocked(c.Addr())
	}
	return true
}

// maybeStepDown is the replicator reader's reaction to a promote: if
// the named leader's stamp beats ours, adopt it and submit.
func (c *Coordinator) maybeStepDown(term, epoch int64, primary string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	newer := term > c.term ||
		(term == c.term && c.role == RolePrimary && c.rankLocked(primary) < c.rankLocked(c.Addr()))
	if !newer {
		return
	}
	c.stepDownLocked(primary)
	c.term, c.epoch = term, epoch
	c.primaryAddr = primary
	c.lastRepl = time.Now()
}

// stepDownLocked demotes a primary to standby and retires its term's
// replicators. Callers hold c.mu.
func (c *Coordinator) stepDownLocked(newPrimary string) {
	if c.role != RolePrimary {
		return
	}
	c.role = RoleStandby
	if c.replStop != nil {
		close(c.replStop)
		c.replStop = nil
	}
	c.log.Warnf("fleet: coordinator %s stepping down; %q leads", c.Addr(), newPrimary)
}

// standbyTickLocked is the standby half of the failure detector. In a
// fleet of three or more coordinators, replicate-silence past DeadAfter
// makes this standby a CANDIDATE: it asks every other seed for a vote
// and promotes only on majority acknowledgment (quorum.go) — one
// partitioned standby's local clock cannot split the brain. Rank still
// staggers candidacy (by heartbeat intervals, not DeadAfter multiples)
// so the lowest live rank usually runs the first, uncontested election.
// Fleets of one or two coordinators cannot form a meaningful majority
// that excludes the candidate's own delusion, so they keep the
// rank-staggered timeout path: DeadAfter × (1 + rank), by which time an
// earlier rank's replicate stream would have reset our clock. Callers
// hold c.mu.
func (c *Coordinator) standbyTickLocked(now time.Time) {
	if c.primaryAddr == "" || c.term < 1 || len(c.seeds) == 0 {
		return // never fed: nothing to promote over
	}
	p := c.standbyRankLocked()
	if p < 0 {
		return
	}
	if len(c.seeds) < 3 {
		if now.Sub(c.lastRepl) < c.cfg.Timings.DeadAfter*time.Duration(1+p) {
			return
		}
		c.promoteLocked(now, c.term+1, promoteViaTimeout)
		return
	}
	c.maybeCampaignLocked(now, p)
}

const (
	promoteViaTimeout = "timeout"
	promoteViaQuorum  = "quorum"
)

// promoteLocked turns this standby into the primary under the given
// strictly larger term and the SAME epoch (the sequence resumes, never
// regresses): the replicated membership is adopted with a fresh grace
// stamp so re-heartbeating agents are not instantly declared dead, the
// promotion is forced onto disk before anything can replicate under
// the new term, the fleet-wide membership gauges are taken over, and
// replication streams started toward every other seed. Callers hold
// c.mu.
func (c *Coordinator) promoteLocked(now time.Time, term int64, via string) {
	c.role = RolePrimary
	c.term = term
	c.primaryAddr = c.Addr()
	c.lastRepl = now
	// Promotion grace: agents have been sweeping the seed list since
	// the old primary died, and the quorum election lengthens the
	// leaderless window beyond what their redial backoff assumed — give
	// them one extra DeadAfter to find us before the failure detector
	// may rule.
	grace := now.Add(c.cfg.Timings.DeadAfter)
	for _, m := range c.members {
		if m.state != Dead {
			m.last = grace
		}
	}
	c.metrics.promotions.Inc()
	if via == promoteViaQuorum {
		c.metrics.quorumPromotions.Inc()
	}
	c.persistLocked()
	if c.wal != nil {
		c.wal.Sync()
	}
	c.registerMembershipGauges()
	c.startReplicatorsLocked()
	c.log.Warnf("fleet: standby %s promoted to primary via %s (term %d, epoch %d, %d members)",
		c.Addr(), via, c.term, c.epoch, len(c.members))
}

// Stats is a point-in-time snapshot of coordinator activity — a
// façade over a telemetry.Snapshot of the coordinator's registry plus
// the role/term/epoch triple. On a registry shared across a replica
// set the counters are fleet-wide (every coordinator feeds the same
// series); the role fields are this instance's own.
type Stats struct {
	// Role is this coordinator's current station ("primary" or
	// "standby"); Term and Epoch are its fencing stamp.
	Role        string
	Term, Epoch int64
	// NodesLive counts members not declared dead; NodesSuspect the
	// suspected subset.
	NodesLive, NodesSuspect int
	// Heartbeats counts agent heartbeats received; LateHeartbeats the
	// ones rejected because the node was already declared dead.
	Heartbeats, LateHeartbeats int
	// Failovers counts nodes declared dead by timeout; Reassignments
	// the assignment epochs pushed; Joins and Drains the memberships
	// opened and gracefully closed.
	Failovers, Reassignments, Joins, Drains int
	// Promotions counts standby coordinators promoted to primary;
	// QuorumPromotions the subset won by majority acknowledgment
	// rather than a rank timeout.
	Promotions, QuorumPromotions int
	// QuorumVotes counts promotion votes this registry's coordinators
	// granted to candidate standbys.
	QuorumVotes int
	// WALReplays counts coordinator starts that resumed durable state
	// from a write-ahead log.
	WALReplays int
	// PushErrors totals failed control-plane writes across all peers
	// (nodes and standbys).
	PushErrors int
}

// Stats returns the coordinator façade over the telemetry registry.
func (c *Coordinator) Stats() Stats {
	snap := c.reg.Snapshot()
	c.mu.Lock()
	role, term, epoch := c.role, c.term, c.epoch
	var live, suspect int
	for _, m := range c.members {
		if m.state != Dead {
			live++
		}
		if m.state == Suspect {
			suspect++
		}
	}
	c.mu.Unlock()
	return Stats{
		Role:             role.String(),
		Term:             term,
		Epoch:            epoch,
		NodesLive:        live,
		NodesSuspect:     suspect,
		Heartbeats:       snap.Int("fleet_heartbeats_total"),
		LateHeartbeats:   snap.Int("fleet_late_heartbeats_total"),
		Failovers:        snap.Int("fleet_failovers_total"),
		Reassignments:    snap.Int("fleet_reassignments_total"),
		Joins:            snap.Int("fleet_joins_total"),
		Drains:           snap.Int("fleet_drains_total"),
		Promotions:       snap.Int("fleet_promotions_total"),
		QuorumPromotions: snap.Int("fleet_quorum_promotions_total"),
		QuorumVotes:      snap.Int("fleet_quorum_votes_total"),
		WALReplays:       snap.Int("fleet_wal_replays_total"),
		PushErrors:       int(snap.Total("fleet_push_errors_total")),
	}
}
