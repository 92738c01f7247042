// Quorum promotion: in fleets of three or more coordinators a standby
// does not trust its own silence clock. When the primary's replicate
// stream has been quiet past DeadAfter it becomes a candidate,
// proposes the successor term to every other seed, and promotes only
// after a MAJORITY of the configured coordinators (counting its own
// vote) confirm they too have lost the primary. A voter pledges at
// most one candidate per term (Raft-style votedTerm/votedFor), so two
// simultaneous candidates cannot both collect a majority for the same
// term; a partitioned standby that can reach nobody collects one vote
// and stays a standby. The rank-staggered timeout path survives only
// for 1- and 2-coordinator fleets, where "majority of others" is
// nobody or a single peer whose death would wedge promotion forever.
package fleet

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"net"
	"sync"
	"time"

	"safecross/internal/rsu"
)

// maybeCampaignLocked decides whether this standby should run an
// election this tick. Candidacy needs: replicate-silence past
// DeadAfter plus 1+rank heartbeat intervals (the lowest live rank
// campaigns first and uncontested, and the extra heartbeat covers the
// skew between standbys' last replicate receipts, so the voters'
// own silence clocks have also crossed DeadAfter by the time the
// ballot arrives), no election already in flight, and no recently
// granted vote (a voter that just pledged elsewhere defers its own
// ambition for a DeadAfter so the pledged candidate can finish).
// Callers hold c.mu.
func (c *Coordinator) maybeCampaignLocked(now time.Time, rank int) {
	if c.electing {
		return
	}
	deadline := c.cfg.Timings.DeadAfter + time.Duration(1+rank)*c.cfg.Timings.HeartbeatEvery
	if now.Sub(c.lastRepl) < deadline {
		return
	}
	if !c.lastGrant.IsZero() && now.Sub(c.lastGrant) < c.cfg.Timings.DeadAfter {
		return
	}
	if now.Before(c.campaignAfter) {
		return // backing off after a lost election
	}
	term := c.term + 1
	if term <= c.votedTerm {
		// We pledged this term to someone who never won; propose past it.
		term = c.votedTerm + 1
	}
	c.electing = true
	c.votedTerm, c.votedFor = term, c.Addr() // the candidate's own ballot
	c.metrics.quorumElections.Inc()
	seeds := append([]string(nil), c.seeds...)
	epoch := c.epoch
	c.wg.Add(1)
	go c.runElection(term, epoch, seeds)
}

// runElection canvasses every other seed for the proposed term and
// promotes on majority. The majority is over the CONFIGURED
// coordinator set — dead or partitioned seeds count against the
// candidate, never for it.
func (c *Coordinator) runElection(term, epoch int64, seeds []string) {
	defer c.wg.Done()
	self := c.Addr()
	needed := len(seeds)/2 + 1
	votes := 1 // own ballot
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range seeds {
		if peer == self {
			continue
		}
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			if c.requestVote(peer, term, epoch) {
				mu.Lock()
				votes++
				mu.Unlock()
			}
		}(peer)
	}
	wg.Wait()
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.electing = false
	if c.closed || c.role != RoleStandby || c.term >= term {
		return // the world moved on while we campaigned
	}
	if votes < needed {
		// Split votes livelock if both candidates retry in lockstep
		// (each pledged itself, each denied the other). Randomized
		// backoff — Raft's cure — desynchronises the rematch so one
		// candidate campaigns while the other is still waiting and wins
		// the undivided majority.
		c.campaignAfter = now.Add(time.Duration(rand.Int63n(int64(c.cfg.Timings.DeadAfter))))
		c.log.Warnf("fleet: standby %s lost the election for term %d (%d/%d votes)", self, term, votes, needed)
		return
	}
	if c.votedTerm != term || c.votedFor != self {
		// While our ballots were out we re-pledged this term (or a
		// later one) to a better-ranked simultaneous candidate. Our own
		// self-ballot is void, and counting it anyway could hand two
		// candidates a majority built on the same vote.
		c.log.Infof("fleet: standby %s abandoned term %d after re-pledging to %q", self, term, c.votedFor)
		return
	}
	if now.Sub(c.lastRepl) < c.cfg.Timings.DeadAfter {
		return // the primary spoke while the ballots were out
	}
	c.promoteLocked(now, term, promoteViaQuorum)
}

// requestVote asks one peer to confirm replicate-silence for the
// proposed term: dial, one ballot, one reply, bounded by the push
// timeout. Any failure — unreachable peer, malformed reply, denial —
// is a missing vote, never a granted one.
func (c *Coordinator) requestVote(peer string, term, epoch int64) bool {
	conn, err := net.DialTimeout("tcp", peer, pushTimeout)
	if err != nil {
		return false
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(pushTimeout))
	if err := json.NewEncoder(conn).Encode(rsu.VoteMessage(c.Addr(), term, epoch)); err != nil {
		return false
	}
	var reply rsu.Message
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&reply); err != nil {
		return false
	}
	return reply.Type == rsu.TypeAck && reply.Validate() == nil && reply.Granted && reply.Term == term
}

// onVoteRequest is the voter side of an election: grant only when this
// coordinator independently corroborates the candidate's story — it is
// a standby that has been fed at least once, it too has heard nothing
// from the primary for DeadAfter, the proposed term is news, and it
// has not already pledged that term to a different candidate. A grant
// also defers this coordinator's own candidacy (lastGrant).
func (c *Coordinator) onVoteRequest(msg rsu.Message) rsu.Message {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	granted := false
	switch {
	case c.closed:
	case c.role == RolePrimary:
		// A living primary is the strongest possible refutation of
		// "the primary is silent".
	case msg.Term <= c.term:
		// Proposal for a term we already live in (or before it).
	case msg.Term == c.votedTerm && c.votedFor == c.Addr() &&
		c.rankLocked(msg.Addr) < c.rankLocked(c.Addr()):
		// Simultaneous-candidacy collision: we pledged this term to
		// OURSELVES, and so did a better-ranked candidate. Timing
		// cannot break this tie (on a starved host both candidates
		// wake together every round), so rank does, deterministically:
		// re-pledge to the lower seed rank. Our own election finds the
		// pledge gone at promotion time and aborts, so the term still
		// gets at most one winner.
		granted = true
	case msg.Term <= c.votedTerm && c.votedFor != msg.Addr:
		// Pledged this term to someone else; one ballot per term.
	case c.term < 1 || c.primaryAddr == "":
		// Never fed: no standing to judge the primary's silence, and
		// electing a key-less standby would serve nothing.
	case now.Sub(c.lastRepl) < c.cfg.Timings.DeadAfter:
		// We still hear the primary; the candidate is partitioned, not
		// the leader.
	default:
		granted = true
	}
	if granted {
		c.votedTerm, c.votedFor = msg.Term, msg.Addr
		c.lastGrant = now
		c.metrics.quorumVotes.Inc()
		c.log.Infof("fleet: standby %s granted term %d to candidate %q", c.Addr(), msg.Term, msg.Addr)
	} else {
		c.log.Debugf("fleet: coordinator %s denied term %d to candidate %q", c.Addr(), msg.Term, msg.Addr)
	}
	return rsu.AckMessage(granted, msg.Term, c.epoch)
}
