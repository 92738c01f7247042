package main

import (
	"fmt"
	"sort"
	"time"

	"safecross/internal/fleet"
	"safecross/internal/rsu"
	"safecross/internal/serve"
	"safecross/internal/telemetry"
)

// node is one fleet member as cmd/safecross-fleet builds it: a serving
// plane, an RSU listener and a fleet agent, plus the watch-all vehicle
// connection the harness reads advisories from.
type node struct {
	idx    int
	id     string
	reg    *telemetry.Registry // the node's own registry; nil unless traced
	plane  *serve.Server
	srv    *rsu.Server
	agent  *fleet.Agent
	client *rsu.Client
}

// kill is a crash: agent, listener and serving plane torn down back to
// back with no drain, exactly as cmd/safecross-fleet's fault injection
// does it.
func (n *node) kill() {
	if n.agent != nil {
		_ = n.agent.Close()
	}
	if n.srv != nil {
		_ = n.srv.Close()
	}
	if n.plane != nil {
		n.plane.Close()
	}
}

// topology is the whole production deployment in one process: one
// coordinator with a write-ahead log, nodeCount nodes, one vehicle
// connection per node.
type topology struct {
	coord    *fleet.Coordinator
	coordReg *telemetry.Registry // nil unless traced
	nodes    []*node
	keys     []int
	dataDir  string
	coordOps []fleet.CoordinatorOption // to reopen the WAL for the replay timing
}

// bringUp starts the topology and waits until every intersection is
// owned and every agent has applied the coordinator's current epoch.
// On untraced runs the program's registries stay off.
func (p *pass) bringUp(dataDir string) (*topology, error) {
	t := &topology{dataDir: dataDir}
	if p.cfg.traced {
		t.coordReg = telemetry.NewRegistry()
	}
	for i := range p.feeds {
		t.keys = append(t.keys, i+1)
	}
	clockOpt := fleet.WithHeartbeat(heartbeat, suspectAfter, deadAfter)
	t.coordOps = []fleet.CoordinatorOption{
		fleet.WithIntersections(t.keys...),
		fleet.WithDataDir(dataDir),
		clockOpt,
	}
	if t.coordReg != nil {
		t.coordOps = append(t.coordOps, fleet.WithMetrics(t.coordReg))
	}
	var err error
	if t.coord, err = fleet.NewCoordinator("127.0.0.1:0", t.coordOps...); err != nil {
		return t, err
	}
	for i := 0; i < nodeCount; i++ {
		nd := &node{idx: i, id: fmt.Sprintf("node-%d", i)}
		if p.cfg.traced {
			nd.reg = telemetry.NewRegistry()
		}
		t.nodes = append(t.nodes, nd)
		nd.plane, err = serve.New(serve.Config{
			Workers:      1,
			MaxBatch:     8,
			QueueDepth:   256,
			WorkerMemory: 76 << 20, // one 75 MiB model per worker: a second scene evicts the first
			// The default 250 ms deadline sheds every clip queued across one of
			// this guest's few-hundred-ms pauses (5 sheds in one run of 60);
			// like the failure-detection clock, it is set past them.
			SLO:     time.Second,
			Metrics: nd.reg,
		}, serve.Replicas(p.env.tm.Builder, p.env.tm.Models))
		if err != nil {
			return t, err
		}
		var srvOpts []rsu.ServerOption
		agentOpts := []fleet.AgentOption{
			fleet.WithCoordinators(t.coord.Addr()),
			clockOpt,
			fleet.WithRunner(p.runner(nd)),
		}
		if nd.reg != nil {
			srvOpts = append(srvOpts, rsu.WithMetrics(nd.reg))
			agentOpts = append(agentOpts, fleet.WithMetrics(nd.reg))
		}
		if nd.srv, err = rsu.Listen("127.0.0.1:0", srvOpts...); err != nil {
			return t, err
		}
		if nd.agent, err = fleet.NewAgent(nd.id, nd.srv, agentOpts...); err != nil {
			return t, err
		}
	}
	if err := t.waitAssigned(10 * time.Second); err != nil {
		return t, err
	}
	for _, nd := range t.nodes {
		if nd.client, err = rsu.Dial(nd.srv.Addr(), fmt.Sprintf("veh-%d", nd.idx)); err != nil {
			return t, err
		}
	}
	return t, nil
}

// waitAssigned blocks until both nodes are live, every key has an
// owner, and each agent runs exactly the shards the coordinator's
// current epoch gives it — the join-time rebalance is over.
func (t *topology) waitAssigned(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if t.assigned() {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("fleet not fully assigned within %v", timeout)
}

func (t *topology) assigned() bool {
	states := t.coord.States()
	if len(states) != len(t.nodes) {
		return false
	}
	for _, s := range states {
		if s != fleet.Live {
			return false
		}
	}
	owners := t.coord.Assignments()
	epoch := t.coord.Epoch()
	for _, nd := range t.nodes {
		if nd.agent.Epoch() != epoch {
			return false
		}
		var want []int
		for _, k := range t.keys {
			if owners[k] == "" {
				return false
			}
			if owners[k] == nd.id {
				want = append(want, k)
			}
		}
		got := nd.agent.Owned()
		sort.Ints(got)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
	}
	return true
}

// owned lists the intersections the coordinator currently gives id.
func (t *topology) owned(id string) []int {
	var out []int
	for k, owner := range t.coord.Assignments() {
		if owner == id {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// close tears down whatever is still up. Closers are idempotent, so a
// node the epilogue already crashed is fine.
func (t *topology) close() {
	for _, nd := range t.nodes {
		nd.kill()
	}
	for _, nd := range t.nodes {
		if nd.client != nil {
			_ = nd.client.Close()
		}
	}
	if t.coord != nil {
		_ = t.coord.Close()
	}
}

// walReplay times fleet.NewCoordinator on the run's populated data
// directory at the same control address (the log is keyed by it).
func (t *topology) walReplay() (time.Duration, error) {
	addr := t.coord.Addr()
	_ = t.coord.Close()
	start := time.Now()
	reborn, err := fleet.NewCoordinator(addr, t.coordOps...)
	if err != nil {
		return 0, fmt.Errorf("reopen coordinator on %s: %w", t.dataDir, err)
	}
	took := time.Since(start)
	_ = reborn.Close()
	return took, nil
}
