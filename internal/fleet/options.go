package fleet

import (
	"time"

	"safecross/internal/telemetry"
)

// CoordinatorOption configures NewCoordinator.
type CoordinatorOption interface {
	applyCoordinator(*Config)
}

// AgentOption configures NewAgent.
type AgentOption interface {
	applyAgent(*AgentConfig)
}

// Option is an option accepted by both constructors — the wiring the
// two halves share (metrics, logging, the failure-detection clock).
type Option interface {
	CoordinatorOption
	AgentOption
}

// sharedOption implements Option with one mutation per config kind.
type sharedOption struct {
	coord func(*Config)
	agent func(*AgentConfig)
}

func (o sharedOption) applyCoordinator(c *Config) { o.coord(c) }
func (o sharedOption) applyAgent(a *AgentConfig)  { o.agent(a) }

// coordOption is a coordinator-only option.
type coordOption func(*Config)

func (f coordOption) applyCoordinator(c *Config) { f(c) }

// agentOption is an agent-only option.
type agentOption func(*AgentConfig)

func (f agentOption) applyAgent(a *AgentConfig) { f(a) }

// WithMetrics wires the fleet series into reg. Without it each
// component keeps a private registry, so metric code never branches
// on wiring.
func WithMetrics(reg *telemetry.Registry) Option {
	return sharedOption{
		coord: func(c *Config) { c.Metrics = reg },
		agent: func(a *AgentConfig) { a.Metrics = reg },
	}
}

// WithLogger records membership and session events to log (nil
// discards, which is also the default).
func WithLogger(log *telemetry.Logger) Option {
	return sharedOption{
		coord: func(c *Config) { c.Logger = log },
		agent: func(a *AgentConfig) { a.Logger = log },
	}
}

// WithHeartbeat sets the failure-detection clock: the agent ping
// interval and the silences after which a node is suspected and then
// declared dead. Pass zero for suspectAfter/deadAfter to keep the 3×
// and 6× defaults. Coordinators and agents of one fleet must share
// the same clock.
func WithHeartbeat(every, suspectAfter, deadAfter time.Duration) Option {
	t := Timings{HeartbeatEvery: every, SuspectAfter: suspectAfter, DeadAfter: deadAfter}
	return sharedOption{
		coord: func(c *Config) { c.Timings = t },
		agent: func(a *AgentConfig) { a.Timings = t },
	}
}

// WithIntersections declares the shard keys the fleet must keep
// served. Required for a primary coordinator; a standby instead
// learns the key set from the primary's replication stream.
func WithIntersections(keys ...int) CoordinatorOption {
	return coordOption(func(c *Config) { c.Intersections = append([]int(nil), keys...) })
}

// WithStandbys gives a primary coordinator its standby replicas: it
// dials each address and streams epoch-versioned membership and
// assignment state so any of them can take over on its death.
func WithStandbys(addrs ...string) CoordinatorOption {
	return coordOption(func(c *Config) { c.Standbys = append([]string(nil), addrs...) })
}

// AsStandby starts the coordinator as a passive replica: it applies
// the primary's replication stream, redirects node agents to the
// primary, and promotes itself (by seed-list rank) when the primary
// goes silent past the dead threshold.
func AsStandby() CoordinatorOption {
	return coordOption(func(c *Config) { c.Standby = true })
}

// WithDataDir makes the coordinator durable: every committed state
// change (membership, assignment, seeds, term/epoch) is appended to a
// write-ahead log under dir and replayed on start, so a full
// control-plane restart resumes with the last committed (term, epoch)
// instead of epoch 0. Standbys persist the same log as the primary's
// commit watermark advances, so any surviving directory can seed the
// restarted fleet.
func WithDataDir(dir string) CoordinatorOption {
	return coordOption(func(c *Config) { c.DataDir = dir })
}

// WithWALSyncEvery overrides the write-ahead log's fsync batching
// interval (default 5ms). Shorter narrows the window of acknowledged-
// but-not-durable state on crash; longer batches more appends per
// fsync.
func WithWALSyncEvery(d time.Duration) CoordinatorOption {
	return coordOption(func(c *Config) { c.WALSyncEvery = d })
}

// WithCoordinators gives the agent the coordinator seed list. The
// agent sweeps the seeds until one accepts it as primary, and follows
// promote redirects to whichever seed currently holds the role.
func WithCoordinators(seeds ...string) AgentOption {
	return agentOption(func(a *AgentConfig) { a.Coordinators = append([]string(nil), seeds...) })
}

// WithAdvertise sets the rsu address vehicles should dial for this
// node (default: the wrapped server's listen address). It travels in
// heartbeats and assignment tables.
func WithAdvertise(addr string) AgentOption {
	return agentOption(func(a *AgentConfig) { a.Advertise = addr })
}

// WithDebugAddr advertises the node's telemetry debug-listener
// address in heartbeats, opting the node into coordinator-side
// federation (metric scraping and fleet trace stitching).
func WithDebugAddr(addr string) AgentOption {
	return agentOption(func(a *AgentConfig) { a.DebugAddr = addr })
}

// WithRunner installs the per-intersection serving loop the agent
// starts for each owned shard. Without it the agent only maintains
// routing state.
func WithRunner(r Runner) AgentOption {
	return agentOption(func(a *AgentConfig) { a.Runner = r })
}
