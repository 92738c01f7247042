package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"safecross/internal/dataset"
	"safecross/internal/fleet"
	"safecross/internal/rsu"
	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
)

// passConfig shapes one pass through the run: warm-up, measured window,
// optional failover epilogue. An untraced run is one pass; a traced run
// is a short untraced baseline pass and a traced pass on the same env.
type passConfig struct {
	wl       workload
	warmup   time.Duration
	window   time.Duration
	epilogue bool
	preCrash time.Duration
	traced   bool   // spans on, program registries on
	dataDir  string // coordinator write-ahead log directory (inside the checkout)
}

// mark is what the harness reads off the process at a window edge.
type mark struct {
	at     int64 // pass clock
	mem    runtime.MemStats
	cpu    time.Duration // user+system
	snaps  snapshots     // one per node registry (traced)
	planes []serve.Stats // one per node
}

// pass is one bring-up → warm-up → window → epilogue → teardown cycle.
type pass struct {
	env *env
	cfg passConfig
	clk *clock

	feeds []*feed
	pacer *pacer
	top   *topology

	mu       sync.Mutex
	switches []time.Duration // Verdict.Timing.Switch of every request that paid a load
	failure  error           // first unexpected runner error

	// filled as the pass proceeds
	topologyS, warmupS float64
	w0, w1             mark
	liveHeap           uint64
	owners             map[int]string // stable assignment at feed start
	victim             int            // node index crashed by the epilogue (-1: none)
	crashAt            int64
	moved              []int
	walReplay          time.Duration
	final              snapshots // node registries then the coordinator's, after teardown (traced)
}

// snapshots reads the same series across several registries: each node
// (and the coordinator) keeps its own, as separate processes would.
type snapshots []*telemetry.Snapshot

func (s snapshots) sum(name string) (v int64) {
	for _, snap := range s {
		v += snap.Sum(name)
	}
	return v
}

func (s snapshots) count(name string) (v int64) {
	for _, snap := range s {
		v += snap.Count(name)
	}
	return v
}

func (s snapshots) value(name string) (v int64) {
	for _, snap := range s {
		v += snap.Value(name)
	}
	return v
}

func newPass(e *env, cfg passConfig) *pass {
	p := &pass{env: e, cfg: cfg, clk: &clock{t0: time.Now()}, victim: -1}
	// Ledger capacity is fixed up front so ledger growth never lands in
	// a window's allocation counts: open loops owe 30 frames/s, closed
	// loops are given room for ten times that.
	total := cfg.warmup + cfg.window + cfg.preCrash + recoveryCap + 2*time.Second
	capacity := int(total/framePeriod) + 64
	if cfg.wl.closed {
		capacity *= 10
	}
	for i := 0; i < cfg.wl.feeds; i++ {
		p.feeds = append(p.feeds, newFeed(newSource(e.pool, cfg.wl, i), cfg.wl.closed, p.clk, capacity))
	}
	return p
}

func (p *pass) fail(err error) {
	p.mu.Lock()
	if p.failure == nil {
		p.failure = err
	}
	p.mu.Unlock()
}

// runner is the harness's fleet.Runner: the same loop as
// cmd/safecross-fleet's serveIntersection with the simulator replaced
// by the feed, and a stamp at every layer boundary.
func (p *pass) runner(nd *node) fleet.Runner {
	return func(ctx context.Context, intersection int) {
		if intersection < 1 || intersection > len(p.feeds) {
			p.fail(fmt.Errorf("%s asked to serve unknown intersection %d", nd.id, intersection))
			return
		}
		f := p.feeds[intersection-1]
		var rec frameRec
		// Backpressure is fail-safe, as in the fleet binary: a shed clip
		// reports danger, never a silent pass.
		classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
			req := serve.Request{Scene: scene, Clip: clip}
			if critical {
				req.Priority = serve.Critical
			}
			if p.cfg.traced {
				rec.submitStart = p.clk.now()
			}
			v, err := nd.plane.Submit(ctx, req)
			if p.cfg.traced {
				rec.submitEnd = p.clk.now()
			}
			switch {
			case err == nil:
				rec.label = int8(v.Label)
				if v.Timing.Switch > 0 {
					p.mu.Lock()
					p.switches = append(p.switches, v.Timing.Switch)
					p.mu.Unlock()
				}
				if p.cfg.traced {
					rec.queue, rec.batchWait = int64(v.Timing.Queue), int64(v.Timing.BatchWait)
					rec.compute, rec.batch = int64(v.Timing.Compute), int32(v.Timing.Batch)
				}
				return v.Label, nil
			case errors.Is(err, serve.ErrQueueFull),
				errors.Is(err, serve.ErrDeadlineExceeded),
				errors.Is(err, context.DeadlineExceeded):
				rec.shed, rec.label = true, dataset.ClassDanger
				return dataset.ClassDanger, nil
			default:
				return 0, err
			}
		}
		fw, err := safecross.NewServed(safecross.Config{
			ClipLen: p.env.clipLen, SafeStreak: safeStreak, Metrics: nd.reg,
		}, classify, p.env.det)
		if err != nil {
			p.fail(fmt.Errorf("%s: framework for intersection %d: %w", nd.id, intersection, err))
			return
		}
		f.attached(nd.idx)
		for fresh := true; ; fresh = false {
			n, due, ok := f.next(ctx, fresh)
			if !ok {
				return
			}
			frame, risk := f.src.at(n)
			rec = frameRec{due: due, node: int8(nd.idx), label: -1, sent: true, risk: risk}
			rec.call = p.clk.now()
			d, err := fw.ProcessFrameContext(ctx, frame)
			if err != nil {
				if ctx.Err() == nil {
					p.fail(fmt.Errorf("%s: intersection %d frame %d: %w", nd.id, intersection, n, err))
				}
				return
			}
			if p.cfg.traced {
				rec.procEnd = p.clk.now()
			}
			f.commit(n, &rec)
			nd.srv.Broadcast(rsu.IntersectionAdvisory(intersection, n, d))
			if p.cfg.traced {
				f.broadcastDone(n, p.clk.now())
			}
		}
	}
}

// receive drains one vehicle connection into the ledger until the
// connection drops.
func (p *pass) receive(cli *rsu.Client) {
	for msg := range cli.Messages() {
		if msg.Type != rsu.TypeAdvisory {
			continue
		}
		at := p.clk.now()
		if msg.Intersection >= 1 && msg.Intersection <= len(p.feeds) {
			p.feeds[msg.Intersection-1].received(msg, at)
		}
	}
}

func (p *pass) mark() mark {
	m := mark{at: p.clk.now()}
	runtime.ReadMemStats(&m.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		m.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	for _, nd := range p.top.nodes {
		if nd.reg != nil {
			m.snaps = append(m.snaps, nd.reg.Snapshot())
		}
		m.planes = append(m.planes, nd.plane.Stats())
	}
	return m
}

// run executes the pass. The returned error is an unexpected failure of
// the harness or the program; gate violations are judged later, from
// the ledger.
func (p *pass) run() (err error) {
	if err := os.MkdirAll(p.cfg.dataDir, 0o755); err != nil {
		return err
	}
	if p.pacer, err = startPacer(p.clk); err != nil {
		return err
	}
	start := time.Now()
	p.top, err = p.bringUp(p.cfg.dataDir)
	var receivers sync.WaitGroup
	defer func() {
		p.pacer.close()
		p.top.close()
		receivers.Wait()
		if err == nil && p.cfg.traced {
			for _, nd := range p.top.nodes {
				p.final = append(p.final, nd.reg.Snapshot())
			}
			p.final = append(p.final, p.top.coordReg.Snapshot())
			p.walReplay, err = p.top.walReplay()
		}
		if rmErr := os.RemoveAll(p.cfg.dataDir); err == nil {
			err = rmErr
		}
	}()
	if err != nil {
		return err
	}
	p.topologyS = time.Since(start).Seconds()
	p.owners = p.top.coord.Assignments()
	for _, nd := range p.top.nodes {
		receivers.Add(1)
		go func(cli *rsu.Client) {
			defer receivers.Done()
			p.receive(cli)
		}(nd.client)
	}

	first := p.clk.now() + int64(framePeriod)
	for i, f := range p.feeds {
		f.start(p.pacer, first+p.phase(i))
	}
	warmStart := time.Now()
	time.Sleep(p.cfg.warmup)
	p.warmupS = time.Since(warmStart).Seconds()

	p.w0 = p.mark()
	time.Sleep(p.cfg.window - time.Duration(p.clk.now()-p.w0.at))
	p.w1 = p.mark()
	p.liveHeap = p.quiesce()

	if p.cfg.epilogue {
		if err := p.failover(); err != nil {
			return err
		}
	}
	return nil
}

// phase spreads the feeds' schedules evenly over the frame period.
func (p *pass) phase(i int) int64 {
	return int64(i) * int64(framePeriod) / int64(len(p.feeds))
}

// programError is the first unexpected error a runner hit, if any.
func (p *pass) programError() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failure
}

// quiesce holds every feed for a moment at the window's end and reads
// the live heap after a forced collection (noise rule 5: not peak RSS).
// Collecting under load would count whatever the program allocated
// while the collector ran — at 180 MB/s that is tens of MiB and differs
// run to run — so the schedules are pushed out far enough for the frames
// in flight to finish and the collection to run on a quiet process.
// Closed-loop feeds drop to the camera rate here, for the epilogue.
func (p *pass) quiesce() uint64 {
	const hold, drain = 150 * time.Millisecond, 30 * time.Millisecond
	p.pacer.hold(int64(hold))
	first := p.clk.now() + int64(hold)
	for i, f := range p.feeds {
		f.pace(p.pacer, first+p.phase(i))
	}
	time.Sleep(drain)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// failover is the epilogue: every feed at the camera rate, crash the
// node owning intersection 1, wait until each moved intersection has
// delivered a Ready advisory through the survivor's vehicle.
func (p *pass) failover() error {
	time.Sleep(p.cfg.preCrash)
	victimID := p.top.coord.Assignments()[1]
	for _, nd := range p.top.nodes {
		if nd.id == victimID {
			p.victim = nd.idx
		}
	}
	if p.victim < 0 {
		return fmt.Errorf("intersection 1 owned by unknown node %q", victimID)
	}
	p.moved = p.top.owned(victimID)
	p.crashAt = p.clk.now()
	p.top.nodes[p.victim].kill()
	deadline := time.Now().Add(recoveryCap)
	for time.Now().Before(deadline) && !p.recovered() {
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// survivor is the node index left after the epilogue's crash.
func (p *pass) survivor() int { return 1 - p.victim }

func (p *pass) recovered() bool {
	for _, k := range p.moved {
		f := p.feeds[k-1]
		f.mu.Lock()
		ready := f.firstReady[p.survivor()]
		f.mu.Unlock()
		if ready == 0 {
			return false
		}
	}
	return true
}

// switchP99 is the p99 (nearest rank) of every virtual switch cost a
// request paid during the pass, first loads included, over switchBudget.
func (p *pass) switchP99() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := make([]float64, len(p.switches))
	for i, d := range p.switches {
		s[i] = float64(d) / float64(switchBudget)
	}
	sort.Float64s(s)
	return quantile(s, 0.99)
}
