package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"safecross/internal/rsu"
	"safecross/internal/sim"
)

// clock is one pass's monotonic time base: every stamp in the ledger is
// nanoseconds since t0, so spans from different goroutines compare.
type clock struct{ t0 time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

// frameRec is the harness's ledger line for one (intersection, frame):
// the instants at each layer boundary, timed from outside the program.
// Zero stamps were not reached (or not recorded: spans are off in an
// untraced run).
type frameRec struct {
	due      int64 // the frame was owed to the program (open loop: schedule; closed loop: previous receipt)
	call     int64 // ProcessFrameContext entered
	procEnd  int64 // ...returned; Broadcast entered (traced)
	bcastEnd int64 // Broadcast returned (traced)
	recv     int64 // advisory read off Client.Messages()

	submitStart, submitEnd    int64 // the ClassifyFunc's serve.Submit round trip (traced)
	queue, batchWait, compute int64 // Verdict.Timing (traced)
	batch                     int32

	label                                   int8 // class handed to the framework (shed → danger); -1 while the ring fills
	node                                    int8 // index of the node whose runner processed the frame
	scene                                   sim.Weather
	sent, received, ready, safe, shed, risk bool
}

// tickBacklog is how many owed frames a paced feed can hold for a
// runner that is behind or absent (about 8 s at the camera rate); what
// does not fit is never sent and is counted lost.
const tickBacklog = 256

// feed is one intersection's camera: it hands each frame, when it is
// due, to whichever node's runner owns the intersection, and books
// receipts from the vehicles. A paced feed is driven by the pacer's
// schedule; a closed-loop feed by the receipt of its previous advisory.
type feed struct {
	src    source
	closed bool // closed loop until pace()
	clk    *clock
	period int64

	tick   chan int64 // paced: due times from the pacer
	credit chan int64 // closed loop: receipt time of the previous advisory = the next frame's due time; one frame in flight

	mu         sync.Mutex
	paced      bool
	nextN      int
	recs       []frameRec // index n-1
	attach     [nodeCount]int64
	firstReady [nodeCount]int64
	inFlight   int
	maxFlight  int // most frames in flight at once while the loop was closed
	strays     int // receipts for frames never sent, or sent twice
}

func newFeed(src source, closed bool, clk *clock, capacity int) *feed {
	return &feed{
		src: src, closed: closed, clk: clk, period: int64(framePeriod),
		tick:   make(chan int64, tickBacklog),
		credit: make(chan int64, 1),
		nextN:  1,
		recs:   make([]frameRec, 0, capacity),
	}
}

// start releases the feed: an open-loop feed goes on the pacer's
// schedule with frame 1 due at first, a closed-loop feed gets its first
// credit.
func (f *feed) start(pc *pacer, first int64) {
	if f.closed {
		f.credit <- first
		return
	}
	f.pace(pc, first)
}

// pace puts the feed on the camera-rate schedule: the frame after the
// last issued one is due at first. It is how open-loop feeds start and
// how closed-loop feeds enter the failover epilogue.
func (f *feed) pace(pc *pacer, first int64) {
	f.mu.Lock()
	already := f.paced
	f.paced = true
	f.mu.Unlock()
	if !already {
		pc.add(f, first)
	}
}

// attached records a runner starting on node idx.
func (f *feed) attached(idx int) {
	f.mu.Lock()
	f.attach[idx] = f.clk.now()
	f.mu.Unlock()
}

// next blocks until the feed's next frame is due and returns its number
// and due time. fresh marks a runner's first call: a new owner starts
// at the newest frame owed, it does not replay what fell into the
// failover gap. The feed's first owner does take a backlog in order —
// a stall at the start of the run can queue frames 1 and 2 before any
// runner asks, and the reference replay needs every frame from the first.
func (f *feed) next(ctx context.Context, fresh bool) (n int, due int64, ok bool) {
	for {
		select {
		case due = <-f.tick:
			f.mu.Lock()
			for fresh && f.nextN > 1 && len(f.tick) > 0 {
				due = <-f.tick
				f.nextN++ // owed, never to be sent
			}
			n = f.issueLocked()
			f.mu.Unlock()
			return n, due, true
		case due = <-f.credit:
			f.mu.Lock()
			if f.paced {
				// The credit predates pace(); the schedule owns the feed now.
				f.mu.Unlock()
				continue
			}
			n = f.issueLocked()
			f.mu.Unlock()
			return n, due, true
		case <-ctx.Done():
			return 0, 0, false
		}
	}
}

func (f *feed) issueLocked() int {
	n := f.nextN
	f.nextN++
	f.inFlight++
	if !f.paced && f.inFlight > f.maxFlight {
		f.maxFlight = f.inFlight
	}
	return n
}

// commit books a processed frame just before its advisory is broadcast,
// so the receipt always finds its record.
func (f *feed) commit(n int, rec *frameRec) {
	f.mu.Lock()
	for len(f.recs) < n {
		f.recs = append(f.recs, frameRec{})
	}
	f.recs[n-1] = *rec
	f.mu.Unlock()
}

func (f *feed) broadcastDone(n int, at int64) {
	f.mu.Lock()
	f.recs[n-1].bcastEnd = at
	f.mu.Unlock()
}

// received books an advisory read off a vehicle connection and, on a
// closed loop, releases the next frame (noise rule 3: the loop closes
// on receipt, so the client's drop-oldest queue never has two of one
// feed's advisories in it).
func (f *feed) received(msg rsu.Message, at int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := msg.Frame
	if n < 1 || n > len(f.recs) || !f.recs[n-1].sent || f.recs[n-1].received {
		f.strays++
		return
	}
	r := &f.recs[n-1]
	r.received, r.recv = true, at
	r.ready, r.safe, r.scene = msg.Ready, msg.Safe, parseScene(msg.Scene)
	f.inFlight--
	if r.ready && f.firstReady[r.node] == 0 {
		f.firstReady[r.node] = at
	}
	if !f.paced {
		select {
		case f.credit <- at:
		default:
		}
	}
}

// snapshot copies the ledger for analysis after the pass.
func (f *feed) snapshot() []frameRec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]frameRec(nil), f.recs...)
}

func parseScene(name string) sim.Weather {
	for _, w := range allScenes {
		if w.String() == name {
			return w
		}
	}
	return 0
}

// pacer is the open-loop generator's clock: one goroutine that waits on
// a kernel timer (timerfd, through the netpoller) until the next frame
// of any paced feed is due and then hands that feed its due time. Go's
// own timers cannot do this job: an idle Go process waits in epoll with
// millisecond resolution, so a runner sleeping on a time.Timer started
// 0-1 ms late (median 0.4 ms on a 2 ms frame). A timerfd expiry ends the
// epoll wait at once, and unlike a nanosleep on a locked thread it does
// not hold one of the two Ps while it waits.
type pacer struct {
	clk   *clock
	timer *os.File

	mu      sync.Mutex
	entries []paced
	dropped int // due frames a full tick queue could not take

	stop chan struct{}
	done chan struct{}
}

type paced struct {
	f    *feed
	next int64
}

func startPacer(clk *clock) (*pacer, error) {
	const clockMonotonic, nonblockCloexec = 1, syscall.O_NONBLOCK | syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, nonblockCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	pc := &pacer{
		clk:   clk,
		timer: os.NewFile(fd, "timerfd"), // non-blocking, so reads park in the netpoller
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go pc.run()
	return pc, nil
}

func (pc *pacer) add(f *feed, first int64) {
	pc.mu.Lock()
	pc.entries = append(pc.entries, paced{f: f, next: first})
	pc.mu.Unlock()
}

// hold pushes every schedule d into the future at once: no frame falls
// due for d, and none is skipped — frame numbers stay consecutive.
func (pc *pacer) hold(d int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for i := range pc.entries {
		pc.entries[i].next += d
	}
}

// close stops the pacer and waits for its goroutine to finish.
func (pc *pacer) close() {
	close(pc.stop)
	<-pc.done
	_ = pc.timer.Close() // nothing was written through it
}

// sleep parks the goroutine until the kernel timer fires d from now.
func (pc *pacer) sleep(d int64) error {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(d)} // {interval: none, value: d}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, pc.timer.Fd(), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err := pc.timer.Read(expirations[:])
	return err
}

func (pc *pacer) run() {
	defer close(pc.done)
	// The longest single sleep: new feeds and stop are noticed within it.
	const idle = int64(2 * time.Millisecond)
	for {
		select {
		case <-pc.stop:
			return
		default:
		}
		now := pc.clk.now()
		wait := idle
		pc.mu.Lock()
		for i := range pc.entries {
			e := &pc.entries[i]
			for e.next <= now {
				select {
				case e.f.tick <- e.next:
				default:
					pc.dropped++
				}
				e.next += e.f.period
			}
			if d := e.next - now; d < wait {
				wait = d
			}
		}
		pc.mu.Unlock()
		if err := pc.sleep(wait); err != nil {
			// Without its clock the generator cannot run; owed frames
			// stop flowing and the pass reports them lost.
			fmt.Fprintln(os.Stderr, "benchmark: pacer:", err)
			return
		}
	}
}
