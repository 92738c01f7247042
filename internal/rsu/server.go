package rsu

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"safecross/internal/telemetry"
)

// Server is the RSU broadcast endpoint. It accepts vehicle
// subscriptions and fans advisory/switch messages out to all
// subscribers. Slow subscribers are disconnected rather than allowed
// to stall the broadcast path (an RSU must stay real-time).
type Server struct {
	ln net.Listener

	mu      sync.Mutex
	clients map[*clientConn]struct{}
	closed  bool

	// Fleet routing view, pushed by a node agent via SetRoutes. When
	// owned is nil the server is standalone and accepts every
	// subscription; otherwise a subscribe for an intersection outside
	// owned is answered with a redirect to the owner from table.
	routeEpoch int64
	owned      map[int]bool
	table      map[int]string

	log     *telemetry.Logger
	reg     *telemetry.Registry
	tracer  *telemetry.Tracer
	metrics serverMetrics

	wg sync.WaitGroup
}

// serverMetrics are the server's telemetry handles. Counters replace
// the old mutex-guarded Stats fields (the Stats struct survives as a
// façade computed from them), and the broadcast histogram times each
// fan-out — the tail of the warning path after a verdict. All handles
// are nil-safe, so an unwired server records nowhere.
type serverMetrics struct {
	subscribed *telemetry.Counter
	broadcasts *telemetry.Counter
	enqueued   *telemetry.Counter
	dropped    *telemetry.Counter
	redirects  *telemetry.Counter
	latency    *telemetry.Histogram
}

// ServerOption configures Listen.
type ServerOption interface {
	apply(*Server)
}

type serverMetricsOption struct{ reg *telemetry.Registry }

func (o serverMetricsOption) apply(s *Server) {
	if o.reg == nil {
		return
	}
	s.reg = o.reg
	s.metrics = serverMetrics{
		subscribed: o.reg.Counter("rsu_subscribed_total", "successful vehicle subscriptions"),
		broadcasts: o.reg.Counter("rsu_broadcasts_total", "broadcast calls"),
		enqueued:   o.reg.Counter("rsu_enqueued_total", "messages placed on client queues"),
		dropped:    o.reg.Counter("rsu_slow_subscriber_evictions_total", "slow subscribers disconnected for a full queue"),
		redirects:  o.reg.Counter("rsu_redirects_total", "vehicles redirected to another node (wrong-node subscribes plus shard handoffs)"),
		latency:    o.reg.Histogram("rsu_broadcast_seconds", "broadcast fan-out latency (enqueue to all subscribers)", telemetry.UnitSeconds),
	}
	o.reg.GaugeFunc("rsu_subscribers", "currently connected vehicles", func() int64 {
		return int64(s.Subscribers())
	})
}

// WithMetrics wires the server's subscription, broadcast fan-out, and
// slow-subscriber eviction telemetry into a registry.
func WithMetrics(reg *telemetry.Registry) ServerOption { return serverMetricsOption{reg: reg} }

type serverLoggerOption struct{ log *telemetry.Logger }

func (o serverLoggerOption) apply(s *Server) { s.log = o.log }

// WithLogger sets the server's leveled logger. The default (nil)
// discards everything, so tests and embedders stay quiet unless they
// opt in.
func WithLogger(log *telemetry.Logger) ServerOption { return serverLoggerOption{log: log} }

type serverTracerOption struct{ tracer *telemetry.Tracer }

func (o serverTracerOption) apply(s *Server) { s.tracer = o.tracer }

// WithTracer lets the server join distributed traces: a subscribe
// stamped with trace context records an rsu/subscribe segment under
// the vehicle's trace ID, so the fleet stitcher sees the handshake
// land on this node.
func WithTracer(tracer *telemetry.Tracer) ServerOption { return serverTracerOption{tracer: tracer} }

// Stats counts server activity since start.
type Stats struct {
	// Subscribed is the total number of successful subscriptions.
	Subscribed int
	// Broadcasts is the number of Broadcast calls.
	Broadcasts int
	// Enqueued is the number of messages placed on client queues.
	Enqueued int
	// Dropped is the number of slow clients disconnected for a full
	// queue.
	Dropped int
	// Redirects is the number of vehicles pointed at another node
	// (wrong-node subscribes plus shard handoffs).
	Redirects int
}

// outMsg is one queued outbound message; last marks a targeted
// redirect after which the connection is torn down (the writer flushes
// it first, so the vehicle always learns where to go before the drop).
type outMsg struct {
	msg  Message
	last bool
}

// clientConn is one subscribed vehicle connection. watch > 0 narrows
// the advisory stream to one intersection (fleet vehicles subscribe
// per intersection); 0 receives everything (legacy single-node mode).
type clientConn struct {
	vehicle string
	watch   int
	conn    net.Conn
	out     chan outMsg
	stop    chan struct{}
}

// clientQueueDepth bounds the per-client outbound queue; a vehicle
// that falls this far behind is cut off.
const clientQueueDepth = 64

// Listen starts a server on addr (e.g. "127.0.0.1:0").
func Listen(addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rsu: listen: %w", err)
	}
	s := &Server{
		ln:      ln,
		clients: make(map[*clientConn]struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.metrics.subscribed == nil {
		// Stats() is computed from the counters, so an unwired server
		// still needs them — back them with a private registry.
		serverMetricsOption{reg: telemetry.NewRegistry()}.apply(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Subscribers returns the number of connected vehicles.
func (s *Server) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// SetRoutes installs the fleet routing view: the intersections this
// node owns and the full intersection→owner-address table, stamped
// with the assignment epoch. Stale epochs (≤ the installed one) are
// ignored, so out-of-order pushes cannot roll the view backwards. A
// server with no routes set accepts every subscription.
func (s *Server) SetRoutes(epoch int64, owned []int, table map[int]string) {
	ownedSet := make(map[int]bool, len(owned))
	for _, i := range owned {
		ownedSet[i] = true
	}
	tableCopy := make(map[int]string, len(table))
	for i, addr := range table {
		tableCopy[i] = addr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch <= s.routeEpoch {
		return
	}
	s.routeEpoch = epoch
	s.owned = ownedSet
	s.table = tableCopy
}

// routeForLocked resolves a subscribe for an intersection: ok means
// this node serves it; otherwise addr is the owner to redirect to
// (empty when no owner is known, e.g. no surviving nodes). Callers
// hold s.mu.
func (s *Server) routeForLocked(intersection int) (addr string, epoch int64, ok bool) {
	if s.owned == nil || intersection <= 0 || s.owned[intersection] {
		return "", s.routeEpoch, true
	}
	return s.table[intersection], s.routeEpoch, false
}

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// handle performs the subscribe handshake and then streams the
// client's outbound queue.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	reader := bufio.NewReader(conn)
	dec := json.NewDecoder(reader)
	var sub Message
	if err := dec.Decode(&sub); err != nil || sub.Type != TypeSubscribe || sub.Validate() != nil {
		_ = conn.Close()
		return
	}
	// A subscribe carrying trace context gets a node-side segment: the
	// handshake joins the vehicle's distributed trace, so the fleet
	// stitcher sees the join land on this node.
	var joinTrace *telemetry.Trace
	if id, parentSpan := sub.TraceContext(); id != 0 {
		joinTrace = s.tracer.StartLinked("rsu/subscribe", id, parentSpan)
	}
	joinStart := time.Now()
	enc := json.NewEncoder(conn)
	c := &clientConn{
		vehicle: sub.Vehicle,
		watch:   sub.Intersection,
		conn:    conn,
		out:     make(chan outMsg, clientQueueDepth),
		stop:    make(chan struct{}),
	}
	// The route check and the registration share one lock hold, so a
	// shard move (SetRoutes, then RedirectIntersection) either lands
	// before it, and the vehicle is redirected here, or after it, and
	// the redirect finds the vehicle registered.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	addr, epoch, ok := s.routeForLocked(sub.Intersection)
	if ok {
		s.clients[c] = struct{}{}
		s.metrics.subscribed.Inc()
	}
	s.mu.Unlock()
	if !ok {
		// Wrong node: point the vehicle at the owner and hang up. An
		// unknown owner (no survivors hold the shard yet) still closes
		// the connection — the client's retry loop keeps probing seeds.
		s.metrics.redirects.Inc()
		if addr != "" {
			_ = enc.Encode(RedirectMessage(sub.Intersection, addr, epoch))
		}
		s.log.Infof("rsu: redirecting vehicle %q (intersection %d) to %q", sub.Vehicle, sub.Intersection, addr)
		now := time.Now()
		joinTrace.Span("redirect", joinStart, now)
		joinTrace.Terminal("redirected", now)
		joinTrace.Finish()
		_ = conn.Close()
		return
	}
	s.log.Infof("rsu: vehicle %q subscribed from %s", c.vehicle, conn.RemoteAddr())

	if err := enc.Encode(Message{Type: TypeWelcome, Vehicle: c.vehicle, Intersection: c.watch, Addr: s.Addr()}); err != nil {
		now := time.Now()
		joinTrace.Span("welcome", joinStart, now)
		joinTrace.Terminal("error", now)
		joinTrace.Finish()
		s.drop(c)
		return
	}
	now := time.Now()
	joinTrace.Span("welcome", joinStart, now)
	joinTrace.Terminal("subscribed", now)
	joinTrace.Finish()
	// cur is the message being written: encoding through one pointer
	// per connection boxes nothing per message.
	var cur Message
	for {
		select {
		case m := <-c.out:
			cur = m.msg
			if err := enc.Encode(&cur); err != nil {
				s.drop(c)
				return
			}
			if m.last {
				s.drop(c)
				return
			}
		case <-c.stop:
			_ = conn.Close()
			return
		}
	}
}

// drop removes a client and closes its connection.
func (s *Server) drop(c *clientConn) {
	s.mu.Lock()
	if _, ok := s.clients[c]; ok {
		delete(s.clients, c)
		close(c.stop)
	}
	s.mu.Unlock()
	_ = c.conn.Close()
}

// Broadcast enqueues a message to every subscriber, disconnecting any
// whose queue is full. The fan-out latency — lock to last enqueue,
// including evictions of stalled subscribers — lands in the
// rsu_broadcast_seconds histogram.
func (s *Server) Broadcast(msg Message) {
	start := time.Now()
	s.mu.Lock()
	s.metrics.broadcasts.Inc()
	var overloaded []*clientConn
	for c := range s.clients {
		if c.watch > 0 && msg.Type == TypeAdvisory && msg.Intersection != c.watch {
			continue // the vehicle asked for one intersection only
		}
		select {
		case c.out <- outMsg{msg: msg}:
			s.metrics.enqueued.Inc()
		default:
			s.metrics.dropped.Inc()
			overloaded = append(overloaded, c)
		}
	}
	s.mu.Unlock()
	for _, c := range overloaded {
		s.log.Warnf("rsu: evicting slow subscriber %q (queue full at %d)", c.vehicle, clientQueueDepth)
		s.drop(c)
	}
	s.metrics.latency.ObserveDuration(time.Since(start))
}

// RedirectIntersection tells every vehicle watching the intersection
// that its advisories now come from addr, then disconnects them so
// their retry loop re-attaches to the new owner. Used on planned
// shard handoff; vehicles on a crashed node learn the same thing from
// the connection drop plus a redirect at their next wrong-node
// subscribe.
func (s *Server) RedirectIntersection(intersection int, addr string) {
	if addr == "" || intersection <= 0 {
		return
	}
	msg := RedirectMessage(intersection, addr, 0)
	s.mu.Lock()
	epoch := s.routeEpoch
	msg.Epoch = epoch
	var stale []*clientConn
	for c := range s.clients {
		if c.watch != intersection {
			continue
		}
		s.metrics.redirects.Inc()
		select {
		case c.out <- outMsg{msg: msg, last: true}:
		default:
			// Queue full: the drop alone must move the vehicle; its
			// reconnect will be redirected at subscribe time instead.
			stale = append(stale, c)
		}
	}
	s.mu.Unlock()
	for _, c := range stale {
		s.drop(c)
	}
}

// Stats returns a snapshot of server activity counters. It is a
// façade over a telemetry.Snapshot of the server's registry — the
// single source of truth whether or not the server was wired to an
// external registry — so new series join the façade by name, with no
// per-metric plumbing.
func (s *Server) Stats() Stats {
	snap := s.reg.Snapshot()
	return Stats{
		Subscribed: snap.Int("rsu_subscribed_total"),
		Broadcasts: snap.Int("rsu_broadcasts_total"),
		Enqueued:   snap.Int("rsu_enqueued_total"),
		Dropped:    snap.Int("rsu_slow_subscriber_evictions_total"),
		Redirects:  snap.Int("rsu_redirects_total"),
	}
}

// Close stops accepting, disconnects all subscribers, and waits for
// every goroutine to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	clients := make([]*clientConn, 0, len(s.clients))
	for c := range s.clients {
		clients = append(clients, c)
	}
	s.clients = make(map[*clientConn]struct{})
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range clients {
		close(c.stop)
		_ = c.conn.Close()
	}
	s.wg.Wait()
	return err
}
