package rsu

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	randv2 "math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"safecross/internal/telemetry"
)

// DefaultHandshakeTimeout bounds Dial's connect-plus-handshake: a
// vehicle approaching an intersection cannot wait indefinitely on an
// RSU that accepts the TCP connection but never answers the
// subscribe.
const DefaultHandshakeTimeout = 5 * time.Second

// ErrHandshake reports a subscribe exchange that completed its I/O
// but did not yield a welcome (an unexpected reply, or a redirect a
// non-retrying client cannot follow). Dial errors caused by the
// network itself instead wrap the underlying net error, so callers
// can match both layers with errors.Is / errors.As.
var ErrHandshake = errors.New("rsu: handshake failed")

// ErrClientClosed reports that Close ended the client while it was
// connecting or waiting to reconnect.
var ErrClientClosed = errors.New("rsu: client closed")

// maxRedirectHops bounds how many consecutive redirects one attach
// attempt follows before the chain is treated as a failure (guards
// against two nodes pointing at each other during a reassignment
// window).
const maxRedirectHops = 8

// RetryConfig drives DialRetry: a client that survives node failures
// by reconnecting with exponential backoff and jitter, following
// redirects to whichever node currently owns its intersection.
type RetryConfig struct {
	// Seeds are the addresses to try, in rotation, when the client has
	// no better target (initial attach, or the last owner is gone). In
	// a fleet any live node can redirect, so any subset of node
	// addresses works.
	Seeds []string
	// Vehicle is the subscriber id.
	Vehicle string
	// Intersection narrows the subscription to one intersection's
	// advisories (fleet mode); 0 subscribes to everything.
	Intersection int
	// HandshakeTimeout bounds each connect-plus-subscribe attempt
	// (default DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
	// BackoffBase is the first retry delay (default 50ms). Each
	// failure doubles it up to BackoffMax (default 2s), and every
	// sleep is jittered into [d/2, d] so a fleet of vehicles does not
	// reconnect in lockstep.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.
	BackoffMax time.Duration
	// MaxAttempts gives up after this many consecutive failed
	// attempts; 0 retries forever (until Close).
	MaxAttempts int
	// Logger, when set, records attach/redirect/backoff events.
	Logger *telemetry.Logger
	// Tracer, when set, records the vehicle's side of distributed
	// traces: advisories arriving with trace context get a linked
	// vehicle/recv segment (joining the frame's fleet-wide trace), and
	// sampled subscribe handshakes get a vehicle/attach segment whose
	// trace id travels on the wire so the node's join segment shares it.
	Tracer *telemetry.Tracer
	// TraceSample is the "one in N" subscribe-handshake sampling rate.
	// The decision is derived from the minted trace id (not a local
	// counter), so every process that sees the id agrees on it. 0
	// disables handshake traces; advisory joins are driven by the
	// sender's sampling decision instead.
	TraceSample int
}

// withDefaults fills zero fields.
func (cfg RetryConfig) withDefaults() RetryConfig {
	if cfg.HandshakeTimeout == 0 {
		cfg.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	if cfg.BackoffMax < cfg.BackoffBase {
		cfg.BackoffMax = cfg.BackoffBase
	}
	return cfg
}

// validate rejects unusable configurations.
func (cfg RetryConfig) validate() error {
	if cfg.Vehicle == "" {
		return fmt.Errorf("rsu: empty vehicle id")
	}
	if len(cfg.Seeds) == 0 {
		return fmt.Errorf("rsu: no seed addresses")
	}
	if cfg.Intersection < 0 {
		return fmt.Errorf("rsu: negative intersection %d", cfg.Intersection)
	}
	return nil
}

// Client is a vehicle-side connection to the RSU fleet. Clients from
// Dial/DialTimeout are bound to one connection and their message
// channel closes when it drops; clients from DialRetry own a
// reconnect loop and the channel closes only on Close or when the
// retry budget is exhausted.
type Client struct {
	msgs chan Message
	// stop ends the manager/reader; done confirms it exited. The
	// manager goroutine is the single owner of msgs: only it closes
	// the channel, exactly once, on its way out — Close never touches
	// it, so a Close racing the read loop cannot double-close.
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	retry *RetryConfig // nil for single-connection clients

	mu   sync.Mutex
	conn net.Conn // live connection, nil between retry attempts
	err  error    // terminal error (retry budget exhausted)

	attaches  atomic.Int64
	redirects atomic.Int64
}

func newClient(retry *RetryConfig) *Client {
	return &Client{
		msgs:  make(chan Message, clientQueueDepth),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		retry: retry,
	}
}

// Dial connects to the RSU at addr, subscribes with the vehicle id,
// and waits for the welcome acknowledgement. The whole handshake is
// bounded by DefaultHandshakeTimeout.
func Dial(addr, vehicle string) (*Client, error) {
	return DialTimeout(addr, vehicle, DefaultHandshakeTimeout)
}

// DialTimeout is Dial with an explicit bound covering both the TCP
// connect and the subscribe/welcome exchange; a non-positive timeout
// waits forever. Errors wrap the underlying net error, so callers can
// errors.Is/As into them (connection refused, timeouts, …).
func DialTimeout(addr, vehicle string, timeout time.Duration) (*Client, error) {
	if vehicle == "" {
		return nil, fmt.Errorf("rsu: empty vehicle id")
	}
	conn, dec, _, _, err := dialSubscribe(addr, Message{Type: TypeSubscribe, Vehicle: vehicle}, timeout)
	if err != nil {
		return nil, err
	}
	c := newClient(nil)
	c.setConn(conn)
	c.attaches.Add(1)
	go func() {
		defer close(c.done)
		defer close(c.msgs)
		c.stream(conn, dec)
		c.setConn(nil)
	}()
	return c, nil
}

// DialRetry connects to the fleet described by cfg and keeps the
// subscription alive across node failures: the first attach happens
// synchronously (retrying within cfg's budget), then a manager
// goroutine follows redirects and reconnects with exponential backoff
// and jitter whenever the connection drops. Welcome and redirect
// messages are delivered on Messages alongside advisories, so
// consumers can observe re-attachments.
func DialRetry(cfg RetryConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := newClient(&cfg)
	conn, dec, welcome, err := c.connect("")
	if err != nil {
		close(c.done)
		close(c.msgs)
		return nil, err
	}
	c.deliver(welcome)
	go c.manage(conn, dec)
	return c, nil
}

// dialSubscribe performs one connect-plus-subscribe exchange with the
// given subscribe message (callers stamp trace context onto it when
// the handshake is sampled). On a welcome it returns the live
// connection with its decoder and the welcome message; on a redirect
// reply it returns the target address with a non-nil error wrapping
// ErrHandshake.
func dialSubscribe(addr string, sub Message, timeout time.Duration) (net.Conn, *json.Decoder, Message, string, error) {
	var none Message
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, none, "", fmt.Errorf("rsu: dial %s: %w", addr, err)
	}
	if timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			_ = conn.Close()
			return nil, nil, none, "", fmt.Errorf("rsu: handshake deadline: %w", err)
		}
	}
	enc := json.NewEncoder(conn)
	if err := enc.Encode(sub); err != nil {
		_ = conn.Close()
		return nil, nil, none, "", fmt.Errorf("rsu: subscribe: %w", err)
	}
	dec := json.NewDecoder(bufio.NewReader(conn))
	var reply Message
	if err := dec.Decode(&reply); err != nil {
		_ = conn.Close()
		return nil, nil, none, "", fmt.Errorf("rsu: handshake: %w", err)
	}
	switch reply.Type {
	case TypeWelcome:
		// The deadline only guards the handshake; the advisory stream
		// is long-lived.
		if err := conn.SetDeadline(time.Time{}); err != nil {
			_ = conn.Close()
			return nil, nil, none, "", fmt.Errorf("rsu: clear deadline: %w", err)
		}
		return conn, dec, reply, "", nil
	case TypeRedirect:
		_ = conn.Close()
		return nil, nil, none, reply.Addr, fmt.Errorf("%w: %s redirects intersection %d to %q", ErrHandshake, addr, reply.Intersection, reply.Addr)
	default:
		_ = conn.Close()
		return nil, nil, none, "", fmt.Errorf("%w: unexpected reply %q", ErrHandshake, reply.Type)
	}
}

// connect attaches to the fleet: preferred first (a redirect target),
// then the seeds in rotation, backing off exponentially with jitter
// between consecutive failures. It returns ErrClientClosed when Close
// interrupts the wait, or the last attempt's error once MaxAttempts
// consecutive failures accumulate.
func (c *Client) connect(preferred string) (net.Conn, *json.Decoder, Message, error) {
	cfg := c.retry
	var none Message
	var (
		failures int
		seedIdx  int
		hops     int
		lastErr  error
	)
	delay := cfg.BackoffBase
	next := preferred
	for {
		select {
		case <-c.stop:
			return nil, nil, none, ErrClientClosed
		default:
		}
		addr := next
		next = ""
		if addr == "" {
			addr = cfg.Seeds[seedIdx%len(cfg.Seeds)]
			seedIdx++
		}
		sub := Message{Type: TypeSubscribe, Vehicle: cfg.Vehicle, Intersection: cfg.Intersection}
		var attachTrace *telemetry.Trace
		if cfg.Tracer != nil && cfg.TraceSample > 0 {
			// The sampling decision belongs to the minted id, not this
			// process: the node receiving the stamped subscribe reaches
			// the same verdict from the same id.
			if id := telemetry.NewTraceID(); id.Sampled(cfg.TraceSample) {
				attachTrace = cfg.Tracer.StartLinked("vehicle/attach", id, "")
				sub = sub.WithTraceContext(id, "attach")
			}
		}
		attachStart := time.Now()
		conn, dec, welcome, redirect, err := dialSubscribe(addr, sub, cfg.HandshakeTimeout)
		attachNow := time.Now()
		attachTrace.Span("attach", attachStart, attachNow)
		if err == nil {
			attachTrace.Terminal("attached", attachNow)
			attachTrace.Finish()
			c.attaches.Add(1)
			cfg.Logger.Infof("rsu: vehicle %q attached to %s (intersection %d)", cfg.Vehicle, addr, cfg.Intersection)
			return conn, dec, welcome, nil
		}
		attachTrace.Terminal("error", attachNow)
		attachTrace.Finish()
		lastErr = err
		if redirect != "" {
			c.redirects.Add(1)
			hops++
			if hops <= maxRedirectHops {
				// Following a redirect is progress, not a failure: go
				// straight to the named owner.
				next = redirect
				continue
			}
			// A redirect loop; fall through and treat it as a failure.
		}
		hops = 0
		failures++
		if cfg.MaxAttempts > 0 && failures >= cfg.MaxAttempts {
			return nil, nil, none, fmt.Errorf("rsu: giving up after %d attempts: %w", failures, lastErr)
		}
		// Jitter into [delay/2, delay] so reconnect storms spread out.
		sleep := delay/2 + randv2.N(delay/2+1)
		cfg.Logger.Debugf("rsu: vehicle %q attach to %s failed (%v); retrying in %v", cfg.Vehicle, addr, err, sleep)
		select {
		case <-time.After(sleep):
		case <-c.stop:
			return nil, nil, none, ErrClientClosed
		}
		if delay *= 2; delay > cfg.BackoffMax {
			delay = cfg.BackoffMax
		}
	}
}

// manage owns the retry client's lifecycle: pump the current
// connection, then reconnect (following any in-stream redirect)
// until Close or the retry budget runs out. It is the sole closer of
// the messages channel.
func (c *Client) manage(conn net.Conn, dec *json.Decoder) {
	defer close(c.done)
	defer close(c.msgs)
	for {
		redirect := c.stream(conn, dec)
		_ = conn.Close()
		c.setConn(nil)
		select {
		case <-c.stop:
			return
		default:
		}
		var welcome Message
		var err error
		conn, dec, welcome, err = c.connect(redirect)
		if err != nil {
			c.mu.Lock()
			c.err = err
			c.mu.Unlock()
			c.retry.Logger.Warnf("rsu: vehicle %q detached for good: %v", c.retry.Vehicle, err)
			return
		}
		c.deliver(welcome)
	}
}

// stream decodes messages until the connection fails, delivering each
// to the consumer. It returns the target address of an in-stream
// redirect (the server's planned-handoff signal) for retry clients,
// or "" when the stream just ended.
func (c *Client) stream(conn net.Conn, dec *json.Decoder) string {
	c.setConn(conn)
	var tracer *telemetry.Tracer
	if c.retry != nil {
		tracer = c.retry.Tracer
	}
	// One message is decoded into per connection, zeroed before each
	// Decode so no field of the previous message survives.
	var msg Message
	for {
		msg = Message{}
		if err := dec.Decode(&msg); err != nil {
			return ""
		}
		recvAt := time.Now()
		c.deliver(msg)
		if tracer != nil {
			// A message stamped with trace context joins the sender's
			// distributed trace: this segment is the vehicle end of the
			// frame's journey, hung under the remote parent span.
			if id, parentSpan := msg.TraceContext(); id != 0 {
				done := time.Now()
				tr := tracer.StartLinked("vehicle/recv/"+msg.Type, id, parentSpan)
				tr.Span("recv", recvAt, done)
				tr.Terminal("delivered", done)
				tr.Finish()
			}
		}
		if c.retry != nil && msg.Type == TypeRedirect && msg.Addr != "" {
			return msg.Addr
		}
	}
}

// deliver hands one message to the consumer, dropping the oldest when
// the channel is full (staleness is worse than loss for a real-time
// warning).
func (c *Client) deliver(msg Message) {
	select {
	case c.msgs <- msg:
	default:
		select {
		case <-c.msgs:
		default:
		}
		select {
		case c.msgs <- msg:
		default:
		}
	}
}

// setConn records the live connection so Close can cut it.
func (c *Client) setConn(conn net.Conn) {
	c.mu.Lock()
	c.conn = conn
	c.mu.Unlock()
}

// Messages returns the advisory stream. For single-connection clients
// the channel closes when the connection drops or Close is called;
// for retry clients it stays open across reconnects and closes only
// on Close or when the retry budget is exhausted.
func (c *Client) Messages() <-chan Message { return c.msgs }

// Reconnects returns how many times a retry client re-attached after
// its initial subscribe (0 for single-connection clients).
func (c *Client) Reconnects() int64 {
	if n := c.attaches.Load(); n > 1 {
		return n - 1
	}
	return 0
}

// Redirects returns how many redirects the client has followed.
func (c *Client) Redirects() int64 { return c.redirects.Load() }

// Err returns the terminal error that ended a retry client's
// reconnect loop, or nil.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close tears the client down and waits for its goroutine to exit.
// Safe to call multiple times and concurrently with connection drops:
// the message channel is owned and closed exactly once by the
// manager/reader goroutine, never by Close.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.mu.Lock()
		conn := c.conn
		c.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
	})
	<-c.done
	return nil
}
