package serve

// The clip-lifetime contract between safecross.ClassifyFunc and Submit
// (run under `go test -race`): a served framework hands Submit its one
// persistent clip tensor and refills it on the next frame, so Submit
// must never let a worker read a clip after it has returned — not on
// a verdict, and not on the cancel, deadline, shed or Close paths.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/safecross"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/weather"
)

// clipLedger records which stamped clips are inside a Submit call and
// what the echo models saw.
type clipLedger struct {
	mu       sync.Mutex
	inflight map[int]bool
	computed int // clips a model read
	torn     int // … whose elements were not all one stamp
	late     int // … whose Submit had already returned
}

func (l *clipLedger) enter(stamp int) {
	l.mu.Lock()
	l.inflight[stamp] = true
	l.mu.Unlock()
}

func (l *clipLedger) leave(stamp int) {
	l.mu.Lock()
	delete(l.inflight, stamp)
	l.mu.Unlock()
}

// echoModel reads the stamp off a clip, dawdles long enough for a
// feed that got its clip back early to refill it, then re-reads every
// element and answers with the stamp's parity.
type echoModel struct {
	ledger *clipLedger
	delay  time.Duration
}

func (m *echoModel) Name() string  { return "echo" }
func (m *echoModel) SetTrain(bool) {}

func (m *echoModel) ForwardBatch(xs []*tensor.Tensor, _ *nn.Workspace) ([]*tensor.Tensor, error) {
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		stamp := x.Data[0]
		time.Sleep(m.delay)
		torn := false
		for _, v := range x.Data {
			torn = torn || v != stamp
		}
		m.ledger.mu.Lock()
		m.ledger.computed++
		if torn {
			m.ledger.torn++
		}
		if !m.ledger.inflight[int(stamp)] {
			m.ledger.late++
		}
		m.ledger.mu.Unlock()
		out[i] = tensor.New(2)
		out[i].Data[int(stamp)%2] = 1
	}
	return out, nil
}

func TestSubmitNeverReadsAClipAfterReturning(t *testing.T) {
	ledger := &clipLedger{inflight: make(map[int]bool)}
	s, err := New(Config{
		Workers:      1,
		MaxBatch:     2,
		BatchLatency: 200 * time.Microsecond,
		QueueDepth:   4,                    // shallower than the feeds: Critical sheds Routine
		SLO:          3 * time.Millisecond, // shorter than a full queue drains: some expire at dispatch
	}, func() (map[sim.Weather]infer.Model, error) {
		models := make(map[sim.Weather]infer.Model)
		for _, w := range sim.AllWeathers() {
			models[w] = &echoModel{ledger: ledger, delay: time.Millisecond}
		}
		return models, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	det, err := weather.FitFromSim(10, 3)
	if err != nil {
		t.Fatal(err)
	}

	var stamps, verdicts, wrongEcho, closed atomic.Int64
	var stop atomic.Bool
	feed := func(id int) error {
		critical, cancels := id%3 == 0, id%3 == 1
		classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, _ bool) (int, error) {
			stamp := int(stamps.Add(1))
			for i := range clip.Data {
				clip.Data[i] = float64(stamp)
			}
			req := Request{Scene: scene, Clip: clip}
			if critical {
				req.Priority = Critical
			}
			ledger.enter(stamp)
			v, err := s.Submit(ctx, req)
			ledger.leave(stamp)
			if err != nil {
				return 0, err
			}
			verdicts.Add(1)
			if v.Label != stamp%2 {
				wrongEcho.Add(1)
			}
			return v.Label, nil
		}
		fw, err := safecross.NewServed(safecross.Config{ClipLen: 3}, classify, det)
		if err != nil {
			return err
		}
		frames := sim.NewWorld(sim.Config{Weather: sim.Day, Seed: int64(id)}).RunFrames(6)
		afterClose := 0
		for n := 0; afterClose < 4; n++ {
			cancel := context.CancelFunc(func() {})
			ctx := context.Background()
			if cancels {
				ctx, cancel = context.WithCancel(ctx)
				time.AfterFunc(time.Duration(n%4)*150*time.Microsecond, cancel)
			}
			_, err := fw.ProcessFrameContext(ctx, frames[n%len(frames)])
			cancel()
			switch {
			case err == nil, errors.Is(err, ErrQueueFull), errors.Is(err, ErrDeadlineExceeded), errors.Is(err, context.Canceled):
			case errors.Is(err, ErrClosed):
				closed.Add(1)
			default:
				return err
			}
			if stop.Load() {
				afterClose++ // keep refilling the clip past Close
			}
		}
		return nil
	}

	const feeds = 9
	errs := make(chan error, feeds)
	for id := 0; id < feeds; id++ {
		go func() { errs <- feed(id) }()
	}
	// Run until every path has been taken, then close under load.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := s.Stats()
		if st.Completed > 20 && st.Cancelled > 0 && st.Expired > 0 && st.Shed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("paths not all exercised: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	for id := 0; id < feeds; id++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	ledger.mu.Lock()
	defer ledger.mu.Unlock()
	if ledger.torn != 0 || ledger.late != 0 {
		t.Fatalf("%d clips changed under a model and %d were read after their Submit returned (of %d computed)",
			ledger.torn, ledger.late, ledger.computed)
	}
	if int64(ledger.computed) != verdicts.Load() {
		t.Fatalf("%d clips computed but %d verdicts delivered", ledger.computed, verdicts.Load())
	}
	if wrongEcho.Load() != 0 {
		t.Fatalf("%d verdicts did not echo their clip's stamp", wrongEcho.Load())
	}
	if closed.Load() == 0 {
		t.Fatal("no feed saw ErrClosed: the Close path was not exercised")
	}
}
