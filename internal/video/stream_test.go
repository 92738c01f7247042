package video

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// streamOp is one step of a played window sequence.
type streamOp int

const (
	opSlide      streamOp = iota // the clip slides by one frame
	opSkip                       // one window is skipped: slide by two
	opSame                       // the same window again
	opJump                       // an unrelated stretch of the source
	opZero                       // an all-zero window
	opEditCached                 // one weight of a cached conv changes
	opEditFuse                   // one weight of the fuse block changes
	numStreamOps
)

func (o streamOp) String() string {
	return [...]string{"slide", "skip", "same", "jump", "zero", "edit-cached", "edit-fuse"}[o]
}

// streamPlayer slides one persistent clip buffer over a random sparse
// source, as a framework's clip ring does, and holds every window's
// ForwardStream logits to ForwardBatch's on the same clip.
type streamPlayer struct {
	m      *SlowFast
	st     Stream
	ws     *nn.Workspace
	refWS  *nn.Workspace
	clip   *tensor.Tensor
	rng    *rand.Rand
	source map[int][]float64
	pos    int
}

func newStreamPlayer(t testing.TB, cfg SlowFastConfig, seed int64) *streamPlayer {
	t.Helper()
	m, err := NewSlowFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetTrain(false)
	p := &streamPlayer{
		m: m, ws: nn.NewWorkspace(), refWS: nn.NewWorkspace(),
		clip:   tensor.New(1, cfg.T, cfg.H, cfg.W),
		rng:    rand.New(rand.NewSource(seed)),
		source: map[int][]float64{},
	}
	p.fill()
	return p
}

// frame returns source frame i: about one cell in five nonzero, of
// either sign, drawn on first use.
func (p *streamPlayer) frame(i int) []float64 {
	f, ok := p.source[i]
	if !ok {
		f = make([]float64, p.m.cfg.H*p.m.cfg.W)
		for c := range f {
			if p.rng.Intn(5) == 0 {
				f[c] = p.rng.NormFloat64()
			}
		}
		p.source[i] = f
	}
	return f
}

func (p *streamPlayer) fill() {
	spat := p.m.cfg.H * p.m.cfg.W
	for i := 0; i < p.m.cfg.T; i++ {
		copy(p.clip.Data[i*spat:(i+1)*spat], p.frame(p.pos+i))
	}
}

func (p *streamPlayer) cachedConvs() []*nn.Conv3D {
	cs := []*nn.Conv3D{p.m.fastConv1, p.m.fastConv2, p.m.slowConv1}
	if p.m.lateral != nil {
		cs = append(cs, p.m.lateral)
	}
	return cs
}

func (p *streamPlayer) editWeight(ps []*nn.Param) {
	d := ps[p.rng.Intn(len(ps))].Value.Data
	d[p.rng.Intn(len(d))] += p.rng.NormFloat64()
}

// step applies op to the clip or the model and checks the window.
func (p *streamPlayer) step(t testing.TB, op streamOp) {
	t.Helper()
	switch op {
	case opSlide:
		p.pos++
		p.fill()
	case opSkip:
		p.pos += 2
		p.fill()
	case opJump:
		p.pos += 1000 + p.rng.Intn(1000)
		p.fill()
	case opZero:
		clear(p.clip.Data)
	case opEditCached:
		p.editWeight(p.cachedConvs()[p.rng.Intn(len(p.cachedConvs()))].Params())
	case opEditFuse:
		p.editWeight(p.m.fuse.Params())
	}
	want, err := p.m.ForwardBatch([]*tensor.Tensor{p.clip}, p.refWS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.m.ForwardStream(&p.st, p.clip, p.ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want[0].Data) {
		t.Fatalf("window %d (%v): %d logits, want %d", p.st.Windows, op, len(got.Data), len(want[0].Data))
	}
	for i, v := range want[0].Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
			t.Fatalf("window %d (%v): logit %d is %v, ForwardBatch gives %v", p.st.Windows, op, i, got.Data[i], v)
		}
	}
	p.ws.Reset()
}

// streamConfigs are the geometries the property test and the fuzz
// target cover: both clip lengths, with and without lateral
// connections.
func streamConfigs() []SlowFastConfig {
	var out []SlowFastConfig
	for _, t := range []int{16, 32} {
		for _, lateral := range []bool{true, false} {
			out = append(out, SlowFastConfig{T: t, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: lateral, Seed: int64(t)})
		}
	}
	return out
}

// randomOp mostly slides, as a live feed does, and mixes in every other
// step.
func randomOp(b byte) streamOp {
	if b%2 == 0 {
		return opSlide
	}
	return streamOp(b/2) % numStreamOps
}

// TestForwardStreamMatchesForward plays 200-window sequences mixing
// slides, skips, repeats, jumps, zero windows and weight edits: every
// window's logits must be == to ForwardBatch's, and the slides must
// have continued the stream rather than re-anchored it.
func TestForwardStreamMatchesForward(t *testing.T) {
	for i, cfg := range streamConfigs() {
		t.Run(fmt.Sprintf("T%d-lateral=%v", cfg.T, cfg.Lateral), func(t *testing.T) {
			p := newStreamPlayer(t, cfg, int64(i))
			ops := rand.New(rand.NewSource(int64(100 + i)))
			for w := 0; w < 200; w++ {
				p.step(t, randomOp(byte(ops.Intn(256))))
			}
			if cont := p.st.Windows - p.st.Anchors; cont < 60 {
				t.Fatalf("%d of %d windows continued the stream, want ≥ 60", cont, p.st.Windows)
			}
		})
	}
}

// TestForwardStreamReuseTable pins how much of each cached conv a warm
// window computes at the default T = 32 (α = 8): 3 of fast.conv1's 32
// output frames, 3 of fast.conv2's 16, 1 of slow.conv1's 4 and 2 of
// the lateral conv's 4.
func TestForwardStreamReuseTable(t *testing.T) {
	cfg := DefaultSlowFastConfig()
	cfg.Seed = 3
	p := newStreamPlayer(t, cfg, 5)
	for w := 0; w < 10; w++ {
		p.step(t, opSlide)
	}
	before := make([]int, len(p.st.layers))
	for i := range p.st.layers {
		before[i] = p.st.layers[i].computed
	}
	p.step(t, opSlide)
	want := []int{3, 3, 1, 2}
	for i := range p.st.layers {
		l := &p.st.layers[i]
		if got := l.computed - before[i]; got != want[i] {
			t.Errorf("%s computed %d of %d frames, want %d", l.conv.W.Name, got, l.ot, want[i])
		}
	}
	if p.st.Anchors != 1 {
		t.Fatalf("%d anchors over a sliding run, want 1", p.st.Anchors)
	}
}

// TestForwardStreamWarmAllocatesNothing: once the rings and the
// workspace are warm, a sliding window touches no heap.
func TestForwardStreamWarmAllocatesNothing(t *testing.T) {
	cfg := DefaultSlowFastConfig()
	p := newStreamPlayer(t, cfg, 9)
	for w := 0; w < 10; w++ {
		p.step(t, opSlide)
	}
	slide := func() {
		p.pos++
		p.fill()
		if _, err := p.m.ForwardStream(&p.st, p.clip, p.ws); err != nil {
			t.Fatal(err)
		}
		p.ws.Reset()
	}
	for w := 0; w < 5; w++ {
		slide() // draws the source frames ahead
	}
	p.pos -= 5
	if allocs := testing.AllocsPerRun(4, slide); allocs != 0 {
		t.Fatalf("warm streamed window allocates %v times, want 0", allocs)
	}
}

// TestForwardStreamRejectsBadClip: a clip of the wrong shape is an
// error, not a panic.
func TestForwardStreamRejectsBadClip(t *testing.T) {
	m, err := NewSlowFast(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	var st Stream
	for _, shape := range [][]int{{1, 8, 10, 16}, {2, 16, 10, 16}, {16, 10, 16}} {
		if _, err := m.ForwardStream(&st, tensor.New(shape...), nn.NewWorkspace()); err == nil {
			t.Fatalf("clip %v accepted", shape)
		}
	}
}

// FuzzForwardStreamMatchesForward plays a window sequence of up to 200
// steps chosen by ops over one of streamConfigs: every window's logits
// must be == to ForwardBatch's.
func FuzzForwardStreamMatchesForward(f *testing.F) {
	slides := make([]byte, 40)
	f.Add(uint8(0), int64(1), slides)
	f.Add(uint8(1), int64(2), append(slides[:20:20], 1, 0, 0, 3, 0, 0, 5, 0, 0, 7, 0, 0, 9, 0, 0, 11, 0, 0, 13, 0, 0))
	f.Add(uint8(2), int64(3), []byte{0, 0, 0, 9, 0, 0, 0, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0})
	f.Add(uint8(3), int64(4), []byte{1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11, 13, 13, 0, 0, 0})
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, ops []byte) {
		cfgs := streamConfigs()
		p := newStreamPlayer(t, cfgs[int(sel)%len(cfgs)], seed)
		if len(ops) > 200 {
			ops = ops[:200]
		}
		for _, b := range ops {
			p.step(t, randomOp(b))
		}
	})
}
