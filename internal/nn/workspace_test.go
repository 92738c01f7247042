package nn

import (
	"math/rand"
	"testing"

	"safecross/internal/tensor"
)

// TestWorkspaceRewindsSlabOnReset checks that Reset rewinds rather
// than recycles: the first Get of a pass starts at the front of the
// slab, whatever shape it asks for.
func TestWorkspaceRewindsSlabOnReset(t *testing.T) {
	ws := NewWorkspace()
	ws.Get(3, 4)
	ws.Get(2, 6)
	ws.Reset() // the first pass sizes the slab: 24 elements
	if ws.Misses != 2 || ws.Size() != 24 {
		t.Fatalf("after the first pass misses=%d size=%d, want 2 and 24", ws.Misses, ws.Size())
	}
	front := &ws.Get(3, 4).Data[0]
	ws.Get(2, 6)
	ws.Reset()
	c := ws.Get(12)
	if &c.Data[0] != front {
		t.Fatal("first Get after Reset did not start at the front of the slab")
	}
	if c.Rank() != 1 || c.Shape[0] != 12 {
		t.Fatalf("rewound buffer shape %v, want [12]", c.Shape)
	}
	if ws.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (only the first pass allocates)", ws.Misses)
	}
}

// TestWorkspaceLiveGetsAreDisjoint checks that buffers live in one
// pass never overlap, on the slab and on the overflow path alike, and
// that cap == len, so an append reallocates instead of running into a
// neighbour.
func TestWorkspaceLiveGetsAreDisjoint(t *testing.T) {
	ws := NewWorkspace()
	ws.Get(10)
	ws.Reset() // slab of 10: the first two Gets below fit, the third overflows
	bufs := []*tensor.Tensor{ws.Get(2, 2), ws.Get(6), ws.Get(3, 3)}
	for i, b := range bufs {
		if cap(b.Data) != len(b.Data) {
			t.Fatalf("buffer %d: cap %d != len %d", i, cap(b.Data), len(b.Data))
		}
		for k := range b.Data {
			b.Data[k] = float64(i)
		}
	}
	_ = append(bufs[0].Data, -1)
	for i, b := range bufs {
		for k, v := range b.Data {
			if v != float64(i) {
				t.Fatalf("buffer %d element %d = %v: live buffers overlap", i, k, v)
			}
		}
	}
}

// TestWorkspaceNoMissWithinHighWaterMark checks the slab's sizing
// rule: after a pass, any pass of the same or a smaller total — in
// any mix of shapes — runs without a Miss.
func TestWorkspaceNoMissWithinHighWaterMark(t *testing.T) {
	ws := NewWorkspace()
	ws.Get(4, 7)
	ws.Get(28)
	ws.Get(3, 3)
	ws.Reset() // 65 elements
	warm := ws.Misses
	passes := [][][]int{
		{{65}},
		{{3, 3}, {28}, {4, 7}},
		{{1}, {2, 2, 2}, {7, 8}},
		{{5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}, {5}},
		{{64}},
	}
	for i, pass := range passes {
		for _, shape := range pass {
			ws.Get(shape...)
		}
		ws.Reset()
		if ws.Misses != warm {
			t.Fatalf("pass %d %v missed: misses %d -> %d", i, pass, warm, ws.Misses)
		}
	}
	if ws.Size() != 65 {
		t.Fatalf("slab size %d, want 65 (no pass outgrew the first)", ws.Size())
	}
}

// TestWorkspaceReserveMakesPassAllocationFree checks that a reserved
// slab serves a pass of up to the reserved size without a Miss and,
// once the pass's tensor headers exist, without any allocation.
func TestWorkspaceReserveMakesPassAllocationFree(t *testing.T) {
	ws := NewWorkspace()
	ws.Reserve(100)
	if ws.Size() != 100 {
		t.Fatalf("size after Reserve(100) = %d", ws.Size())
	}
	pass := func() {
		ws.Get(4, 5)
		ws.Get(30)
		ws.Get(2, 3, 5)
		ws.Reset()
	}
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("reserved pass allocated %.1f times per run", allocs)
	}
	if ws.Misses != 0 {
		t.Fatalf("reserved pass missed %d times", ws.Misses)
	}
	ws.Reserve(50) // never shrinks
	if ws.Size() != 100 {
		t.Fatalf("Reserve shrank the slab to %d", ws.Size())
	}
}

func TestWorkspaceMissesStopGrowingAtSteadyState(t *testing.T) {
	ws := NewWorkspace()
	round := func() {
		ws.Get(4, 7)
		ws.Get(28)
		ws.Get(3, 3)
		ws.Reset()
	}
	round()
	warm := ws.Misses
	for i := 0; i < 5; i++ {
		round()
	}
	if ws.Misses != warm {
		t.Fatalf("misses grew at steady state: %d -> %d", warm, ws.Misses)
	}
}

// TestConvDropsColumnCacheInEvalMode is the regression test for the
// memory-pinning bug: eval-mode conv forwards used to retain their
// im2col column matrix (the largest allocation of the pass) after
// every call, pinning heap past the serving plane's WorkerMemory
// budget. Eval mode must not retain it; train mode still must, for
// Backward.
func TestConvDropsColumnCacheInEvalMode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c2 := NewConv2D("t.c2", Conv2DConfig{InC: 1, OutC: 2, KH: 3, KW: 3, SH: 1, SW: 1, PH: 1, PW: 1}, rng)
	c3 := NewConv3D("t.c3", Conv3DConfig{InC: 1, OutC: 2, KT: 3, KH: 3, KW: 3, ST: 1, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1}, rng)
	x2 := tensor.RandnTensor(rng, 1, 1, 6, 6)
	x3 := tensor.RandnTensor(rng, 1, 1, 4, 6, 6)

	// Train mode (the default) keeps the cache for Backward.
	if _, err := c2.Forward(x2); err != nil {
		t.Fatal(err)
	}
	if c2.cacheCols == nil {
		t.Fatal("train-mode Conv2D forward must retain cacheCols for Backward")
	}
	if _, err := c3.Forward(x3); err != nil {
		t.Fatal(err)
	}
	if c3.cacheCols == nil {
		t.Fatal("train-mode Conv3D forward must retain cacheCols for Backward")
	}

	// Switching to eval drops the pinned cache immediately…
	c2.SetTrain(false)
	c3.SetTrain(false)
	if c2.cacheCols != nil || c3.cacheCols != nil {
		t.Fatal("SetTrain(false) must release the retained column cache")
	}
	// …and eval-mode forwards never re-pin it.
	if _, err := c2.Forward(x2); err != nil {
		t.Fatal(err)
	}
	if c2.cacheCols != nil {
		t.Fatal("eval-mode Conv2D forward retained cacheCols")
	}
	if _, err := c3.Forward(x3); err != nil {
		t.Fatal(err)
	}
	if c3.cacheCols != nil {
		t.Fatal("eval-mode Conv3D forward retained cacheCols")
	}

	// Backward after an eval forward is a usage error, not a crash.
	if _, err := c2.Backward(tensor.New(2, 6, 6)); err == nil {
		t.Fatal("Conv2D Backward after eval forward must fail")
	}

	// Back in train mode the cache returns and Backward works again.
	c2.SetTrain(true)
	if _, err := c2.Forward(x2); err != nil {
		t.Fatal(err)
	}
	if c2.cacheCols == nil {
		t.Fatal("returning to train mode must restore caching")
	}
	if _, err := c2.Backward(tensor.New(2, 6, 6)); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialForwardWSMatchesForward checks that the workspace path
// of a mixed single-sample chain produces bit-identical outputs to the
// allocating eval path.
func TestSequentialForwardWSMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := NewSequential(
		NewConv2D("s.c1", Conv2DConfig{InC: 1, OutC: 4, KH: 3, KW: 3, SH: 2, SW: 2, PH: 1, PW: 1}, rng),
		NewReLU(),
		NewFlatten(),
		NewLinear("s.fc", 4*3*3, 3, rng),
	)
	net.SetTrain(false)
	x := tensor.RandnTensor(rng, 1, 1, 6, 6)
	want, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace()
	got, err := net.ForwardWS(x, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("ForwardWS output len %d, want %d", len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: ForwardWS %v != Forward %v", i, got.Data[i], want.Data[i])
		}
	}
}
