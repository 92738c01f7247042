package nn

import (
	"fmt"

	"safecross/internal/tensor"
)

// Workspace is the scratch arena of the eval-mode forward path: one
// slab of float64s that layers carve their column matrices and
// activation buffers from instead of allocating. A long-lived caller
// (one serving worker, one benchmark loop) therefore reaches a steady
// state where a forward pass allocates nothing.
//
// Ownership rules:
//
//   - A Workspace belongs to exactly one goroutine. It does no
//     locking; concurrent use is a data race. Each serving worker owns
//     its own (see internal/serve).
//   - Get carves the slab front to back. Buffers stay valid until
//     Reset, which rewinds the slab for the next pass, so a forward
//     pass Gets freely and its caller Resets between batches.
//   - A pass that outgrows the slab still runs: the overflowing Gets
//     allocate (and count a Miss), and the next pass starts on a slab
//     sized to that pass. Any later pass of the same or a smaller
//     total, in any mix of shapes, then fits. Reserve sizes the slab
//     ahead of the largest pass a caller expects. The slab is
//     allocated by the first Get of a pass, so a throwaway workspace
//     never allocates one.
//   - Contents are arbitrary after Get. Kernels that accumulate or
//     skip positions (matmul, im2col padding) zero their destination
//     themselves; everything else overwrites fully.
type Workspace struct {
	slab []float64
	size int // slab length for the next pass: largest pass or reservation
	off  int // next free element of slab
	need int // elements the current pass has asked for
	// hdrs are the tensor headers Get hands out, reused by position:
	// the k-th Get of every pass returns hdrs[k].
	hdrs []*tensor.Tensor
	used int

	// Gets counts Get calls; Misses counts the ones that had to
	// allocate. After warm-up Misses stops growing — tests and the
	// serving stats use the pair to prove the scratch path is hot.
	Gets   int
	Misses int
}

// NewWorkspace returns an empty workspace; its first pass sizes it.
func NewWorkspace() *Workspace { return &Workspace{} }

// Get returns a scratch tensor of the given shape, carved from the
// slab. Its Data has cap == len, so an append can never run into the
// next buffer. Contents are arbitrary.
func (w *Workspace) Get(shape ...int) *tensor.Tensor {
	if w.used == 0 && len(w.slab) < w.size {
		w.slab = make([]float64, w.size)
	}
	w.Gets++
	n := tensor.Numel(shape)
	w.need += n
	var data []float64
	if w.off+n <= len(w.slab) {
		data = w.slab[w.off : w.off+n : w.off+n]
		w.off += n
	} else {
		w.Misses++
		data = make([]float64, n)
	}
	if w.used == len(w.hdrs) {
		w.hdrs = append(w.hdrs, &tensor.Tensor{})
	}
	t := w.hdrs[w.used]
	w.used++
	t.Data = data
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Reset rewinds the slab: every buffer previously returned by Get
// becomes invalid for the caller. A pass that outgrew the slab has the
// next pass start on one sized to it.
func (w *Workspace) Reset() {
	w.Reserve(w.need)
	w.off, w.need, w.used = 0, 0, 0
}

// Reserve grows the slab to hold at least n elements from the next
// pass on, so any pass of up to n elements runs without a Miss.
func (w *Workspace) Reserve(n int) {
	if n > w.size {
		w.size = n
	}
}

// Size returns the slab's length in elements from the next pass on.
func (w *Workspace) Size() int { return w.size }

// ForwardWS runs the chain's eval-mode workspace path front to back.
func (s *Sequential) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	var err error
	for i, l := range s.layers {
		if x, err = l.ForwardWS(x, ws); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// ConcatChannelsWS concatenates two channel-major batched tensors
// along the channel (outermost) axis into a workspace buffer. Inputs
// must have identical shapes past the channel dim; ranks 4 ([C,T,H,W])
// and 5 ([C,N,T,H,W]) are accepted. Because channels are outermost,
// the result is the per-sample channel concatenation regardless of
// batch size.
func ConcatChannelsWS(ws *Workspace, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != b.Rank() || a.Rank() < 2 {
		return nil, fmt.Errorf("nn: concat needs equal-rank inputs, got %v and %v", a.Shape, b.Shape)
	}
	for i := 1; i < a.Rank(); i++ {
		if a.Shape[i] != b.Shape[i] {
			return nil, fmt.Errorf("nn: concat dims differ at axis %d: %v vs %v", i, a.Shape, b.Shape)
		}
	}
	shape := append([]int{a.Shape[0] + b.Shape[0]}, a.Shape[1:]...)
	out := ws.Get(shape...)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out, nil
}
