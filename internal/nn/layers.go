package nn

import (
	"fmt"
	"math/rand"

	"safecross/internal/tensor"
)

// Linear is a fully connected layer computing y = W·x + b on rank-1
// inputs.
type Linear struct {
	// W has shape [Out, In]; B has shape [Out].
	W, B *Param

	in, out int
	cacheX  *tensor.Tensor
}

var _ Layer = (*Linear)(nil)

// NewLinear creates a fully connected layer with He-initialised
// weights drawn from rng. The name prefixes the parameter names.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := tensor.RandnTensor(rng, tensor.KaimingStd(in), out, in)
	return &Linear{
		W:   NewParam(name+".weight", w),
		B:   NewParam(name+".bias", tensor.New(out)),
		in:  in,
		out: out,
	}
}

// Forward computes W·x + b for a rank-1 input of length In.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Len() != l.in {
		return nil, fmt.Errorf("linear %s: input length %d, want %d", l.W.Name, x.Len(), l.in)
	}
	l.cacheX = x
	y := tensor.New(l.out)
	for o := 0; o < l.out; o++ {
		row := l.W.Value.Data[o*l.in : (o+1)*l.in]
		s := l.B.Value.Data[o]
		for i, xv := range x.Data {
			s += row[i] * xv
		}
		y.Data[o] = s
	}
	return y, nil
}

// Backward accumulates dW = dout⊗x and dB = dout, and returns
// dx = Wᵀ·dout.
func (l *Linear) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if dout.Len() != l.out {
		return nil, fmt.Errorf("linear %s: grad length %d, want %d", l.W.Name, dout.Len(), l.out)
	}
	if l.cacheX == nil {
		return nil, fmt.Errorf("linear %s: Backward before Forward", l.W.Name)
	}
	dx := tensor.New(l.in)
	for o := 0; o < l.out; o++ {
		g := dout.Data[o]
		l.B.Grad.Data[o] += g
		wrow := l.W.Value.Data[o*l.in : (o+1)*l.in]
		grow := l.W.Grad.Data[o*l.in : (o+1)*l.in]
		for i, xv := range l.cacheX.Data {
			grow[i] += g * xv
			dx.Data[i] += g * wrow[i]
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the output comes from ws and no
// input cache is retained. A rank-2 [N,In] input is treated as a batch
// of N feature rows, yielding [N,Out]; each row seeds its accumulator
// with the bias and sums features in ascending order, exactly like
// Forward, so logits are bit-identical to the per-sample path.
func (l *Linear) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	m := 1
	switch {
	case x.Rank() == 2 && x.Shape[1] == l.in:
		m = x.Shape[0]
	case x.Rank() != 2 && x.Len() == l.in:
	default:
		return nil, fmt.Errorf("linear %s: input shape %v, want [(N,)%d]", l.W.Name, x.Shape, l.in)
	}
	var out *tensor.Tensor
	if x.Rank() == 2 {
		out = ws.Get(m, l.out)
	} else {
		out = ws.Get(l.out)
	}
	if tensor.ParallelChunks(m, 2*l.in*l.out) <= 1 {
		linearRows(out.Data, x.Data, l.W.Value.Data, l.B.Value.Data, l.in, l.out, 0, m)
	} else {
		tensor.ParallelFor(m, 2*l.in*l.out, func(lo, hi int) {
			linearRows(out.Data, x.Data, l.W.Value.Data, l.B.Value.Data, l.in, l.out, lo, hi)
		})
	}
	return out, nil
}

// linearRows computes output rows [lo, hi) — the chunk body of the
// Linear eval forward.
func linearRows(outData, xData, w, b []float64, in, outDim, lo, hi int) {
	for mi := lo; mi < hi; mi++ {
		xrow := xData[mi*in : (mi+1)*in]
		orow := outData[mi*outDim : (mi+1)*outDim]
		for o := 0; o < outDim; o++ {
			wrow := w[o*in : (o+1)*in]
			s := b[o]
			for i, xv := range xrow {
				s += wrow[i] * xv
			}
			orow[o] = s
		}
	}
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements and remembers which survived.
func (r *ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		pass := v > 0
		r.mask[i] = pass
		if pass {
			out.Data[i] = v
		}
	}
	return out, nil
}

// Backward passes gradients only through positions that were positive.
func (r *ReLU) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if len(dout.Data) != len(r.mask) {
		return nil, fmt.Errorf("relu: grad length %d, want %d", len(dout.Data), len(r.mask))
	}
	dx := tensor.New(dout.Shape...)
	for i, pass := range r.mask {
		if pass {
			dx.Data[i] = dout.Data[i]
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the output comes from ws and no
// backward mask is written. Shape-agnostic, so batched channel-major
// inputs pass through unchanged in layout.
func (r *ReLU) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	out := ws.Get(x.Shape...)
	if tensor.ParallelChunks(len(x.Data), 1) <= 1 {
		reluChunk(out.Data, x.Data, 0, len(x.Data))
	} else {
		tensor.ParallelFor(len(x.Data), 1, func(lo, hi int) {
			reluChunk(out.Data, x.Data, lo, hi)
		})
	}
	return out, nil
}

// reluChunk clamps elements [lo, hi) — the chunk body of the ReLU
// eval forward.
func reluChunk(outData, xData []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := xData[i]; v > 0 {
			outData[i] = v
		} else {
			outData[i] = 0
		}
	}
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Flatten reshapes any input to a rank-1 vector and restores the shape
// on the way back.
type Flatten struct {
	cacheShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens x to rank 1.
func (f *Flatten) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	f.cacheShape = append(f.cacheShape[:0], x.Shape...)
	return x.Reshape(x.Len())
}

// Backward restores the original input shape.
func (f *Flatten) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	return dout.Reshape(f.cacheShape...)
}

// ForwardWS is the eval-mode forward. A rank-4 channel-major batched
// input [C,M,H,W] gathers into an [M, C*H*W] feature matrix whose
// per-sample feature order matches the single-sample flatten (channel
// index outermost). Any other rank is a single sample and flattens to
// rank 1, like Forward.
func (f *Flatten) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		out := ws.Get(x.Len())
		copy(out.Data, x.Data)
		return out, nil
	}
	c, m := x.Shape[0], x.Shape[1]
	vol := x.Shape[2] * x.Shape[3]
	feat := c * vol
	out := ws.Get(m, feat)
	if tensor.ParallelChunks(m, feat) <= 1 {
		flattenRows(out.Data, x.Data, c, m, vol, feat, 0, m)
	} else {
		tensor.ParallelFor(m, feat, func(lo, hi int) {
			flattenRows(out.Data, x.Data, c, m, vol, feat, lo, hi)
		})
	}
	return out, nil
}

// flattenRows de-interleaves samples [lo, hi) from channel-major to
// sample-major — the chunk body of the Flatten eval forward.
func flattenRows(outData, xData []float64, c, m, vol, feat, lo, hi int) {
	for mi := lo; mi < hi; mi++ {
		dst := outData[mi*feat:]
		for ci := 0; ci < c; ci++ {
			copy(dst[ci*vol:(ci+1)*vol], xData[(ci*m+mi)*vol:])
		}
	}
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }
