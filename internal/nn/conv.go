package nn

import (
	"fmt"
	"math/rand"

	"safecross/internal/tensor"
)

// Conv2D is a 2-D convolution over [C,H,W] inputs implemented with
// im2col + matmul. Weight layout is [OutC, InC*KH*KW].
type Conv2D struct {
	W, B *Param

	inC, outC      int
	kh, kw, sh, sw int
	ph, pw         int

	// train gates the backward caches: only a training-mode Forward
	// retains its im2col matrix. Eval-mode forwards (and replicas
	// parked on serving workers) hold no per-call state.
	train        bool
	cacheCols    *tensor.Tensor
	cacheInShape [3]int
}

var (
	_ Layer      = (*Conv2D)(nil)
	_ TrainAware = (*Conv2D)(nil)
)

// Conv2DConfig describes a Conv2D layer; zero strides default to 1.
type Conv2DConfig struct {
	InC, OutC int
	KH, KW    int
	SH, SW    int
	PH, PW    int
}

// NewConv2D creates a 2-D convolution with He-initialised weights.
func NewConv2D(name string, cfg Conv2DConfig, rng *rand.Rand) *Conv2D {
	if cfg.SH == 0 {
		cfg.SH = 1
	}
	if cfg.SW == 0 {
		cfg.SW = 1
	}
	fanIn := cfg.InC * cfg.KH * cfg.KW
	w := tensor.RandnTensor(rng, tensor.KaimingStd(fanIn), cfg.OutC, fanIn)
	return &Conv2D{
		W:    NewParam(name+".weight", w),
		B:    NewParam(name+".bias", tensor.New(cfg.OutC)),
		inC:  cfg.InC,
		outC: cfg.OutC,
		kh:   cfg.KH, kw: cfg.KW,
		sh: cfg.SH, sw: cfg.SW,
		ph: cfg.PH, pw: cfg.PW,
		train: true,
	}
}

// SetTrain toggles backward-cache retention. Leaving train mode drops
// the cached im2col matrix immediately, so an eval-only replica never
// pins its last input's scratch.
func (c *Conv2D) SetTrain(train bool) {
	c.train = train
	if !train {
		c.cacheCols = nil
	}
}

// Forward convolves a [InC,H,W] input into [OutC,OH,OW].
func (c *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Shape[0] != c.inC {
		return nil, fmt.Errorf("conv2d %s: input shape %v, want [%d,H,W]", c.W.Name, x.Shape, c.inC)
	}
	cols, err := tensor.Im2Col(x, c.kh, c.kw, c.sh, c.sw, c.ph, c.pw)
	if err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	if c.train {
		c.cacheCols = cols
		c.cacheInShape = [3]int{x.Shape[0], x.Shape[1], x.Shape[2]}
	}
	prod, err := tensor.MatMul(c.W.Value, cols)
	if err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	oh := tensor.ConvOutSize(x.Shape[1], c.kh, c.sh, c.ph)
	ow := tensor.ConvOutSize(x.Shape[2], c.kw, c.sw, c.pw)
	out := prod.MustReshape(c.outC, oh, ow)
	n := oh * ow
	for o := 0; o < c.outC; o++ {
		b := c.B.Value.Data[o]
		row := out.Data[o*n : (o+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	return out, nil
}

// Backward accumulates weight/bias gradients and returns the input
// gradient.
func (c *Conv2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cacheCols == nil {
		return nil, fmt.Errorf("conv2d %s: Backward without a train-mode Forward", c.W.Name)
	}
	n := c.cacheCols.Shape[1]
	if dout.Len() != c.outC*n {
		return nil, fmt.Errorf("conv2d %s: grad size %d, want %d", c.W.Name, dout.Len(), c.outC*n)
	}
	doutM := dout.MustReshape(c.outC, n)

	// dB: row sums of dout.
	for o := 0; o < c.outC; o++ {
		s := 0.0
		for _, v := range doutM.Data[o*n : (o+1)*n] {
			s += v
		}
		c.B.Grad.Data[o] += s
	}
	// dW = dout · colsᵀ.
	dw, err := tensor.MatMulTransB(doutM, c.cacheCols)
	if err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	if err := c.W.Grad.AddInPlace(dw); err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	// dcols = Wᵀ · dout, then scatter back to input space.
	dcols, err := tensor.MatMulTransA(c.W.Value, doutM)
	if err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	s := c.cacheInShape
	dx, err := tensor.Col2Im(dcols, s[0], s[1], s[2], c.kh, c.kw, c.sh, c.sw, c.ph, c.pw)
	if err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the column matrix and output
// come from ws, no backward cache is written, and a channel-major
// batched input [C,M,H,W] convolves all M samples with one im2col and
// one matmul, yielding [OutC,M,OH,OW].
func (c *Conv2D) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	m := 1
	var h, w int
	switch {
	case x.Rank() == 3 && x.Shape[0] == c.inC:
		h, w = x.Shape[1], x.Shape[2]
	case x.Rank() == 4 && x.Shape[0] == c.inC:
		m, h, w = x.Shape[1], x.Shape[2], x.Shape[3]
	default:
		return nil, fmt.Errorf("conv2d %s: input shape %v, want [%d,(M,)H,W]", c.W.Name, x.Shape, c.inC)
	}
	oh := tensor.ConvOutSize(h, c.kh, c.sh, c.ph)
	ow := tensor.ConvOutSize(w, c.kw, c.sw, c.pw)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv2d %s: kernel %dx%d too large for input %v", c.W.Name, c.kh, c.kw, x.Shape)
	}
	n := m * oh * ow
	cols := ws.Get(c.inC*c.kh*c.kw, n)
	if err := tensor.Im2ColBatchInto(cols, x, m, c.kh, c.kw, c.sh, c.sw, c.ph, c.pw); err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	out := ws.Get(c.outC, n)
	if err := tensor.MatMulInto(out, c.W.Value, cols); err != nil {
		return nil, fmt.Errorf("conv2d %s: %w", c.W.Name, err)
	}
	addBiasRows(out.Data, c.B.Value.Data, c.outC, n)
	if x.Rank() == 3 {
		out.Shape = append(out.Shape[:0], c.outC, oh, ow)
	} else {
		out.Shape = append(out.Shape[:0], c.outC, m, oh, ow)
	}
	return out, nil
}

// addBiasRows adds bias[o] to each of the rows rows of n contiguous
// output positions, fanning rows out over the kernel pool. The
// closure is built only when the job splits, keeping small inline
// kernels allocation-free.
func addBiasRows(data, bias []float64, rows, n int) {
	if tensor.ParallelChunks(rows, n) <= 1 {
		addBiasRowsChunk(data, bias, n, 0, rows)
		return
	}
	tensor.ParallelFor(rows, n, func(lo, hi int) {
		addBiasRowsChunk(data, bias, n, lo, hi)
	})
}

func addBiasRowsChunk(data, bias []float64, n, lo, hi int) {
	for o := lo; o < hi; o++ {
		b := bias[o]
		row := data[o*n : (o+1)*n]
		for i := range row {
			row[i] += b
		}
	}
}

// Params returns the weight and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Conv3D is a spatio-temporal convolution over [C,T,H,W] inputs, the
// building block of the SlowFast and C3D video classifiers. Weight
// layout is [OutC, InC*KT*KH*KW].
type Conv3D struct {
	W, B *Param

	inC, outC  int
	kt, kh, kw int
	st, sh, sw int
	pt, ph, pw int

	// train gates the backward caches exactly as in Conv2D.
	train        bool
	cacheCols    *tensor.Tensor
	cacheInShape [4]int
}

var (
	_ Layer      = (*Conv3D)(nil)
	_ TrainAware = (*Conv3D)(nil)
)

// Conv3DConfig describes a Conv3D layer; zero strides default to 1.
type Conv3DConfig struct {
	InC, OutC  int
	KT, KH, KW int
	ST, SH, SW int
	PT, PH, PW int
}

// NewConv3D creates a 3-D convolution with He-initialised weights.
func NewConv3D(name string, cfg Conv3DConfig, rng *rand.Rand) *Conv3D {
	if cfg.ST == 0 {
		cfg.ST = 1
	}
	if cfg.SH == 0 {
		cfg.SH = 1
	}
	if cfg.SW == 0 {
		cfg.SW = 1
	}
	fanIn := cfg.InC * cfg.KT * cfg.KH * cfg.KW
	w := tensor.RandnTensor(rng, tensor.KaimingStd(fanIn), cfg.OutC, fanIn)
	return &Conv3D{
		W:    NewParam(name+".weight", w),
		B:    NewParam(name+".bias", tensor.New(cfg.OutC)),
		inC:  cfg.InC,
		outC: cfg.OutC,
		kt:   cfg.KT, kh: cfg.KH, kw: cfg.KW,
		st: cfg.ST, sh: cfg.SH, sw: cfg.SW,
		pt: cfg.PT, ph: cfg.PH, pw: cfg.PW,
		train: true,
	}
}

// SetTrain toggles backward-cache retention; leaving train mode drops
// the cached im2col matrix immediately.
func (c *Conv3D) SetTrain(train bool) {
	c.train = train
	if !train {
		c.cacheCols = nil
	}
}

// Forward convolves a [InC,T,H,W] input into [OutC,OT,OH,OW].
func (c *Conv3D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Shape[0] != c.inC {
		return nil, fmt.Errorf("conv3d %s: input shape %v, want [%d,T,H,W]", c.W.Name, x.Shape, c.inC)
	}
	cols, err := tensor.Im2Col3D(x, c.kt, c.kh, c.kw, c.st, c.sh, c.sw, c.pt, c.ph, c.pw)
	if err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	if c.train {
		c.cacheCols = cols
		c.cacheInShape = [4]int{x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]}
	}
	prod, err := tensor.MatMul(c.W.Value, cols)
	if err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	ot := tensor.ConvOutSize(x.Shape[1], c.kt, c.st, c.pt)
	oh := tensor.ConvOutSize(x.Shape[2], c.kh, c.sh, c.ph)
	ow := tensor.ConvOutSize(x.Shape[3], c.kw, c.sw, c.pw)
	out := prod.MustReshape(c.outC, ot, oh, ow)
	n := ot * oh * ow
	for o := 0; o < c.outC; o++ {
		b := c.B.Value.Data[o]
		row := out.Data[o*n : (o+1)*n]
		for i := range row {
			row[i] += b
		}
	}
	return out, nil
}

// Backward accumulates weight/bias gradients and returns the input
// gradient.
func (c *Conv3D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if c.cacheCols == nil {
		return nil, fmt.Errorf("conv3d %s: Backward without a train-mode Forward", c.W.Name)
	}
	n := c.cacheCols.Shape[1]
	if dout.Len() != c.outC*n {
		return nil, fmt.Errorf("conv3d %s: grad size %d, want %d", c.W.Name, dout.Len(), c.outC*n)
	}
	doutM := dout.MustReshape(c.outC, n)

	for o := 0; o < c.outC; o++ {
		s := 0.0
		for _, v := range doutM.Data[o*n : (o+1)*n] {
			s += v
		}
		c.B.Grad.Data[o] += s
	}
	dw, err := tensor.MatMulTransB(doutM, c.cacheCols)
	if err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	if err := c.W.Grad.AddInPlace(dw); err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	dcols, err := tensor.MatMulTransA(c.W.Value, doutM)
	if err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	s := c.cacheInShape
	dx, err := tensor.Col2Im3D(dcols, s[0], s[1], s[2], s[3],
		c.kt, c.kh, c.kw, c.st, c.sh, c.sw, c.pt, c.ph, c.pw)
	if err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: scratch comes from ws, no
// backward cache is written, and a channel-major batched input
// [C,N,T,H,W] convolves all N volumes with one im2col and one matmul,
// yielding [OutC,N,OT,OH,OW].
func (c *Conv3D) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	bn := 1
	var t, h, w int
	switch {
	case x.Rank() == 4 && x.Shape[0] == c.inC:
		t, h, w = x.Shape[1], x.Shape[2], x.Shape[3]
	case x.Rank() == 5 && x.Shape[0] == c.inC:
		bn, t, h, w = x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	default:
		return nil, fmt.Errorf("conv3d %s: input shape %v, want [%d,(N,)T,H,W]", c.W.Name, x.Shape, c.inC)
	}
	ot := tensor.ConvOutSize(t, c.kt, c.st, c.pt)
	oh := tensor.ConvOutSize(h, c.kh, c.sh, c.ph)
	ow := tensor.ConvOutSize(w, c.kw, c.sw, c.pw)
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("conv3d %s: kernel %dx%dx%d too large for input %v", c.W.Name, c.kt, c.kh, c.kw, x.Shape)
	}
	n := bn * ot * oh * ow
	cols := ws.Get(c.inC*c.kt*c.kh*c.kw, n)
	if err := tensor.Im2Col3DBatchInto(cols, x, bn, c.kt, c.kh, c.kw, c.st, c.sh, c.sw, c.pt, c.ph, c.pw); err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	out := ws.Get(c.outC, n)
	if err := tensor.MatMulInto(out, c.W.Value, cols); err != nil {
		return nil, fmt.Errorf("conv3d %s: %w", c.W.Name, err)
	}
	addBiasRows(out.Data, c.B.Value.Data, c.outC, n)
	if x.Rank() == 4 {
		out.Shape = append(out.Shape[:0], c.outC, ot, oh, ow)
	} else {
		out.Shape = append(out.Shape[:0], c.outC, bn, ot, oh, ow)
	}
	return out, nil
}

// Params returns the weight and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// MaxPool2D is a 2-D max pooling layer over [C,H,W] inputs.
type MaxPool2D struct {
	// K and S are the square kernel size and stride.
	K, S int

	cacheArg     []int
	cacheInShape [3]int
}

var _ Layer = (*MaxPool2D)(nil)

// NewMaxPool2D creates a max-pool layer with kernel k and stride s.
func NewMaxPool2D(k, s int) *MaxPool2D { return &MaxPool2D{K: k, S: s} }

// Forward pools each channel plane, remembering argmax positions.
func (m *MaxPool2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 {
		return nil, fmt.Errorf("maxpool2d: input shape %v, want [C,H,W]", x.Shape)
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := tensor.ConvOutSize(h, m.K, m.S, 0)
	ow := tensor.ConvOutSize(w, m.K, m.S, 0)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("maxpool2d: kernel %d too large for input %v", m.K, x.Shape)
	}
	out := tensor.New(c, oh, ow)
	if cap(m.cacheArg) < out.Len() {
		m.cacheArg = make([]int, out.Len())
	}
	m.cacheArg = m.cacheArg[:out.Len()]
	m.cacheInShape = [3]int{c, h, w}
	for ci := 0; ci < c; ci++ {
		plane := x.Data[ci*h*w:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bestIdx := plane[(oy*m.S)*w+ox*m.S], (oy*m.S)*w+ox*m.S
				for ky := 0; ky < m.K; ky++ {
					iy := oy*m.S + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < m.K; kx++ {
						ix := ox*m.S + kx
						if ix >= w {
							break
						}
						if v := plane[iy*w+ix]; v > best {
							best, bestIdx = v, iy*w+ix
						}
					}
				}
				oi := (ci*oh+oy)*ow + ox
				out.Data[oi] = best
				m.cacheArg[oi] = ci*h*w + bestIdx
			}
		}
	}
	return out, nil
}

// Backward routes each gradient to the position that won the max.
func (m *MaxPool2D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if dout.Len() != len(m.cacheArg) {
		return nil, fmt.Errorf("maxpool2d: grad size %d, want %d", dout.Len(), len(m.cacheArg))
	}
	s := m.cacheInShape
	dx := tensor.New(s[0], s[1], s[2])
	for i, src := range m.cacheArg {
		dx.Data[src] += dout.Data[i]
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the output comes from ws and no
// argmax cache is written. A channel-major batched input [C,M,H,W]
// pools every sample plane, yielding [C,M,OH,OW].
func (m *MaxPool2D) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	bn := 1
	var c, h, w int
	switch x.Rank() {
	case 3:
		c, h, w = x.Shape[0], x.Shape[1], x.Shape[2]
	case 4:
		c, bn, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	default:
		return nil, fmt.Errorf("maxpool2d: input shape %v, want [C,(M,)H,W]", x.Shape)
	}
	oh := tensor.ConvOutSize(h, m.K, m.S, 0)
	ow := tensor.ConvOutSize(w, m.K, m.S, 0)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("maxpool2d: kernel %d too large for input %v", m.K, x.Shape)
	}
	var out *tensor.Tensor
	if x.Rank() == 3 {
		out = ws.Get(c, oh, ow)
	} else {
		out = ws.Get(c, bn, oh, ow)
	}
	planes := c * bn
	if tensor.ParallelChunks(planes, oh*ow*m.K*m.K) <= 1 {
		maxPoolPlanes(out.Data, x.Data, h, w, oh, ow, m.K, m.S, 0, planes)
	} else {
		tensor.ParallelFor(planes, oh*ow*m.K*m.K, func(lo, hi int) {
			maxPoolPlanes(out.Data, x.Data, h, w, oh, ow, m.K, m.S, lo, hi)
		})
	}
	return out, nil
}

// maxPoolPlanes pools planes [lo, hi) — the chunk body of the
// MaxPool2D eval forward.
func maxPoolPlanes(outData, xData []float64, h, w, oh, ow, k, s, lo, hi int) {
	for pi := lo; pi < hi; pi++ {
		plane := xData[pi*h*w:]
		dst := outData[pi*oh*ow:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := plane[(oy*s)*w+ox*s]
				for ky := 0; ky < k; ky++ {
					iy := oy*s + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s + kx
						if ix >= w {
							break
						}
						if v := plane[iy*w+ix]; v > best {
							best = v
						}
					}
				}
				dst[oy*ow+ox] = best
			}
		}
	}
}

// Params returns nil; pooling has no parameters.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool3D reduces a [C,T,H,W] tensor to a rank-1 [C] vector by
// averaging over all spatio-temporal positions. It is the final
// pooling stage of the video classifiers.
type GlobalAvgPool3D struct {
	cacheInShape [4]int
}

var _ Layer = (*GlobalAvgPool3D)(nil)

// NewGlobalAvgPool3D returns a global average-pooling layer.
func NewGlobalAvgPool3D() *GlobalAvgPool3D { return &GlobalAvgPool3D{} }

// Forward averages each channel volume to a single value.
func (g *GlobalAvgPool3D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("gap3d: input shape %v, want [C,T,H,W]", x.Shape)
	}
	c := x.Shape[0]
	vol := x.Shape[1] * x.Shape[2] * x.Shape[3]
	g.cacheInShape = [4]int{x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]}
	out := tensor.New(c)
	for ci := 0; ci < c; ci++ {
		s := 0.0
		for _, v := range x.Data[ci*vol : (ci+1)*vol] {
			s += v
		}
		out.Data[ci] = s / float64(vol)
	}
	return out, nil
}

// Backward spreads each channel gradient uniformly over its volume.
func (g *GlobalAvgPool3D) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	s := g.cacheInShape
	if dout.Len() != s[0] {
		return nil, fmt.Errorf("gap3d: grad size %d, want %d", dout.Len(), s[0])
	}
	vol := s[1] * s[2] * s[3]
	dx := tensor.New(s[0], s[1], s[2], s[3])
	inv := 1 / float64(vol)
	for ci := 0; ci < s[0]; ci++ {
		gv := dout.Data[ci] * inv
		row := dx.Data[ci*vol : (ci+1)*vol]
		for i := range row {
			row[i] = gv
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward. A channel-major batched input
// [C,N,T,H,W] reduces to a [N,C] feature matrix (one feature row per
// sample, ready for a batched Linear); a single [C,T,H,W] volume
// yields [1,C]. Each feature sums its volume in ascending order, so
// values are bit-identical to Forward.
func (g *GlobalAvgPool3D) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	bn := 1
	var c, vol int
	switch x.Rank() {
	case 4:
		c, vol = x.Shape[0], x.Shape[1]*x.Shape[2]*x.Shape[3]
	case 5:
		c, bn, vol = x.Shape[0], x.Shape[1], x.Shape[2]*x.Shape[3]*x.Shape[4]
	default:
		return nil, fmt.Errorf("gap3d: input shape %v, want [C,(N,)T,H,W]", x.Shape)
	}
	out := ws.Get(bn, c)
	if tensor.ParallelChunks(c*bn, vol) <= 1 {
		gapPlanes(out.Data, x.Data, c, bn, vol, 0, c*bn)
	} else {
		tensor.ParallelFor(c*bn, vol, func(lo, hi int) {
			gapPlanes(out.Data, x.Data, c, bn, vol, lo, hi)
		})
	}
	return out, nil
}

// gapPlanes averages planes [lo, hi) — the chunk body of the
// GlobalAvgPool3D eval forward.
func gapPlanes(outData, xData []float64, c, bn, vol, lo, hi int) {
	fvol := float64(vol)
	for pi := lo; pi < hi; pi++ {
		ci, ni := pi/bn, pi%bn
		s := 0.0
		for _, v := range xData[pi*vol : (pi+1)*vol] {
			s += v
		}
		outData[ni*c+ci] = s / fvol
	}
}

// Params returns nil; pooling has no parameters.
func (g *GlobalAvgPool3D) Params() []*Param { return nil }

// TemporalAvgPool averages a [C,T,H,W] tensor over the time axis with
// a given stride/kernel, producing [C,T/k,H,W]. TSN-style consensus
// and the fast→slow lateral reduction use it.
type TemporalAvgPool struct {
	// K is the temporal kernel (and stride): non-overlapping windows.
	K int

	cacheInShape [4]int
}

var _ Layer = (*TemporalAvgPool)(nil)

// NewTemporalAvgPool creates a temporal average pool with window k.
func NewTemporalAvgPool(k int) *TemporalAvgPool { return &TemporalAvgPool{K: k} }

// Forward averages non-overlapping windows of K frames.
func (p *TemporalAvgPool) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tpool: input shape %v, want [C,T,H,W]", x.Shape)
	}
	c, t, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if p.K <= 0 || t%p.K != 0 {
		return nil, fmt.Errorf("tpool: T=%d not divisible by window %d", t, p.K)
	}
	p.cacheInShape = [4]int{c, t, h, w}
	ot := t / p.K
	out := tensor.New(c, ot, h, w)
	spat := h * w
	inv := 1 / float64(p.K)
	for ci := 0; ci < c; ci++ {
		for oz := 0; oz < ot; oz++ {
			dst := out.Data[(ci*ot+oz)*spat : (ci*ot+oz+1)*spat]
			for k := 0; k < p.K; k++ {
				src := x.Data[(ci*t+oz*p.K+k)*spat:]
				for i := range dst {
					dst[i] += src[i]
				}
			}
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
	return out, nil
}

// Backward spreads gradients uniformly over each pooled window.
func (p *TemporalAvgPool) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	s := p.cacheInShape
	c, t, h, w := s[0], s[1], s[2], s[3]
	ot := t / p.K
	if dout.Len() != c*ot*h*w {
		return nil, fmt.Errorf("tpool: grad size %d, want %d", dout.Len(), c*ot*h*w)
	}
	dx := tensor.New(c, t, h, w)
	spat := h * w
	inv := 1 / float64(p.K)
	for ci := 0; ci < c; ci++ {
		for oz := 0; oz < ot; oz++ {
			src := dout.Data[(ci*ot+oz)*spat : (ci*ot+oz+1)*spat]
			for k := 0; k < p.K; k++ {
				dst := dx.Data[(ci*t+oz*p.K+k)*spat:]
				for i, v := range src {
					dst[i] = v * inv
				}
			}
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward. A channel-major batched input
// [C,N,T,H,W] pools every sample's time axis, yielding [C,N,T/K,H,W].
func (p *TemporalAvgPool) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	bn := 1
	var c, t, h, w int
	switch x.Rank() {
	case 4:
		c, t, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	case 5:
		c, bn, t, h, w = x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	default:
		return nil, fmt.Errorf("tpool: input shape %v, want [C,(N,)T,H,W]", x.Shape)
	}
	if p.K <= 0 || t%p.K != 0 {
		return nil, fmt.Errorf("tpool: T=%d not divisible by window %d", t, p.K)
	}
	ot := t / p.K
	var out *tensor.Tensor
	if x.Rank() == 4 {
		out = ws.Get(c, ot, h, w)
	} else {
		out = ws.Get(c, bn, ot, h, w)
	}
	spat := h * w
	if tensor.ParallelChunks(c*bn, ot*spat*p.K) <= 1 {
		tpoolPlanes(out.Data, x.Data, t, ot, spat, p.K, 0, c*bn)
	} else {
		tensor.ParallelFor(c*bn, ot*spat*p.K, func(lo, hi int) {
			tpoolPlanes(out.Data, x.Data, t, ot, spat, p.K, lo, hi)
		})
	}
	return out, nil
}

// tpoolPlanes averages temporal windows for planes [lo, hi) — the
// chunk body of the TemporalAvgPool eval forward.
func tpoolPlanes(outData, xData []float64, t, ot, spat, k, lo, hi int) {
	inv := 1 / float64(k)
	for pi := lo; pi < hi; pi++ {
		src := xData[pi*t*spat:]
		for oz := 0; oz < ot; oz++ {
			dst := outData[pi*ot*spat+oz*spat : pi*ot*spat+(oz+1)*spat]
			for i := range dst {
				dst[i] = 0
			}
			for kk := 0; kk < k; kk++ {
				win := src[(oz*k+kk)*spat:]
				for i := range dst {
					dst[i] += win[i]
				}
			}
			for i := range dst {
				dst[i] *= inv
			}
		}
	}
}

// Params returns nil; pooling has no parameters.
func (p *TemporalAvgPool) Params() []*Param { return nil }
