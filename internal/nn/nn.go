// Package nn implements the small neural-network stack that SafeCross
// trains its video classifiers with: layers with explicit
// forward/backward passes, softmax cross-entropy loss, SGD and Adam
// optimizers, and gob-based weight serialization.
//
// The design is layer-based backpropagation rather than a general
// autograd graph: each Layer caches what its backward pass needs
// during Forward and accumulates parameter gradients during Backward.
// Models that are not simple chains (e.g. the two-pathway SlowFast
// network in internal/video) compose layers manually.
//
// All parameters are identified by name so that weights can be copied
// between structurally identical networks — the mechanism MAML
// (internal/fewshot) uses for its inner-loop adaptation.
package nn

import (
	"fmt"
	"math"

	"safecross/internal/tensor"
)

// Param is a trainable parameter: a value tensor and its accumulated
// gradient. Gradients accumulate across Backward calls until ZeroGrad.
type Param struct {
	// Name identifies the parameter within its network, e.g.
	// "fast.conv1.weight". Names must be unique per network for
	// state-dict round trips.
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a named parameter with a zero gradient of the
// same shape as value.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape...),
	}
}

// Layer is a differentiable computation stage. Forward must be called
// before Backward; Backward consumes the gradient of the loss with
// respect to the layer output and returns the gradient with respect to
// the layer input, accumulating parameter gradients along the way.
//
// ForwardWS is the allocation-disciplined eval-only pass: scratch and
// output buffers come from ws, no training caches are written, and
// train-time behaviour (dropout) is the identity. Where Forward takes
// [C,...] ForwardWS also accepts channel-major batches [C,N,...] with
// the batch axis second, processing N samples in one pass (one im2col
// + one matmul for the conv layers). Rank disambiguates; a
// single-sample input gives Forward's output bit for bit.
type Layer interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error)
	Backward(dout *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
}

// TrainAware is implemented by layers whose behaviour differs between
// training and evaluation (e.g. Dropout).
type TrainAware interface {
	SetTrain(train bool)
}

// Sequential chains layers, feeding each layer's output to the next.
type Sequential struct {
	layers []Layer
}

var _ Layer = (*Sequential)(nil)

// NewSequential builds a chain from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{layers: layers}
}

// Append adds layers to the end of the chain.
func (s *Sequential) Append(layers ...Layer) { s.layers = append(s.layers, layers...) }

// Len returns the number of layers in the chain.
func (s *Sequential) Len() int { return len(s.layers) }

// Forward runs the chain front to back.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i, l := range s.layers {
		if x, err = l.Forward(x); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// Backward runs the chain back to front.
func (s *Sequential) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.layers) - 1; i >= 0; i-- {
		if dout, err = s.layers[i].Backward(dout); err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return dout, nil
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// SetTrain propagates the training flag to all train-aware layers.
func (s *Sequential) SetTrain(train bool) {
	for _, l := range s.layers {
		if ta, ok := l.(TrainAware); ok {
			ta.SetTrain(train)
		}
	}
}

// ZeroGrad clears the gradients of all given parameters.
func ZeroGrad(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// ScaleGrads multiplies all gradients by s; used to average gradients
// accumulated over a minibatch.
func ScaleGrads(params []*Param, s float64) {
	for _, p := range params {
		p.Grad.Scale(s)
	}
}

// ClipGradNorm rescales gradients so their global L2 norm does not
// exceed maxNorm, and returns the pre-clip norm. A non-positive
// maxNorm disables clipping.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	total := 0.0
	for _, p := range params {
		n := p.Grad.Norm2()
		total += n * n
	}
	norm := math.Sqrt(total)
	if maxNorm > 0 && norm > maxNorm {
		scale := maxNorm / norm
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// ParamCount returns the total number of scalar weights across params.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.Value.Len()
	}
	return n
}

// CopyParams copies values from src into dst, matching by position.
// The parameter lists must come from structurally identical networks.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: param count mismatch %d vs %d", len(dst), len(src))
	}
	for i, d := range dst {
		if err := d.Value.CopyFrom(src[i].Value); err != nil {
			return fmt.Errorf("nn: param %q: %w", d.Name, err)
		}
	}
	return nil
}
