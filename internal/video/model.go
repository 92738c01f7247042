// Package video implements the video-classification (VC) module: the
// SlowFast two-pathway network the paper trains as its basic model,
// and the C3D and TSN baselines it compares against in Table IV. All
// models consume [1, T, H, W] occupancy-grid clips produced by the VP
// module and emit class logits.
package video

import (
	"fmt"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// Classifier is a trainable video classifier.
type Classifier interface {
	// Name identifies the architecture (e.g. "slowfast").
	Name() string
	// Forward maps a [1,T,H,W] clip to rank-1 class logits.
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	// Backward consumes the loss gradient with respect to the logits,
	// accumulating parameter gradients. Must follow a Forward call.
	Backward(dlogits *tensor.Tensor) error
	// Params returns all trainable parameters.
	Params() []*nn.Param
	// SetTrain toggles training-time behaviour (dropout etc.).
	SetTrain(train bool)
	// ForwardBatch maps n [1,T,H,W] clips to n rank-1 logit tensors,
	// bit-identical to calling the eval-mode Forward per clip, in one
	// pass (one im2col + one matmul per conv layer for the batch).
	// Scratch comes from ws, which must be owned by the calling
	// goroutine; the returned logits are fresh tensors that stay valid
	// after the workspace is reset or reused. With Name and SetTrain
	// it makes every Classifier an infer.Model.
	ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error)
}

// Builder constructs a fresh, randomly initialised classifier. MAML
// (internal/fewshot) uses builders to clone networks structurally.
type Builder func() (Classifier, error)

// sampleTemporal extracts every stride-th frame from a [C,T,H,W]
// tensor starting at offset, producing [C,T/stride,H,W]. It is the
// slow pathway's input subsampling (the paper's α ratio).
func sampleTemporal(x *tensor.Tensor, stride, offset int) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("video: temporal sample needs [C,T,H,W], got %v", x.Shape)
	}
	c, t, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if stride <= 0 || offset < 0 || offset >= stride {
		return nil, fmt.Errorf("video: bad temporal sampling stride=%d offset=%d", stride, offset)
	}
	if t%stride != 0 {
		return nil, fmt.Errorf("video: T=%d not divisible by stride %d", t, stride)
	}
	ot := t / stride
	out := tensor.New(c, ot, h, w)
	spat := h * w
	for ci := 0; ci < c; ci++ {
		for oz := 0; oz < ot; oz++ {
			src := x.Data[(ci*t+oz*stride+offset)*spat:]
			dst := out.Data[(ci*ot+oz)*spat:]
			copy(dst[:spat], src[:spat])
		}
	}
	return out, nil
}

// sampleTemporalBatch is sampleTemporal for a channel-major batch: it
// extracts every stride-th frame from a [C,N,T,H,W] tensor into a
// [C,N,T/stride,H,W] workspace buffer. Per sample it selects exactly
// the frames sampleTemporal would, so the batched slow pathway sees
// bit-identical inputs.
func sampleTemporalBatch(ws *nn.Workspace, x *tensor.Tensor, stride, offset int) (*tensor.Tensor, error) {
	if x.Rank() != 5 {
		return nil, fmt.Errorf("video: batched temporal sample needs [C,N,T,H,W], got %v", x.Shape)
	}
	c, n, t, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	if stride <= 0 || offset < 0 || offset >= stride {
		return nil, fmt.Errorf("video: bad temporal sampling stride=%d offset=%d", stride, offset)
	}
	if t%stride != 0 {
		return nil, fmt.Errorf("video: T=%d not divisible by stride %d", t, stride)
	}
	ot := t / stride
	out := ws.Get(c, n, ot, h, w)
	spat := h * w
	for p := 0; p < c*n; p++ {
		src := x.Data[p*t*spat:]
		dst := out.Data[p*ot*spat:]
		for oz := 0; oz < ot; oz++ {
			copy(dst[oz*spat:(oz+1)*spat], src[(oz*stride+offset)*spat:])
		}
	}
	return out, nil
}

// scatterTemporal is the adjoint of sampleTemporal: it places the
// gradient of the sampled frames back at their source time indices in
// a zero [C,T,H,W] tensor.
func scatterTemporal(dout *tensor.Tensor, t, stride, offset int) (*tensor.Tensor, error) {
	if dout.Rank() != 4 {
		return nil, fmt.Errorf("video: temporal scatter needs rank-4 grad, got %v", dout.Shape)
	}
	c, ot, h, w := dout.Shape[0], dout.Shape[1], dout.Shape[2], dout.Shape[3]
	if ot*stride != t {
		return nil, fmt.Errorf("video: scatter target T=%d incompatible with %d×%d", t, ot, stride)
	}
	out := tensor.New(c, t, h, w)
	spat := h * w
	for ci := 0; ci < c; ci++ {
		for oz := 0; oz < ot; oz++ {
			src := dout.Data[(ci*ot+oz)*spat:]
			dst := out.Data[(ci*t+oz*stride+offset)*spat:]
			copy(dst[:spat], src[:spat])
		}
	}
	return out, nil
}
