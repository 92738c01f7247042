package video

import (
	"bytes"
	"fmt"

	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// Engine returns a Classifier as the unified engine contract
// (infer.Model): every Classifier already is one.
func Engine(c Classifier) infer.Model { return c }

// validateClips checks the whole batch up front: every clip must be a
// rank-4 [1,T,H,W] tensor and all clips must share one shape, so a
// malformed clip is reported by index instead of surfacing mid-batch
// as a bare layer error.
func validateClips(clips []*tensor.Tensor) error {
	if len(clips) == 0 {
		return fmt.Errorf("video: empty batch")
	}
	for i, c := range clips {
		if c == nil {
			return fmt.Errorf("video: clip %d is nil", i)
		}
		if c.Rank() != 4 || c.Shape[0] != 1 {
			return fmt.Errorf("video: clip %d has shape %v, want [1,T,H,W]", i, c.Shape)
		}
		for ax := range c.Shape {
			if c.Shape[ax] != clips[0].Shape[ax] {
				return fmt.Errorf("video: clip %d has shape %v, want %v like clip 0", i, c.Shape, clips[0].Shape)
			}
		}
	}
	return nil
}

// stackClips copies n validated [1,T,H,W] clips into one channel-major
// [1,N,T,H,W] workspace tensor. With a single input channel the stack
// is a straight concatenation: clip i occupies the i-th T·H·W block.
func stackClips(ws *nn.Workspace, clips []*tensor.Tensor) *tensor.Tensor {
	n := len(clips)
	t, h, w := clips[0].Shape[1], clips[0].Shape[2], clips[0].Shape[3]
	x := ws.Get(1, n, t, h, w)
	vol := t * h * w
	for i, c := range clips {
		copy(x.Data[i*vol:(i+1)*vol], c.Data)
	}
	return x
}

// PredictBatch classifies a batch of clips with one eval-mode model,
// returning the predicted label per clip in input order. Clip shapes
// are validated up front (errors name the offending clip index); the
// forward itself runs through the unified engine (infer.PredictBatch),
// so scratch memory comes from ws and a long-lived caller passing the
// same workspace reaches steady-state zero allocation inside the
// model. A nil ws is replaced by a throwaway workspace.
func PredictBatch(m Classifier, clips []*tensor.Tensor, ws *nn.Workspace) ([]int, error) {
	if err := validateClips(clips); err != nil {
		return nil, err
	}
	return infer.PredictBatch(m, clips, ws)
}

// splitLogits copies an [N,Classes] batched logit matrix into n fresh
// rank-1 tensors, one per clip, detaching the results from the
// workspace that produced them.
func splitLogits(batched *tensor.Tensor, n int) []*tensor.Tensor {
	classes := batched.Shape[1]
	out := make([]*tensor.Tensor, n)
	for i := range out {
		l := tensor.New(classes)
		copy(l.Data, batched.Data[i*classes:(i+1)*classes])
		out[i] = l
	}
	return out
}

// CloneWeights builds a fresh classifier from the builder and copies
// the source model's parameters into it. The serving layer uses it to
// give every worker a private replica of each trained scene model, so
// concurrent workers never share mutable forward-pass state.
func CloneWeights(b Builder, src Classifier) (Classifier, error) {
	dst, err := b()
	if err != nil {
		return nil, fmt.Errorf("video: clone build: %w", err)
	}
	var buf bytes.Buffer
	if err := nn.SaveState(&buf, src.Params()); err != nil {
		return nil, fmt.Errorf("video: clone save: %w", err)
	}
	if err := nn.LoadState(&buf, dst.Params()); err != nil {
		return nil, fmt.Errorf("video: clone load: %w", err)
	}
	return dst, nil
}
