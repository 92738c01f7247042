// Package infer is the inference engine the serving plane runs
// models through: the video classifiers (SlowFast/C3D/TSN), and the
// MAML-adapted few-shot models built on them, implement one contract —
// Model — and all eval-path scratch memory comes from the caller's
// nn.Workspace. A serving worker owns one workspace for its whole life
// (see internal/serve).
//
// The engine owns uniform batch validation, eval-mode switching,
// batched forward dispatch, and argmax decoding. A model only provides
// ForwardBatch.
package infer

import (
	"fmt"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// Model is the engine contract. Every served model implements it, so
// the serving plane dispatches any scene's model from the same worker
// pool without knowing its architecture.
type Model interface {
	// Name identifies the model in errors and metrics.
	Name() string
	// ForwardBatch maps n equally-shaped inputs to n logit tensors in
	// input order, bit-identical to running the eval-mode single-input
	// forward per sample. Scratch comes from ws, which must be owned by
	// the calling goroutine for the duration of the call; the returned
	// logits are fresh tensors that stay valid after ws is reset.
	ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error)
	// SetTrain toggles training behaviour; the engine always calls
	// SetTrain(false) before an eval forward.
	SetTrain(train bool)
}

// ValidateBatch checks a batch up front: non-empty, no nil inputs, and
// one shape across the batch, so a malformed input is reported by
// index instead of surfacing mid-batch as a bare layer error. Shape
// semantics beyond uniformity (rank, channel count) belong to the
// model.
func ValidateBatch(xs []*tensor.Tensor) error {
	if len(xs) == 0 {
		return fmt.Errorf("infer: empty batch")
	}
	for i, x := range xs {
		if x == nil {
			return fmt.Errorf("infer: input %d is nil", i)
		}
		for ax := range x.Shape {
			if len(x.Shape) != len(xs[0].Shape) || x.Shape[ax] != xs[0].Shape[ax] {
				return fmt.Errorf("infer: input %d has shape %v, want %v like input 0", i, x.Shape, xs[0].Shape)
			}
		}
	}
	return nil
}

// PredictBatch runs one eval-mode batched forward and decodes each
// output to its argmax label, in input order. Scratch comes from ws; a
// nil ws is replaced by a throwaway workspace, so only long-lived
// callers that pass one (serving workers, benchmark loops) reach
// steady-state zero allocation inside the model.
func PredictBatch(m Model, xs []*tensor.Tensor, ws *nn.Workspace) ([]int, error) {
	if err := ValidateBatch(xs); err != nil {
		return nil, err
	}
	m.SetTrain(false)
	if ws == nil {
		ws = nn.NewWorkspace()
	}
	logits, err := m.ForwardBatch(xs, ws)
	if err != nil {
		return nil, fmt.Errorf("infer: %s batched forward: %w", m.Name(), err)
	}
	if len(logits) != len(xs) {
		return nil, fmt.Errorf("infer: %s returned %d outputs for %d inputs", m.Name(), len(logits), len(xs))
	}
	labels := make([]int, len(logits))
	for i, l := range logits {
		labels[i] = nn.Predict(l)
	}
	return labels, nil
}
