package detect

import (
	"math"

	"safecross/internal/dataset"
	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// Presence lifts a trained Yolite onto the serving plane's engine
// contract: each [1,H,W] frame tensor maps to two-class logits over
// {danger, safe}, where a vehicle anywhere in frame — peak cell
// objectness at or above the detector's threshold — reads as danger.
// This is what lets detector workloads ride the same workers, batcher,
// and per-worker workspaces as the video classifiers: the engine only
// sees infer.Model.
type Presence struct {
	y *Yolite
}

var _ infer.Model = (*Presence)(nil)

// NewPresence wraps a detector for serving.
func NewPresence(y *Yolite) *Presence { return &Presence{y: y} }

// Name identifies the served detector.
func (p *Presence) Name() string { return p.y.Name() + "-presence" }

// SetTrain forwards to the detector network.
func (p *Presence) SetTrain(train bool) { p.y.SetTrain(train) }

// ForwardBatch scores n frames in one stacked detector pass and folds
// each cell-logit map to presence logits: the margin between the peak
// objectness probability and the threshold, signed so that argmax
// decoding yields ClassDanger exactly when a vehicle clears the
// threshold.
func (p *Presence) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	maps, err := p.y.ForwardBatch(xs, ws)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Tensor, len(maps))
	for i, m := range maps {
		peak := math.Inf(-1)
		for _, z := range m.Data {
			if z > peak {
				peak = z
			}
		}
		prob := 1 / (1 + math.Exp(-peak))
		l := tensor.New(dataset.NumClasses)
		l.Data[dataset.ClassDanger] = prob - p.y.Threshold
		l.Data[dataset.ClassSafe] = p.y.Threshold - prob
		out[i] = l
	}
	return out, nil
}
