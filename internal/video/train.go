package video

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// TrainConfig controls classifier training.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the number of clips whose gradients are averaged
	// per optimizer step (default 8).
	BatchSize int
	// LR is the Adam learning rate (default 0.004).
	LR float64
	// ClipGrad caps the global gradient norm (0 disables; default 5).
	ClipGrad float64
	// Seed drives shuffling.
	Seed int64
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
	// CosineLR anneals the learning rate from LR to ≈0 over the run
	// with a half-cosine schedule.
	CosineLR bool
	// LabelSmoothing spreads this much target mass uniformly over the
	// classes (0 disables).
	LabelSmoothing float64
	// Val, when non-empty, enables early stopping: training halts
	// after Patience epochs without a validation Top-1 improvement.
	Val []*dataset.Clip
	// Patience is the early-stopping window (default 3 when Val set).
	Patience int
}

// fill applies defaults.
func (c TrainConfig) fill() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 6
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.LR == 0 {
		c.LR = 0.004
	}
	if c.ClipGrad == 0 {
		c.ClipGrad = 5
	}
	if len(c.Val) > 0 && c.Patience == 0 {
		c.Patience = 3
	}
	return c
}

// TrainResult summarises a training run.
type TrainResult struct {
	// Epochs actually run.
	Epochs int
	// FinalLoss is the mean training loss of the last epoch.
	FinalLoss float64
	// Steps is the number of optimizer steps taken.
	Steps int
	// EarlyStopped reports whether validation patience ended the run.
	EarlyStopped bool
}

// stepTrainer is implemented by classifiers (TSN) whose backward pass
// must be interleaved with per-snippet forwards; the harness prefers
// it over the generic Forward/Backward split when available.
type stepTrainer interface {
	lossAndGrad(x *tensor.Tensor, label int) (float64, *tensor.Tensor, error)
}

// exampleStep runs forward+loss+backward for one clip, accumulating
// parameter gradients, and returns the loss.
func exampleStep(m Classifier, x *tensor.Tensor, label int, smoothing float64) (float64, error) {
	if st, ok := m.(stepTrainer); ok {
		loss, _, err := st.lossAndGrad(x, label)
		return loss, err
	}
	logits, err := m.Forward(x)
	if err != nil {
		return 0, err
	}
	loss, dlogits, err := nn.SoftmaxCrossEntropySmoothed(logits, label, smoothing)
	if err != nil {
		return 0, err
	}
	if err := m.Backward(dlogits); err != nil {
		return 0, err
	}
	return loss, nil
}

// Train fits the classifier on the given clips with Adam, shuffling
// each epoch and averaging gradients over minibatches.
func Train(m Classifier, clips []*dataset.Clip, cfg TrainConfig) (*TrainResult, error) {
	if len(clips) == 0 {
		return nil, fmt.Errorf("video: no training clips")
	}
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	params := m.Params()
	m.SetTrain(true)
	defer m.SetTrain(false)

	order := make([]int, len(clips))
	for i := range order {
		order[i] = i
	}

	res := &TrainResult{Epochs: cfg.Epochs}
	bestVal := -1.0
	sinceBest := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.CosineLR {
			// Half-cosine anneal from LR toward zero.
			frac := float64(epoch) / float64(cfg.Epochs)
			opt.LR = cfg.LR * 0.5 * (1 + math.Cos(math.Pi*frac))
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		nn.ZeroGrad(params)
		inBatch := 0
		for n, idx := range order {
			clip := clips[idx]
			loss, err := exampleStep(m, clip.Input, clip.Label, cfg.LabelSmoothing)
			if err != nil {
				return nil, fmt.Errorf("video: train %s epoch %d clip %d: %w", m.Name(), epoch, idx, err)
			}
			epochLoss += loss
			inBatch++
			if inBatch == cfg.BatchSize || n == len(order)-1 {
				nn.ScaleGrads(params, 1/float64(inBatch))
				nn.ClipGradNorm(params, cfg.ClipGrad)
				if err := opt.Step(params); err != nil {
					return nil, fmt.Errorf("video: optimizer: %w", err)
				}
				nn.ZeroGrad(params)
				inBatch = 0
				res.Steps++
			}
		}
		res.FinalLoss = epochLoss / float64(len(order))
		res.Epochs = epoch + 1
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %d/%d loss %.4f\n", m.Name(), epoch+1, cfg.Epochs, res.FinalLoss)
		}
		if len(cfg.Val) > 0 {
			cm, err := Evaluate(m, cfg.Val)
			if err != nil {
				return nil, fmt.Errorf("video: validation: %w", err)
			}
			m.SetTrain(true) // Evaluate leaves eval mode on
			if acc := cm.Top1(); acc > bestVal {
				bestVal = acc
				sinceBest = 0
			} else {
				sinceBest++
				if sinceBest >= cfg.Patience {
					res.EarlyStopped = true
					if cfg.Log != nil {
						fmt.Fprintf(cfg.Log, "%s early stop at epoch %d (best val %.4f)\n", m.Name(), epoch+1, bestVal)
					}
					break
				}
			}
		}
	}
	return res, nil
}

// evalChunk caps how many clips one batched eval forward carries:
// large enough to amortise the per-batch im2col/matmul setup, small
// enough that eval peak memory stays close to the serving plane's.
const evalChunk = 8

// Evaluate runs the classifier over clips and returns the confusion
// matrix, from which Top-1 and mean-class accuracy (the paper's
// metrics) are read. Evaluation is batch-native: clips ride the
// engine's batched forward in chunks, with one throwaway workspace
// for the whole pass. Results are bit-identical to per-clip forwards.
func Evaluate(m Classifier, clips []*dataset.Clip) (*nn.ConfusionMatrix, error) {
	return EvaluateWS(m, clips, nn.NewWorkspace())
}

// EvaluateWS is Evaluate with caller-owned scratch: a long-lived
// caller (the few-shot eval loop, a benchmark) passing the same
// workspace keeps the whole evaluation's scratch allocation-free. Runs of
// equally-shaped clips share one batched forward (up to evalChunk per
// batch); a shape change just starts a new chunk. A nil ws is replaced
// by a throwaway workspace.
func EvaluateWS(m Classifier, clips []*dataset.Clip, ws *nn.Workspace) (*nn.ConfusionMatrix, error) {
	if len(clips) == 0 {
		return nil, fmt.Errorf("video: no evaluation clips")
	}
	if ws == nil {
		ws = nn.NewWorkspace()
	}
	cm := nn.NewConfusionMatrix(dataset.NumClasses)
	batch := make([]*tensor.Tensor, 0, evalChunk)
	for start := 0; start < len(clips); {
		end := start + 1
		for end < len(clips) && end-start < evalChunk && sameShape(clips[end].Input, clips[start].Input) {
			end++
		}
		batch = batch[:0]
		for _, clip := range clips[start:end] {
			batch = append(batch, clip.Input)
		}
		labels, err := PredictBatch(m, batch, ws)
		if err != nil {
			return nil, fmt.Errorf("video: eval clips %d..%d: %w", start, end-1, err)
		}
		for i, label := range labels {
			if err := cm.Add(clips[start+i].Label, label); err != nil {
				return nil, fmt.Errorf("video: eval clip %d: %w", start+i, err)
			}
		}
		start = end
	}
	return cm, nil
}

// sameShape reports whether two clip tensors share a shape; nil breaks
// the run so validation reports the offending clip on its own.
func sameShape(a, b *tensor.Tensor) bool {
	if a == nil || b == nil || a.Rank() != b.Rank() {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Predict classifies one clip, returning the predicted label. It is
// the N=1 case of PredictBatch — there is no separate per-clip path.
func Predict(m Classifier, input *tensor.Tensor) (int, error) {
	return PredictWS(m, input, nil)
}

// PredictWS is Predict with caller-owned scratch, for callers that
// classify clip after clip and want the allocation-free steady state (the
// Framework's per-frame path, throughput studies).
func PredictWS(m Classifier, input *tensor.Tensor, ws *nn.Workspace) (int, error) {
	labels, err := PredictBatch(m, []*tensor.Tensor{input}, ws)
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}
