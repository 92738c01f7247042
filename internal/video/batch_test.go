package video

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// batchClips builds n random clips matching smallCfg geometry.
func batchClips(n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(41))
	clips := make([]*tensor.Tensor, n)
	for i := range clips {
		clips[i] = tensor.RandnTensor(rng, 1, 1, 16, 10, 16)
	}
	return clips
}

func TestPredictBatchMatchesSequential(t *testing.T) {
	m, err := SlowFastBuilder(smallCfg(23))()
	if err != nil {
		t.Fatal(err)
	}
	clips := batchClips(4)
	batched, err := PredictBatch(m, clips, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(clips) {
		t.Fatalf("got %d labels for %d clips", len(batched), len(clips))
	}
	for i, clip := range clips {
		want, err := Predict(m, clip)
		if err != nil {
			t.Fatal(err)
		}
		if batched[i] != want {
			t.Fatalf("clip %d: batched label %d != sequential %d", i, batched[i], want)
		}
	}
}

// batchBuilders enumerates the three classifiers that implement the
// native batched forward, on the shared small test geometry.
func batchBuilders(seed int64) map[string]Builder {
	return map[string]Builder{
		"slowfast": SlowFastBuilder(smallCfg(seed)),
		"c3d":      C3DBuilder(smallCfg(seed + 1)),
		"tsn":      TSNBuilder(smallCfg(seed + 2)),
	}
}

// TestForwardBatchBitIdentical checks the core batched-inference
// contract for every classifier: ForwardBatch logits must equal the
// per-clip eval-mode Forward logits bit for bit (==, not tolerance),
// including on an odd batch size that can't tile evenly.
func TestForwardBatchBitIdentical(t *testing.T) {
	for name, builder := range batchBuilders(31) {
		t.Run(name, func(t *testing.T) {
			m, err := builder()
			if err != nil {
				t.Fatal(err)
			}
			m.SetTrain(false)
			clips := batchClips(5)
			ws := nn.NewWorkspace()
			batched, err := m.ForwardBatch(clips, ws)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) != len(clips) {
				t.Fatalf("got %d logit tensors for %d clips", len(batched), len(clips))
			}
			for i, clip := range clips {
				want, err := m.Forward(clip)
				if err != nil {
					t.Fatal(err)
				}
				if len(batched[i].Data) != len(want.Data) {
					t.Fatalf("clip %d: batched logits len %d, want %d", i, len(batched[i].Data), len(want.Data))
				}
				for k := range want.Data {
					if batched[i].Data[k] != want.Data[k] {
						t.Fatalf("clip %d logit %d: batched %v != sequential %v (not bit-identical)",
							i, k, batched[i].Data[k], want.Data[k])
					}
				}
			}
		})
	}
}

// TestForwardBatchReusesWorkspace proves the steady-state allocation
// contract: after a warm-up batch, further batches of the same shape
// take every scratch buffer from the workspace slab (Misses stops
// growing).
func TestForwardBatchReusesWorkspace(t *testing.T) {
	for name, builder := range batchBuilders(37) {
		t.Run(name, func(t *testing.T) {
			m, err := builder()
			if err != nil {
				t.Fatal(err)
			}
			m.SetTrain(false)
			clips := batchClips(3)
			ws := nn.NewWorkspace()
			if _, err := m.ForwardBatch(clips, ws); err != nil {
				t.Fatal(err)
			}
			warm := ws.Misses
			for i := 0; i < 3; i++ {
				if _, err := m.ForwardBatch(clips, ws); err != nil {
					t.Fatal(err)
				}
			}
			if ws.Misses != warm {
				t.Fatalf("workspace misses grew after warm-up: %d -> %d (gets %d)", warm, ws.Misses, ws.Gets)
			}
		})
	}
}

// TestPredictBatchValidatesClipIndex checks the up-front batch
// validation: a malformed clip is reported by its index before any
// layer runs, not as a bare mid-batch layer error.
func TestPredictBatchValidatesClipIndex(t *testing.T) {
	m, err := SlowFastBuilder(smallCfg(29))()
	if err != nil {
		t.Fatal(err)
	}
	clips := batchClips(4)

	clips[2] = tensor.New(2, 16, 10, 16) // wrong channel count
	_, err = PredictBatch(m, clips, nil)
	if err == nil || !strings.Contains(err.Error(), "clip 2") {
		t.Fatalf("bad-shape error = %v, want mention of clip 2", err)
	}

	clips[2] = tensor.New(1, 8, 10, 16) // mismatched against clip 0
	_, err = PredictBatch(m, clips, nil)
	if err == nil || !strings.Contains(err.Error(), "clip 2") {
		t.Fatalf("mismatch error = %v, want mention of clip 2", err)
	}

	clips[2] = nil
	_, err = PredictBatch(m, clips, nil)
	if err == nil || !strings.Contains(err.Error(), "clip 2") {
		t.Fatalf("nil-clip error = %v, want mention of clip 2", err)
	}
}

// TestPredictBatchConcurrentWorkspaces mirrors the serving plane under
// the race detector: several workers, each with a private model
// replica and a private workspace, classify batches concurrently.
// One workspace per goroutine is the ownership rule; this test is the
// regression net proving the batched path has no hidden shared state.
func TestPredictBatchConcurrentWorkspaces(t *testing.T) {
	builder := SlowFastBuilder(smallCfg(43))
	src, err := builder()
	if err != nil {
		t.Fatal(err)
	}
	clips := batchClips(4)
	want, err := PredictBatch(src, clips, nil)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		replica, err := CloneWeights(builder, src)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(m Classifier) {
			defer wg.Done()
			ws := nn.NewWorkspace()
			for iter := 0; iter < 3; iter++ {
				got, err := PredictBatch(m, clips, ws)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Errorf("clip %d: concurrent label %d != %d", i, got[i], want[i])
						return
					}
				}
			}
		}(replica)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPredictBatchRejectsEmpty(t *testing.T) {
	m, err := SlowFastBuilder(smallCfg(24))()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictBatch(m, nil, nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
}

func TestCloneWeightsProducesIndependentReplica(t *testing.T) {
	builder := SlowFastBuilder(smallCfg(25))
	src, err := builder()
	if err != nil {
		t.Fatal(err)
	}
	clone, err := CloneWeights(builder, src)
	if err != nil {
		t.Fatal(err)
	}
	clip := batchClips(1)[0]
	want, err := Predict(src, clip)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Predict(clone, clip)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("clone predicts %d, source %d", got, want)
	}

	// Perturbing the clone must not leak into the source.
	for _, p := range clone.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = 0
		}
	}
	after, err := Predict(src, clip)
	if err != nil {
		t.Fatal(err)
	}
	if after != want {
		t.Fatal("mutating the clone changed the source model")
	}
}
