package infer

import (
	"fmt"
	"testing"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// argmaxModel is a native batched model: logits echo the input's first
// two elements, so labels are fully determined by the test data.
type argmaxModel struct {
	train    bool
	batches  int
	outCount int // when >0, return this many outputs regardless of n
	fail     bool
}

func (m *argmaxModel) Name() string        { return "argmax" }
func (m *argmaxModel) SetTrain(train bool) { m.train = train }

func (m *argmaxModel) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	if m.fail {
		return nil, fmt.Errorf("boom")
	}
	m.batches++
	defer ws.Reset()
	n := len(xs)
	if m.outCount > 0 {
		n = m.outCount
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		scratch := ws.Get(2)
		copy(scratch.Data, xs[i%len(xs)].Data[:2])
		l := tensor.New(2)
		copy(l.Data, scratch.Data)
		out[i] = l
	}
	return out, nil
}

func input(a, b float64) *tensor.Tensor {
	t := tensor.New(2, 2)
	t.Data[0], t.Data[1] = a, b
	return t
}

func TestPredictBatchDecodesInOrder(t *testing.T) {
	m := &argmaxModel{train: true}
	xs := []*tensor.Tensor{input(1, 0), input(0, 1), input(3, 2)}
	labels, err := PredictBatch(m, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if m.train {
		t.Fatal("PredictBatch must switch the model to eval mode")
	}
	if m.batches != 1 {
		t.Fatalf("batches = %d, want 1", m.batches)
	}
}

func TestPredictBatchValidation(t *testing.T) {
	m := &argmaxModel{}
	if _, err := PredictBatch(m, nil, nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0), nil}, nil); err == nil {
		t.Fatal("expected nil-input error")
	}
	mixed := []*tensor.Tensor{input(1, 0), tensor.New(3)}
	if _, err := PredictBatch(m, mixed, nil); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	m.outCount = 5
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0)}, nil); err == nil {
		t.Fatal("expected output-count error")
	}
	m.outCount = 0
	m.fail = true
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0)}, nil); err == nil {
		t.Fatal("expected forward error")
	}
}
