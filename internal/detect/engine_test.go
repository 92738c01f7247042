package detect

// The workspace eval forward must be bit-identical (==, not
// approximately equal) to the allocating reference Forward, one frame
// at a time and on a channel-major frame batch.

import (
	"testing"

	"safecross/internal/nn"
	"safecross/internal/tensor"
	"safecross/internal/vision"
)

// frameTensor copies one grayscale frame into a [1,H,W] tensor.
func frameTensor(im *vision.Image) *tensor.Tensor {
	x := tensor.New(1, im.H, im.W)
	copy(x.Data, im.Pix)
	return x
}

func TestYoliteForwardVariantsBitIdentical(t *testing.T) {
	d := trainedYolite(t)
	scene := canonical(t)
	frames := scene.Frames[:4]

	xs := make([]*tensor.Tensor, len(frames))
	refs := make([]*tensor.Tensor, len(frames))
	for i, im := range frames {
		xs[i] = frameTensor(im)
		ref, err := d.Forward(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	ws := nn.NewWorkspace()
	for i, x := range xs {
		got, err := d.ForwardWS(x, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(refs[i].Data) {
			t.Fatalf("frame %d: ForwardWS shape %v vs Forward %v", i, got.Shape, refs[i].Shape)
		}
		for j := range got.Data {
			if got.Data[j] != refs[i].Data[j] {
				t.Fatalf("frame %d cell %d: ForwardWS %v != Forward %v",
					i, j, got.Data[j], refs[i].Data[j])
			}
		}
		ws.Reset()
	}

	h, w := frames[0].H, frames[0].W
	stacked := tensor.New(1, len(xs), h, w)
	for i, x := range xs {
		copy(stacked.Data[i*h*w:], x.Data)
	}
	batched, err := d.ForwardWS(stacked, ws) // [1,N,GH,GW]
	if err != nil {
		t.Fatal(err)
	}
	cells := len(refs[0].Data)
	if len(batched.Data) != len(xs)*cells {
		t.Fatalf("batched ForwardWS shape %v for %d frames of %d cells", batched.Shape, len(xs), cells)
	}
	for i, ref := range refs {
		for j, want := range ref.Data {
			if got := batched.Data[i*cells+j]; got != want {
				t.Fatalf("frame %d cell %d: batched ForwardWS %v != Forward %v", i, j, got, want)
			}
		}
	}
}

// TestYoliteForwardBatchRejectsBadFrames: the workspace forward, on a
// single frame or a channel-major batch, rejects anything that is not
// single-channel instead of scoring it.
func TestYoliteForwardBatchRejectsBadFrames(t *testing.T) {
	d := trainedYolite(t)
	ws := nn.NewWorkspace()
	if _, err := d.ForwardWS(tensor.New(2, 8, 8), ws); err == nil {
		t.Fatal("expected shape error for a 2-channel frame")
	}
	if _, err := d.ForwardWS(tensor.New(8, 8), ws); err == nil {
		t.Fatal("expected shape error for a rank-2 frame")
	}
	if _, err := d.ForwardWS(tensor.New(2, 3, 8, 8), ws); err == nil {
		t.Fatal("expected shape error for a 2-channel frame batch")
	}
}
