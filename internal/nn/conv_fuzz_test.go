package nn

import (
	"math"
	"math/rand"
	"testing"

	"safecross/internal/tensor"
)

// slowFastConvShapes are the five Conv3D layers of the default SlowFast
// (internal/video) at T = 32 on the 10×16 occupancy grid, each with the
// [T,H,W] of its input.
var slowFastConvShapes = []struct {
	cfg     Conv3DConfig
	t, h, w int
}{
	{Conv3DConfig{InC: 1, OutC: 3, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}, 32, 10, 16}, // fast.conv1
	{Conv3DConfig{InC: 3, OutC: 6, KT: 3, KH: 3, KW: 3, ST: 2, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1}, 32, 5, 8},   // fast.conv2
	{Conv3DConfig{InC: 1, OutC: 10, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1}, 4, 10, 16}, // slow.conv1
	{Conv3DConfig{InC: 6, OutC: 6, KT: 3, KH: 1, KW: 1, ST: 4, SH: 1, SW: 1, PT: 1, PH: 0, PW: 0}, 16, 5, 8},   // lateral.conv
	{Conv3DConfig{InC: 16, OutC: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}, 4, 5, 8},  // fuse.conv1
}

// decodeConv3DCase turns fuzz bytes into a layer geometry, a batch size
// and an input [T,H,W]. A first byte ≥ 0x80 picks one of the SlowFast
// shapes; otherwise every field is small: channels 1–4, kernels 1–3,
// strides 1–4 (so stride > kernel occurs), padding 0–2, N 1–3 and input
// extents 1–6 (so some kernels do not fit, and both paths must refuse).
func decodeConv3DCase(geom []byte) (cfg Conv3DConfig, n, t, h, w int) {
	at := func(i int) int {
		if i < len(geom) {
			return int(geom[i])
		}
		return 0
	}
	if at(0) >= 0x80 {
		s := slowFastConvShapes[(at(0)&0x7f)%len(slowFastConvShapes)]
		return s.cfg, 1 + at(1)%3, s.t, s.h, s.w
	}
	cfg = Conv3DConfig{
		InC: 1 + at(0)%4, OutC: 1 + at(1)%4,
		KT: 1 + at(2)%3, KH: 1 + at(3)%3, KW: 1 + at(4)%3,
		ST: 1 + at(5)%4, SH: 1 + at(6)%4, SW: 1 + at(7)%4,
		PT: at(8) % 3, PH: at(9) % 3, PW: at(10) % 3,
	}
	return cfg, 1 + at(11)%3, 1 + at(12)%6, 1 + at(13)%6, 1 + at(14)%6
}

// FuzzConv3DEvalMatchesForward holds the zero-skipping eval forward to
// the im2col + matmul Forward bit for bit: for any geometry, and inputs
// with exact zeros and negative values, rank-4 ForwardWS on each sample
// and rank-5 ForwardWS on the channel-major batch must equal per-sample
// Forward. zeroPct (mod 101) is the share of exact zeros in the input;
// about one weight in eight is an exact zero too, and the bias is
// nonzero.
func FuzzConv3DEvalMatchesForward(f *testing.F) {
	for s := range slowFastConvShapes {
		for _, pct := range []uint8{0, 60, 95, 100} {
			f.Add([]byte{0x80 | byte(s), byte(s)}, pct, int64(s))
		}
	}
	f.Add([]byte{1, 2, 0, 1, 2, 3, 3, 3, 0, 1, 2, 2, 5, 5, 5}, uint8(50), int64(7)) // strides > kernels
	f.Add([]byte{3, 3, 2, 2, 2, 0, 1, 0, 2, 2, 2, 0, 0, 0, 0}, uint8(30), int64(8)) // padding 2 on a 1×1×1 input
	f.Add([]byte{0, 0, 2, 2, 2, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1}, uint8(0), int64(9))  // kernel larger than input

	f.Fuzz(func(t *testing.T, geom []byte, zeroPct uint8, seed int64) {
		cfg, n, tn, h, w := decodeConv3DCase(geom)
		rng := rand.New(rand.NewSource(seed))
		c := NewConv3D("fuzz", cfg, rng)
		c.SetTrain(false)
		for i := range c.W.Value.Data {
			if rng.Intn(8) == 0 {
				c.W.Value.Data[i] = 0
			}
		}
		for i := range c.B.Value.Data {
			c.B.Value.Data[i] = rng.NormFloat64()
		}
		frac := float64(zeroPct%101) / 100
		xs := make([]*tensor.Tensor, n)
		batch := tensor.New(cfg.InC, n, tn, h, w)
		vol := tn * h * w
		for i := range xs {
			xs[i] = tensor.New(cfg.InC, tn, h, w)
			for j := range xs[i].Data {
				if rng.Float64() >= frac {
					xs[i].Data[j] = rng.NormFloat64()
				}
			}
			for ci := 0; ci < cfg.InC; ci++ {
				copy(batch.Data[(ci*n+i)*vol:(ci*n+i+1)*vol], xs[i].Data[ci*vol:(ci+1)*vol])
			}
		}

		ws := NewWorkspace()
		want := make([]*tensor.Tensor, n)
		for i, x := range xs {
			ref, refErr := c.Forward(x)
			got, err := c.ForwardWS(x, ws)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("%+v input %v: Forward err %v, ForwardWS err %v", cfg, x.Shape, refErr, err)
			}
			if refErr != nil {
				return
			}
			assertBitIdentical(t, "rank-4", got.Data, ref.Data)
			ws.Reset()
			want[i] = ref
		}
		// Any run of output frames, padding-touching ones included, must
		// equal those frames of the whole-volume forward.
		ot := want[0].Shape[1]
		frame := want[0].Len() / (cfg.OutC * ot)
		for k := 0; k < 4; k++ {
			j0 := rng.Intn(ot)
			nf := 1 + rng.Intn(ot-j0)
			if k == 0 {
				j0, nf = 0, ot
			}
			got, err := c.ForwardFramesWS(xs[0], j0, nf, ws)
			if err != nil {
				t.Fatalf("%+v frames [%d,%d): %v", cfg, j0, j0+nf, err)
			}
			for o := 0; o < cfg.OutC; o++ {
				assertBitIdentical(t, "frames",
					got.Data[o*nf*frame:(o+1)*nf*frame], want[0].Data[(o*ot+j0)*frame:(o*ot+j0+nf)*frame])
			}
			ws.Reset()
		}
		if _, err := c.ForwardFramesWS(xs[0], ot-1, 2, ws); err == nil {
			t.Fatalf("%+v: frames past the output accepted", cfg)
		}
		got, err := c.ForwardWS(batch, ws)
		if err != nil {
			t.Fatalf("%+v batch %v: %v", cfg, batch.Shape, err)
		}
		out := want[0].Len() / cfg.OutC
		for o := 0; o < cfg.OutC; o++ {
			for i, ref := range want {
				assertBitIdentical(t, "rank-5",
					got.Data[(o*n+i)*out:(o*n+i+1)*out], ref.Data[o*out:(o+1)*out])
			}
		}
	})
}

func assertBitIdentical(t *testing.T, path string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", path, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %v, Forward gives %v", path, i, got[i], want[i])
		}
	}
}
