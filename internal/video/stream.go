package video

import (
	"fmt"
	"math"

	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// Stream is the state of a streaming SlowFast forward over one sliding
// clip: consecutive windows that share all but one frame. It caches the
// output frames of the convolutions that read the raw clip — fast.conv1,
// fast.conv2, slow.conv1 and the lateral conv — keyed by absolute frame
// position, so a window that slid by one frame recomputes only the
// frames the previous windows could not have computed (the continual
// 3-D CNN technique of Hedegaard & Iosifidis).
//
// Reuse is checked, never trusted. A conv output frame is cached only
// when its temporal receptive field touches no temporal padding; such a
// frame is a sum of the same inputs in the same order in every window
// that holds that field, so it is == to what an earlier window computed.
// A window continues the stream only when its frames [0,T-1) are
// bit-equal to the previous window's frames [1,T), the model is the
// same, and the cached convolutions' weights and biases are bit-equal
// to the snapshot taken when the stream was anchored. Otherwise the
// stream re-anchors and every frame is computed. A wrong pairing of
// stream and clip costs a full forward; it cannot change a logit.
//
// The zero Stream is ready to use. A Stream belongs to one goroutine.
type Stream struct {
	model  *SlowFast
	h, w   int
	layers []streamLayer
	// weights is the anchored snapshot of every cached conv's weights
	// then bias, in layer order.
	weights []float64
	// prev is the last window's clip data, [T,H,W].
	prev   []float64
	primed bool
	// base is the absolute position of the current window's frame 0.
	base int

	// Windows counts forwards through the stream; Anchors counts those
	// that re-anchored and computed every frame.
	Windows, Anchors int
}

// noKey marks an empty ring slot.
const noKey = math.MinInt

// streamLayer is one cached convolution: a ring of output frames keyed
// by absolute position. Output frame j of the window at base has key
// base + off + step·j — the absolute position of the first clip frame
// its receptive field reads, in clip frames — so two windows' frames
// with one key read the same clip frames. Frames in [lo, hi] read no
// temporal padding; only they are stored and reused.
type streamLayer struct {
	conv *nn.Conv3D
	relu bool

	off, step, lo, hi int
	// ot, oh, ow is the output extent per window; frame is the floats of
	// one output frame over all channels.
	ot, oh, ow, frame int

	// keys[s] is the key ring slot s holds (noKey when empty); slots
	// holds the frames, [OutC][OH·OW] per slot. With step·(ot−1)+1
	// slots, a window's keys map to distinct slots, and a slot is
	// overwritten only once no later window can ask for its key.
	keys  []int
	slots []float64

	// computed counts the output frames this layer computed rather
	// than read from the ring.
	computed int
}

// bind sizes the layer for an input of inT frames of inH×inW whose
// frame i has key off + step·i and reads no padding for i in
// [inLo, inHi]. It keeps the ring's memory when it is large enough.
func (l *streamLayer) bind(conv *nn.Conv3D, relu bool, inOff, inStep, inLo, inHi, inT, inH, inW int) {
	g := conv.Config()
	l.conv, l.relu = conv, relu
	l.ot = tensor.ConvOutSize(inT, g.KT, g.ST, g.PT)
	l.oh = tensor.ConvOutSize(inH, g.KH, g.SH, g.PH)
	l.ow = tensor.ConvOutSize(inW, g.KW, g.SW, g.PW)
	l.frame = g.OutC * l.oh * l.ow
	l.off, l.step = inOff-inStep*g.PT, inStep*g.ST
	// Frame j reads input frames [j·ST−PT, j·ST−PT+KT−1].
	l.lo = max(ceilDiv(inLo+g.PT, g.ST), 0)
	l.hi = min(floorDiv(inHi+g.PT-g.KT+1, g.ST), l.ot-1)
	n := max(l.step*(l.ot-1)+1, 1)
	if cap(l.keys) < n {
		l.keys = make([]int, n)
	}
	if cap(l.slots) < n*l.frame {
		l.slots = make([]float64, n*l.frame)
	}
	l.keys, l.slots = l.keys[:n], l.slots[:n*l.frame]
	l.clear()
}

func (l *streamLayer) clear() {
	for i := range l.keys {
		l.keys[i] = noKey
	}
}

func (l *streamLayer) slot(key int) int {
	s := key % len(l.keys)
	if s < 0 {
		s += len(l.keys)
	}
	return s
}

// cached reports whether output frame j of the window at base is in
// the ring, and its slot.
func (l *streamLayer) cached(base, j int) (int, bool) {
	if j < l.lo || j > l.hi {
		return 0, false
	}
	key := base + l.off + l.step*j
	s := l.slot(key)
	return s, l.keys[s] == key
}

// forward returns the layer's [OutC,OT,OH,OW] output (after ReLU when
// relu is set) for input x of the window at base: ring frames are
// copied, every run of missing frames is computed by one
// ForwardFramesWS, and the computed frames free of padding are stored.
func (l *streamLayer) forward(x *tensor.Tensor, base int, ws *nn.Workspace) (*tensor.Tensor, error) {
	oc := l.conv.Config().OutC
	plane := l.oh * l.ow
	out := ws.Get(oc, l.ot, l.oh, l.ow)
	for j := 0; j < l.ot; {
		if s, ok := l.cached(base, j); ok {
			for o := 0; o < oc; o++ {
				copy(out.Data[(o*l.ot+j)*plane:(o*l.ot+j+1)*plane], l.slots[s*l.frame+o*plane:])
			}
			j++
			continue
		}
		e := j + 1
		for e < l.ot {
			if _, ok := l.cached(base, e); ok {
				break
			}
			e++
		}
		n := e - j
		y, err := l.conv.ForwardFramesWS(x, j, n, ws)
		if err != nil {
			return nil, err
		}
		for o := 0; o < oc; o++ {
			src := y.Data[o*n*plane : (o+1)*n*plane]
			dst := out.Data[(o*l.ot+j)*plane : (o*l.ot+e)*plane]
			if l.relu {
				// The clamp of nn.ReLU's eval forward, element for element.
				for i, v := range src {
					if v > 0 {
						dst[i] = v
					} else {
						dst[i] = 0
					}
				}
			} else {
				copy(dst, src)
			}
		}
		for k := max(j, l.lo); k < e && k <= l.hi; k++ {
			key := base + l.off + l.step*k
			s := l.slot(key)
			l.keys[s] = key
			for o := 0; o < oc; o++ {
				copy(l.slots[s*l.frame+o*plane:s*l.frame+(o+1)*plane], out.Data[(o*l.ot+k)*plane:])
			}
		}
		l.computed += n
		j = e
	}
	return out, nil
}

// bind points the stream at m for h×w clips: it derives every cached
// conv's keys and clean range from the layer geometry, snapshots the
// weights, and leaves the stream unprimed so the next window anchors.
// Re-binding to a model of the same geometry reuses the rings.
func (s *Stream) bind(m *SlowFast, h, w int) {
	s.model, s.h, s.w, s.primed = m, h, w, false
	t, a := m.cfg.T, m.cfg.Alpha
	n := 3
	if m.lateral != nil {
		n = 4
	}
	if cap(s.layers) < n {
		s.layers = make([]streamLayer, n)
	}
	s.layers = s.layers[:n]
	fast1, fast2, slow := &s.layers[0], &s.layers[1], &s.layers[2]
	// The clip's frame i has key i (relative to base) and no padding.
	fast1.bind(m.fastConv1, true, 0, 1, 0, t-1, t, h, w)
	fast2.bind(m.fastConv2, true, fast1.off, fast1.step, fast1.lo, fast1.hi, fast1.ot, fast1.oh, fast1.ow)
	// The slow pathway samples every α-th clip frame from frame 0.
	slow.bind(m.slowConv1, true, 0, a, 0, t/a-1, t/a, h, w)
	if n == 4 {
		s.layers[3].bind(m.lateral, false, fast2.off, fast2.step, fast2.lo, fast2.hi, fast2.ot, fast2.oh, fast2.ow)
	}
	s.weights = s.weights[:0]
	for i := range s.layers {
		c := s.layers[i].conv
		s.weights = append(append(s.weights, c.W.Value.Data...), c.B.Value.Data...)
	}
}

// weightsUnchanged compares the cached convs' weights and biases with
// the snapshot bit for bit, and re-takes the snapshot when they differ.
func (s *Stream) weightsUnchanged() bool {
	same, i := true, 0
	for k := range s.layers {
		c := s.layers[k].conv
		for _, p := range [2][]float64{c.W.Value.Data, c.B.Value.Data} {
			snap := s.weights[i : i+len(p)]
			for q, v := range p {
				if math.Float64bits(v) != math.Float64bits(snap[q]) {
					same = false
					snap[q] = v
				}
			}
			i += len(p)
		}
	}
	return same
}

// advance places clip in the stream: one frame after the previous
// window when the content and weight checks pass, else a new anchor
// with every ring emptied.
func (s *Stream) advance(m *SlowFast, clip *tensor.Tensor) {
	h, w := clip.Shape[2], clip.Shape[3]
	if s.model != m || s.h != h || s.w != w {
		s.bind(m, h, w)
	}
	s.Windows++
	// Both checks always run, so a failed content check still refreshes
	// the weight snapshot.
	weightsOK := s.weightsUnchanged()
	if s.primed && weightsOK && slidByOne(clip.Data, s.prev, h*w) {
		s.base++
	} else {
		s.Anchors++
		s.base = 0
		for i := range s.layers {
			s.layers[i].clear()
		}
	}
	if cap(s.prev) < len(clip.Data) {
		s.prev = make([]float64, len(clip.Data))
	}
	s.prev = s.prev[:len(clip.Data)]
	copy(s.prev, clip.Data)
	s.primed = true
}

// slidByOne reports whether cur's frames [0,T-1) are bit-equal to
// prev's frames [1,T), frames being frame floats long.
func slidByOne(cur, prev []float64, frame int) bool {
	if len(prev) != len(cur) || len(cur) < frame {
		return false
	}
	a, b := cur[:len(cur)-frame], prev[frame:]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ForwardStream is the eval forward of one [1,T,H,W] clip through the
// stream st: its logits are == to ForwardBatch's on the same clip, but
// the fast and slow convolutions compute only the output frames st
// does not hold from earlier windows of the same sliding clip (see
// Stream). The fuse block, both pools and the head run in full. The
// returned [1,Classes] logits live in ws and stay valid until the
// caller resets it; a warm call allocates nothing.
func (m *SlowFast) ForwardStream(st *Stream, clip *tensor.Tensor, ws *nn.Workspace) (*tensor.Tensor, error) {
	if clip.Rank() != 4 || clip.Shape[0] != 1 || clip.Shape[1] != m.cfg.T {
		return nil, fmt.Errorf("slowfast: clip shape %v, want [1,%d,H,W]", clip.Shape, m.cfg.T)
	}
	st.advance(m, clip)
	fastHidden, err := st.layers[0].forward(clip, st.base, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast fast pathway: %w", err)
	}
	fastOut, err := st.layers[1].forward(fastHidden, st.base, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast fast pathway: %w", err)
	}
	xsSlow, err := sampleTemporalBatch(ws, clip, m.cfg.Alpha, 0)
	if err != nil {
		return nil, fmt.Errorf("slowfast: %w", err)
	}
	slowOut, err := st.layers[2].forward(xsSlow, st.base, ws)
	if err != nil {
		return nil, fmt.Errorf("slowfast slow pathway: %w", err)
	}
	var lat *tensor.Tensor
	if m.lateral != nil {
		if lat, err = st.layers[3].forward(fastOut, st.base, ws); err != nil {
			return nil, fmt.Errorf("slowfast lateral: %w", err)
		}
	}
	return m.classify(slowOut, lat, fastOut, 1, ws)
}

// ceilDiv and floorDiv divide by a positive d, rounding toward +∞ and
// −∞ respectively.
func ceilDiv(n, d int) int { return -floorDiv(-n, d) }

func floorDiv(n, d int) int {
	q := n / d
	if n%d != 0 && n < 0 {
		q--
	}
	return q
}
