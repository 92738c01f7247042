// Package weather implements the scene detector that drives the MS
// module: it classifies camera frames into the day/rain/snow
// conditions from low-level image statistics (ambient brightness,
// high-frequency noise energy, speckle density) and debounces scene
// changes so the model manager is not thrashed by single noisy
// frames.
package weather

import (
	"fmt"
	"math"

	"safecross/internal/sim"
	"safecross/internal/vision"
)

// Features are the per-frame statistics the detector classifies on.
type Features struct {
	// Mean is the ambient brightness (snow scenes are washed out and
	// bright).
	Mean float64
	// Noise is the mean absolute deviation from the 3×3 local mean —
	// high-frequency sensor/rain noise energy.
	Noise float64
	// Speckle is the fraction of saturated pixels (snowflakes, dead
	// pixels).
	Speckle float64
}

// Extract computes frame features. The sums run in a fixed order —
// brightness and speckle over all pixels row-major, each 3×3 local sum
// top-left to bottom-right, noise over the interior row-major — because
// float addition is not associative and the fitted centroids (and with
// them every scene decision) are made of these exact values.
func Extract(im *vision.Image) Features {
	var f Features
	w, h := im.W, im.H
	n := float64(w * h)
	if n == 0 {
		return f
	}
	pix := im.Pix[:w*h]
	sum := 0.0
	speckles := 0
	for _, v := range pix {
		sum += v
		if v >= 0.985 || v <= 0.015 {
			speckles++
		}
	}
	f.Mean = sum / n
	f.Speckle = float64(speckles) / n
	// The border is skipped: its 3×3 window leaves the image, and
	// padding would fabricate contrast.
	if w < 3 || h < 3 {
		return f
	}
	noise := 0.0
	for y := 1; y < h-1; y++ {
		up, mid, down := pix[(y-1)*w:y*w], pix[y*w:(y+1)*w], pix[(y+1)*w:(y+2)*w]
		for x := 1; x < w-1; x++ {
			a, b, c := up[x-1:x+2], mid[x-1:x+2], down[x-1:x+2]
			local := 0.0
			local += a[0]
			local += a[1]
			local += a[2]
			local += b[0]
			local += b[1]
			local += b[2]
			local += c[0]
			local += c[1]
			local += c[2]
			noise += math.Abs(b[1] - local/9)
		}
	}
	f.Noise = noise / float64((w-2)*(h-2))
	return f
}

// Detector classifies frames by nearest centroid in feature space.
// Fit it on labelled frames (FitFromSim builds one from the
// simulator) before use.
type Detector struct {
	centroids map[sim.Weather]Features
	scale     Features
}

// Fit estimates per-class centroids from labelled frames and the
// feature scales used for distance normalisation. Every class must
// have at least one sample.
func Fit(samples map[sim.Weather][]*vision.Image) (*Detector, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("weather: no samples")
	}
	d := &Detector{centroids: make(map[sim.Weather]Features, len(samples))}
	var lo, hi Features
	first := true
	for w, frames := range samples {
		if len(frames) == 0 {
			return nil, fmt.Errorf("weather: class %v has no samples", w)
		}
		var c Features
		for _, fr := range frames {
			f := Extract(fr)
			c.Mean += f.Mean
			c.Noise += f.Noise
			c.Speckle += f.Speckle
		}
		inv := 1 / float64(len(frames))
		c.Mean *= inv
		c.Noise *= inv
		c.Speckle *= inv
		d.centroids[w] = c
		if first {
			lo, hi = c, c
			first = false
			continue
		}
		lo.Mean = math.Min(lo.Mean, c.Mean)
		hi.Mean = math.Max(hi.Mean, c.Mean)
		lo.Noise = math.Min(lo.Noise, c.Noise)
		hi.Noise = math.Max(hi.Noise, c.Noise)
		lo.Speckle = math.Min(lo.Speckle, c.Speckle)
		hi.Speckle = math.Max(hi.Speckle, c.Speckle)
	}
	d.scale = Features{
		Mean:    math.Max(hi.Mean-lo.Mean, 1e-6),
		Noise:   math.Max(hi.Noise-lo.Noise, 1e-6),
		Speckle: math.Max(hi.Speckle-lo.Speckle, 1e-6),
	}
	return d, nil
}

// FitFromSim renders framesPerScene frames of ambient traffic per
// weather condition and fits a detector on them.
func FitFromSim(framesPerScene int, seed int64) (*Detector, error) {
	if framesPerScene <= 0 {
		return nil, fmt.Errorf("weather: framesPerScene must be positive")
	}
	samples := make(map[sim.Weather][]*vision.Image, 3)
	for i, w := range sim.AllWeathers() {
		world := sim.NewWorld(sim.Config{Weather: w, Seed: seed + int64(i)*997, TurnerEnabled: true})
		samples[w] = world.RunFrames(framesPerScene)
	}
	return Fit(samples)
}

// Classify returns the nearest-centroid class of one frame.
func (d *Detector) Classify(im *vision.Image) sim.Weather {
	f := Extract(im)
	bestW := sim.Day
	best := math.Inf(1)
	for w, c := range d.centroids {
		dm := (f.Mean - c.Mean) / d.scale.Mean
		dn := (f.Noise - c.Noise) / d.scale.Noise
		ds := (f.Speckle - c.Speckle) / d.scale.Speckle
		dist := dm*dm + dn*dn + ds*ds
		if dist < best || (dist == best && w < bestW) {
			best = dist
			bestW = w
		}
	}
	return bestW
}

// Monitor wraps a detector with hysteresis: a scene change is
// reported only after Debounce consecutive frames agree on the new
// class, so a single noisy frame cannot trigger a model switch.
type Monitor struct {
	det      *Detector
	debounce int

	current   sim.Weather
	candidate sim.Weather
	streak    int
}

// DefaultDebounce is the consecutive-frame agreement required before
// a scene change is reported.
const DefaultDebounce = 5

// NewMonitor creates a monitor with the given debounce window
// (DefaultDebounce if ≤ 0), starting in the initial scene.
func NewMonitor(det *Detector, initial sim.Weather, debounce int) *Monitor {
	if debounce <= 0 {
		debounce = DefaultDebounce
	}
	return &Monitor{det: det, debounce: debounce, current: initial}
}

// Current returns the monitor's settled scene.
func (m *Monitor) Current() sim.Weather { return m.current }

// Observe classifies one frame and returns the settled scene plus
// whether this observation completed a scene change.
func (m *Monitor) Observe(im *vision.Image) (sim.Weather, bool) {
	w := m.det.Classify(im)
	if w == m.current {
		m.candidate = m.current
		m.streak = 0
		return m.current, false
	}
	if w == m.candidate {
		m.streak++
	} else {
		m.candidate = w
		m.streak = 1
	}
	if m.streak >= m.debounce {
		m.current = w
		m.streak = 0
		return m.current, true
	}
	return m.current, false
}
