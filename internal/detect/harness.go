package detect

import (
	"fmt"
	"math/rand"
	"time"

	"safecross/internal/sim"
	"safecross/internal/vision"
)

// Row is one line of the Table II reproduction: a method's per-frame
// execution time and whether it identified the vehicle hidden in the
// danger zone.
type Row struct {
	// Method is the detector name.
	Method string
	// MeanTime is the wall-clock mean per Detect call.
	MeanTime time.Duration
	// Flops is the analytic floating-point operation count of one
	// Detect at the scene's frame size, for the methods whose cost is
	// a fixed arithmetic kernel (dense flow, yolite); 0 for the
	// data-dependent ones (BGS, sparse flow). Unlike MeanTime it does
	// not depend on the host.
	Flops int64
	// Detected reports whether the danger-zone vehicle was found.
	Detected bool
	// Detections is the box count on the canonical frame.
	Detections int
}

// flopCounter is implemented by detectors whose per-frame cost is a
// fixed arithmetic kernel, countable from the frame size alone.
type flopCounter interface {
	Flops(w, h int) int64
}

// HitOverlap is the minimum detection/zone overlap (pixels) that
// counts as identifying the danger-zone vehicle.
const HitOverlap = 4

// DefaultDetectors returns the four Table II methods in paper order
// (BGS last in the table but returned first here for the harness; the
// formatter orders output). Yolite is trained from the given seed.
func DefaultDetectors(seed int64) ([]Detector, error) {
	yol, err := TrainYolite(seed, 8)
	if err != nil {
		return nil, err
	}
	return []Detector{NewBGS(), NewSparseFlow(), NewDenseFlow(), yol}, nil
}

// RunTableII executes every detector on the canonical occluded scene
// (Fig. 8), timing reps repetitions of Detect and checking the
// danger-zone hit.
func RunTableII(dets []Detector, scene *sim.OccludedScene, reps int) ([]Row, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("detect: reps %d must be positive", reps)
	}
	rows := make([]Row, 0, len(dets))
	for _, d := range dets {
		var (
			rects []vision.Rect
			err   error
		)
		start := time.Now()
		for r := 0; r < reps; r++ {
			rects, err = d.Detect(scene.Frames)
			if err != nil {
				return nil, fmt.Errorf("detect: %s: %w", d.Name(), err)
			}
		}
		elapsed := time.Since(start) / time.Duration(reps)
		row := Row{
			Method:     d.Name(),
			MeanTime:   elapsed,
			Detected:   HitsZone(rects, scene.Zone, HitOverlap),
			Detections: len(rects),
		}
		if fc, ok := d.(flopCounter); ok {
			last := scene.Frames[len(scene.Frames)-1]
			row.Flops = fc.Flops(last.W, last.H)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Canonical camera degradation. The paper's infrastructure cameras
// are "sometimes decades old"; on top of the weather model's sensor
// noise, the detection study adds the heavy analog noise that defeats
// corner tracking and pretrained detectors in Fig. 8.
const (
	cameraNoiseSigma = 0.04
	cameraSaltPepper = 0.004
)

// CanonicalScene returns the occluded daytime scene all detection
// experiments share, degraded by the legacy-camera noise model.
func CanonicalScene() (*sim.OccludedScene, error) {
	scene, err := sim.OccludedSequence(sim.Day, 71, 16)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(71))
	for _, f := range scene.Frames {
		f.AddGaussianNoise(rng, cameraNoiseSigma)
		f.AddSaltPepper(rng, cameraSaltPepper)
	}
	return scene, nil
}
