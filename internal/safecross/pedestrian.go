package safecross

import (
	"fmt"

	"safecross/internal/sim"
	"safecross/internal/vision"
)

// PedestrianMonitor extends the framework to the paper's future-work
// question of blind-spot pedestrian warning. Pedestrians are too
// small and slow for the clip classifier, but exactly what the VP
// machinery detects well: small movers inside the crosswalk band,
// discriminated from vehicles by blob size.
type PedestrianMonitor struct {
	// vp is the VP module's subtraction and opening with the monitor's
	// own background rate and threshold; no grid is taken from it.
	vp *vision.Preprocessor

	// zone is the crosswalk region monitored.
	zone vision.Rect
	// maxArea separates pedestrian-sized blobs from vehicles.
	maxArea int
	// minArea rejects single-pixel noise.
	minArea int
}

// PedestrianAlert is the monitor's per-frame output.
type PedestrianAlert struct {
	// Crossing reports a pedestrian-sized mover inside the crosswalk.
	Crossing bool
	// Blobs is the number of pedestrian-sized movers found.
	Blobs int
}

// NewPedestrianMonitor creates a monitor over the simulator's
// crosswalk geometry.
func NewPedestrianMonitor() *PedestrianMonitor {
	return &PedestrianMonitor{
		vp:      vision.NewPreprocessor(vision.VPConfig{Alpha: 0.04, Threshold: 0.12, OpenRadius: 1}),
		zone:    sim.CrosswalkZone(),
		minArea: 2,
		maxArea: 18, // vehicles are ≥ 9×7 px; pedestrians ≤ 2×3 (+dilation)
	}
}

// Zone returns the monitored crosswalk rectangle.
func (m *PedestrianMonitor) Zone() vision.Rect { return m.zone }

// Observe ingests one camera frame and reports pedestrian activity in
// the crosswalk.
func (m *PedestrianMonitor) Observe(frame *vision.Image) (PedestrianAlert, error) {
	blobs, err := m.vp.ProcessBlobs(frame, m.minArea)
	if err != nil {
		return PedestrianAlert{}, fmt.Errorf("safecross: pedestrian monitor: %w", err)
	}
	var alert PedestrianAlert
	for _, b := range blobs {
		if b.Area > m.maxArea {
			continue // vehicle-sized: the clip classifier's job
		}
		if b.Bounds.Overlaps(m.zone) {
			alert.Crossing = true
			alert.Blobs++
		}
	}
	return alert, nil
}
