package detect

import (
	"fmt"
	"math"

	"safecross/internal/flow"
	"safecross/internal/vision"
)

// SparseFlow is the Lucas–Kanade corner-tracking detector. It is very
// fast, but on noisy, low-contrast surveillance frames the strongest
// corners belong to static structure (lane markings, the truck,
// sensor noise), so the small moving car in the danger zone rarely
// collects enough coherent tracks — the failure the paper reports in
// Fig. 8(b).
type SparseFlow struct {
	// MaxCorners bounds the tracked corner count.
	MaxCorners int
	// Quality is the Shi–Tomasi quality fraction.
	Quality float64
	// MinDist is the corner suppression radius.
	MinDist int
	// Window is the LK window radius.
	Window int
	// MinDisp and MaxDisp bracket plausible per-frame vehicle motion.
	MinDisp, MaxDisp float64
	// ClusterPts is the minimum coherent moving tracks per detection.
	ClusterPts int
	// ClusterRadius groups moving tracks within this distance.
	ClusterRadius float64
}

var _ Detector = (*SparseFlow)(nil)

// NewSparseFlow returns the calibrated sparse-flow detector.
func NewSparseFlow() *SparseFlow {
	return &SparseFlow{
		MaxCorners: 40, Quality: 0.12, MinDist: 4, Window: 3,
		MinDisp: 0.4, MaxDisp: 6, ClusterPts: 3, ClusterRadius: 9,
	}
}

// Name returns "sparse-of".
func (d *SparseFlow) Name() string { return "sparse-of" }

// Detect tracks corners between the last two frames and boxes
// clusters of coherently moving tracks.
func (d *SparseFlow) Detect(frames []*vision.Image) ([]vision.Rect, error) {
	if err := minSequence(frames, 2); err != nil {
		return nil, err
	}
	prev := frames[len(frames)-2]
	cur := frames[len(frames)-1]
	corners := flow.FindCorners(prev, d.MaxCorners, d.Quality, d.MinDist)
	tracked, err := flow.LucasKanade(prev, cur, corners, d.Window)
	if err != nil {
		return nil, fmt.Errorf("detect: sparse-of: %w", err)
	}
	var moving []flow.Point
	for _, tp := range tracked {
		if !tp.Valid {
			continue
		}
		dx, dy := tp.Displacement()
		mag := math.Hypot(dx, dy)
		if mag >= d.MinDisp && mag <= d.MaxDisp {
			moving = append(moving, tp.From)
		}
	}
	return clusterPoints(moving, d.ClusterRadius, d.ClusterPts), nil
}

// clusterPoints greedily groups points within radius of each other
// and returns bounding boxes of groups with at least minPts members.
func clusterPoints(pts []flow.Point, radius float64, minPts int) []vision.Rect {
	if len(pts) == 0 {
		return nil
	}
	assigned := make([]int, len(pts))
	for i := range assigned {
		assigned[i] = -1
	}
	var clusters [][]int
	for i := range pts {
		if assigned[i] >= 0 {
			continue
		}
		// Grow a cluster from point i.
		cluster := []int{i}
		assigned[i] = len(clusters)
		for qi := 0; qi < len(cluster); qi++ {
			p := pts[cluster[qi]]
			for j := range pts {
				if assigned[j] >= 0 {
					continue
				}
				dx, dy := pts[j].X-p.X, pts[j].Y-p.Y
				if dx*dx+dy*dy <= radius*radius {
					assigned[j] = len(clusters)
					cluster = append(cluster, j)
				}
			}
		}
		clusters = append(clusters, cluster)
	}
	var rects []vision.Rect
	for _, cluster := range clusters {
		if len(cluster) < minPts {
			continue
		}
		r := vision.Rect{X0: 1 << 30, Y0: 1 << 30, X1: -(1 << 30), Y1: -(1 << 30)}
		for _, idx := range cluster {
			x, y := int(pts[idx].X), int(pts[idx].Y)
			if x < r.X0 {
				r.X0 = x
			}
			if y < r.Y0 {
				r.Y0 = y
			}
			if x+1 > r.X1 {
				r.X1 = x + 1
			}
			if y+1 > r.Y1 {
				r.Y1 = y + 1
			}
		}
		rects = append(rects, r)
	}
	return rects
}

// DenseFlow is the Horn–Schunck detector: it thresholds the dense
// flow magnitude and boxes the connected motion regions. It finds the
// danger-zone vehicle reliably but costs two orders of magnitude more
// than background subtraction (Table II's 224 ms vs 0.74 ms).
type DenseFlow struct {
	// Alpha is the Horn–Schunck smoothness weight.
	Alpha float64
	// Iters is the relaxation sweep count (the dominant cost).
	Iters int
	// MagThreshold binarises the flow magnitude.
	MagThreshold float64
	// MinArea drops small motion blobs.
	MinArea int
}

var _ Detector = (*DenseFlow)(nil)

// NewDenseFlow returns the calibrated dense-flow detector.
func NewDenseFlow() *DenseFlow {
	return &DenseFlow{Alpha: 1.0, Iters: 90, MagThreshold: 0.09, MinArea: 8}
}

// Name returns "dense-of".
func (d *DenseFlow) Name() string { return "dense-of" }

// Flops counts one Detect on w×h frames: Horn–Schunck's derivative
// estimates (9 operations a pixel) plus Iters relaxation sweeps of 24
// a pixel (two 4-neighbour means, the shared numerator and
// denominator, and the u and v updates). The thresholding and
// labelling after it are comparisons, not counted.
func (d *DenseFlow) Flops(w, h int) int64 {
	return int64(w) * int64(h) * (9 + 24*int64(d.Iters))
}

// Detect computes dense flow between the last two frames and boxes
// high-magnitude regions.
func (d *DenseFlow) Detect(frames []*vision.Image) ([]vision.Rect, error) {
	if err := minSequence(frames, 2); err != nil {
		return nil, err
	}
	prev := frames[len(frames)-2]
	cur := frames[len(frames)-1]
	field, err := flow.HornSchunck(prev, cur, d.Alpha, d.Iters)
	if err != nil {
		return nil, fmt.Errorf("detect: dense-of: %w", err)
	}
	mask := field.MagnitudeImage().Threshold(d.MagThreshold)
	mask = vision.Open(mask, 1)
	blobs := vision.ConnectedComponents(mask, d.MinArea)
	rects := make([]vision.Rect, 0, len(blobs))
	for _, b := range blobs {
		rects = append(rects, b.Bounds)
	}
	return rects, nil
}
