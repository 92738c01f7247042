package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"

	"safecross/internal/experiments"
	"safecross/internal/sim"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// env is everything a run needs before a topology exists: the three
// trained scene models, the fitted weather detector and the
// pre-rendered input pool. Building it is the deterministic CPU work
// behind setup_s (noise rule 4).
type env struct {
	seed    int64
	clipLen int
	tm      *experiments.TrainedModels
	det     *weather.Detector
	pool    *framePool

	trainS, fitS, renderS float64
}

// envConfig picks the training profile; the command always uses
// benchProfile, tests shrink it.
type envConfig struct {
	seed   int64
	exp    experiments.Config
	scenes []sim.Weather
}

// benchProfile is the issue's set-up: the quick training profile at
// the paper's clip length.
func benchProfile(seed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.ClipLen = clipLen
	cfg.Seed = seed
	return cfg
}

func newEnv(cfg envConfig) (*env, error) {
	e := &env{seed: cfg.seed, clipLen: cfg.exp.ClipLen}
	start := time.Now()
	tm, err := experiments.TrainSceneModels(cfg.exp)
	if err != nil {
		return nil, fmt.Errorf("train scene models: %w", err)
	}
	e.tm = tm
	e.trainS = time.Since(start).Seconds()

	start = time.Now()
	if e.det, err = weather.FitFromSim(20, 12345); err != nil {
		return nil, fmt.Errorf("fit weather detector: %w", err)
	}
	e.fitS = time.Since(start).Seconds()

	start = time.Now()
	if e.pool, err = renderPool(cfg.seed, cfg.scenes); err != nil {
		return nil, err
	}
	e.renderS = time.Since(start).Seconds()
	return e, nil
}

func (e *env) close() {
	if e.pool != nil {
		e.pool.close()
	}
}

// framePool is the pre-rendered camera input (noise rule 7: nothing is
// rendered inside a measured window): poolStreams looped streams of
// poolFrames frames per scene, each with the simulator's ground-truth
// ConflictRisk. The pixels live in one anonymous mapping outside the Go
// heap, so the harness's ~100-300 MB of input neither shows up in
// live_heap_mb nor stretches the program's GC cycle the way a heap-
// resident pool would (GOGC paces on live heap); a real camera feed
// arrives from outside the process too.
type framePool struct {
	arena  []byte
	frames map[sim.Weather][][]*vision.Image
	risk   map[sim.Weather][][]bool
	hash   uint64 // FNV-1a over every pixel's bits (word-wise), stream by stream
}

func renderPool(seed int64, scenes []sim.Weather) (*framePool, error) {
	pixels := sim.FrameW * sim.FrameH
	total := len(scenes) * poolStreams * poolFrames * pixels
	arena, err := syscall.Mmap(-1, 0, total*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map frame pool: %w", err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&arena[0])), total)
	p := &framePool{
		arena:  arena,
		frames: make(map[sim.Weather][][]*vision.Image),
		risk:   make(map[sim.Weather][][]bool),
	}
	p.hash = 14695981039346656037 // FNV offset basis
	for _, scene := range scenes {
		for s := 0; s < poolStreams; s++ {
			world := sim.NewWorld(sim.Config{
				Weather:       scene,
				TruckPresent:  true,
				TurnerEnabled: true,
				TurnerRespawn: true,
				Seed:          seed*1000 + int64(scene)*100 + int64(s),
			})
			frames := make([]*vision.Image, poolFrames)
			risk := make([]bool, poolFrames)
			for f := range frames {
				world.Step()
				im := world.Render()
				pix := all[:pixels:pixels]
				all = all[pixels:]
				copy(pix, im.Pix)
				frames[f] = &vision.Image{W: im.W, H: im.H, Pix: pix}
				risk[f] = world.ConflictRisk()
				for _, v := range pix {
					p.hash = (p.hash ^ math.Float64bits(v)) * 1099511628211
				}
			}
			p.frames[scene] = append(p.frames[scene], frames)
			p.risk[scene] = append(p.risk[scene], risk)
		}
	}
	return p, nil
}

func (p *framePool) close() {
	if p.arena != nil {
		_ = syscall.Munmap(p.arena) // unmapping a private anonymous mapping cannot lose data
		p.arena = nil
	}
}

// source maps one intersection's frame numbers onto the pool. Four
// intersections share a stream a quarter-loop apart, so no two see the
// same clip at the same time.
type source struct {
	pool   *framePool
	stream int
	offset int // start position inside the looped stream
	churn  bool
	shift  int // weather-churn: frame offset of this intersection's flips
	first  int // weather-churn: index of the starting scene
}

func newSource(pool *framePool, wl workload, idx int) source {
	return source{
		pool:   pool,
		stream: idx % poolStreams,
		offset: (idx / poolStreams) * (poolFrames / 4),
		churn:  wl.churn,
		shift:  churnOffset * idx,
		first:  idx % 3,
	}
}

// scene of 1-based frame n.
func (s source) scene(n int) sim.Weather {
	if !s.churn {
		return sim.Day
	}
	return allScenes[((n+s.shift)/churnEvery+s.first)%len(allScenes)]
}

func (s source) at(n int) (frame *vision.Image, risk bool) {
	scene := s.scene(n)
	i := (s.offset + n) % poolFrames
	return s.pool.frames[scene][s.stream][i], s.pool.risk[scene][s.stream][i]
}

var allScenes = sim.AllWeathers()

// scenesFor lists the scenes a workload's pool must hold.
func scenesFor(wl workload) []sim.Weather {
	if wl.churn {
		return allScenes
	}
	return []sim.Weather{sim.Day}
}
