package safecross_test

// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation section. Each benchmark drives the same code
// path cmd/safecross-bench uses to regenerate the artifact, so
// `go test -bench=. -benchmem` both times the substrate and exercises
// every experiment end to end. Key experimental quantities (accuracy,
// switch latency, throughput gain) are attached as custom benchmark
// metrics.

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"safecross/internal/dataset"
	"safecross/internal/detect"
	"safecross/internal/experiments"
	"safecross/internal/fewshot"
	"safecross/internal/gpusim"
	"safecross/internal/nn"
	"safecross/internal/pipeswitch"
	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// BenchmarkTableI_DatasetGeneration times synthesis of the (scaled)
// Table I dataset: rendering, VP pre-processing, and labelling.
func BenchmarkTableI_DatasetGeneration(b *testing.B) {
	cfg := experiments.Quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong scene count")
		}
	}
}

// tableIIScene caches the canonical occluded scene and trained
// detectors across Table II sub-benchmarks.
var (
	tableIIOnce  sync.Once
	tableIIScene *sim.OccludedScene
	tableIIDets  []detect.Detector
	tableIIErr   error
)

func tableIISetup(b *testing.B) (*sim.OccludedScene, []detect.Detector) {
	b.Helper()
	tableIIOnce.Do(func() {
		tableIIScene, tableIIErr = detect.CanonicalScene()
		if tableIIErr != nil {
			return
		}
		tableIIDets, tableIIErr = detect.DefaultDetectors(7)
	})
	if tableIIErr != nil {
		b.Fatal(tableIIErr)
	}
	return tableIIScene, tableIIDets
}

// BenchmarkTableII_Detection times each detection method on the
// canonical occluded frame — the direct analogue of Table II's
// execution-time column. The hit/miss pattern is asserted.
func BenchmarkTableII_Detection(b *testing.B) {
	scene, dets := tableIISetup(b)
	wantHit := map[string]bool{"bgs": true, "sparse-of": false, "dense-of": true, "yolite": false}
	for _, d := range dets {
		d := d
		b.Run(d.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var rects []vision.Rect
			var err error
			for i := 0; i < b.N; i++ {
				rects, err = d.Detect(scene.Frames)
				if err != nil {
					b.Fatal(err)
				}
			}
			hit := detect.HitsZone(rects, scene.Zone, detect.HitOverlap)
			if hit != wantHit[d.Name()] {
				b.Fatalf("%s: detected=%v, want %v", d.Name(), hit, wantHit[d.Name()])
			}
		})
	}
}

// pipelineModels caches the trained scene models for the learning
// benchmarks (Tables III, V, throughput).
var (
	pipelineOnce sync.Once
	pipelineTM   *experiments.TrainedModels
	pipelineErr  error
)

func pipelineSetup(b *testing.B) *experiments.TrainedModels {
	b.Helper()
	pipelineOnce.Do(func() {
		pipelineTM, pipelineErr = experiments.TrainSceneModels(experiments.Quick())
	})
	if pipelineErr != nil {
		b.Fatal(pipelineErr)
	}
	return pipelineTM
}

// BenchmarkTableIII_SceneAccuracy times per-scene evaluation and
// reports the Table III accuracies as metrics.
func BenchmarkTableIII_SceneAccuracy(b *testing.B) {
	tm := pipelineSetup(b)
	b.ResetTimer()
	var rows []experiments.AccuracyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableIII(tm)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Top1, r.Name+"-top1")
	}
}

// BenchmarkTableIV_Architectures times one training+evaluation run
// per architecture on a small daytime set.
func BenchmarkTableIV_Architectures(b *testing.B) {
	cfg := experiments.Quick()
	vp := vision.DefaultVPConfig()
	clips := makeBenchClips(b, cfg.ClipLen, 24)
	builders := map[string]video.Builder{
		"slowfast": video.SlowFastBuilder(video.SlowFastConfig{
			T: cfg.ClipLen, H: vp.GridH, W: vp.GridW, Alpha: 8, Classes: 2, Lateral: true, Seed: 1,
		}),
		"c3d": video.C3DBuilder(video.SlowFastConfig{
			T: cfg.ClipLen, H: vp.GridH, W: vp.GridW, Alpha: 8, Classes: 2, Lateral: true, Seed: 2,
		}),
		"tsn": video.TSNBuilder(video.SlowFastConfig{
			T: cfg.ClipLen, H: vp.GridH, W: vp.GridW, Alpha: 8, Classes: 2, Lateral: true, Seed: 3,
		}),
	}
	for name, builder := range builders {
		builder := builder
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := builder()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := video.Train(m, clips, video.TrainConfig{Epochs: 2, LR: 0.008, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTableV_FewShotAblation times the Table V evaluation and
// reports the with/without accuracies.
func BenchmarkTableV_FewShotAblation(b *testing.B) {
	tm := pipelineSetup(b)
	b.ResetTimer()
	var rows []experiments.AccuracyRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableV(tm)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Top1, shorten(r.Name)+"-top1")
	}
}

func shorten(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		if r == ' ' {
			out = append(out, '-')
		} else {
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkTableVI_ModelSwitching times the two switching methods per
// model on the simulated GPU and reports virtual-time latencies (ms).
func BenchmarkTableVI_ModelSwitching(b *testing.B) {
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range pipeswitch.BuiltinModels() {
		m := m
		b.Run(m.Name+"/stop-and-start", func(b *testing.B) {
			var rep pipeswitch.Report
			for i := 0; i < b.N; i++ {
				rep, err = pipeswitch.StopAndStart{}.Switch(dev, nil, m)
				if err != nil {
					b.Fatal(err)
				}
				dev.Reset()
			}
			b.ReportMetric(float64(rep.Total.Microseconds())/1000, "virtual-ms")
		})
		b.Run(m.Name+"/pipeswitch", func(b *testing.B) {
			var rep pipeswitch.Report
			for i := 0; i < b.N; i++ {
				rep, err = pipeswitch.Pipelined{}.Switch(dev, nil, m)
				if err != nil {
					b.Fatal(err)
				}
				dev.Reset()
			}
			b.ReportMetric(float64(rep.Total.Microseconds())/1000, "virtual-ms")
		})
	}
}

// BenchmarkTableVI_GroupingAblation times the grouping-strategy
// ablation (per-layer vs single vs optimal DP).
func BenchmarkTableVI_GroupingAblation(b *testing.B) {
	m := pipeswitch.ResNet152()
	cfg := gpusim.DefaultConfig()
	b.Run("optimal-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeswitch.OptimalBoundaries(m, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThroughput_ClosedLoop times the Sec. V-D closed-loop
// simulation and reports the improvement.
func BenchmarkThroughput_ClosedLoop(b *testing.B) {
	var res *safecross.SimThroughputResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = safecross.SimulateThroughput(sim.Day, 3000, 11)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Improvement, "turn-gain")
}

// BenchmarkThroughput_Classification times the blind-zone clip
// classification path with the trained pipeline.
func BenchmarkThroughput_Classification(b *testing.B) {
	tm := pipelineSetup(b)
	b.ResetTimer()
	var rep *experiments.ThroughputReport
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Throughput(tm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Classification.ThroughputGain, "gain")
	b.ReportMetric(rep.Classification.Accuracy, "accuracy")
}

// BenchmarkFig3_VPPipeline times one frame through the VP pipeline
// (background subtraction, opening, occupancy grid) — the per-frame
// cost of the deployed system's pre-processing. "process" returns a
// fresh grid, as dataset generation uses it; "framework-warm" is the
// deployed path — scene detection, VP into the clip ring, the clip
// fill and a free verdict — and fails if a warm frame touches the
// heap.
func BenchmarkFig3_VPPipeline(b *testing.B) {
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 9})
	frames := world.RunFrames(40)

	b.Run("process", func(b *testing.B) {
		vp := vision.NewPreprocessor(vision.DefaultVPConfig())
		for _, f := range frames[:8] {
			if _, err := vp.Process(f); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := vp.Process(frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("framework-warm", func(b *testing.B) {
		det, err := weather.FitFromSim(20, 12345)
		if err != nil {
			b.Fatal(err)
		}
		verdict := func(context.Context, sim.Weather, *tensor.Tensor, bool) (int, error) { return dataset.ClassSafe, nil }
		fw, err := safecross.NewServed(safecross.Config{}, verdict, det)
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		step := func(i int) {
			if _, err := fw.ProcessFrameContext(ctx, frames[i%len(frames)]); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < sim.SegmentFrames; i++ {
			step(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		b.StopTimer()
		if allocs := testing.AllocsPerRun(sim.SegmentFrames, func() { step(0) }); allocs != 0 {
			b.Fatalf("warm frame allocates %v times, want 0", allocs)
		}
	})
}

// BenchmarkSceneDetect times the per-frame weather scene detection
// (feature extraction, nearest centroid, debounce) that precedes VP on
// every frame.
func BenchmarkSceneDetect(b *testing.B) {
	det, err := weather.FitFromSim(20, 12345)
	if err != nil {
		b.Fatal(err)
	}
	frames := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 9}).RunFrames(40)
	mon := weather.NewMonitor(det, sim.Day, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Observe(frames[i%len(frames)])
	}
}

// BenchmarkFig8_SlowFastInference times clip classification — the
// real-time budget of the deployed warning path. Both sub-benchmarks
// classify the same 8 clips per iteration: "per-clip" drives the
// allocating single-clip forward once per clip, "batched-ws" stacks
// them into one batch-native forward pass fed from a reused
// workspace, so allocs/op compares the two memory models directly.
func BenchmarkFig8_SlowFastInference(b *testing.B) {
	tm := pipelineSetup(b)
	const batch = 8
	clipSet := makeBenchClips(b, tm.Cfg.ClipLen, batch)
	clips := make([]*tensor.Tensor, batch)
	for i, c := range clipSet {
		clips[i] = c.Input
	}
	m := tm.Models[sim.Day]

	b.Run("per-clip", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, clip := range clips {
				if _, err := video.Predict(m, clip); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched-ws", func(b *testing.B) {
		// Warm the workspace outside the timed loop: the first pass
		// sizes its slab, the second allocates it.
		ws := nn.NewWorkspace()
		for i := 0; i < 2; i++ {
			if _, err := video.PredictBatch(m, clips, ws); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := video.PredictBatch(m, clips, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkConv3DEval times the eval-mode Conv3D forward
// (nn.Conv3D.ForwardWS) at the five convolutions of SlowFast at T = 32
// on the 10×16 grid. "real" feeds each layer the input it sees when the
// trained Day model classifies a VP clip — mostly exact zeros, which
// the direct kernel skips; "randn" feeds a dense normal input of the
// same shape, the kernel's worst case. zeros% is the input's share of
// exact zeros.
func BenchmarkConv3DEval(b *testing.B) {
	layers, inputs := slowFastConvInputs(b)
	rng := rand.New(rand.NewSource(1))
	for i, l := range layers {
		for _, in := range []struct {
			name string
			x    *tensor.Tensor
		}{
			{"real", inputs[i]},
			{"randn", tensor.RandnTensor(rng, 1, inputs[i].Shape...)},
		} {
			b.Run(slowFastConvs[i].name+"/"+in.name, func(b *testing.B) {
				ws := nn.NewWorkspace()
				forward := func() {
					if _, err := l.ForwardWS(in.x, ws); err != nil {
						b.Fatal(err)
					}
					ws.Reset()
				}
				forward()
				forward()
				b.ReportAllocs()
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					forward()
				}
				b.StopTimer()
				zeros := 0
				for _, v := range in.x.Data {
					if v == 0 {
						zeros++
					}
				}
				b.ReportMetric(100*float64(zeros)/float64(in.x.Len()), "zeros%")
			})
		}
	}
}

// BenchmarkSlowFastStream times one window of a sliding clip through
// the trained T = 32 Day model: the windows slide one frame at a time
// over real VP grids of a seeded Day world, as a framework's clip ring
// does. "full" runs the whole forward every window (ForwardBatch of one
// clip, what video.PredictWS runs); "stream" runs ForwardStream through
// one Stream, which computes only the early conv frames the previous
// windows did not. The windows loop, so the stream re-anchors once per
// pass over them (anchors/op). Both must give == logits on every window
// before anything is timed.
func BenchmarkSlowFastStream(b *testing.B) {
	slowFastConvInputs(b) // trains the T = 32 models once
	m, ok := t32TM.Models[sim.Day].(*video.SlowFast)
	if !ok {
		b.Fatalf("the Day model is a %T, not a SlowFast", t32TM.Models[sim.Day])
	}
	m.SetTrain(false)
	windows := slidingVPClips(b, m.Config().T, 240)

	ws := nn.NewWorkspace()
	var st video.Stream
	for _, clip := range windows {
		want, err := m.ForwardBatch([]*tensor.Tensor{clip}, ws)
		if err != nil {
			b.Fatal(err)
		}
		got, err := m.ForwardStream(&st, clip, ws)
		if err != nil {
			b.Fatal(err)
		}
		for k, v := range want[0].Data {
			if got.Data[k] != v {
				b.Fatalf("streamed logit %d is %v, full forward gives %v", k, got.Data[k], v)
			}
		}
		ws.Reset()
	}

	b.Run("full", func(b *testing.B) {
		clips := make([]*tensor.Tensor, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clips[0] = windows[i%len(windows)]
			if _, err := m.ForwardBatch(clips, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		var st video.Stream
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.ForwardStream(&st, windows[i%len(windows)], ws); err != nil {
				b.Fatal(err)
			}
			ws.Reset()
		}
		b.StopTimer()
		b.ReportMetric(float64(st.Anchors)/float64(b.N), "anchors/op")
	})
}

// slidingVPClips renders a seeded Day world, runs every frame through
// VP (after a few frames that prime the background model) and returns
// n clips of t grids, each one frame later than the last.
func slidingVPClips(b *testing.B, t, n int) []*tensor.Tensor {
	b.Helper()
	const prime = 8
	frames := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 1}).RunFrames(prime + t + n - 1)
	vp := vision.NewPreprocessor(vision.DefaultVPConfig())
	grids := make([]*vision.Image, len(frames))
	for i, f := range frames {
		g, err := vp.Process(f)
		if err != nil {
			b.Fatal(err)
		}
		grids[i] = g
	}
	grids = grids[prime:]
	clips := make([]*tensor.Tensor, n)
	for i := range clips {
		clip, err := vision.ClipTensor(grids[i : i+t])
		if err != nil {
			b.Fatal(err)
		}
		clips[i] = clip
	}
	return clips
}

// slowFastConvs are the Conv3D layers of the default SlowFast
// (internal/video), named as its parameters are.
var slowFastConvs = []struct {
	name string
	cfg  nn.Conv3DConfig
}{
	{"fast.conv1", nn.Conv3DConfig{InC: 1, OutC: 3, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}},
	{"fast.conv2", nn.Conv3DConfig{InC: 3, OutC: 6, KT: 3, KH: 3, KW: 3, ST: 2, SH: 1, SW: 1, PT: 1, PH: 1, PW: 1}},
	{"slow.conv1", nn.Conv3DConfig{InC: 1, OutC: 10, KT: 1, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 0, PH: 1, PW: 1}},
	{"lateral.conv", nn.Conv3DConfig{InC: 6, OutC: 6, KT: 3, KH: 1, KW: 1, ST: 4, SH: 1, SW: 1, PT: 1, PH: 0, PW: 0}},
	{"fuse.conv1", nn.Conv3DConfig{InC: 16, OutC: 16, KT: 3, KH: 3, KW: 3, ST: 1, SH: 2, SW: 2, PT: 1, PH: 1, PW: 1}},
}

// slowFastConvInputs trains the scene models at the paper's clip length
// (the quick profile at T = 32, as the end-to-end benchmark does),
// copies the Day model's weights into standalone layers in
// slowFastConvs order, and runs one VP clip through them in SlowFast's
// eval order, returning the input each layer sees.
func slowFastConvInputs(b *testing.B) ([]*nn.Conv3D, []*tensor.Tensor) {
	b.Helper()
	t32Once.Do(func() {
		cfg := experiments.Quick()
		cfg.ClipLen = 32
		t32TM, t32Err = experiments.TrainSceneModels(cfg)
	})
	if t32Err != nil {
		b.Fatal(t32Err)
	}
	trained := make(map[string]*nn.Param)
	for _, p := range t32TM.Models[sim.Day].Params() {
		trained[p.Name] = p
	}
	rng := rand.New(rand.NewSource(1))
	layers := make([]*nn.Conv3D, len(slowFastConvs))
	for i, c := range slowFastConvs {
		w, bias := trained[c.name+".weight"], trained[c.name+".bias"]
		if w == nil || bias == nil {
			b.Fatalf("the Day model has no conv %q", c.name)
		}
		layers[i] = nn.NewConv3D(c.name, c.cfg, rng)
		if err := nn.CopyParams(layers[i].Params(), []*nn.Param{w, bias}); err != nil {
			b.Fatal(err)
		}
		layers[i].SetTrain(false)
	}
	forward := func(i int, x *tensor.Tensor, relu bool) *tensor.Tensor {
		y, err := layers[i].Forward(x)
		if err == nil && relu {
			y, err = nn.NewReLU().Forward(y)
		}
		if err != nil {
			b.Fatal(err)
		}
		return y
	}
	x := makeBenchClips(b, 32, 1)[0].Input
	spat := x.Shape[2] * x.Shape[3]
	slowIn := tensor.New(1, x.Shape[1]/8, x.Shape[2], x.Shape[3])
	for f := range slowIn.Shape[1] {
		copy(slowIn.Data[f*spat:(f+1)*spat], x.Data[8*f*spat:])
	}
	hidden := forward(0, x, true)
	fast := forward(1, hidden, true)
	slow := forward(2, slowIn, true)
	fused, err := nn.ConcatChannels4D(slow, forward(3, fast, false))
	if err != nil {
		b.Fatal(err)
	}
	return layers, []*tensor.Tensor{x, hidden, slowIn, fast, fused}
}

var (
	t32Once sync.Once
	t32TM   *experiments.TrainedModels
	t32Err  error
)

// BenchmarkDetectEval_Yolite times the detector's steady-state frame
// eval — the deployed per-frame path: ScoreMapWS through the reused
// workspace plus connected-component boxing. Before timing it asserts
// the warm score path allocates nothing at all: the workspace owns
// the frame copy, every conv scratch buffer, and the sigmoid map.
func BenchmarkDetectEval_Yolite(b *testing.B) {
	d := yoliteSetup(b)
	scene, err := detect.CanonicalScene()
	if err != nil {
		b.Fatal(err)
	}
	frames := scene.Frames
	frame := frames[len(frames)-1]

	ws := nn.NewWorkspace()
	if _, err := d.ScoreMapWS(frame, ws); err != nil {
		b.Fatal(err) // warm the workspace outside the assertion
	}
	ws.Reset()
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.ScoreMapWS(frame, ws); err != nil {
			b.Fatal(err)
		}
		ws.Reset()
	}); allocs > 0 {
		b.Fatalf("steady-state detect score path allocates %.0f/run, want 0", allocs)
	}

	if _, err := d.Detect(frames); err != nil {
		b.Fatal(err) // warm the detector's private workspace and mask
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rects []vision.Rect
	for i := 0; i < b.N; i++ {
		rects, err = d.Detect(frames)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rects)), "boxes")
}

// cachedYoliteBench trains the detector once per benchmark binary.
var (
	yoliteBenchOnce sync.Once
	yoliteBenchDet  *detect.Yolite
	yoliteBenchErr  error
)

func yoliteSetup(b *testing.B) *detect.Yolite {
	b.Helper()
	yoliteBenchOnce.Do(func() {
		yoliteBenchDet, yoliteBenchErr = detect.TrainYolite(7, 8)
	})
	if yoliteBenchErr != nil {
		b.Fatal(yoliteBenchErr)
	}
	return yoliteBenchDet
}

// BenchmarkFewshotAdapt times one full few-shot episode on the
// trained daytime model: the MAML inner loop on a 4-clip support set
// (train-mode forwards) followed by query evaluation through the
// batch engine. The reused workspace means the eval half of
// the episode stops allocating once warm — allocs/op is dominated by
// adaptation, the part that must stay on the training path.
func BenchmarkFewshotAdapt(b *testing.B) {
	tm := pipelineSetup(b)
	m, err := fewshot.NewFromPretrained(tm.Builder, tm.Models[sim.Day])
	if err != nil {
		b.Fatal(err)
	}
	clips := makeBenchClips(b, tm.Cfg.ClipLen, 12)
	task := fewshot.Task{Support: clips[:4], Query: clips[4:]}
	ws := nn.NewWorkspace()
	if _, _, err := m.EvalTask(task, 2, 0.05, ws); err != nil {
		b.Fatal(err) // warm the eval workspace outside the timed loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cm *nn.ConfusionMatrix
	for i := 0; i < b.N; i++ {
		_, cm, err = m.EvalTask(task, 2, 0.05, ws)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cm.Top1(), "query-top1")
}

// BenchmarkServe_MultiIntersection drives the inference-serving plane
// with concurrent intersection feeds, comparing the per-clip
// single-GPU baseline against the dynamically batched multi-GPU
// configuration and a bursty 16-feed overload that exercises the
// adaptive batch-target growth. Throughput is reported in virtual GPU
// time (virt-clip/s), which is deterministic and independent of host
// core count; wall-clock clips/s is the standard benchmark metric.
func BenchmarkServe_MultiIntersection(b *testing.B) {
	builder := video.SlowFastBuilder(video.SlowFastConfig{
		T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 7,
	})
	models := make(map[sim.Weather]video.Classifier)
	for _, scene := range sim.AllWeathers() {
		m, err := builder()
		if err != nil {
			b.Fatal(err)
		}
		models[scene] = m
	}
	factory := serve.Replicas(builder, models)

	const clipsPer = 12
	configs := []struct {
		name  string
		feeds int
		// burst is how many clips each feed has outstanding at once: 1
		// models a camera that waits for each verdict, larger values
		// model arrival bursts (backed-up RTSP frames flushing at once)
		// that build real queue depth and force the adaptive batch
		// target to grow.
		burst int
		cfg   serve.Config
	}{
		{"baseline-1gpu", 4, 1, serve.Config{Workers: 1, MaxBatch: 1, QueueDepth: 256, SLO: time.Minute}},
		{"batched-4gpu", 4, 1, serve.Config{Workers: 4, MaxBatch: 8, QueueDepth: 256, SLO: time.Minute}},
		// The burst plane runs a 1ms batch window: with sub-millisecond
		// per-clip compute, the adaptive growth gate (compute p50 vs a
		// quarter of the window) stays open, so the target tracks the
		// backlog instead of pinning at 1.
		{"burst-16feeds-4gpu", 16, 4, serve.Config{Workers: 4, MaxBatch: 8, QueueDepth: 512, BatchLatency: time.Millisecond, SLO: time.Minute}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			// Server construction (model replica cloning) happens once,
			// outside the timed loop: the benchmark measures the serving
			// path — queueing, batching, switching, batched inference —
			// with long-lived workers, the deployed steady state.
			s, err := serve.New(c.cfg, factory)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			round := func() {
				var wg sync.WaitGroup
				for p := 0; p < c.feeds; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(100 + p)))
						for j := 0; j < clipsPer; j += c.burst {
							var bwg sync.WaitGroup
							for k := 0; k < c.burst && j+k < clipsPer; k++ {
								clip := tensor.RandnTensor(rng, 1, 1, 16, 10, 16)
								scene := sim.AllWeathers()[(p+j+k)%3]
								bwg.Add(1)
								go func() {
									defer bwg.Done()
									if _, err := s.Submit(context.Background(), serve.Request{Scene: scene, Clip: clip}); err != nil {
										b.Error(err)
									}
								}()
							}
							bwg.Wait()
						}
					}(p)
				}
				wg.Wait()
			}
			// One untimed round first: each worker's first batches size
			// its scratch slab and load the scene models, one-time costs
			// that would otherwise be spread over however many rounds
			// the harness picks for b.N.
			round()
			warm := s.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			st := s.Stats()
			if done := st.Completed - warm.Completed; done != b.N*c.feeds*clipsPer {
				b.Fatalf("%d of %d clips completed", done, b.N*c.feeds*clipsPer)
			}
			b.ReportMetric(st.VirtualThroughput(), "virt-clip/s")
			b.ReportMetric(float64(st.P99.Microseconds()), "p99-µs")
			b.ReportMetric(st.MeanBatch(), "mean-batch")
			// The adaptive batch-sizing series: the live early-seal
			// target plus its high-water mark, and the workers'
			// workspace reuse split. Under the burst config the target must react
			// to queue depth, so its max rises above 1.
			b.ReportMetric(float64(st.BatchTargetMax), "batch-target-max")
			b.ReportMetric(float64(st.WorkspaceHits-warm.WorkspaceHits)/float64(b.N), "ws-hits/op")
			b.ReportMetric(float64(st.WorkspaceMisses-warm.WorkspaceMisses)/float64(b.N), "ws-misses/op")
			b.ReportMetric(float64(st.Switches-warm.Switches)/float64(b.N), "switches/op")
			// Scrape the telemetry registry the serving plane recorded
			// into: queue-wait and switch-cost land in BENCH_infer.json
			// via cmd/benchjson, which folds every ReportMetric unit
			// into the benchmark's Metrics map.
			reg := s.Metrics()
			if h := reg.FindHistogram("serve_queue_wait_seconds"); h != nil && h.Count() > 0 {
				b.ReportMetric(float64(h.QuantileDuration(0.99).Microseconds()), "queue-wait-p99-µs")
			}
			if h := reg.FindHistogram("serve_switch_cost_seconds"); h != nil && h.Count() > 0 {
				b.ReportMetric(float64(h.QuantileDuration(0.99).Microseconds()), "switch-cost-p99-µs")
			}
			// The SLO view of the same run: burn rate for a 250ms
			// queue-wait objective at p99, computed from the identical
			// histogram state the fleet's burn-rate engine evaluates. A
			// burn of 0 means the whole run stayed inside the objective;
			// anything ≥ 1 would be eating error budget faster than
			// sustainable.
			slos := telemetry.NewSLOEngine(telemetry.SLOEngineConfig{Metrics: reg})
			if err := slos.Add(telemetry.SLO{
				Name: "queue-wait", Series: "serve_queue_wait_seconds",
				Objective: 250 * time.Millisecond, Target: 0.99,
			}, reg); err == nil {
				slos.Tick(time.Now())
				if burn, _, ok := slos.BurnRates("queue-wait"); ok {
					b.ReportMetric(burn, "slo-burn")
				}
			}
		})
	}
}

// BenchmarkServe_MemoryPressure drives the serving plane with a
// per-worker memory budget that holds a single SlowFast model while
// three scenes rotate through it, so every scene change forces an LRU
// eviction and returning scenes pay a PipeSwitch reload. The run must
// complete every clip — memory pressure degrades latency, never
// correctness — and the churn is reported as evictions/reloads
// alongside the per-class queue-wait percentiles.
func BenchmarkServe_MemoryPressure(b *testing.B) {
	builder := video.SlowFastBuilder(video.SlowFastConfig{
		T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 11,
	})
	models := make(map[sim.Weather]video.Classifier)
	for _, scene := range sim.AllWeathers() {
		m, err := builder()
		if err != nil {
			b.Fatal(err)
		}
		models[scene] = m
	}
	factory := serve.Replicas(builder, models)

	const intersections, clipsPer = 4, 12
	cfg := serve.Config{
		Workers:    2,
		MaxBatch:   8,
		QueueDepth: 256,
		SLO:        time.Minute,
		// Fits exactly one 75 MiB SlowFast manifest: the three scene
		// models cannot co-reside, so rotation forces churn.
		WorkerMemory: (75 + 1) << 20,
	}
	s, err := serve.New(cfg, factory)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for p := 0; p < intersections; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(200 + p)))
				for j := 0; j < clipsPer; j++ {
					clip := tensor.RandnTensor(rng, 1, 1, 16, 10, 16)
					req := serve.Request{Scene: sim.AllWeathers()[(p+j)%3], Clip: clip}
					if j%4 == 0 {
						req.Priority = serve.Critical
					}
					if _, err := s.Submit(context.Background(), req); err != nil {
						b.Error(err)
						return
					}
				}
			}(p)
		}
		wg.Wait()
	}
	b.StopTimer()
	st := s.Stats()
	if st.Completed != b.N*intersections*clipsPer || st.Failed != 0 {
		b.Fatalf("memory pressure dropped clips: %+v", st)
	}
	if st.Evictions < 1 || st.Reloads < 1 {
		b.Fatalf("budgeted workers produced no churn: evictions=%d reloads=%d", st.Evictions, st.Reloads)
	}
	b.ReportMetric(st.VirtualThroughput(), "virt-clip/s")
	clips := float64(b.N * intersections * clipsPer)
	b.ReportMetric(float64(st.Evictions)/clips, "evictions/clip")
	b.ReportMetric(float64(st.Reloads)/clips, "reloads/clip")
	b.ReportMetric(float64(st.CriticalQueueP95.Microseconds()), "crit-p95-µs")
	b.ReportMetric(float64(st.RoutineQueueP95.Microseconds()), "rout-p95-µs")
}

// makeBenchClips builds a small clip set for benchmarks.
func makeBenchClips(b *testing.B, clipLen, n int) []*dataset.Clip {
	b.Helper()
	vp := vision.DefaultVPConfig()
	clips := make([]*dataset.Clip, 0, n)
	for i := 0; i < n; i++ {
		sc := sim.Scenario{
			Weather: sim.Day, Danger: i%2 == 0, Blind: i%4 < 2,
			Seed: int64(600 + i*41),
		}
		seg, err := sc.GenerateN(clipLen)
		if err != nil {
			b.Fatal(err)
		}
		clip, err := dataset.FromSegment(seg, vp)
		if err != nil {
			b.Fatal(err)
		}
		clips = append(clips, clip)
	}
	return clips
}
