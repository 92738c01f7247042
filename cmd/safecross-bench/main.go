// Command safecross-bench regenerates the paper's tables and figures
// on the synthetic substrate.
//
// Usage:
//
//	safecross-bench -all                 # every table and figure
//	safecross-bench -table 3 -profile standard
//	safecross-bench -fig 8
//	safecross-bench -serve               # multi-intersection serving study
//
// Profiles scale the learning experiments: quick (≈2 % of Table I,
// seconds), standard (≈10 %, minutes), full (paper scale).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"safecross/internal/experiments"
	"safecross/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "safecross-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("safecross-bench", flag.ContinueOnError)
	var (
		table     = fs.Int("table", 0, "table number to regenerate (1–6, 7 = Sec. V-D throughput)")
		fig       = fs.Int("fig", 0, "figure number to regenerate (3 or 8)")
		all       = fs.Bool("all", false, "regenerate everything")
		ablations = fs.Bool("ablations", false, "run the design-choice ablation studies")
		serveCmp  = fs.Bool("serve", false, "run the multi-intersection serving study (batched multi-GPU vs single GPU)")
		profile   = fs.String("profile", "quick", "experiment profile: quick | standard | full")
		reps      = fs.Int("reps", 3, "timing repetitions for Table II")
		verbose   = fs.Bool("v", false, "log training progress")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := profileConfig(*profile)
	if err != nil {
		return err
	}
	if *verbose {
		cfg.Log = w
	}
	if !*all && *table == 0 && *fig == 0 && !*ablations && !*serveCmp {
		fs.Usage()
		return fmt.Errorf("nothing selected; use -all, -table N, -fig N, -ablations, or -serve")
	}

	wantTable := func(n int) bool { return *all || *table == n }
	wantFig := func(n int) bool { return *all || *fig == n }

	// Tables III, V, and the throughput study share one training
	// pipeline; build it lazily.
	var tm *experiments.TrainedModels
	pipeline := func() (*experiments.TrainedModels, error) {
		if tm != nil {
			return tm, nil
		}
		fmt.Fprintf(w, "== training pipeline (profile %s: scale %.2f, clips of %d frames) ==\n",
			*profile, cfg.Scale, cfg.ClipLen)
		start := time.Now()
		var err error
		tm, err = experiments.TrainSceneModels(cfg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "pipeline trained in %v\n\n", time.Since(start).Round(time.Millisecond))
		return tm, nil
	}

	if wantTable(1) {
		if err := printTableI(w, cfg); err != nil {
			return err
		}
	}
	if wantTable(2) {
		if err := printTableII(w, *reps, cfg.Seed); err != nil {
			return err
		}
	}
	if wantTable(3) {
		p, err := pipeline()
		if err != nil {
			return err
		}
		if err := printTableIII(w, p); err != nil {
			return err
		}
	}
	if wantTable(4) {
		if err := printTableIV(w, cfg); err != nil {
			return err
		}
	}
	if wantTable(5) {
		p, err := pipeline()
		if err != nil {
			return err
		}
		if err := printTableV(w, p); err != nil {
			return err
		}
	}
	if wantTable(6) {
		if err := printTableVI(w); err != nil {
			return err
		}
	}
	if wantTable(7) {
		p, err := pipeline()
		if err != nil {
			return err
		}
		if err := printThroughput(w, p); err != nil {
			return err
		}
	}
	if wantFig(3) {
		fmt.Fprintln(w, "== Figure 3: VP pipeline stages ==")
		if err := experiments.Fig3(w, 71); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if wantFig(8) {
		fmt.Fprintln(w, "== Figure 8: detection comparison ==")
		if err := experiments.Fig8(w, cfg.Seed+6); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if *all || *ablations {
		if err := printAblations(w, cfg); err != nil {
			return err
		}
	}
	if *all || *serveCmp {
		if err := printServeBench(w); err != nil {
			return err
		}
	}
	return nil
}

func printAblations(w io.Writer, cfg experiments.Config) error {
	fmt.Fprintln(w, "== Ablations: design choices ==")

	lat, err := experiments.AblateSlowFastLateral(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "-- SlowFast lateral connections --")
	fmt.Fprintf(w, "%-22s %-10s %-14s %s\n", "variant", "top1", "mean-class", "params")
	for _, r := range lat {
		fmt.Fprintf(w, "%-22s %-10.4f %-14.4f %d\n", r.Variant, r.Top1, r.MeanClass, r.Params)
	}

	morph, err := experiments.AblateVPMorphology()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- VP morphological opening (noisy camera) --")
	fmt.Fprintf(w, "%-18s %-12s %s\n", "variant", "detections", "finds car")
	for _, r := range morph {
		fmt.Fprintf(w, "%-18s %-12d %v\n", r.Variant, r.Detections, r.FoundCar)
	}

	bgRows, err := experiments.AblateBackgroundModel()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- dynamic vs static background under illumination drift --")
	fmt.Fprintf(w, "%-22s %s\n", "variant", "false-foreground frac")
	for _, r := range bgRows {
		fmt.Fprintf(w, "%-22s %.5f\n", r.Variant, r.FalseForeground)
	}

	inner, err := experiments.AblateMAMLInnerSteps(cfg, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n-- few-shot inner-loop steps (snow adaptation) --")
	fmt.Fprintf(w, "%-8s %s\n", "steps", "top1")
	for _, r := range inner {
		fmt.Fprintf(w, "%-8d %.4f\n", r.Steps, r.Top1)
	}
	fmt.Fprintln(w)
	return nil
}

func profileConfig(name string) (experiments.Config, error) {
	switch name {
	case "quick":
		return experiments.Quick(), nil
	case "standard":
		return experiments.Standard(), nil
	case "full":
		return experiments.Full(), nil
	default:
		return experiments.Config{}, fmt.Errorf("unknown profile %q", name)
	}
}

func printTableI(w io.Writer, cfg experiments.Config) error {
	rows, err := experiments.TableI(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table I: dataset overview (paper: 1966 day / 34 rain / 855 snow, 32-frame segments) ==")
	fmt.Fprintf(w, "%-8s %-10s %-8s %-8s %-8s %-8s\n", "scene", "segments", "frames", "danger", "safe", "blind")
	total := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-8s %-10d %-8d %-8d %-8d %-8d\n",
			r.Scene, r.Segments, r.Frames, r.Danger, r.Safe, r.Blind)
		total += r.Segments
	}
	fmt.Fprintf(w, "total segments: %d (scale %.2f of the paper's 2855)\n\n", total, cfg.Scale)
	return nil
}

func printTableII(w io.Writer, reps int, seed int64) error {
	fmt.Fprintln(w, "== Table II: detection-method execution time (paper: BGS 0.74ms yes | sparse 6.43ms no | dense 224ms yes | YOLOv3 256ms no) ==")
	rows, err := experiments.TableII(reps, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-14s %-9s %-10s %s\n", "method", "time/frame", "MFLOP", "detected", "detections")
	for _, r := range rows {
		mflop := "-"
		if r.Flops > 0 {
			mflop = fmt.Sprintf("%.1f", float64(r.Flops)/1e6)
		}
		fmt.Fprintf(w, "%-10s %-14v %-9s %-10v %d\n", r.Method, r.MeanTime.Round(10*time.Microsecond), mflop, r.Detected, r.Detections)
	}
	fmt.Fprintln(w)
	return nil
}

func printTableIII(w io.Writer, tm *experiments.TrainedModels) error {
	rows, err := experiments.TableIII(tm)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table III: accuracy per scene (paper: day .963/.967 | snow .942/.951 | rain .852/.864) ==")
	printAccuracy(w, rows)
	return nil
}

func printTableIV(w io.Writer, cfg experiments.Config) error {
	rows, err := experiments.TableIV(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table IV: architecture comparison on daytime data (paper: slowfast .963/.967 | c3d .964/.934 | tsn .886/.754) ==")
	printAccuracy(w, rows)
	return nil
}

func printTableV(w io.Writer, tm *experiments.TrainedModels) error {
	rows, err := experiments.TableV(tm)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table V: few-shot ablation (paper: snow .942/.951 vs .889/.865 | rain .852/.864 vs .546/.583) ==")
	printAccuracy(w, rows)
	return nil
}

func printAccuracy(w io.Writer, rows []experiments.AccuracyRow) {
	fmt.Fprintf(w, "%-36s %-10s %-14s %s\n", "name", "top1", "mean-class", "test clips")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %-10.4f %-14.4f %d\n", r.Name, r.Top1, r.MeanClass, r.TestClips)
	}
	fmt.Fprintln(w)
}

func printTableVI(w io.Writer) error {
	rows, err := experiments.TableVI()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "== Table VI: model switching (paper: end-start 5615/4081/3612 ms; PipeSwitch 6.06/5.30/4.32 ms) ==")
	fmt.Fprintf(w, "%-20s %-16s %-16s %s\n", "model", "stop-and-start", "pipeswitch", "groups")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-16v %-16v %d\n",
			r.Model,
			r.StopAndStart.Total.Round(time.Millisecond),
			r.PipeSwitch.Total.Round(10*time.Microsecond),
			r.PipeSwitch.Groups)
	}
	fmt.Fprintln(w)

	abl, err := experiments.GroupingAblation()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "-- grouping ablation (Sec. III-E-3) --")
	fmt.Fprintf(w, "%-20s %-12s %-14s %s\n", "model", "strategy", "latency", "groups")
	for _, r := range abl {
		fmt.Fprintf(w, "%-20s %-12s %-14v %d\n",
			r.Model, r.Strategy, r.Report.Total.Round(10*time.Microsecond), r.Report.Groups)
	}
	fmt.Fprintln(w)
	return nil
}

func printThroughput(w io.Writer, tm *experiments.TrainedModels) error {
	rep, err := experiments.Throughput(tm)
	if err != nil {
		return err
	}
	c := rep.Classification
	fmt.Fprintln(w, "== Sec. V-D: blind-zone throughput (paper: 63 clips, accuracy 1.0, +32/63 ≈ +50%) ==")
	fmt.Fprintf(w, "clips: %d (%d danger / %d safe)\n", c.Total, c.DangerClips, c.SafeClips)
	fmt.Fprintf(w, "accuracy: %.4f  unsafe releases: %d\n", c.Accuracy, c.UnsafeReleases)
	fmt.Fprintf(w, "throughput gain: +%.1f%% of blind-zone scenes released for an immediate turn\n", 100*c.ThroughputGain)
	fmt.Fprintln(w, "-- closed-loop simulation (turns completed over 6000 frames) --")
	for _, weather := range sim.AllWeathers() {
		l := rep.Loop[weather]
		fmt.Fprintf(w, "%-6s without SafeCross: %3d   with: %3d   improvement: +%.0f%%\n",
			weather, l.TurnsWithout, l.TurnsWith, 100*l.Improvement)
	}
	fmt.Fprintln(w)
	return nil
}
