package main

import (
	"fmt"
	"os"
	"time"

	"attila/internal/gpu"
	"attila/internal/jobd"
	"attila/internal/trace"
	"attila/internal/workload"
)

// workloadDef is one benchmark workload. Sizes are fixed; the seed
// only changes content (textures, terrain), never the shape of the run.
type workloadDef struct {
	name   string
	sweep  bool   // fig7-sweep: jobs through jobd instead of a trace replay
	scene  string // workload.Build scene for trace replays
	config string // jobd.ResolveConfig name for trace replays
	width  int
	height int
	frames int
	// minReps is the least number of timed repetitions per run, even
	// when they overrun the time budget.
	minReps int
}

var workloads = map[string]*workloadDef{
	// The paper's Table 1 baseline replaying the simple scene: three
	// triangles, so the front end idles and Z/colour writeback and
	// signal polling dominate the host time.
	"table1-simple": {name: "table1-simple", scene: "simple", config: "baseline",
		width: 256, height: 192, frames: 2, minReps: 3},
	// Multi-pass stencil shadows over three frames (swaps and fast
	// clears included): geometry, stencil, the memory controller and
	// shader scheduling are busy.
	"doom3-shadows": {name: "doom3-shadows", scene: "doom3", config: "baseline",
		width: 128, height: 96, frames: 3, minReps: 3},
	// The Fig. 7 case study as a 12-job sweep served by an in-process
	// jobd server with one worker and a preemption quantum.
	"fig7-sweep": {name: "fig7-sweep", sweep: true,
		width: 48, height: 36, frames: 2, minReps: 2},
}

// fig7PreemptCycles is the jobd fairness quantum for fig7-sweep. It is
// shorter than a job's first frame, so every job is checkpointed at
// its first quiesced barrier while others wait, and later restored.
const fig7PreemptCycles = 50_000

// maxCycles bounds every simulation the benchmark runs.
const maxCycles = 2_000_000_000

// makeTrace builds the workload's command stream for the seed through
// the GL driver and writes it as a trace file, the input an attilasim
// user replays. It returns the commands and the median build time of
// three builds.
func (d *workloadDef) makeTrace(seed int64, path string) ([]gpu.Command, trace.Header, float64, error) {
	cfg, err := jobd.ResolveConfig(d.config)
	if err != nil {
		return nil, trace.Header{}, 0, err
	}
	params := workload.Params{Width: d.width, Height: d.height, Frames: d.frames, Aniso: 8, Seed: seed}
	var cmds []gpu.Command
	var hdr trace.Header
	var builds []float64
	for i := 0; i < 3; i++ {
		// The pipeline is only the allocator: objects land exactly
		// where a pipeline of this size places them on replay.
		pipe, err := gpu.New(cfg, d.width, d.height)
		if err != nil {
			return nil, trace.Header{}, 0, err
		}
		t0 := time.Now()
		cmds, hdr, err = workload.Build(d.scene, pipe, params)
		builds = append(builds, time.Since(t0).Seconds())
		if err != nil {
			return nil, trace.Header{}, 0, err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, trace.Header{}, 0, err
	}
	w, err := trace.NewWriter(f, hdr)
	if err == nil {
		err = w.WriteCommands(cmds)
	}
	if err == nil {
		err = w.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, trace.Header{}, 0, fmt.Errorf("write trace %s: %w", path, err)
	}
	return cmds, hdr, median(builds), nil
}

// fig7Spec is the Fig. 7 case study: texture units 3/2/1 × window or
// in-order scheduling × ut2004 and doom3 on the unified-shader
// casestudy machine. Every configuration of a scene renders the same
// content, as in the paper. The seed sets the doom3 wall texture; the
// ut2004 terrain stays at content seed 1, because its cycle count
// swings by ±13% with the terrain, which would swamp every end-to-end
// metric of the sweep.
func fig7Spec(seed int64) jobd.SweepSpec {
	spec := jobd.SweepSpec{
		Name: fmt.Sprintf("fig7-seed%d", seed),
		Defaults: jobd.JobSpec{
			Width: workloads["fig7-sweep"].width, Height: workloads["fig7-sweep"].height,
			Frames: workloads["fig7-sweep"].frames, Aniso: 8,
		},
	}
	// jobd treats content seed 0 as "use the default" (1), so seed 0
	// and seed 1 give the same sweep.
	for _, scene := range []struct {
		name string
		seed int64
	}{{"ut2004", 1}, {"doom3", seed}} {
		for _, mode := range []string{"window", "inorder"} {
			for tus := 3; tus >= 1; tus-- {
				spec.Jobs = append(spec.Jobs, jobd.JobSpec{
					Name:     fmt.Sprintf("%s-%dtu-%s", scene.name, tus, mode),
					Config:   fmt.Sprintf("casestudy:%d:%s", tus, mode),
					Workload: scene.name,
					Seed:     scene.seed,
				})
			}
		}
	}
	return spec
}
