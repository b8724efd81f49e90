package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"attila/internal/chkpt"
	"attila/internal/gpu"
	"attila/internal/jobd"
	"attila/internal/trace"
	"attila/internal/workload"
)

// Each timed repetition runs in a fresh child process, so every run
// starts as a user's would: cold heap, empty simulated caches, and a
// peak RSS of its own. The parent writes a task file, runs
// "perfbench -child <task>", and reads the result file the child
// leaves next to it.

// Child modes.
const (
	modeReplay = "replay" // one attilasim-style run of a trace file
	modeDirect = "direct" // a sweep's jobs run directly, one after another
	modeSweep  = "sweep"  // a sweep served by an in-process jobd server
)

type task struct {
	Mode   string         `json:"mode"`
	Traced bool           `json:"traced"`
	Label  string         `json:"label"`
	Out    string         `json:"out"`
	Trace  string         `json:"trace,omitempty"`  // replay
	Config string         `json:"config,omitempty"` // replay
	Sweep  jobd.SweepSpec `json:"sweep,omitempty"`  // direct, sweep
	// PreemptCycles is the jobd fairness quantum (sweep).
	PreemptCycles int64 `json:"preemptCycles,omitempty"`
}

type childResult struct {
	SetupS float64 `json:"setup_s"`
	RunS   float64 `json:"run_s"`
	// SimS is the wall time inside the simulation calls (replays and
	// direct runs); MakespanS is the part of RunS after setup.
	SimS      float64 `json:"sim_s"`
	MakespanS float64 `json:"makespan_s"`
	Cycles    int64   `json:"cycles"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Allocs and GCPauseS are runtime deltas over the simulation.
	Allocs   uint64  `json:"allocs"`
	GCPauseS float64 `json:"gc_pause_s"`
	// NewS times every gpu.New in process order: the first is cold,
	// the rest run on a heap that already held a pipeline.
	NewS    []float64 `json:"new_s"`
	DecodeS float64   `json:"decode_s,omitempty"`
	BuildS  []float64 `json:"build_s,omitempty"`
	Frames  int       `json:"frames,omitempty"`

	Jobs  []jobResult        `json:"jobs,omitempty"`
	Layer *layerReport       `json:"layer,omitempty"`
	Stats map[string]float64 `json:"stats,omitempty"`
	Ckpt  []ckptReport       `json:"ckpt,omitempty"`
	Spans []span             `json:"spans"`
}

type jobResult struct {
	Name        string  `json:"name"`
	State       string  `json:"state"`
	Cycles      int64   `json:"cycles"`
	TurnaroundS float64 `json:"turnaround_s"`
	QueueWaitS  float64 `json:"queue_wait_s"`
	Attempts    int     `json:"attempts"`
	Preemptions int     `json:"preemptions"`
}

// ckptReport is one checkpoint round trip: capture, write, read back,
// restore into a fresh pipeline. Same is whether a capture of the
// restored machine equals the original section for section.
type ckptReport struct {
	CaptureS float64 `json:"capture_s"`
	WriteS   float64 `json:"write_s"`
	ReadS    float64 `json:"read_s"`
	RestoreS float64 `json:"restore_s"`
	Bytes    int64   `json:"bytes"`
	Same     bool    `json:"same"`
}

func childMain(taskPath string) int {
	var t task
	data, err := os.ReadFile(taskPath)
	if err == nil {
		err = json.Unmarshal(data, &t)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	res := &childResult{}
	var sp spanLog
	switch t.Mode {
	case modeReplay:
		err = replay(&t, res, &sp)
	case modeDirect:
		err = runDirect(&t, res, &sp)
	case modeSweep:
		err = serveSweep(&t, res, &sp)
	default:
		err = fmt.Errorf("unknown mode %q", t.Mode)
	}
	if err == nil {
		for i := range sp.spans {
			sp.spans[i].Process = t.Label
		}
		res.Spans = sp.spans
		data, err = json.Marshal(res)
	}
	if err == nil {
		err = os.WriteFile(filepath.Join(t.Out, "result.json"), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", t.Label, err)
		return 1
	}
	return 0
}

// replay is one cold attilasim run: decode the trace, build the
// machine, simulate, write the stats CSV, summary and frames.
func replay(t *task, res *childResult, sp *spanLog) error {
	t0 := time.Now()
	setup := sp.begin("setup", 0)
	dec := sp.begin("trace.decode", setup)
	f, err := os.Open(t.Trace)
	if err != nil {
		return err
	}
	r, err := trace.NewReader(f)
	var cmds []gpu.Command
	if err == nil {
		cmds, err = r.ReadAll(0, -1)
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("decode %s: %w", t.Trace, err)
	}
	hdr := r.Header()
	res.DecodeS = sp.end(dec)
	cfg, err := jobd.ResolveConfig(t.Config)
	if err != nil {
		return err
	}
	cfg.Workers = 0
	nw := sp.begin("gpu.new", setup)
	pipe, err := gpu.New(cfg, hdr.Width, hdr.Height)
	if err != nil {
		return err
	}
	res.NewS = append(res.NewS, sp.end(nw))
	res.SetupS = sp.end(setup)

	simS, led, err := simulate(pipe, cmds, t.Traced, res, sp)
	if err != nil {
		return err
	}
	res.SimS = simS
	out := sp.begin("outputs", 0)
	err = writeFile(filepath.Join(t.Out, "stats.csv"), pipe.DumpCSV)
	if err == nil {
		err = writeFile(filepath.Join(t.Out, "summary.txt"), pipe.DumpStats)
	}
	for i, fr := range pipe.Frames() {
		if err == nil {
			err = writeFile(filepath.Join(t.Out, fmt.Sprintf("frame%03d.ppm", i)), fr.WritePPM)
		}
	}
	if err != nil {
		return err
	}
	sp.end(out)
	res.RunS = time.Since(t0).Seconds()
	res.MakespanS = res.RunS - res.SetupS
	res.PeakRSSMB = peakRSSMB()
	res.Cycles = pipe.Cycles()
	res.Frames = len(pipe.Frames())

	// Untimed from here: the raw RGBA frames for the pixel-exact check
	// (PPM drops alpha), then the traced layers.
	for i, fr := range pipe.Frames() {
		if err := os.WriteFile(filepath.Join(t.Out, fmt.Sprintf("frame%03d.rgba", i)), fr.Pix, 0o644); err != nil {
			return err
		}
	}
	if !t.Traced {
		return nil
	}
	rep := led.report(simS)
	res.Layer = &rep
	res.Stats = pipe.Sim.Stats.Snapshot()
	ck, err := ckptRoundTrip(pipe, cfg, cmds, filepath.Join(t.Out, "machine.ckpt"), sp)
	if err != nil {
		return err
	}
	res.Ckpt = append(res.Ckpt, ck)
	return warmNews(cfg, hdr.Width, hdr.Height, res, sp)
}

// simulate runs the command stream, timing the call and the runtime's
// allocation and GC work inside it; traced runs time every box clock.
func simulate(pipe *gpu.Pipeline, cmds []gpu.Command, traced bool, res *childResult, sp *spanLog) (float64, *ledger, error) {
	var led *ledger
	if traced {
		led = newLedger(pipe.Sim.Boxes())
		pipe.Sim.SetClockObserver(led, 1)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := sp.begin("simulate", 0)
	err := pipe.Run(cmds, maxCycles)
	simS := sp.end(s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, nil, fmt.Errorf("simulate: %w", err)
	}
	res.Allocs += m1.Mallocs - m0.Mallocs
	res.GCPauseS += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	return simS, led, nil
}

// ckptRoundTrip checkpoints a finished (quiesced) machine, writes and
// reads the file back, restores it into a fresh pipeline and captures
// that pipeline again: every section must come back byte-identical.
func ckptRoundTrip(pipe *gpu.Pipeline, cfg gpu.Config, cmds []gpu.Command, path string, sp *spanLog) (ckptReport, error) {
	var ck ckptReport
	const label = "perfbench"
	s := sp.begin("chkpt.capture", 0)
	snap, err := pipe.Checkpoint(label)
	if err != nil {
		return ck, err
	}
	ck.CaptureS = sp.end(s)
	s = sp.begin("chkpt.write", 0)
	if err := snap.WriteFile(path); err != nil {
		return ck, err
	}
	ck.WriteS = sp.end(s)
	st, err := os.Stat(path)
	if err != nil {
		return ck, err
	}
	ck.Bytes = st.Size()
	s = sp.begin("chkpt.read", 0)
	back, err := chkpt.ReadFile(path)
	if err != nil {
		return ck, err
	}
	ck.ReadS = sp.end(s)
	fresh, err := gpu.New(cfg, pipe.Width(), pipe.Height())
	if err != nil {
		return ck, err
	}
	s = sp.begin("chkpt.restore", 0)
	if err := fresh.RestoreCheckpoint(back, cmds); err != nil {
		return ck, err
	}
	ck.RestoreS = sp.end(s)
	again, err := fresh.Checkpoint(label)
	if err != nil {
		return ck, err
	}
	ck.Same = sameSections(snap, again)
	return ck, os.Remove(path)
}

func sameSections(a, b *chkpt.Snapshot) bool {
	as, bs := a.Sections(), b.Sections()
	if len(as) != len(bs) {
		return false
	}
	for i, name := range as {
		if bs[i] != name || !bytes.Equal(a.Section(name), b.Section(name)) {
			return false
		}
	}
	return true
}

// warmNews times gpu.New on a heap that has already held and freed
// pipelines, as a long-lived server sees it.
func warmNews(cfg gpu.Config, w, h int, res *childResult, sp *spanLog) error {
	for i := 0; i < 3; i++ {
		runtime.GC()
		s := sp.begin("gpu.new", 0)
		if _, err := gpu.New(cfg, w, h); err != nil {
			return err
		}
		res.NewS = append(res.NewS, sp.end(s))
	}
	return nil
}

// runDirect runs every job of a sweep directly through gpu.New,
// workload.Build and Pipeline.Run, uninterrupted and unpreempted, and
// writes the stats CSVs and the summary jobd would write for them.
// Untraced, it is the reference the served sweep must reproduce.
func runDirect(t *task, res *childResult, sp *spanLog) error {
	specs, err := jobd.NormalizeSweep(t.Sweep)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var rows []jobd.SummaryRow
	var layer layerReport
	if t.Traced {
		res.Stats = map[string]float64{}
	}
	for _, js := range specs {
		job := sp.begin("job "+js.Name, 0)
		cfg, err := jobd.ResolveConfig(js.Config)
		if err != nil {
			return err
		}
		cfg.Workers = 0
		nw := sp.begin("gpu.new", job)
		pipe, err := gpu.New(cfg, js.Width, js.Height)
		if err != nil {
			return err
		}
		res.NewS = append(res.NewS, sp.end(nw))
		b := sp.begin("workload.build", job)
		cmds, _, err := workload.Build(js.Workload, pipe, workload.Params{
			Width: js.Width, Height: js.Height, Frames: js.Frames, Aniso: js.Aniso, Seed: js.Seed,
		})
		if err != nil {
			return err
		}
		res.BuildS = append(res.BuildS, sp.end(b))
		simS, led, err := simulate(pipe, cmds, t.Traced, res, sp)
		if err != nil {
			return fmt.Errorf("job %s: %w", js.Name, err)
		}
		res.SimS += simS
		res.Cycles += pipe.Cycles()
		if err := writeFile(filepath.Join(t.Out, js.Name+".csv"), pipe.DumpCSV); err != nil {
			return err
		}
		rows = append(rows, jobd.SummaryRow{
			Name: js.Name, Config: js.Config, Workload: js.Workload,
			State: jobd.StateDone, Cycles: pipe.Cycles(), FPS: pipe.FPS(),
		})
		res.Jobs = append(res.Jobs, jobResult{Name: js.Name, State: string(jobd.StateDone), Cycles: pipe.Cycles(), Attempts: 1})
		if t.Traced {
			layer.add(led.report(simS))
			for k, v := range pipe.Sim.Stats.Snapshot() {
				res.Stats[k] += v
			}
			ck, err := ckptRoundTrip(pipe, cfg, cmds, filepath.Join(t.Out, js.Name+".ckpt"), sp)
			if err != nil {
				return fmt.Errorf("job %s: %w", js.Name, err)
			}
			res.Ckpt = append(res.Ckpt, ck)
		}
		sp.end(job)
	}
	summary := jobd.RenderSummary(t.Sweep.Name, rows)
	if err := os.WriteFile(filepath.Join(t.Out, t.Sweep.Name+"-summary.txt"), summary, 0o644); err != nil {
		return err
	}
	res.RunS = time.Since(t0).Seconds()
	res.MakespanS = res.RunS
	res.PeakRSSMB = peakRSSMB()
	if t.Traced {
		res.Layer = &layer
	}
	return nil
}

// serveSweep starts a jobd server with one worker, submits the sweep
// as a unit and waits for its summary, watching every job from outside
// through JobStatus.
func serveSweep(t *task, res *childResult, sp *spanLog) error {
	t0 := time.Now()
	setup := sp.begin("setup", 0)
	s := sp.begin("jobd.start", setup)
	srv := jobd.New(jobd.Options{OutDir: t.Out, Workers: 1, QueueLimit: -1, PreemptCycles: t.PreemptCycles})
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	sp.end(s)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sweepSpan := sp.begin("sweep", 0)
	submitted := time.Now()
	sw, err := srv.SubmitSweep(t.Sweep)
	if err != nil {
		return err
	}
	jobs := make([]jobResult, len(t.Sweep.Jobs))
	jobSpans := make([]int, len(jobs))
	for i, js := range t.Sweep.Jobs {
		jobs[i] = jobResult{Name: js.Name, QueueWaitS: -1, TurnaroundS: -1}
		jobSpans[i] = sp.begin("job "+js.Name, sweepSpan)
	}
	// Set-up ends at the first simulated cycle: the queue is FIFO, so
	// the first job runs first, and its progress counter passes 0
	// once it has clocked a cycle.
	for {
		st, err := srv.JobStatus(jobs[0].Name)
		if err != nil {
			return err
		}
		if jobs[0].QueueWaitS < 0 && st.State != jobd.StateQueued {
			jobs[0].QueueWaitS = time.Since(submitted).Seconds()
		}
		if st.Cycle > 0 || (st.State != jobd.StateQueued && st.State != jobd.StateRunning) {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	res.SetupS = sp.end(setup)
	// Poll every job until each is terminal. The poll interval bounds
	// the resolution of queue wait and turnaround.
	for open := len(jobs); open > 0; {
		time.Sleep(time.Millisecond)
		for i := range jobs {
			j := &jobs[i]
			if j.TurnaroundS >= 0 {
				continue
			}
			st, err := srv.JobStatus(j.Name)
			if err != nil {
				return err
			}
			if j.QueueWaitS < 0 && st.State != jobd.StateQueued {
				j.QueueWaitS = time.Since(submitted).Seconds()
			}
			switch st.State {
			case jobd.StateDone, jobd.StateFailed, jobd.StateCanceled, jobd.StateLost:
				j.TurnaroundS = time.Since(submitted).Seconds()
				j.State, j.Cycles = string(st.State), st.Cycles
				j.Attempts, j.Preemptions = st.Attempts, st.Preemptions
				sp.end(jobSpans[i])
				open--
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.WaitSweep(ctx, sw); err != nil {
		return err
	}
	res.MakespanS = sp.end(sweepSpan)
	runtime.ReadMemStats(&m1)
	res.RunS = time.Since(t0).Seconds()
	res.PeakRSSMB = peakRSSMB()
	res.Allocs = m1.Mallocs - m0.Mallocs
	res.GCPauseS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	for _, j := range jobs {
		res.Cycles += j.Cycles
	}
	res.Jobs = jobs
	return nil
}
