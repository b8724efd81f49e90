// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, runs it repeatedly for a wall-clock
// budget with every repetition in a fresh process, checks every
// output, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer host-time ledger — as the last line of standard output:
//
//	bash perfbench/run.sh --workload table1-simple --seed 1 --seconds 20 --trace 0
//
// It exits non-zero when any output is wrong. README.md describes the
// workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"attila/internal/jobd"
	"attila/internal/refrender"
)

// childTimeout bounds one repetition.
const childTimeout = 150 * time.Second

func main() {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		capProcs()
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is one invocation; the result goes to stdout, diagnostics to
// standard error.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "wall-clock budget for the timed repetitions")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def := workloads[*name]
	if def == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	capProcs()
	root := filepath.Join(".bench_build", "perfbench")
	b := &bench{
		def:    def,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		traced: *traced == 1,
		exe:    exe,
		host:   describeHost(),
		work:   filepath.Join(root, fmt.Sprintf("work-%s-seed%d-%d", def.name, *seed, os.Getpid())),
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	var m map[string]float64
	if def.sweep {
		m, err = b.runSweep()
	} else {
		m, err = b.runReplay()
	}
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	out := make(map[string]valueUnit, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		out[d.name] = valueUnit{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(stdout, "%-36s %16.6g %s (%d of %d operations)\n", "failed_ratio",
		float64(b.failed)/float64(max(b.attempted, 1)), "ratio", b.failed, b.attempted)
	hostLine, _ := json.Marshal(map[string]any{"host": b.host, "workload": def.name, "seed": b.seed, "trace": *traced})
	fmt.Fprintln(stdout, string(hostLine))
	if err := b.writeTrace(root, *traced, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
		return 1
	}
	correct := b.failed == 0 && len(b.problems) == 0
	final, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{correct, b.attempted, b.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(final))
	if !correct {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// bench is one invocation: a workload, a seed and a time budget.
type bench struct {
	def    *workloadDef
	seed   int64
	budget time.Duration
	traced bool
	exe    string
	host   hostInfo
	work   string

	spans      spanLog
	childSpans []span
	children   int

	attempted, failed int
	problems          []string
}

// fail records a failed or incorrect operation.
func (b *bench) fail(n int, why ...string) {
	b.failed += n
	b.problems = append(b.problems, why...)
}

// rep is one finished child: its own report and the turnaround the
// parent saw from spawning it to its exit.
type rep struct {
	res        *childResult
	dir        string
	turnaround float64
}

// spawn runs one task in a fresh process with pinned runtime settings.
func (b *bench) spawn(t task) (rep, error) {
	b.children++
	t.Label = fmt.Sprintf("%s-%d", t.Mode, b.children)
	if t.Traced {
		t.Label += "-traced"
	}
	t.Out = filepath.Join(b.work, t.Label)
	if err := os.MkdirAll(t.Out, 0o755); err != nil {
		return rep{}, err
	}
	data, err := json.Marshal(t)
	if err != nil {
		return rep{}, err
	}
	taskPath := filepath.Join(t.Out, "task.json")
	if err := os.WriteFile(taskPath, data, 0o644); err != nil {
		return rep{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, "-child", taskPath)
	cmd.Env = childEnv(b.host.GOMAXPROCS)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	s := b.spans.begin("child "+t.Label, 0)
	err = cmd.Run()
	turnaround := b.spans.end(s)
	if err != nil {
		return rep{}, fmt.Errorf("%s: %w", t.Label, err)
	}
	var res childResult
	data, err = os.ReadFile(filepath.Join(t.Out, "result.json"))
	if err == nil {
		err = json.Unmarshal(data, &res)
	}
	if err != nil {
		return rep{}, fmt.Errorf("%s: %w", t.Label, err)
	}
	b.childSpans = append(b.childSpans, res.Spans...)
	return rep{res: &res, dir: t.Out, turnaround: turnaround}, nil
}

// childEnv pins the runtime settings that change host timings: the
// CPU count and the collector's defaults.
func childEnv(procs int) []string {
	var env []string
	for _, kv := range os.Environ() {
		k, _, _ := strings.Cut(kv, "=")
		switch k {
		case "GOMAXPROCS", "GOGC", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return append(env, "GOMAXPROCS="+strconv.Itoa(procs))
}

// timed reports whether another repetition should start, given how
// many have started: until the budget is spent, and at least minReps
// times.
func (b *bench) timed(start time.Time, done int) bool {
	return done < b.def.minReps || time.Since(start) < b.budget
}

// runReplay measures a trace-replay workload: each repetition is one
// cold attilasim-style run. Traced invocations alternate untraced and
// traced repetitions, so the tracing overhead is measured under the
// same conditions.
func (b *bench) runReplay() (map[string]float64, error) {
	tracePath := filepath.Join(b.work, "input.attila")
	s := b.spans.begin("inputs", 0)
	cmds, hdr, buildS, err := b.def.makeTrace(b.seed, tracePath)
	if err != nil {
		return nil, err
	}
	b.spans.end(s)
	st, err := os.Stat(tracePath)
	if err != nil {
		return nil, err
	}
	cfg, err := jobd.ResolveConfig(b.def.config)
	if err != nil {
		return nil, err
	}
	s = b.spans.begin("refrender", 0)
	ref := refrender.New(cfg.GPUMemBytes, hdr.Width, hdr.Height)
	if err := ref.Execute(cmds); err != nil {
		return nil, fmt.Errorf("reference renderer: %w", err)
	}
	renderS := b.spans.end(s)
	check, err := newReplayCheck(ref.Frames())
	if err != nil {
		return nil, err
	}

	var plain, traced []rep
	start := time.Now()
	for i := 0; b.timed(start, i); i++ {
		tr := b.traced && i%2 == 1
		r, err := b.spawn(task{Mode: modeReplay, Traced: tr, Trace: tracePath, Config: b.def.config})
		b.attempted++
		if err != nil {
			b.fail(1, err.Error())
			continue
		}
		if probs := check.check(r.dir, r.res); len(probs) > 0 {
			b.fail(1, prefix(r.dir, probs)...)
			continue
		}
		if len(plain)+len(traced) == 0 {
			err := selfTest(r.dir, b.work, []string{"frame000.rgba", "frame000.ppm", "stats.csv", "summary.txt"},
				func(dir string) bool { return len(check.check(dir, r.res)) == 0 })
			if err != nil {
				b.fail(0, err.Error())
			}
		}
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) == 0 || (b.traced && len(traced) == 0) {
		return nil, errors.New("no repetition succeeded")
	}
	m := map[string]float64{
		"setup_s":              med(plain, func(r rep) float64 { return r.res.SetupS }),
		"run_s":                med(plain, func(r rep) float64 { return r.res.RunS }),
		"sim_cycles_per_s":     med(plain, func(r rep) float64 { return float64(r.res.Cycles) / r.res.SimS }),
		"sweep_makespan_s":     med(plain, func(r rep) float64 { return r.res.MakespanS }),
		"job_turnaround_p50_s": med(plain, func(r rep) float64 { return r.turnaround }),
		"peak_rss_mb":          med(plain, func(r rep) float64 { return r.res.PeakRSSMB }),
	}
	if b.traced {
		all := append(append([]rep(nil), plain...), traced...)
		m["gpu.new_s"] = med(all, func(r rep) float64 { return r.res.NewS[0] })
		m["trace.decode_s"] = med(all, func(r rep) float64 { return r.res.DecodeS })
		m["trace.bytes"] = float64(st.Size())
		m["workload.build_s"] = buildS
		m["refrender.render_s"] = renderS
		for k, v := range layerMetrics(plain, traced) {
			m[k] = v
		}
		for _, k := range []string{"jobd.preemptions", "jobd.attempts", "jobd.queue_wait_p50_s"} {
			m[k] = 0 // not exercised: no job server on this workload
		}
	}
	return m, nil
}

// runSweep measures fig7-sweep: each repetition serves the whole
// sweep from a fresh jobd server. The reference is the same jobs run
// directly, uninterrupted; traced invocations rotate served sweeps
// with traced and untraced direct runs.
func (b *bench) runSweep() (map[string]float64, error) {
	s := b.spans.begin("inputs", 0)
	spec := fig7Spec(b.seed)
	b.spans.end(s)
	refRep, err := b.spawn(task{Mode: modeDirect, Sweep: spec})
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	check, err := loadSweepCheck(refRep.dir, spec.Name, refRep.res.Jobs)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	served, direct, traced := []rep{}, []rep{refRep}, []rep{}
	start := time.Now()
	for i, sweeps := 0, 0; b.timed(start, sweeps); i++ {
		t := task{Mode: modeSweep, Sweep: spec, PreemptCycles: fig7PreemptCycles}
		if b.traced && i%3 != 0 {
			t = task{Mode: modeDirect, Sweep: spec, Traced: i%3 == 1}
		} else {
			sweeps++
		}
		r, err := b.spawn(t)
		b.attempted += len(spec.Jobs)
		if err != nil {
			b.fail(len(spec.Jobs), err.Error())
			continue
		}
		failed, probs := check.check(r.dir, r.res)
		if len(probs) > 0 {
			b.fail(max(failed, 1), prefix(r.dir, probs)...)
			continue
		}
		if t.Mode == modeSweep && len(served) == 0 {
			err := selfTest(r.dir, b.work, []string{spec.Jobs[0].Name + ".csv", spec.Name + "-summary.txt"},
				func(dir string) bool { _, probs := check.check(dir, r.res); return len(probs) == 0 })
			if err != nil {
				b.fail(0, err.Error())
			}
		}
		if err := os.RemoveAll(r.dir); err != nil {
			return nil, err
		}
		switch {
		case t.Mode == modeSweep:
			served = append(served, r)
		case t.Traced:
			traced = append(traced, r)
		default:
			direct = append(direct, r)
		}
	}
	if len(served) == 0 || (b.traced && len(traced) == 0) {
		return nil, errors.New("no repetition succeeded")
	}
	m := map[string]float64{
		"setup_s":              med(served, func(r rep) float64 { return r.res.SetupS }),
		"run_s":                med(served, func(r rep) float64 { return r.res.RunS }),
		"sim_cycles_per_s":     med(served, func(r rep) float64 { return float64(r.res.Cycles) / r.res.MakespanS }),
		"sweep_makespan_s":     med(served, func(r rep) float64 { return r.res.MakespanS }),
		"job_turnaround_p50_s": med(served, func(r rep) float64 { return jobMedian(r, func(j jobResult) float64 { return j.TurnaroundS }) }),
		"peak_rss_mb":          med(served, func(r rep) float64 { return r.res.PeakRSSMB }),
	}
	if b.traced {
		all := append(append([]rep(nil), direct...), traced...)
		m["gpu.new_s"] = med(all, func(r rep) float64 { return r.res.NewS[0] })
		m["trace.decode_s"] = 0 // not exercised: jobs build their commands through the GL driver
		m["trace.bytes"] = 0
		m["workload.build_s"] = med(all, func(r rep) float64 { return median(r.res.BuildS) })
		m["refrender.render_s"] = 0 // not exercised: the oracle is the uninterrupted run
		for k, v := range layerMetrics(direct, traced) {
			m[k] = v
		}
		// The served sweeps, not the direct runs, carry the host
		// runtime and job-server numbers.
		m["host.allocs_per_kcycle"] = med(served, func(r rep) float64 { return 1000 * float64(r.res.Allocs) / float64(r.res.Cycles) })
		m["host.gc_pause_s"] = med(served, func(r rep) float64 { return r.res.GCPauseS })
		m["jobd.preemptions"] = med(served, func(r rep) float64 { return jobSum(r, func(j jobResult) int { return j.Preemptions }) })
		m["jobd.attempts"] = med(served, func(r rep) float64 { return jobSum(r, func(j jobResult) int { return j.Attempts }) })
		m["jobd.queue_wait_p50_s"] = med(served, func(r rep) float64 { return jobMedian(r, func(j jobResult) float64 { return j.QueueWaitS }) })
	}
	return m, nil
}

func prefix(dir string, probs []string) []string {
	out := make([]string, len(probs))
	for i, p := range probs {
		out[i] = filepath.Base(dir) + ": " + p
	}
	return out
}

func med(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, 0, len(reps))
	for _, r := range reps {
		xs = append(xs, f(r))
	}
	return median(xs)
}

func jobMedian(r rep, f func(jobResult) float64) float64 {
	xs := make([]float64, 0, len(r.res.Jobs))
	for _, j := range r.res.Jobs {
		xs = append(xs, f(j))
	}
	return median(xs)
}

func jobSum(r rep, f func(jobResult) int) float64 {
	n := 0
	for _, j := range r.res.Jobs {
		n += f(j)
	}
	return float64(n)
}

// writeTrace writes the spans of this invocation, the parent's and
// every child's, with the host and the metrics, once at the end.
func (b *bench) writeTrace(root string, traced int, metrics map[string]valueUnit) error {
	dir := filepath.Join(root, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range b.spans.spans {
		b.spans.spans[i].Process = "parent"
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload": b.def.name, "seed": b.seed, "trace": traced, "host": b.host,
		"attempted": b.attempted, "failed": b.failed, "problems": b.problems,
		"metrics": metrics, "spans": append(b.spans.spans, b.childSpans...),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", b.def.name, b.seed, traced)), data, 0o644)
}
