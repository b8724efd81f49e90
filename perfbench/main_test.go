package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"attila/internal/gpu"
)

// The benchmark re-executes its own binary for every repetition; under
// go test that binary is the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		capProcs()
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// The metrics the benchmark prints are exactly the ones BENCHMARK.json
// declares, in the same order and units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	d := loadDeclared(t)
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, d.EndToEnd}, {"per_layer", perLayer, d.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: perfbench has %d metrics, BENCHMARK.json %d", c.what, len(c.got), len(c.want))
		}
		for i, m := range c.got {
			if m.name != c.want[i].Name || m.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: perfbench %s (%s), BENCHMARK.json %s (%s)", c.what, i, m.name, m.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// A short real run of the smallest workload, untraced and traced,
// prints every declared metric with its unit and passes its checks.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	d := loadDeclared(t)
	for _, traced := range []string{"0", "1"} {
		var out bytes.Buffer
		code := run([]string{"-workload", "table1-simple", "-seed", "3", "-seconds", "0.01", "-trace", traced}, &out)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]valueUnit
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: exit %d, last line not a result: %v\n%s", traced, code, err, out.String())
		}
		if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 3 {
			t.Fatalf("trace %s: exit %d, result %+v", traced, code, res)
		}
		want := d.EndToEnd
		if traced == "1" {
			want = d.PerLayer
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics printed, %d declared", traced, len(res.Metrics), len(want))
		}
		for _, w := range want {
			if got, ok := res.Metrics[w.Name]; !ok || got.Unit != w.Unit {
				t.Errorf("trace %s: metric %s printed as %+v (present %v), want unit %s", traced, w.Name, got, ok, w.Unit)
			}
			if !strings.Contains(out.String(), w.Name) {
				t.Errorf("trace %s: metric %s missing from the table", traced, w.Name)
			}
		}
	}
}

// writeReplay lays out one replay's outputs for a 2×2 frame.
func writeReplay(t *testing.T, dir string, fr *gpu.Frame) {
	t.Helper()
	var ppm bytes.Buffer
	if err := fr.WritePPM(&ppm); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"frame000.rgba": fr.Pix,
		"frame000.ppm":  ppm.Bytes(),
		"stats.csv":     []byte("cycle,a\n100,1\n200,2\n"),
		"summary.txt":   []byte("a,3\nb,4\n"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The replay check accepts a faithful output and the self-test rejects
// a check that accepts everything.
func TestReplayCheckRejectsDamage(t *testing.T) {
	fr := &gpu.Frame{W: 2, H: 2, Pix: []byte{1, 2, 3, 255, 4, 5, 6, 255, 7, 8, 9, 255, 10, 11, 12, 255}}
	dir := t.TempDir()
	writeReplay(t, dir, fr)
	check, err := newReplayCheck([]*gpu.Frame{fr})
	if err != nil {
		t.Fatal(err)
	}
	res := &childResult{Frames: 1, Cycles: 200}
	if probs := check.check(dir, res); len(probs) != 0 {
		t.Fatalf("faithful output rejected: %v", probs)
	}
	damage := []string{"frame000.rgba", "frame000.ppm", "stats.csv", "summary.txt"}
	if err := selfTest(dir, t.TempDir(), damage, func(d string) bool { return len(check.check(d, res)) == 0 }); err != nil {
		t.Fatal(err)
	}
	if err := selfTest(dir, t.TempDir(), damage, func(string) bool { return true }); err == nil {
		t.Fatal("self-test passed a check that accepts everything")
	}
	if probs := check.check(dir, &childResult{Frames: 1, Cycles: 201}); len(probs) == 0 {
		t.Fatal("a different cycle count was accepted")
	}
	if probs := check.check(dir, &childResult{Frames: 1, Cycles: 200, Ckpt: []ckptReport{{Same: false}}}); len(probs) == 0 {
		t.Fatal("a failed checkpoint round trip was accepted")
	}
	open := &layerReport{SimS: 1, BoxS: 0.5, LoopSelfS: 0.4, ResidualS: 0.1}
	if probs := check.check(dir, &childResult{Frames: 1, Cycles: 200, Layer: open}); len(probs) == 0 {
		t.Fatal("a ledger that does not close was accepted")
	}
}

// The sweep check accepts byte-identical outputs and rejects a tampered
// job CSV, a tampered summary and a job that did not finish.
func TestSweepCheckRejectsDamage(t *testing.T) {
	ref, got := t.TempDir(), t.TempDir()
	for _, dir := range []string{ref, got} {
		for name, data := range map[string]string{
			"a.csv": "cycle,x\n1,2\n", "b.csv": "cycle,x\n3,4\n", "s-summary.txt": "sweep s: 2 jobs\n",
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	jobs := []jobResult{{Name: "a", State: "done"}, {Name: "b", State: "done"}}
	check, err := loadSweepCheck(ref, "s", jobs)
	if err != nil {
		t.Fatal(err)
	}
	res := &childResult{Jobs: jobs}
	if failed, probs := check.check(got, res); failed != 0 || len(probs) != 0 {
		t.Fatalf("faithful sweep rejected: %d %v", failed, probs)
	}
	if err := selfTest(got, t.TempDir(), []string{"a.csv", "s-summary.txt"},
		func(d string) bool { _, probs := check.check(d, res); return len(probs) == 0 }); err != nil {
		t.Fatal(err)
	}
	lost := &childResult{Jobs: []jobResult{{Name: "a", State: "done"}, {Name: "b", State: "failed"}}}
	if failed, _ := check.check(got, lost); failed != 1 {
		t.Fatalf("failed job counted %d times, want 1", failed)
	}
}
