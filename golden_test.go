package attila_test

// Golden output digests: every simulated output byte of a fixed set of
// runs, pinned as SHA-256 digests recorded once and committed. The
// determinism tests elsewhere compare a build with itself (serial
// against parallel, restored against uninterrupted); this one compares
// the build with the recorded behaviour, so a host-side optimization
// that changes any simulated cycle, statistic or pixel fails here.
//
// Re-record only for a deliberate change of simulated behaviour:
//
//	go test -run '^TestGoldenOutputDigests$' -update-golden .

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"testing"

	"attila/internal/experiments"
	"attila/internal/gpu"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json from this build")

const goldenPath = "testdata/golden_digests.json"

// goldenDigest is what one run leaves behind: the cycle count and the
// digests of the stats CSV, the summary and each DAC frame's PPM.
type goldenDigest struct {
	Cycles  int64    `json:"cycles"`
	CSV     string   `json:"csv"`
	Summary string   `json:"summary"`
	Frames  []string `json:"frames"`
}

type goldenCase struct {
	name     string
	workload string
	cfg      func() gpu.Config
}

func goldenCases() []goldenCase {
	inOrder1TU := func(workers int) func() gpu.Config {
		return func() gpu.Config {
			cfg := gpu.CaseStudy(1, gpu.ScheduleInOrderQueue)
			cfg.Workers = workers
			return cfg
		}
	}
	return []goldenCase{
		{"baseline/simple", "simple", gpu.Baseline},
		{"baseline/doom3", "doom3", gpu.Baseline},
		{"baseline/ut2004", "ut2004", gpu.Baseline},
		{"casestudy-1tu-inorder/doom3/serial", "doom3", inOrder1TU(0)},
		{"casestudy-1tu-inorder/doom3/2workers", "doom3", inOrder1TU(2)},
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func goldenRun(t *testing.T, c goldenCase) goldenDigest {
	t.Helper()
	p := experiments.RunParams{
		Width: 128, Height: 96, Frames: 2, Aniso: 8, Seed: 1,
		MaxCycles: 500_000_000,
	}
	pipe := runWorkloadOnce(t, c.cfg(), c.workload, p)
	var csv, sum bytes.Buffer
	if err := pipe.DumpCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := pipe.DumpStats(&sum); err != nil {
		t.Fatal(err)
	}
	d := goldenDigest{Cycles: pipe.Cycles(), CSV: sha256Hex(csv.Bytes()), Summary: sha256Hex(sum.Bytes())}
	for _, fr := range pipe.Frames() {
		var ppm bytes.Buffer
		if err := fr.WritePPM(&ppm); err != nil {
			t.Fatal(err)
		}
		d.Frames = append(d.Frames, sha256Hex(ppm.Bytes()))
	}
	return d
}

func TestGoldenOutputDigests(t *testing.T) {
	want := map[string]goldenDigest{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	}
	got := map[string]goldenDigest{}
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			d := goldenRun(t, c)
			got[c.name] = d
			if *updateGolden {
				return
			}
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("no recorded digest for %s in %s", c.name, goldenPath)
			}
			if d.Cycles != w.Cycles {
				t.Errorf("cycles %d, recorded %d", d.Cycles, w.Cycles)
			}
			if d.CSV != w.CSV {
				t.Errorf("stats CSV digest %s, recorded %s", d.CSV, w.CSV)
			}
			if d.Summary != w.Summary {
				t.Errorf("summary digest %s, recorded %s", d.Summary, w.Summary)
			}
			if !slices.Equal(d.Frames, w.Frames) {
				t.Errorf("frame digests %v, recorded %v", d.Frames, w.Frames)
			}
		})
	}
	if *updateGolden && !t.Failed() {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
